//! Theorem 5.6 (Type preservation) validated end to end: the translation of
//! every well-typed CC program — hand-written, parsed from text, randomly
//! generated, closed or open — type checks in CC-CC at the translation of
//! its CC type.

use cccc::compiler::verify::check_type_preservation;
use cccc::source::{self, builder as s, generate::TermGenerator, parse, prelude, Env, Term};
use cccc::util::Symbol;
use cccc::Compiler;

/// Theorem 5.6 on one program, checked by the metatheory oracle
/// [`check_type_preservation`]; the compiler pipeline must accept the same
/// program and report the oracle's `A⁺` as its target type, so the oracle
/// judges the pipeline rather than duplicating it.
fn assert_preserved(env: &Env, term: &Term, label: &str) {
    let evidence = check_type_preservation(env, term)
        .unwrap_or_else(|e| panic!("Theorem 5.6 failed on {label}: {e}\n{term}"));
    let compilation = Compiler::new()
        .compile(env, term)
        .unwrap_or_else(|e| panic!("the pipeline rejected {label}, which the oracle accepts: {e}"));
    assert!(
        cccc::target::subst::alpha_eq(&compilation.target_type, &evidence.expected_target_type),
        "{label}: pipeline target type `{}` is not the oracle's `{}`",
        compilation.target_type,
        evidence.expected_target_type
    );
}

#[test]
fn type_preservation_on_the_corpus() {
    for entry in prelude::corpus() {
        assert_preserved(&Env::new(), &entry.term, &format!("`{}`", entry.name));
    }
}

#[test]
fn type_preservation_on_surface_syntax_programs() {
    let programs = [
        "\\(A : *). \\(x : A). x",
        "\\(A : *). \\(B : *). \\(f : A -> B). \\(x : A). f x",
        "\\(p : Sigma (x : Bool). Bool). <snd p, fst p> as (Sigma (y : Bool). Bool)",
        "let not = \\(b : Bool). if b then false else true : Bool -> Bool in not (not false)",
        "\\(A : *). \\(pair : Sigma (x : A). Bool). fst pair",
        "(\\(f : Pi (A : *). Pi (x : A). A). f Bool true) (\\(A : *). \\(x : A). x)",
    ];
    for text in programs {
        let term = parse::parse_term(text).unwrap();
        check_type_preservation(&Env::new(), &term)
            .unwrap_or_else(|e| panic!("Theorem 5.6 failed on `{text}`: {e}"));
    }
}

#[test]
fn type_preservation_on_dependently_typed_open_components() {
    // Γ = A : ⋆, P : A → ⋆, a : A, pf : P a — a component capturing a value
    // and a proof about it, the configuration that breaks the existential-
    // type encoding (§3.1).
    let env = Env::new()
        .with_assumption(Symbol::intern("A"), s::star())
        .with_assumption(Symbol::intern("P"), s::pi("x", s::var("A"), s::star()))
        .with_assumption(Symbol::intern("a"), s::var("A"))
        .with_assumption(Symbol::intern("pf"), s::app(s::var("P"), s::var("a")));

    let components = [
        // λ x : A. a                    (captures a value of abstract type)
        s::lam("x", s::var("A"), s::var("a")),
        // λ x : P a. pf                 (captures a proof, type mentions a and P)
        s::lam("x", s::app(s::var("P"), s::var("a")), s::var("pf")),
        // λ x : A. ⟨a, pf⟩              (dependent pair of captured data)
        s::lam(
            "x",
            s::var("A"),
            s::pair(
                s::var("a"),
                s::var("pf"),
                s::sigma("y", s::var("A"), s::app(s::var("P"), s::var("y"))),
            ),
        ),
        // A nested function whose inner closure captures the outer argument
        // as well as the ambient variables.
        s::lam("x", s::var("A"), s::lam("q", s::app(s::var("P"), s::var("x")), s::var("q"))),
    ];
    for (index, component) in components.iter().enumerate() {
        check_type_preservation(&env, component)
            .unwrap_or_else(|e| panic!("Theorem 5.6 failed on dependent component {index}: {e}"));
    }
}

#[test]
fn type_preservation_on_type_level_computation() {
    // Types that compute: the translated program must still check even when
    // conversion has to run translated closures inside types.
    let type_family =
        s::lam("b", s::bool_ty(), s::ite(s::var("b"), s::bool_ty(), prelude::church_nat_ty()));
    let env = Env::new();
    // λ b : Bool. λ x : F true. x   where F is the family above.
    let program = s::let_(
        "F",
        s::arrow(s::bool_ty(), s::star()),
        type_family,
        s::lam("x", s::app(s::var("F"), s::tt()), s::var("x")),
    );
    check_type_preservation(&env, &program).unwrap();
}

#[test]
fn type_preservation_on_generated_closed_programs() {
    let mut generator = TermGenerator::new(2024);
    for i in 0..60 {
        let (term, _ty) = generator.gen_program();
        assert_preserved(&Env::new(), &term, &format!("generated program {i}"));
    }
}

#[test]
fn type_preservation_on_generated_open_components() {
    let mut generator = TermGenerator::new(777);
    for i in 0..25 {
        let (env, term, _gamma) = generator.gen_open_component(4);
        assert_preserved(&env, &term, &format!("open component {i}"));
    }
}

#[test]
fn the_environment_translation_is_well_formed() {
    // Part 1 of Lemma 5.5: ⊢ Γ implies ⊢ Γ⁺.
    let mut generator = TermGenerator::new(31337);
    for _ in 0..15 {
        let (env, _term, _gamma) = generator.gen_open_component(5);
        assert!(source::typecheck::check_env(&env).is_ok());
        let translated = cccc::compiler::translate_env(&env).unwrap();
        assert!(cccc::target::typecheck::check_env(&translated).is_ok());
    }
}

#[test]
fn preservation_failure_is_detectable() {
    // Sanity-check the checker itself: an ill-typed source program is
    // reported as a premise failure, not silently accepted — and the
    // pipeline rejects it too.
    let ill_typed = s::app(s::tt(), s::ff());
    assert!(check_type_preservation(&Env::new(), &ill_typed).is_err());
    assert!(Compiler::new().compile(&Env::new(), &ill_typed).is_err());
}
