//! Property-based tests (proptest) over randomly generated well-typed
//! programs. Each property is one of the paper's ∀-statements (or a standard
//! metatheoretic invariant the proofs rely on), instantiated at random
//! programs drawn from the type-directed generator.

use cccc::compiler::verify::{
    check_compositionality, check_reduction_preservation, check_type_preservation,
    check_whole_program,
};
use cccc::model::verify::check_round_trip;
use cccc::source::{self, generate::TermGenerator, reduce, subst, typecheck, Env, Term};
use cccc::target;
use proptest::prelude::*;

fn generator(seed: u64) -> TermGenerator {
    TermGenerator::new(seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every generated program type checks at its goal type (a soundness
    /// check on the generator that everything else relies on).
    #[test]
    fn prop_generated_programs_type_check(seed in any::<u64>()) {
        let (term, ty) = generator(seed).gen_program();
        prop_assert!(typecheck::check(&Env::new(), &term, &ty).is_ok());
    }

    /// Normalization is idempotent and sound with respect to definitional
    /// equivalence.
    #[test]
    fn prop_normalization_is_idempotent(seed in any::<u64>()) {
        let term = generator(seed).gen_ground_program();
        let once = reduce::normalize_default(&Env::new(), &term);
        let twice = reduce::normalize_default(&Env::new(), &once);
        prop_assert!(subst::alpha_eq(&once, &twice));
        prop_assert!(source::equiv::definitionally_equal(&Env::new(), &term, &once));
    }

    /// Subject reduction: one step of reduction preserves the type.
    #[test]
    fn prop_subject_reduction(seed in any::<u64>()) {
        let term = generator(seed).gen_ground_program();
        let ty = typecheck::infer(&Env::new(), &term).unwrap();
        if let Some(next) = reduce::step(&Env::new(), &term) {
            prop_assert!(typecheck::check(&Env::new(), &next, &ty).is_ok());
        }
    }

    /// The substitution lemma: substituting a well-typed closed term for a
    /// variable preserves typing.
    #[test]
    fn prop_substitution_lemma(seed in any::<u64>()) {
        let (env, term, gamma) = generator(seed).gen_open_component(3);
        let ty = typecheck::infer(&env, &term).unwrap();
        prop_assert!(matches!(ty, Term::BoolTy));
        let closed = subst::subst_all(&term, &gamma);
        prop_assert!(typecheck::check(&Env::new(), &closed, &Term::BoolTy).is_ok());
    }

    /// Theorem 5.6: type preservation of closure conversion.
    #[test]
    fn prop_type_preservation(seed in any::<u64>()) {
        let (term, _ty) = generator(seed).gen_program();
        prop_assert!(check_type_preservation(&Env::new(), &term).is_ok());
    }

    /// Theorem 5.6 on open components.
    #[test]
    fn prop_type_preservation_open(seed in any::<u64>()) {
        let (env, term, _gamma) = generator(seed).gen_open_component(3);
        prop_assert!(check_type_preservation(&env, &term).is_ok());
    }

    /// Lemma 5.1: compositionality for each binding of a generated closing
    /// substitution.
    #[test]
    fn prop_compositionality(seed in any::<u64>()) {
        let (env, term, gamma) = generator(seed).gen_open_component(2);
        for (x, replacement) in &gamma {
            prop_assert!(check_compositionality(&env, &term, *x, replacement).is_ok());
        }
    }

    /// Lemmas 5.2/5.3: reduction preservation along a bounded prefix of the
    /// reduction sequence.
    #[test]
    fn prop_reduction_preservation(seed in any::<u64>()) {
        let term = generator(seed).gen_ground_program();
        prop_assert!(check_reduction_preservation(&Env::new(), &term, 16).is_ok());
    }

    /// Corollary 5.8: whole-program correctness on generated ground programs.
    #[test]
    fn prop_whole_program_correctness(seed in any::<u64>()) {
        let term = generator(seed).gen_ground_program();
        let source_value = reduce::normalize_default(&Env::new(), &term);
        let observed = check_whole_program(&term).unwrap();
        prop_assert!(matches!(source_value, Term::BoolLit(b) if b == observed));
    }

    /// §6 round trip: the model undoes the compiler up to ≡.
    #[test]
    fn prop_round_trip(seed in any::<u64>()) {
        let term = generator(seed).gen_ground_program();
        prop_assert!(check_round_trip(&Env::new(), &term).is_ok());
    }

    /// Every piece of code produced by the translation is closed — the
    /// syntactic invariant rule [Code] checks.
    #[test]
    fn prop_translated_code_is_closed(seed in any::<u64>()) {
        let (env, term, _gamma) = generator(seed).gen_open_component(3);
        let translated = cccc::compiler::translate(&env, &term).unwrap();
        let mut all_closed = true;
        translated.visit(&mut |node| {
            if matches!(node, target::Term::Code { .. }) && !target::subst::is_closed(node) {
                all_closed = false;
            }
        });
        prop_assert!(all_closed);
    }

    /// The closed-term typing memo never changes a CC-CC typing verdict:
    /// on closure-converted programs, every code block, and one ill-typed
    /// self-application per program, a cold memo and a memo warmed by the
    /// other programs give α-equivalent types, and the step engine agrees.
    #[test]
    fn prop_closed_memo_state_never_changes_a_verdict(seed in any::<u64>()) {
        let mut terms = Vec::new();
        for offset in 0..4 {
            let (program, _ty) = generator(seed.wrapping_add(offset)).gen_program();
            let (translated, _) = cccc::compiler::translate_program(&program).unwrap();
            translated.visit(&mut |node| {
                if matches!(node, target::Term::Code { .. }) {
                    terms.push(node.clone().rc());
                }
            });
            terms.push(target::builder::app(translated.clone(), translated.clone()).rc());
            terms.push(translated.rc());
        }
        let env = target::Env::new();
        let cold: Vec<_> = terms
            .iter()
            .map(|t| {
                cccc::Compiler::reset_caches();
                target::typecheck::infer(&env, t)
            })
            .collect();
        cccc::Compiler::reset_caches();
        for reversed in [false, true] {
            let mut order: Vec<usize> = (0..terms.len()).collect();
            if reversed {
                order.reverse();
            }
            for i in order {
                let warm = target::typecheck::infer(&env, &terms[i]);
                match (&cold[i], &warm) {
                    (Ok(c), Ok(w)) => prop_assert!(target::subst::alpha_eq(c, w), "{c} vs {w}"),
                    (Err(c), Err(w)) => prop_assert_eq!(c.code(), w.code()),
                    _ => prop_assert!(false, "cold {:?} vs warm {:?}", cold[i], warm),
                }
                let step = target::typecheck::infer_with_engine(
                    &env,
                    &terms[i],
                    target::equiv::Engine::Step,
                );
                prop_assert_eq!(warm.is_ok(), step.is_ok());
            }
        }
    }

    /// The number of closures equals the number of source λ-abstractions.
    #[test]
    fn prop_closure_count_matches_lambda_count(seed in any::<u64>()) {
        let (term, _ty) = generator(seed).gen_program();
        let translated = cccc::compiler::translate(&Env::new(), &term).unwrap();
        prop_assert_eq!(term.lambda_count(), translated.closure_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// α-equivalence is an equivalence relation on generated terms, and
    /// capture-avoiding substitution of a fresh variable then back again is
    /// the identity (a renaming round trip).
    #[test]
    fn prop_alpha_and_renaming(seed in any::<u64>()) {
        let (term, _) = generator(seed).gen_program();
        prop_assert!(subst::alpha_eq(&term, &term));
        let fresh = cccc::util::Symbol::fresh("renamed");
        for free in subst::free_vars(&term) {
            let there = subst::rename(&term, free, fresh);
            let back = subst::rename(&there, fresh, free);
            prop_assert!(subst::alpha_eq(&term, &back));
        }
    }

    /// Pretty-printing and re-parsing is the identity up to α-equivalence.
    #[test]
    fn prop_parser_round_trip(seed in any::<u64>()) {
        let (term, _) = generator(seed).gen_program();
        let printed = source::pretty::term_to_string(&term);
        let reparsed = source::parse::parse_term(&printed).unwrap();
        prop_assert!(subst::alpha_eq(&term, &reparsed), "printed as {printed}");
    }
}
