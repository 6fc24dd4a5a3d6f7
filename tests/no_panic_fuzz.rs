//! Adversarial no-panic fuzzing: well-typed generated programs are
//! corrupted at the token level (mangled pretty-printed text) and at the
//! AST level (spliced sentinels, unbound variables, swapped binders,
//! deleted annotations), then driven through the whole pipeline — strict
//! and keep-going, parse → typecheck → translate → verify. The gate is
//! threefold: nothing panics, the strict and tolerant front ends never
//! disagree about whether a program is broken, and on sentinel-free input
//! the first tolerant diagnostic is the strict error (first-error parity).

use cccc::compiler::pipeline::diagnostic_of_compile_error;
use cccc::source::{
    self, builder as s, generate::TermGenerator, pretty::term_to_string, Env, Term,
};
use cccc::target;
use cccc::util::symbol::Symbol;
use cccc::{Compiler, Diagnostic};
use proptest::prelude::*;

/// Deterministic splitmix64 — corruption choices must replay from the
/// proptest seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Token-level corruption: truncate, delete a slice, double a slice, or
/// splice a keyword/punctuation fragment at a random char boundary.
fn corrupt_text(text: &str, rng: &mut Rng) -> String {
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
    let at = |rng: &mut Rng| boundaries[rng.below(boundaries.len())];
    match rng.next() % 4 {
        0 => text[..at(rng)].to_owned(),
        1 => {
            let (a, b) = (at(rng), at(rng));
            let (lo, hi) = (a.min(b), a.max(b));
            format!("{}{}", &text[..lo], &text[hi..])
        }
        2 => {
            let (a, b) = (at(rng), at(rng));
            let (lo, hi) = (a.min(b), a.max(b));
            format!("{}{}{}", &text[..hi], &text[lo..hi], &text[hi..])
        }
        _ => {
            const SPLICES: &[&str] = &[")", "(", "then", ".", "\\(", "if", "->", ":", "<", "as"];
            let pos = at(rng);
            format!("{}{}{}", &text[..pos], SPLICES[rng.below(SPLICES.len())], &text[pos..])
        }
    }
}

fn node_count(term: &Term) -> usize {
    let children: Vec<&Term> = match term {
        Term::Var(_) | Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => Vec::new(),
        Term::Pi { domain, codomain, .. } => vec![domain, codomain],
        Term::Lam { domain, body, .. } => vec![domain, body],
        Term::App { func, arg } => vec![func, arg],
        Term::Let { annotation, bound, body, .. } => vec![annotation, bound, body],
        Term::Sigma { first, second, .. } => vec![first, second],
        Term::Pair { first, second, annotation } => vec![first, second, annotation],
        Term::Fst(e) | Term::Snd(e) => vec![e],
        Term::If { scrutinee, then_branch, else_branch } => {
            vec![scrutinee, then_branch, else_branch]
        }
    };
    1 + children.into_iter().map(node_count).sum::<usize>()
}

/// One of the corruption moves, applied at a node the walk landed on.
fn smash(term: &Term, rng: &mut Rng) -> Term {
    match rng.next() % 8 {
        // Splice in the tolerant checker's own sentinel.
        0 => source::tolerant::error_term(),
        // An unbound variable the generator never emits.
        1 => s::var("__fuzz_unbound"),
        // A universe where a term (or a term where a type) stood.
        2 => s::star(),
        3 => s::boxu(),
        // Apply a boolean literal: always ill-typed, never ill-formed.
        4 => s::app(s::tt(), term.clone()),
        // Rename a binder without renaming its uses (or vice versa).
        5 => match term {
            Term::Lam { domain, body, .. } => {
                s::lam_sym(Symbol::intern("__fuzz_swapped"), (**domain).clone(), (**body).clone())
            }
            Term::Pi { domain, codomain, .. } => s::pi_sym(
                Symbol::intern("__fuzz_swapped"),
                (**domain).clone(),
                (**codomain).clone(),
            ),
            other => s::fst(other.clone()),
        },
        // Delete (well: mangle) the annotation that typing relies on.
        6 => match term {
            Term::Lam { binder, body, .. } => s::lam_sym(*binder, s::star(), (**body).clone()),
            Term::Let { binder, bound, body, .. } => {
                s::let_sym(*binder, s::star(), (**bound).clone(), (**body).clone())
            }
            Term::Pair { first, second, .. } => {
                s::pair((**first).clone(), (**second).clone(), s::bool_ty())
            }
            other => s::snd(other.clone()),
        },
        // Swap two subterms that almost certainly have different types.
        _ => match term {
            Term::App { func, arg } => s::app((**arg).clone(), (**func).clone()),
            Term::If { scrutinee, then_branch, else_branch } => {
                s::ite((**then_branch).clone(), (**scrutinee).clone(), (**else_branch).clone())
            }
            Term::Let { binder, annotation, bound, body } => {
                s::let_sym(*binder, (**bound).clone(), (**annotation).clone(), (**body).clone())
            }
            other => s::ite(other.clone(), other.clone(), other.clone()),
        },
    }
}

/// Rebuilds `term` with `smash` applied at the `target`-th node of a
/// preorder walk.
fn corrupt_at(term: &Term, target: usize, counter: &mut usize, rng: &mut Rng) -> Term {
    let here = *counter;
    *counter += 1;
    if here == target {
        return smash(term, rng);
    }
    let mut go = |child: &Term| corrupt_at(child, target, counter, rng);
    match term {
        Term::Var(_) | Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => term.clone(),
        Term::Pi { binder, domain, codomain } => s::pi_sym(*binder, go(domain), go(codomain)),
        Term::Lam { binder, domain, body } => s::lam_sym(*binder, go(domain), go(body)),
        Term::App { func, arg } => s::app(go(func), go(arg)),
        Term::Let { binder, annotation, bound, body } => {
            s::let_sym(*binder, go(annotation), go(bound), go(body))
        }
        Term::Sigma { binder, first, second } => s::sigma_sym(*binder, go(first), go(second)),
        Term::Pair { first, second, annotation } => s::pair(go(first), go(second), go(annotation)),
        Term::Fst(e) => s::fst(go(e)),
        Term::Snd(e) => s::snd(go(e)),
        Term::If { scrutinee, then_branch, else_branch } => {
            s::ite(go(scrutinee), go(then_branch), go(else_branch))
        }
    }
}

fn corrupt_ast(term: &Term, rng: &mut Rng) -> Term {
    let target = rng.below(node_count(term));
    corrupt_at(term, target, &mut 0, rng)
}

/// `text` with every fresh-name suffix (`$` and its digits) erased and
/// every whitespace run collapsed to one space: two runs number their fresh
/// binders from one global counter, so the same type can print as `x$12`
/// in one and `x$140` in the other, and the longer name can move the
/// pretty-printer's line breaks.
fn erase_fresh(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            while chars.next_if(|c| c.is_whitespace()).is_some() {}
            out.push(' ');
            continue;
        }
        out.push(c);
        if c == '$' {
            while chars.next_if(char::is_ascii_digit).is_some() {}
        }
    }
    out
}

/// First-error parity: the collecting checker runs the same rules as the
/// fail-fast one, so its first diagnostic is the strict error, cut off at
/// the first report — same code, same message up to fresh names and
/// layout.
fn check_first_error_parity(strict: &Diagnostic, collected: &[Diagnostic], what: &str) {
    let first = collected.first().unwrap_or_else(|| panic!("no diagnostics for {what}"));
    assert_eq!(first.code, strict.code, "first-error code differs for {what}");
    assert_eq!(
        erase_fresh(&first.message),
        erase_fresh(&strict.message),
        "first-error message differs for {what}"
    );
}

/// The agreement gate both properties below lean on: strict success must
/// imply a clean tolerant run (with the backend artifacts attached), and
/// a clean tolerant run must imply strict success.
fn check_agreement(strict_ok: bool, outcome: &cccc::FrontendOutcome, what: &str) {
    if strict_ok {
        assert_eq!(outcome.error_count(), 0, "tolerant found phantom errors in {what}");
        assert!(outcome.compilation.is_some(), "clean {what} lost its compilation");
    } else {
        assert!(!outcome.is_clean(), "tolerant missed the breakage in {what}");
    }
    if let Some(compilation) = &outcome.compilation {
        // Whatever survived to the backend really was verified: the
        // target checks in CC-CC at the translated type.
        target::typecheck::check(
            &target::Env::new(),
            &compilation.target,
            &compilation.target_type,
        )
        .expect("verified output type checks");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Token-level fuzz: mangled program text never panics the pipeline,
    /// and strict/tolerant parsing agree on brokenness.
    #[test]
    fn prop_token_corruption_never_panics(seed in any::<u64>()) {
        let (term, _ty) = TermGenerator::new(seed).gen_program();
        let text = term_to_string(&term);
        let compiler = Compiler::new();
        let mut rng = Rng(seed ^ 0xDEAD_BEEF);
        for _ in 0..8 {
            let mangled = corrupt_text(&text, &mut rng);
            let strict_ok = compiler.compile_text(&mangled).is_ok();
            let outcome = compiler.compile_text_keep_going(&mangled);
            check_agreement(strict_ok, &outcome, &format!("text {mangled:?}"));
        }
    }

    /// AST-level fuzz: spliced sentinels, unbound variables, swapped
    /// binders, and deleted annotations never panic parse-free entry
    /// points, strict or tolerant.
    #[test]
    fn prop_ast_corruption_never_panics(seed in any::<u64>()) {
        let (term, _ty) = TermGenerator::new(seed).gen_program();
        let compiler = Compiler::new();
        let mut rng = Rng(seed ^ 0x5EED_CAFE);
        for _ in 0..8 {
            let corrupted = corrupt_ast(&term, &mut rng);
            let strict = compiler.compile_closed(&corrupted);
            let outcome = compiler.compile_keep_going(&Env::new(), &corrupted);
            check_agreement(strict.is_ok(), &outcome, "a corrupted AST");
            if let (Err(error), false) = (&strict, source::tolerant::is_poisoned(&corrupted)) {
                let strict = diagnostic_of_compile_error(error);
                check_first_error_parity(&strict, &outcome.diagnostics, "a corrupted AST");
            }
            // Sentinel-bearing terms are quarantined from the backend even
            // when recovery produced no diagnostics at all.
            if source::tolerant::is_poisoned(&corrupted) {
                prop_assert!(outcome.compilation.is_none());
            }
        }
    }

    /// Corrupted CC-CC terms never panic the target checkers, and the
    /// strict and tolerant target checkers agree too.
    #[test]
    fn prop_target_corruption_never_panics(seed in any::<u64>()) {
        let (term, _ty) = TermGenerator::new(seed).gen_program();
        let Ok(compilation) = Compiler::new().compile_closed(&term) else {
            unreachable!("generated programs compile");
        };
        let mut rng = Rng(seed ^ 0x7A66_E7F0);
        for _ in 0..8 {
            // Reuse the source corruption through the translation: corrupt
            // the source, translate whatever still compiles, and smash the
            // already-verified target directly with target-level edits.
            let smashed = match rng.next() % 3 {
                0 => target::builder::app(compilation.target.clone(), target::builder::tt()),
                1 => target::builder::closure(compilation.target.clone(), target::builder::unit_val()),
                _ => target::builder::ite(
                    target::builder::unit_val(),
                    compilation.target.clone(),
                    target::builder::var("__fuzz_unbound"),
                ),
            };
            let strict = target::typecheck::infer(&target::Env::new(), &smashed);
            let outcome = target::tolerant::infer_tolerant(&target::Env::new(), &smashed);
            prop_assert_eq!(strict.is_ok(), outcome.is_clean(), "target checkers disagree");
            if let (Err(error), false) = (&strict, target::tolerant::is_poisoned(&smashed)) {
                let strict = Diagnostic::error(error.to_string()).with_code(error.code());
                check_first_error_parity(&strict, &outcome.diagnostics, "a smashed target");
            }
        }
    }
}
