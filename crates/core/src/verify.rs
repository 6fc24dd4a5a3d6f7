//! Executable checkers for the paper's compiler metatheory (§5).
//!
//! The paper proves its lemmas once and for all on paper; this module turns
//! each lemma *statement* into an executable check that can be run on any
//! concrete program (the hand-written corpus, the random generator's output,
//! user programs). A check failure would be a counterexample to the lemma —
//! none exist, which is what the test suite establishes over thousands of
//! programs.
//!
//! | Paper statement | Checker |
//! |---|---|
//! | Lemma 5.1 (Compositionality) | [`check_compositionality`] |
//! | Lemma 5.2/5.3 (Preservation of reduction) | [`check_reduction_preservation`] |
//! | Lemma 5.4 (Coherence) | [`check_coherence`] |
//! | Theorem 5.6 (Type preservation) | [`check_type_preservation`] |
//! | Theorem 5.7 (Separate compilation) | [`check_separate_compilation`] |
//! | Corollary 5.8 (Whole programs) | [`check_whole_program`] |
//!
//! The checkers run on the memoized, hash-consed checking stack: the CC-CC
//! type checker's closed-term memo and both equivalence checkers' conversion
//! memos persist across checks on a thread, so verifying a corpus types
//! each distinct closed subterm and decides each distinct conversion pair
//! once.

use crate::link::{
    check_source_substitution, ground_values_related, link_source, link_target,
    translate_substitution, LinkError, SourceSubstitution,
};
use crate::translate::{translate, translate_env, TranslateError};
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::symbol::Symbol;
use std::fmt;

/// Errors (i.e. potential counterexamples) produced by the lemma checkers.
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// The translation itself failed.
    Translate(String),
    /// The source side of the statement's premise failed (e.g. the source
    /// term is ill-typed, or the two source terms are not equivalent).
    SourcePremise(String),
    /// Linking failed.
    Link(String),
    /// The translated program is ill-typed in CC-CC — a counterexample to
    /// type preservation.
    TargetIllTyped(String),
    /// Two target terms that the statement requires to be definitionally
    /// equal are not.
    NotEquivalent {
        /// Which statement was being checked.
        context: String,
        /// Left-hand side, pretty-printed.
        left: String,
        /// Right-hand side, pretty-printed.
        right: String,
    },
    /// The source and target observations disagree — a counterexample to
    /// correctness of separate compilation.
    ObservationMismatch {
        /// The source observation.
        source: String,
        /// The target observation.
        target: String,
    },
    /// The program does not produce a ground (boolean) observation.
    NotGround(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Translate(e) => write!(f, "translation failed: {e}"),
            VerifyError::SourcePremise(e) => write!(f, "source premise not satisfied: {e}"),
            VerifyError::Link(e) => write!(f, "linking failed: {e}"),
            VerifyError::TargetIllTyped(e) => {
                write!(f, "translated program is ill-typed in CC-CC: {e}")
            }
            VerifyError::NotEquivalent { context, left, right } => {
                write!(f, "{context}: `{left}` is not definitionally equal to `{right}`")
            }
            VerifyError::ObservationMismatch { source, target } => {
                write!(
                    f,
                    "observation mismatch: source produced {source}, target produced {target}"
                )
            }
            VerifyError::NotGround(e) => write!(f, "program did not produce a boolean: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<TranslateError> for VerifyError {
    fn from(e: TranslateError) -> VerifyError {
        VerifyError::Translate(e.to_string())
    }
}

impl From<LinkError> for VerifyError {
    fn from(e: LinkError) -> VerifyError {
        VerifyError::Link(e.to_string())
    }
}

/// Result type for the checkers.
pub type Result<T> = std::result::Result<T, VerifyError>;

/// The evidence returned by a successful type-preservation check.
#[derive(Clone, Debug)]
pub struct TypePreservation {
    /// The inferred source type `A`.
    pub source_type: src::Term,
    /// The translated term `e⁺`.
    pub target_term: tgt::Term,
    /// The type CC-CC infers for `e⁺`.
    pub target_type: tgt::Term,
    /// The translation `A⁺` of the source type (definitionally equal to
    /// `target_type`).
    pub expected_target_type: tgt::Term,
}

/// **Theorem 5.6 (Type preservation).** If `Γ ⊢ e : A` then `Γ⁺ ⊢ e⁺ : A⁺`.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the counterexample if the translated
/// term fails to check at the translated type.
pub fn check_type_preservation(env: &src::Env, term: &src::Term) -> Result<TypePreservation> {
    let source_type =
        src::typecheck::infer(env, term).map_err(|e| VerifyError::SourcePremise(e.to_string()))?;

    let target_env = translate_env(env)?;
    let target_term = translate(env, term)?;
    let expected_target_type = translate(env, &source_type)?;

    let target_type = tgt::typecheck::infer(&target_env, &target_term)
        .map_err(|e| VerifyError::TargetIllTyped(e.to_string()))?;

    if !tgt::equiv::definitionally_equal(&target_env, &target_type, &expected_target_type) {
        return Err(VerifyError::NotEquivalent {
            context: "type preservation (Theorem 5.6)".to_owned(),
            left: target_type.to_string(),
            right: expected_target_type.to_string(),
        });
    }
    Ok(TypePreservation { source_type, target_term, target_type, expected_target_type })
}

/// **Lemma 5.1 (Compositionality).** `(e1[e2/x])⁺ ≡ e1⁺[e2⁺/x]`.
///
/// `env` must bind `x` (so that `e1` is well-typed) and `e2` must be
/// well-typed in `env` as well.
///
/// # Errors
///
/// Returns a [`VerifyError`] if either side fails to translate or the two
/// sides are not definitionally equal in CC-CC.
pub fn check_compositionality(
    env: &src::Env,
    e1: &src::Term,
    x: Symbol,
    e2: &src::Term,
) -> Result<()> {
    // Left-hand side: substitute in CC, then translate.
    let substituted = src::subst::subst(e1, x, e2);
    let lhs = translate(env, &substituted)?;

    // Right-hand side: translate both pieces, then substitute in CC-CC.
    let e1_translated = translate(env, e1)?;
    let e2_translated = translate(env, e2)?;
    let rhs = tgt::subst::subst(&e1_translated, x, &e2_translated);

    let target_env = translate_env(env)?;
    if tgt::equiv::definitionally_equal(&target_env, &lhs, &rhs) {
        Ok(())
    } else {
        Err(VerifyError::NotEquivalent {
            context: "compositionality (Lemma 5.1)".to_owned(),
            left: lhs.to_string(),
            right: rhs.to_string(),
        })
    }
}

/// **Lemmas 5.2/5.3 (Preservation of reduction).** Follows the source
/// reduction sequence `e ⊲ e1 ⊲ … ⊲ ek` for at most `max_steps` steps and
/// checks that each translated reduct stays definitionally equal to the
/// translation of its predecessor (the lemma's `e⁺ ⊲* ē ≡ e'⁺`). Returns the
/// number of steps validated.
///
/// # Errors
///
/// Returns a [`VerifyError`] naming the first step whose translations are
/// not equivalent.
pub fn check_reduction_preservation(
    env: &src::Env,
    term: &src::Term,
    max_steps: usize,
) -> Result<usize> {
    // Reduction preservation is only meaningful for well-typed terms.
    src::typecheck::infer(env, term).map_err(|e| VerifyError::SourcePremise(e.to_string()))?;

    let target_env = translate_env(env)?;
    let mut current = term.clone();
    let mut current_translated = translate(env, &current)?;
    let mut steps = 0;
    while steps < max_steps {
        match src::reduce::step(env, &current) {
            None => break,
            Some(next) => {
                let next_translated = translate(env, &next)?;
                if !tgt::equiv::definitionally_equal(
                    &target_env,
                    &current_translated,
                    &next_translated,
                ) {
                    return Err(VerifyError::NotEquivalent {
                        context: format!("preservation of reduction (Lemma 5.2) at step {steps}"),
                        left: current_translated.to_string(),
                        right: next_translated.to_string(),
                    });
                }
                current = next;
                current_translated = next_translated;
                steps += 1;
            }
        }
    }
    Ok(steps)
}

/// **Lemma 5.4 (Coherence).** If `Γ ⊢ e1 ≡ e2` then `Γ⁺ ⊢ e1⁺ ≡ e2⁺`.
///
/// # Errors
///
/// Returns [`VerifyError::SourcePremise`] if the source terms are not
/// equivalent to begin with, and [`VerifyError::NotEquivalent`] if the
/// translations fail to be equivalent (a counterexample).
pub fn check_coherence(env: &src::Env, e1: &src::Term, e2: &src::Term) -> Result<()> {
    if !src::equiv::definitionally_equal(env, e1, e2) {
        return Err(VerifyError::SourcePremise(format!(
            "`{e1}` and `{e2}` are not definitionally equal in CC"
        )));
    }
    let target_env = translate_env(env)?;
    let left = translate(env, e1)?;
    let right = translate(env, e2)?;
    if tgt::equiv::definitionally_equal(&target_env, &left, &right) {
        Ok(())
    } else {
        Err(VerifyError::NotEquivalent {
            context: "coherence (Lemma 5.4)".to_owned(),
            left: left.to_string(),
            right: right.to_string(),
        })
    }
}

/// **Theorem 5.7 (Correctness of separate compilation).** If `Γ ⊢ e : Bool`,
/// `Γ ⊢ γ`, and `γ(e) ⊲* v`, then `γ⁺(e⁺) ⊲* v'` with `v ≈ v'`. Returns the
/// common boolean observation.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the premises fail or the observations
/// disagree.
pub fn check_separate_compilation(
    env: &src::Env,
    term: &src::Term,
    substitution: &SourceSubstitution,
) -> Result<bool> {
    // Premises: the component is well-typed and γ is a valid closing
    // substitution for Γ.
    src::typecheck::infer(env, term).map_err(|e| VerifyError::SourcePremise(e.to_string()))?;
    check_source_substitution(env, substitution)?;

    // Source side: link in CC, then run (through the NbE engine — the
    // observation only needs the value, and Lemma 5.2's step-by-step
    // checking is covered by `check_reduction_preservation`).
    let linked_source = link_source(term, substitution);
    let source_value = src::nbe::normalize_nbe_default(&src::Env::new(), &linked_source);
    let source_observation = match source_value {
        src::Term::BoolLit(b) => b,
        other => return Err(VerifyError::NotGround(other.to_string())),
    };

    // Target side: compile the component and the substitution separately,
    // then link in CC-CC and run.
    let compiled_component = translate(env, term)?;
    let compiled_substitution = translate_substitution(env, substitution)?;
    let linked_target = link_target(&compiled_component, &compiled_substitution);
    let target_value = tgt::nbe::normalize_nbe_default(&tgt::Env::new(), &linked_target);

    if ground_values_related(&src::Term::BoolLit(source_observation), &target_value) {
        Ok(source_observation)
    } else {
        Err(VerifyError::ObservationMismatch {
            source: source_observation.to_string(),
            target: target_value.to_string(),
        })
    }
}

/// **Corollary 5.8 (Whole-program correctness).** A closed program of ground
/// type evaluates to the same boolean before and after compilation.
///
/// # Errors
///
/// See [`check_separate_compilation`].
pub fn check_whole_program(term: &src::Term) -> Result<bool> {
    check_separate_compilation(&src::Env::new(), term, &Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;
    use cccc_source::prelude;

    fn sym(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn type_preservation_on_the_whole_corpus() {
        for entry in prelude::corpus() {
            check_type_preservation(&src::Env::new(), &entry.term)
                .unwrap_or_else(|e| panic!("type preservation failed on `{}`: {e}", entry.name));
        }
    }

    #[test]
    fn type_preservation_on_open_terms() {
        let env = src::Env::new()
            .with_assumption(sym("A"), s::star())
            .with_assumption(sym("a"), s::var("A"))
            .with_assumption(sym("b"), s::bool_ty());
        // λ x : A. a — captures both A and a.
        let term = s::lam("x", s::var("A"), s::var("a"));
        check_type_preservation(&env, &term).unwrap();
        // if b then a-projection games else …
        let term = s::ite(s::var("b"), s::var("b"), s::ff());
        check_type_preservation(&env, &term).unwrap();
    }

    #[test]
    fn type_preservation_rejects_ill_typed_sources() {
        let err = check_type_preservation(&src::Env::new(), &s::app(s::tt(), s::ff())).unwrap_err();
        assert!(matches!(err, VerifyError::SourcePremise(_)));
    }

    #[test]
    fn compositionality_on_the_motivating_example() {
        // (λ y : A. e)[e2/x] — Lemma 5.1's discussion: substituting before or
        // after translation produces different environment shapes that must
        // still be equivalent.
        let env = src::Env::new()
            .with_assumption(sym("x"), s::bool_ty())
            .with_assumption(sym("other"), s::bool_ty());
        let e1 = s::lam("y", s::bool_ty(), s::ite(s::var("x"), s::var("y"), s::var("other")));
        let e2 = s::tt();
        check_compositionality(&env, &e1, sym("x"), &e2).unwrap();
    }

    #[test]
    fn compositionality_with_type_variables() {
        let env = src::Env::new()
            .with_assumption(sym("A"), s::star())
            .with_assumption(sym("a"), s::var("A"));
        // e1 = λ y : A. a, substituting Bool for A is not allowed (A appears
        // in the type of a), so substitute for `a` instead under A := itself.
        let e1 = s::lam("y", s::var("A"), s::var("a"));
        let e2 = s::var("a");
        check_compositionality(&env, &e1, sym("a"), &e2).unwrap();
    }

    #[test]
    fn compositionality_on_ground_redexes() {
        let env = src::Env::new().with_assumption(sym("x"), s::bool_ty());
        let e1 = s::app(s::lam("y", s::bool_ty(), s::var("y")), s::var("x"));
        check_compositionality(&env, &e1, sym("x"), &s::ff()).unwrap();
    }

    #[test]
    fn reduction_preservation_on_ground_corpus() {
        for (entry, _) in prelude::ground_corpus() {
            let steps = check_reduction_preservation(&src::Env::new(), &entry.term, 64)
                .unwrap_or_else(|e| {
                    panic!("reduction preservation failed on `{}`: {e}", entry.name)
                });
            // Programs in the ground corpus actually reduce.
            assert!(steps > 0 || entry.term.is_value(), "`{}` took no steps", entry.name);
        }
    }

    #[test]
    fn coherence_on_eta_equivalent_terms() {
        // λ x : Bool. f x ≡ f  must be preserved by the translation
        // (this exercises the closure-η rule in the target).
        let env = src::Env::new().with_assumption(sym("f"), s::arrow(s::bool_ty(), s::bool_ty()));
        let expanded = s::lam("x", s::bool_ty(), s::app(s::var("f"), s::var("x")));
        check_coherence(&env, &expanded, &s::var("f")).unwrap();
    }

    #[test]
    fn coherence_on_beta_equivalent_terms() {
        let redex = s::app(prelude::not_fn(), s::tt());
        check_coherence(&src::Env::new(), &redex, &s::ff()).unwrap();
    }

    #[test]
    fn coherence_requires_the_source_premise() {
        let err = check_coherence(&src::Env::new(), &s::tt(), &s::ff()).unwrap_err();
        assert!(matches!(err, VerifyError::SourcePremise(_)));
    }

    #[test]
    fn whole_program_correctness_on_ground_corpus() {
        for (entry, expected) in prelude::ground_corpus() {
            let observed = check_whole_program(&entry.term).unwrap_or_else(|e| {
                panic!("whole-program correctness failed on `{}`: {e}", entry.name)
            });
            assert_eq!(observed, expected, "`{}`", entry.name);
        }
    }

    #[test]
    fn separate_compilation_with_a_polymorphic_library() {
        // Component: uses an abstract identity function and an abstract flag.
        let env = src::Env::new()
            .with_assumption(sym("id"), prelude::poly_id_ty())
            .with_assumption(sym("flag"), s::bool_ty());
        let component =
            s::ite(s::app(s::app(s::var("id"), s::bool_ty()), s::var("flag")), s::ff(), s::tt());
        let gamma = vec![(sym("id"), prelude::poly_id()), (sym("flag"), s::tt())];
        let observed = check_separate_compilation(&env, &component, &gamma).unwrap();
        assert!(!observed);
    }

    #[test]
    fn separate_compilation_rejects_non_ground_components() {
        let env = src::Env::new();
        let err = check_separate_compilation(&env, &prelude::poly_id(), &Vec::new()).unwrap_err();
        assert!(matches!(err, VerifyError::NotGround(_)));
    }

    #[test]
    fn separate_compilation_rejects_invalid_substitutions() {
        let env = src::Env::new().with_assumption(sym("flag"), s::bool_ty());
        let component = s::var("flag");
        let err = check_separate_compilation(&env, &component, &Vec::new()).unwrap_err();
        assert!(matches!(err, VerifyError::Link(_)));
    }

    #[test]
    fn verify_error_display_is_informative() {
        let err =
            VerifyError::ObservationMismatch { source: "true".into(), target: "false".into() };
        assert!(err.to_string().contains("mismatch"));
        let err = VerifyError::NotEquivalent {
            context: "coherence".into(),
            left: "a".into(),
            right: "b".into(),
        };
        assert!(err.to_string().contains("coherence"));
    }
}
