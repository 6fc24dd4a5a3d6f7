//! The CC type system (Figures 3 and 4).
//!
//! The checker is a direct implementation of the paper's rules: types are
//! inferred structurally, and the conversion rule `[Conv]` is applied
//! whenever a term is checked against an expected type, using the
//! definitional-equivalence algorithm of [`crate::equiv`].
//!
//! ## Σ-formation
//!
//! The paper gives two Σ-formation rules: `[Sig-*]` (small over small) and
//! `[Sig-□]` (large second component). We additionally accept
//! `A : □, B : ⋆ ⟹ Σ x:A.B : □`, the predicative rule of ECC. This is
//! required to type the environment telescopes produced by closure
//! conversion when a closure captures a *type* variable (the paper's own
//! example uses the environment type `⋆ × 1`, which needs exactly this
//! rule), and it is sound: it never makes a large Σ small. The restriction
//! the paper highlights — no impredicative strong Σ — is still enforced:
//! `Σ x:A.B : ⋆` requires both `A : ⋆` and `B : ⋆`.
//!
//! ## One rule set, two sinks
//!
//! Each rule is one match arm of the checker's `infer`, run over the state
//! `{ fuel, engine, sink }`; the entry point picks the sink. **Fail-fast**
//! ([`infer`], [`check`], [`infer_universe`], [`check_env`],
//! [`infer_with_engine`]) returns the first report as `Err(`[`TypeError`]`)`.
//! **Collecting** ([`crate::tolerant::infer_tolerant`]) turns each report
//! into a [`Diagnostic`] — [`TypeError::code`], the `Display` message, the
//! [`crate::spans`] span, and for a mismatch the expected/found notes and
//! the expected type's span — and resumes with the sentinel `<error>`, so
//! its first diagnostic is the fail-fast error.
//!
//! Sentinel handling runs only when collecting: `<error>` types as itself
//! silently, a poisoned type unifies with anything (one genuine error does
//! not cascade), and a reported fuel exhaustion refills the tank. Failing
//! fast, `<error>` is an ordinary unbound name. The recovery values: an
//! ill-typed `let` binding is held abstract at its annotation and replaced
//! by `<error>` in the result type; a non-function head, non-pair
//! projection or non-Σ pair annotation yields `<error>` after its operands
//! are still inferred; a mismatch is reported once and then accepted.

use crate::ast::{Term, Universe};
use crate::env::{Decl, Env};
use crate::equiv::{equiv_with_engine, Engine};
use crate::pretty::term_to_string;
use crate::reduce::{whnf, ReduceError};
use crate::spans;
use crate::subst::subst;
use crate::tolerant::{error_symbol, error_term, is_poisoned, TolerantOutcome};
use cccc_util::diag::Diagnostic;
use cccc_util::fuel::Fuel;
use cccc_util::symbol::Symbol;
use std::fmt;

/// Errors produced by the CC type checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// A variable was used that is not bound in the environment.
    UnboundVariable(Symbol),
    /// The universe `□` was used as a term; it has no type.
    BoxHasNoType,
    /// A term in function position does not have a Π type.
    NotAFunction {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term in projection position does not have a Σ type.
    NotAPair {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term expected to be a type does not live in a universe.
    NotAUniverse {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// The annotation on a dependent pair is not a Σ type.
    PairAnnotationNotSigma {
        /// The annotation, pretty-printed.
        annotation: String,
    },
    /// The inferred type of a term does not match the expected type.
    Mismatch {
        /// What the context required, pretty-printed.
        expected: String,
        /// What was inferred, pretty-printed.
        found: String,
        /// The term being checked, pretty-printed.
        term: String,
    },
    /// Normalization ran out of fuel while deciding equivalence.
    Reduction(ReduceError),
}

impl TypeError {
    /// The stable diagnostic code of this error:
    ///
    /// | Code | Meaning |
    /// |---|---|
    /// | `E0001` | unbound variable |
    /// | `E0002` | the universe `□` has no type |
    /// | `E0003` | application of a non-function |
    /// | `E0004` | projection of a non-pair |
    /// | `E0005` | term used as a type is not a universe |
    /// | `E0006` | pair annotation is not a Σ type |
    /// | `E0008` | type mismatch |
    /// | `E0009` | normalization ran out of fuel |
    ///
    /// `E0100` (parse error) is assigned by [`crate::parse`].
    pub fn code(&self) -> &'static str {
        match self {
            TypeError::UnboundVariable(_) => "E0001",
            TypeError::BoxHasNoType => "E0002",
            TypeError::NotAFunction { .. } => "E0003",
            TypeError::NotAPair { .. } => "E0004",
            TypeError::NotAUniverse { .. } => "E0005",
            TypeError::PairAnnotationNotSigma { .. } => "E0006",
            TypeError::Mismatch { .. } => "E0008",
            TypeError::Reduction(_) => "E0009",
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::BoxHasNoType => write!(f, "the universe □ has no type"),
            TypeError::NotAFunction { term, ty } => {
                write!(f, "`{term}` is applied but has non-function type `{ty}`")
            }
            TypeError::NotAPair { term, ty } => {
                write!(f, "`{term}` is projected but has non-pair type `{ty}`")
            }
            TypeError::NotAUniverse { term, ty } => {
                write!(f, "`{term}` is used as a type but has type `{ty}`, not a universe")
            }
            TypeError::PairAnnotationNotSigma { annotation } => {
                write!(f, "pair annotation `{annotation}` is not a Σ type")
            }
            TypeError::Mismatch { expected, found, term } => {
                write!(
                    f,
                    "type mismatch: `{term}` has type `{found}` but `{expected}` was expected"
                )
            }
            TypeError::Reduction(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Result type for the CC type checker.
pub type Result<T> = std::result::Result<T, TypeError>;

/// Infers the type of `term` under `env` (the judgment `Γ ⊢ e : A`).
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed.
pub fn infer(env: &Env, term: &Term) -> Result<Term> {
    infer_with_engine(env, term, Engine::Nbe)
}

/// [`infer`] through an explicitly chosen equivalence/normalization
/// engine. [`Engine::Step`] runs the substitution-based step engine — the
/// paper-faithful specification — and exists for differential testing and
/// head-to-head benchmarking against [`Engine::Nbe`].
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed.
pub fn infer_with_engine(env: &Env, term: &Term, engine: Engine) -> Result<Term> {
    Checker::fail_fast(engine).infer(env, term)
}

/// Checks `term` against `expected` under `env`, applying the conversion
/// rule `[Conv]`.
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed or its type is not
/// definitionally equal to `expected`.
pub fn check(env: &Env, term: &Term, expected: &Term) -> Result<()> {
    Checker::fail_fast(Engine::Nbe).check(env, term, expected).map(drop)
}

/// Infers the universe in which the type `term` lives.
///
/// # Errors
///
/// Returns [`TypeError::NotAUniverse`] when `term` is not a type.
pub fn infer_universe(env: &Env, term: &Term) -> Result<Universe> {
    let universe = Checker::fail_fast(Engine::Nbe).universe(env, term)?;
    Ok(universe.expect("a fail-fast check never recovers"))
}

/// Checks well-formedness of an environment (`⊢ Γ`, Figure 4).
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered while checking entries in
/// order.
pub fn check_env(env: &Env) -> Result<()> {
    let mut prefix = Env::new();
    for decl in env.iter() {
        match decl {
            Decl::Assumption { name, ty } => {
                infer_universe(&prefix, ty)?;
                prefix.push_assumption(*name, (**ty).clone());
            }
            Decl::Definition { name, ty, term } => {
                infer_universe(&prefix, ty)?;
                check(&prefix, term, ty)?;
                prefix.push_definition(*name, (**term).clone(), (**ty).clone());
            }
        }
    }
    Ok(())
}

/// Returns `true` when `term` is well-typed under `env`.
pub fn is_well_typed(env: &Env, term: &Term) -> bool {
    infer(env, term).is_ok()
}

/// Infers the type of `term` under `env` with the collecting sink.
pub(crate) fn infer_collecting(env: &Env, term: &Term, engine: Engine) -> TolerantOutcome {
    let mut checker = Checker { fuel: Fuel::default(), engine, sink: Some(Vec::new()) };
    let ty = checker.infer(env, term).expect("a collecting check never aborts");
    TolerantOutcome { ty, diagnostics: checker.sink.unwrap_or_default() }
}

/// The checker state. The rules below are the only typing rules of CC.
struct Checker {
    fuel: Fuel,
    engine: Engine,
    /// The error sink: `None` fails fast (the first report is the error),
    /// `Some` collects every report as a diagnostic and keeps going.
    sink: Option<Vec<Diagnostic>>,
}

impl Checker {
    fn fail_fast(engine: Engine) -> Checker {
        Checker { fuel: Fuel::default(), engine, sink: None }
    }

    /// True when `term` mentions the sentinel and this checker recovers
    /// from it; always false when failing fast.
    fn poisoned(&self, term: &Term) -> bool {
        self.sink.is_some() && is_poisoned(term)
    }

    /// Sends `error`, found at `at`, to the sink; `expected_ty` is the type
    /// a mismatched term was checked against. A collecting run recovers
    /// with the sentinel type.
    fn report(&mut self, error: TypeError, at: &Term, expected_ty: Option<&Term>) -> Result<Term> {
        let Some(diagnostics) = &mut self.sink else { return Err(error) };
        if let TypeError::Reduction(_) = error {
            // Refill, so one diverging type does not starve the rest.
            self.fuel = Fuel::default();
        }
        let mut diagnostic = Diagnostic::error(error.to_string()).with_code(error.code());
        diagnostic.span = spans::span_of(at);
        if let TypeError::Mismatch { expected, found, .. } = &error {
            diagnostic = diagnostic
                .with_note(format!("expected `{expected}`"))
                .with_note(format!("found    `{found}`"));
        }
        if let Some(origin) = expected_ty.and_then(spans::span_of) {
            diagnostic = diagnostic.with_related(origin, "expected type came from this annotation");
        }
        diagnostics.push(diagnostic);
        Ok(error_term())
    }

    /// The head normal form of the type `ty` of `at`, or `None` when the
    /// collecting sink has already recovered (`ty` or its normal form is
    /// poisoned).
    fn head_normal(&mut self, env: &Env, ty: &Term, at: &Term) -> Result<Option<Term>> {
        if self.poisoned(ty) {
            return Ok(None);
        }
        let normal = match self.engine {
            Engine::Nbe => crate::nbe::whnf_nbe(env, ty, &mut self.fuel),
            Engine::Step => whnf(env, ty, &mut self.fuel),
        };
        match normal {
            Ok(normal) if !self.poisoned(&normal) => Ok(Some(normal)),
            Ok(_) => Ok(None),
            Err(error) => self.report(TypeError::Reduction(error), at, None).map(|_| None),
        }
    }

    fn infer(&mut self, env: &Env, term: &Term) -> Result<Term> {
        match term {
            // The sentinel types as itself, silently: whoever introduced it
            // already reported.
            Term::Var(x) if self.sink.is_some() && *x == error_symbol() => Ok(error_term()),
            // [Var]
            Term::Var(x) => match env.lookup_type(*x) {
                Some(ty) => Ok((**ty).clone()),
                None => self.report(TypeError::UnboundVariable(*x), term, None),
            },
            // [Ax-*]
            Term::Sort(Universe::Star) => Ok(Term::Sort(Universe::Box)),
            Term::Sort(Universe::Box) => self.report(TypeError::BoxHasNoType, term, None),
            // Ground types (§5.2).
            Term::BoolTy => Ok(Term::Sort(Universe::Star)),
            Term::BoolLit(_) => Ok(Term::BoolTy),
            Term::If { scrutinee, then_branch, else_branch } => {
                self.check(env, scrutinee, &Term::BoolTy)?;
                let then_ty = self.infer(env, then_branch)?;
                self.check(env, else_branch, &then_ty)?;
                Ok(then_ty)
            }
            // [Prod-*] and [Prod-□]
            Term::Pi { binder, domain, codomain } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                Ok(self.universe(&inner, codomain)?.map_or_else(error_term, Term::Sort))
            }
            // [Sig-*], [Sig-□], and the predicative large rule (see module
            // docs): small only when both components are small.
            Term::Sigma { binder, first, second } => {
                let first_universe = self.universe(env, first)?;
                let inner = env.with_assumption(*binder, (**first).clone());
                let second_universe = self.universe(&inner, second)?;
                Ok(match (first_universe, second_universe) {
                    (Some(Universe::Star), Some(Universe::Star)) => Term::Sort(Universe::Star),
                    (Some(_), Some(_)) => Term::Sort(Universe::Box),
                    _ => error_term(),
                })
            }
            // [Lam]
            Term::Lam { binder, domain, body } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                let body_ty = self.infer(&inner, body)?;
                // Ensure the resulting Π type is itself well-formed.
                if !self.poisoned(&body_ty) {
                    self.universe(&inner, &body_ty)?;
                }
                Ok(Term::Pi { binder: *binder, domain: domain.clone(), codomain: body_ty.rc() })
            }
            // [App]
            Term::App { func, arg } => {
                let func_ty = self.infer(env, func)?;
                match self.head_normal(env, &func_ty, func)? {
                    Some(Term::Pi { binder, domain, codomain }) => {
                        self.check(env, arg, &domain)?;
                        return Ok(subst(&codomain, binder, arg));
                    }
                    Some(other) => {
                        let error = TypeError::NotAFunction {
                            term: term_to_string(func),
                            ty: term_to_string(&other),
                        };
                        self.report(error, func, None)?;
                    }
                    None => {}
                }
                self.infer(env, arg)?;
                Ok(error_term())
            }
            // [Let]
            Term::Let { binder, annotation, bound, body } => {
                let annotation_ok = self.universe(env, annotation)?.is_some();
                let bound_ok = annotation_ok && self.check(env, bound, annotation)?;
                if bound_ok && !self.poisoned(bound) && !self.poisoned(annotation) {
                    let inner =
                        env.with_definition(*binder, (**bound).clone(), (**annotation).clone());
                    let body_ty = self.infer(&inner, body)?;
                    Ok(subst(&body_ty, *binder, bound))
                } else {
                    // Poison the binding: hold the binder abstract at its
                    // declared annotation, never unfolding a bad definition.
                    let assumed = if annotation_ok { (**annotation).clone() } else { error_term() };
                    let inner = env.with_assumption(*binder, assumed);
                    let body_ty = self.infer(&inner, body)?;
                    Ok(subst(&body_ty, *binder, &error_term()))
                }
            }
            // [Pair]
            Term::Pair { first, second, annotation } => {
                self.universe(env, annotation)?;
                match self.head_normal(env, annotation, annotation)? {
                    Some(Term::Sigma { binder, first: first_ty, second: second_ty }) => {
                        self.check(env, first, &first_ty)?;
                        let expected_second = subst(&second_ty, binder, first);
                        self.check(env, second, &expected_second)?;
                        return Ok((**annotation).clone());
                    }
                    Some(_) => {
                        let error = TypeError::PairAnnotationNotSigma {
                            annotation: term_to_string(annotation),
                        };
                        self.report(error, annotation, None)?;
                    }
                    None => {}
                }
                self.infer(env, first)?;
                self.infer(env, second)?;
                Ok(error_term())
            }
            // [Fst] and [Snd]
            Term::Fst(e) | Term::Snd(e) => {
                let e_ty = self.infer(env, e)?;
                match self.head_normal(env, &e_ty, e)? {
                    Some(Term::Sigma { first, .. }) if matches!(term, Term::Fst(_)) => {
                        Ok((*first).clone())
                    }
                    Some(Term::Sigma { binder, second, .. }) => {
                        Ok(subst(&second, binder, &Term::Fst(e.clone())))
                    }
                    Some(other) => {
                        let error = TypeError::NotAPair {
                            term: term_to_string(e),
                            ty: term_to_string(&other),
                        };
                        self.report(error, e, None)
                    }
                    None => Ok(error_term()),
                }
            }
        }
    }

    /// `[Conv]`: checks `term` against `expected`. Returns `false` only
    /// after a collected mismatch, which is then accepted.
    fn check(&mut self, env: &Env, term: &Term, expected: &Term) -> Result<bool> {
        let found = self.infer(env, term)?;
        if self.poisoned(&found) || self.poisoned(expected) {
            return Ok(true);
        }
        match equiv_with_engine(env, &found, expected, &mut self.fuel, self.engine) {
            Ok(true) => Ok(true),
            Ok(false) => {
                let error = TypeError::Mismatch {
                    expected: term_to_string(expected),
                    found: term_to_string(&found),
                    term: term_to_string(term),
                };
                self.report(error, term, Some(expected)).map(|_| false)
            }
            Err(error) => self.report(TypeError::Reduction(error), term, None).map(|_| true),
        }
    }

    /// The universe the type `term` lives in, or `None` after recovery.
    fn universe(&mut self, env: &Env, term: &Term) -> Result<Option<Universe>> {
        // `□` itself is a valid classifier (it is the type of `⋆` and of
        // kinds) even though it is not a term; treat it as living "above"
        // everything.
        if matches!(term, Term::Sort(Universe::Box)) {
            return Ok(Some(Universe::Box));
        }
        let ty = self.infer(env, term)?;
        match self.head_normal(env, &ty, term)? {
            Some(Term::Sort(u)) => Ok(Some(u)),
            Some(other) => {
                let error = TypeError::NotAUniverse {
                    term: term_to_string(term),
                    ty: term_to_string(&other),
                };
                self.report(error, term, None).map(|_| None)
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::equiv::definitionally_equal;
    use crate::subst::alpha_eq;

    fn infer_closed(t: &Term) -> Result<Term> {
        infer(&Env::new(), t)
    }

    #[test]
    fn star_has_type_box() {
        assert!(alpha_eq(&infer_closed(&star()).unwrap(), &boxu()));
    }

    #[test]
    fn box_has_no_type() {
        assert!(matches!(infer_closed(&boxu()), Err(TypeError::BoxHasNoType)));
    }

    #[test]
    fn bool_literals() {
        assert!(alpha_eq(&infer_closed(&bool_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&tt()).unwrap(), &bool_ty()));
        assert!(alpha_eq(&infer_closed(&ff()).unwrap(), &bool_ty()));
    }

    #[test]
    fn unbound_variable_is_rejected() {
        assert!(matches!(infer_closed(&var("nope")), Err(TypeError::UnboundVariable(_))));
    }

    #[test]
    fn polymorphic_identity_types() {
        // λ A : ⋆. λ x : A. x  :  Π A : ⋆. Π x : A. A
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let ty = infer_closed(&id).unwrap();
        let expected = pi("A", star(), pi("x", var("A"), var("A")));
        assert!(definitionally_equal(&Env::new(), &ty, &expected));
    }

    #[test]
    fn impredicative_pi_is_allowed() {
        // Π A : ⋆. A  :  ⋆   (quantifies over all small types, itself small)
        let false_ty = pi("A", star(), var("A"));
        assert!(alpha_eq(&infer_closed(&false_ty).unwrap(), &star()));
    }

    #[test]
    fn pi_over_kinds_is_large() {
        // Π A : ⋆. ⋆  :  □
        let t = pi("A", star(), star());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn application_substitutes_argument_into_codomain() {
        // (λ A : ⋆. λ x : A. x) Bool : Π x : Bool. Bool
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let t = app(id, bool_ty());
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn application_of_non_function_is_rejected() {
        let t = app(tt(), ff());
        assert!(matches!(infer_closed(&t), Err(TypeError::NotAFunction { .. })));
    }

    #[test]
    fn application_with_wrong_argument_type_is_rejected() {
        let not = lam("b", bool_ty(), ite(var("b"), ff(), tt()));
        let t = app(not, star());
        assert!(matches!(infer_closed(&t), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn let_types_with_definition_substituted() {
        // let x = true : Bool in x   :  Bool
        let t = let_("x", bool_ty(), tt(), var("x"));
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &bool_ty()));
    }

    #[test]
    fn let_definition_is_visible_in_types() {
        // let A = Bool : ⋆ in (λ x : A. x) true   :  A[Bool/A] = Bool
        let t = let_("A", star(), bool_ty(), app(lam("x", var("A"), var("x")), tt()));
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn small_sigma_over_small_types() {
        let t = sigma("x", bool_ty(), bool_ty());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &star()));
    }

    #[test]
    fn large_sigma_over_kinds() {
        // Σ A : ⋆. ⋆ : □
        let t = sigma("A", star(), star());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn sigma_with_large_first_and_small_second_is_large() {
        // Σ A : ⋆. Bool : □ — the ECC-style rule needed for closure environments.
        let t = sigma("A", star(), bool_ty());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn dependent_sigma_types() {
        // Σ A : ⋆. A : □ (first component is a type, second a value of it)
        let t = sigma("A", star(), var("A"));
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn pair_checks_both_components() {
        let ann = sigma("x", bool_ty(), bool_ty());
        let good = pair(tt(), ff(), ann.clone());
        assert!(alpha_eq(&infer_closed(&good).unwrap(), &ann));
        let bad = pair(tt(), star(), ann);
        assert!(matches!(infer_closed(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn dependent_pair_second_component_type_uses_first() {
        // ⟨Bool, true⟩ as Σ A : ⋆. A
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann.clone());
        assert!(alpha_eq(&infer_closed(&p).unwrap(), &ann));
        // ⟨Bool, ⋆⟩ as Σ A : ⋆. A is wrong: ⋆ is not a Bool.
        let bad = pair(bool_ty(), star(), ann);
        assert!(infer_closed(&bad).is_err());
    }

    #[test]
    fn projections_type_correctly() {
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann);
        assert!(alpha_eq(&infer_closed(&fst(p.clone())).unwrap(), &star()));
        // snd p : A[fst p/A] = fst p ≡ Bool
        let snd_ty = infer_closed(&snd(p.clone())).unwrap();
        assert!(definitionally_equal(&Env::new(), &snd_ty, &bool_ty()));
    }

    #[test]
    fn projection_of_non_pair_is_rejected() {
        assert!(matches!(infer_closed(&fst(tt())), Err(TypeError::NotAPair { .. })));
        assert!(matches!(infer_closed(&snd(tt())), Err(TypeError::NotAPair { .. })));
    }

    #[test]
    fn pair_annotation_must_be_sigma() {
        let p = pair(tt(), ff(), bool_ty());
        assert!(matches!(infer_closed(&p), Err(TypeError::PairAnnotationNotSigma { .. })));
    }

    #[test]
    fn if_requires_bool_scrutinee_and_agreeing_branches() {
        assert!(alpha_eq(&infer_closed(&ite(tt(), ff(), tt())).unwrap(), &bool_ty()));
        assert!(infer_closed(&ite(star(), ff(), tt())).is_err());
        assert!(infer_closed(&ite(tt(), ff(), bool_ty())).is_err());
    }

    #[test]
    fn conversion_rule_reduces_types() {
        // (λ x : (if true then Bool else (Π A:⋆. A)). x) true   is well-typed
        // because the domain reduces to Bool.
        let t = app(lam("x", ite(tt(), bool_ty(), pi("A", star(), var("A"))), var("x")), tt());
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn check_env_accepts_dependent_telescope() {
        use cccc_util::symbol::Symbol;
        let env = Env::new()
            .with_assumption(Symbol::intern("A"), star())
            .with_assumption(Symbol::intern("x"), var("A"))
            .with_definition(Symbol::intern("b"), tt(), bool_ty());
        assert!(check_env(&env).is_ok());
    }

    #[test]
    fn check_env_rejects_bad_definitions() {
        use cccc_util::symbol::Symbol;
        let env = Env::new().with_definition(Symbol::intern("b"), star(), bool_ty());
        assert!(check_env(&env).is_err());
    }

    #[test]
    fn check_env_rejects_out_of_scope_dependencies() {
        use cccc_util::symbol::Symbol;
        let env = Env::new()
            .with_assumption(Symbol::intern("x"), var("A"))
            .with_assumption(Symbol::intern("A"), star());
        assert!(check_env(&env).is_err());
    }

    #[test]
    fn is_well_typed_helper() {
        assert!(is_well_typed(&Env::new(), &tt()));
        assert!(!is_well_typed(&Env::new(), &var("ghost")));
    }

    #[test]
    fn error_display_is_informative() {
        let err = infer_closed(&app(tt(), ff())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("true"));
        assert!(msg.contains("Bool"));
    }

    #[test]
    fn fail_fast_treats_the_sentinel_as_an_unbound_name() {
        use crate::tolerant::{error_symbol, error_term};
        let t = ite(error_term(), tt(), ff());
        assert_eq!(infer_closed(&t), Err(TypeError::UnboundVariable(error_symbol())));
    }

    #[test]
    fn fail_fast_poisoned_types_unify_with_nothing() {
        use crate::tolerant::error_term;
        let env = Env::new().with_assumption(Symbol::intern("f"), error_term());
        assert!(matches!(infer(&env, &app(var("f"), tt())), Err(TypeError::NotAFunction { .. })));
        assert!(matches!(
            check(&Env::new(), &tt(), &error_term()),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn impredicative_instantiation_of_polymorphic_identity() {
        // id (Π A : ⋆. Π x : A. A) id — the classic impredicativity test.
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let id_ty = pi("A", star(), pi("x", var("A"), var("A")));
        let t = app(app(id.clone(), id_ty.clone()), id);
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &id_ty));
    }
}
