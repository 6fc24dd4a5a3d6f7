//! The CC-CC type system (Figure 7).
//!
//! Most rules are those of CC; the two that define typed closure
//! conversion are:
//!
//! * **`[Code]`** — code `λ (n : A', x : A). e` is checked **in the empty
//!   environment**: `· ⊢ A' : s'`, `n : A' ⊢ A : s`, and
//!   `n : A', x : A ⊢ e : B`, giving `Code (n : A', x : A). B`. The
//!   ambient `Γ` is deliberately discarded — this is what makes code
//!   closed, hoistable, and statically allocatable. Open code is rejected
//!   with [`TypeError::OpenCode`].
//! * **`[Clo]`** — a closure `⟪e, e'⟫` where `e : Code (n : A', x : A). B`
//!   and `Γ ⊢ e' : A'` has the *closure type* `Π x : A[e'/n]. B[e'/n]`:
//!   the environment is substituted into the code type, so two closures
//!   with different environments can share a type.
//!
//! Code is not a first-class function: applying it directly is rejected
//! with [`TypeError::NotAClosure`] (rule `[App]` eliminates Π, the type of
//! closures, only).
//!
//! As in the source checker, Σ-formation additionally accepts the
//! predicative ECC rule `A : □, B : ⋆ ⟹ Σ x:A.B : □`, which the
//! environment telescopes of closure conversion need when a closure
//! captures a type variable.
//!
//! ## One rule set, two sinks
//!
//! As in `cccc_source::typecheck`, each rule is one match arm over the
//! state `{ fuel, engine, sink }`, and the entry point picks the sink:
//! fail-fast ([`infer`], [`check`], [`infer_universe`], [`check_env`],
//! [`infer_with_engine`]) or collecting ([`crate::tolerant::infer_tolerant`],
//! whose [`Diagnostic`]s carry [`TypeError::code`] but no spans: CC-CC terms
//! are translated, never parsed). Sentinel handling — including leaving
//! `<error>` out of the closedness premise of `[Code]` — runs only when
//! collecting.
//!
//! Failing fast, the judgment of every closed compound term is memoized by
//! node identity. This is sound by strengthening: a closed term's
//! derivation never consults the ambient `Γ`, the same argument that lets
//! `[Code]` check code in the empty environment. The memo is read and
//! written only when failing fast, so recovery results never reach a cache
//! that a strict check could observe.

use crate::ast::{RcTerm, Term, Universe};
use crate::env::{Decl, Env};
use crate::equiv::{equiv_with_engine, Engine};
use crate::pretty::term_to_string;
use crate::reduce::{whnf, ReduceError};
use crate::subst::{free_vars, is_closed, occurs_free, rename, subst};
use crate::tolerant::{error_symbol, error_term, is_poisoned, TolerantOutcome};
use cccc_util::diag::Diagnostic;
use cccc_util::fuel::Fuel;
use cccc_util::intern::{FxHashMap, NodeId};
use cccc_util::symbol::Symbol;
use std::cell::RefCell;
use std::fmt;

/// Errors produced by the CC-CC type checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// A variable was used that is not bound in the environment.
    UnboundVariable(Symbol),
    /// The universe `□` was used as a term; it has no type.
    BoxHasNoType,
    /// Code (or a code type) with free variables: rule `[Code]` checks
    /// code in the empty environment, so it must be closed.
    OpenCode {
        /// The offending code, pretty-printed.
        code: String,
        /// The free variables that leak, pretty-printed.
        free: String,
    },
    /// The code component of a closure does not have a `Code` type.
    NotCode {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term in function position does not have a closure (Π) type —
    /// including bare code, which is not first-class.
    NotAClosure {
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
    /// Normalization failed while deciding equivalence.
    Reduction(ReduceError),
}

impl TypeError {
    /// The stable diagnostic code of this error:
    ///
    /// | Code | Meaning |
    /// |---|---|
    /// | `E1001` | unbound variable |
    /// | `E1002` | the universe `□` has no type |
    /// | `E1003` | application of a non-closure (including bare code) |
    /// | `E1004` | projection of a non-pair |
    /// | `E1005` | term used as a type is not a universe |
    /// | `E1006` | pair annotation is not a Σ type |
    /// | `E1008` | type mismatch |
    /// | `E1009` | normalization ran out of fuel |
    /// | `E1010` | open code (rule `[Code]` requires closed code) |
    /// | `E1011` | closure component is not code |
    pub fn code(&self) -> &'static str {
        match self {
            TypeError::UnboundVariable(_) => "E1001",
            TypeError::BoxHasNoType => "E1002",
            TypeError::NotAClosure { .. } => "E1003",
            TypeError::NotAPair { .. } => "E1004",
            TypeError::NotAUniverse { .. } => "E1005",
            TypeError::PairAnnotationNotSigma { .. } => "E1006",
            TypeError::Mismatch { .. } => "E1008",
            TypeError::Reduction(_) => "E1009",
            TypeError::OpenCode { .. } => "E1010",
            TypeError::NotCode { .. } => "E1011",
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::BoxHasNoType => write!(f, "the universe □ has no type"),
            TypeError::OpenCode { code, free } => {
                write!(f, "rule [Code] requires closed code, but `{code}` mentions {free}")
            }
            TypeError::NotCode { term, ty } => {
                write!(f, "closure component `{term}` has type `{ty}`, not a code type")
            }
            TypeError::NotAClosure { term, ty } => {
                write!(f, "`{term}` is applied but has non-closure type `{ty}`")
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
            TypeError::Mismatch { expected, found, term } => write!(
                f,
                "type mismatch: `{term}` has type `{found}` but `{expected}` was expected"
            ),
            TypeError::Reduction(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Result type for the CC-CC type checker.
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
/// rule `[Conv]` (with closure-η).
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

/// Checks well-formedness of an environment (`⊢ Γ`).
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

/// The closed-term memo never outgrows this many entries; it is cleared
/// wholesale when it would.
const CLOSED_MEMO_CAP: usize = 1 << 18;

thread_local! {
    /// Memoized fail-fast typing of closed compound terms, keyed by node
    /// identity and engine (so the step-engine oracle never reads
    /// NbE-derived entries).
    ///
    /// No environment component is needed, by strengthening: a closed
    /// term's derivation never consults the ambient `Γ`. Every variable it
    /// looks up is bound inside the term and shadows any binding of the
    /// same name in `Γ`, so normalization and conversion unfold only
    /// definitions the term makes itself, and the inferred type is itself
    /// closed. `[Code]`/`[T-Code]`, which discard `Γ` outright,
    /// are the special case the paper builds in. Hash-consing makes the
    /// closed types and code that closure conversion mass-produces — the
    /// Σ annotation of every environment tuple, every code telescope —
    /// literally the same node, so each is checked once per thread. Node
    /// ids are never reused, so a stale key can miss but never mis-hit.
    ///
    /// Only the fail-fast sink reads or writes the memo, so recovery
    /// results never reach it, and errors are never stored. A hit skips
    /// the fuel the derivation would have spent.
    static CLOSED_MEMO: RefCell<FxHashMap<(NodeId, Engine), RcTerm>> =
        RefCell::new(FxHashMap::default());

    /// Memo hits on this thread, observed by the unit tests.
    #[cfg(test)]
    static CLOSED_MEMO_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Clears this thread's closed-term typing memo.
pub fn reset_closed_memo() {
    CLOSED_MEMO.with(|m| m.borrow_mut().clear());
}

/// The checker state. The rules below are the only typing rules of CC-CC.
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

    /// Sends `error` to the sink. A collecting run recovers with the
    /// sentinel type.
    fn report(&mut self, error: TypeError) -> Result<Term> {
        let Some(diagnostics) = &mut self.sink else { return Err(error) };
        if let TypeError::Reduction(_) = error {
            // Refill, so one diverging type does not starve the rest.
            self.fuel = Fuel::default();
        }
        let mut diagnostic = Diagnostic::error(error.to_string()).with_code(error.code());
        if let TypeError::Mismatch { expected, found, .. } = &error {
            diagnostic = diagnostic
                .with_note(format!("expected `{expected}`"))
                .with_note(format!("found    `{found}`"));
        }
        diagnostics.push(diagnostic);
        Ok(error_term())
    }

    /// The head normal form of the type `ty`, or `None` when the
    /// collecting sink has already recovered (`ty` or its normal form is
    /// poisoned).
    fn head_normal(&mut self, env: &Env, ty: &Term) -> Result<Option<Term>> {
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
            Err(error) => self.report(TypeError::Reduction(error)).map(|_| None),
        }
    }

    /// `Γ ⊢ e : A`. A fail-fast judgment on a closed compound term goes
    /// through `CLOSED_MEMO`; atoms are cheaper than a memo probe.
    fn infer(&mut self, env: &Env, term: &Term) -> Result<Term> {
        let atom = matches!(
            term,
            Term::Var(_)
                | Term::Sort(_)
                | Term::Unit
                | Term::UnitVal
                | Term::BoolTy
                | Term::BoolLit(_)
        );
        if self.sink.is_none() && !atom && is_closed(term) {
            self.memoized(env, term)
        } else {
            self.rule(env, term)
        }
    }

    /// The typing rule for the head of `term`, one arm per form.
    fn rule(&mut self, env: &Env, term: &Term) -> Result<Term> {
        match term {
            // The sentinel types as itself, silently: whoever introduced it
            // already reported.
            Term::Var(x) if self.sink.is_some() && *x == error_symbol() => Ok(error_term()),
            // [Var]
            Term::Var(x) => match env.lookup_type(*x) {
                Some(ty) => Ok((**ty).clone()),
                None => self.report(TypeError::UnboundVariable(*x)),
            },
            // [Ax-*]
            Term::Sort(Universe::Star) => Ok(Term::Sort(Universe::Box)),
            Term::Sort(Universe::Box) => self.report(TypeError::BoxHasNoType),
            // [Unit] / [UnitVal]
            Term::Unit => Ok(Term::Sort(Universe::Star)),
            Term::UnitVal => Ok(Term::Unit),
            // Ground types (§5.2).
            Term::BoolTy => Ok(Term::Sort(Universe::Star)),
            Term::BoolLit(_) => Ok(Term::BoolTy),
            Term::If { scrutinee, then_branch, else_branch } => {
                self.check(env, scrutinee, &Term::BoolTy)?;
                let then_ty = self.infer(env, then_branch)?;
                self.check(env, else_branch, &then_ty)?;
                Ok(then_ty)
            }
            // [Prod-*] / [Prod-□]: Π is the type of closures.
            Term::Pi { binder, domain, codomain } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                Ok(self.universe(&inner, codomain)?.map_or_else(error_term, Term::Sort))
            }
            // [Sig-*], [Sig-□], and the predicative large rule: small only
            // when both components are small.
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
            // [Code] and [T-Code]: the empty environment replaces Γ.
            Term::Code { env_binder, env_ty, arg_binder, arg_ty, body: last }
            | Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result: last } => {
                self.require_closed(term)?;
                let empty = Env::new();
                self.universe(&empty, env_ty)?;
                let with_env = empty.with_assumption(*env_binder, (**env_ty).clone());
                self.universe(&with_env, arg_ty)?;
                let with_arg = with_env.with_assumption(*arg_binder, (**arg_ty).clone());
                if let Term::CodeTy { .. } = term {
                    let universe = self.universe(&with_arg, last)?;
                    return Ok(universe.map_or_else(error_term, Term::Sort));
                }
                let body_ty = self.infer(&with_arg, last)?;
                // The resulting code type must itself be well-formed.
                if !self.poisoned(&body_ty) {
                    self.universe(&with_arg, &body_ty)?;
                }
                Ok(Term::CodeTy {
                    env_binder: *env_binder,
                    env_ty: env_ty.clone(),
                    arg_binder: *arg_binder,
                    arg_ty: arg_ty.clone(),
                    result: body_ty.rc(),
                })
            }
            // [Clo]: substitute the environment into the code type.
            Term::Closure { code, env: closure_env } => {
                let code_ty = self.infer(env, code)?;
                match self.head_normal(env, &code_ty)? {
                    Some(Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result }) => {
                        self.check(env, closure_env, &env_ty)?;
                        // Π x : A[e'/n]. B[e'/n]. In the argument type the
                        // environment binder is never shadowed, but in the
                        // result the argument binder may shadow it (x = n),
                        // in which case every occurrence refers to x and the
                        // substitution does not reach B; otherwise freshen x
                        // when the environment mentions it.
                        let domain = subst(&arg_ty, env_binder, closure_env);
                        let (binder, codomain) = if arg_binder == env_binder {
                            (arg_binder, (*result).clone())
                        } else if occurs_free(arg_binder, closure_env) {
                            let fresh = arg_binder.freshen();
                            let renamed = rename(&result, arg_binder, fresh);
                            (fresh, subst(&renamed, env_binder, closure_env))
                        } else {
                            (arg_binder, subst(&result, env_binder, closure_env))
                        };
                        return Ok(Term::Pi {
                            binder,
                            domain: domain.rc(),
                            codomain: codomain.rc(),
                        });
                    }
                    Some(other) => {
                        self.report(TypeError::NotCode {
                            term: term_to_string(code),
                            ty: term_to_string(&other),
                        })?;
                    }
                    None => {}
                }
                self.infer(env, closure_env)?;
                Ok(error_term())
            }
            // [App]: eliminates closures (Π), never code.
            Term::App { func, arg } => {
                let func_ty = self.infer(env, func)?;
                match self.head_normal(env, &func_ty)? {
                    Some(Term::Pi { binder, domain, codomain }) => {
                        self.check(env, arg, &domain)?;
                        return Ok(subst(&codomain, binder, arg));
                    }
                    Some(other) => {
                        self.report(TypeError::NotAClosure {
                            term: term_to_string(func),
                            ty: term_to_string(&other),
                        })?;
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
                match self.head_normal(env, annotation)? {
                    Some(Term::Sigma { binder, first: first_ty, second: second_ty }) => {
                        self.check(env, first, &first_ty)?;
                        let expected_second = subst(&second_ty, binder, first);
                        self.check(env, second, &expected_second)?;
                        return Ok((**annotation).clone());
                    }
                    Some(_) => {
                        self.report(TypeError::PairAnnotationNotSigma {
                            annotation: term_to_string(annotation),
                        })?;
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
                match self.head_normal(env, &e_ty)? {
                    Some(Term::Sigma { first, .. }) if matches!(term, Term::Fst(_)) => {
                        Ok((*first).clone())
                    }
                    Some(Term::Sigma { binder, second, .. }) => {
                        Ok(subst(&second, binder, &Term::Fst(e.clone())))
                    }
                    Some(other) => self.report(TypeError::NotAPair {
                        term: term_to_string(e),
                        ty: term_to_string(&other),
                    }),
                    None => Ok(error_term()),
                }
            }
        }
    }

    /// Runs the rule for the closed term `term` once per node and engine
    /// on this thread; errors are returned, never stored.
    fn memoized(&mut self, env: &Env, term: &Term) -> Result<Term> {
        let key = (term.clone().rc().id(), self.engine);
        if let Some(ty) = CLOSED_MEMO.with(|m| m.borrow().get(&key).cloned()) {
            #[cfg(test)]
            CLOSED_MEMO_HITS.with(|hits| hits.set(hits.get() + 1));
            return Ok((*ty).clone());
        }
        let ty = self.rule(env, term)?.rc();
        CLOSED_MEMO.with(|m| {
            let mut memo = m.borrow_mut();
            if memo.len() >= CLOSED_MEMO_CAP {
                memo.clear();
            }
            memo.insert(key, ty.clone());
        });
        Ok((*ty).clone())
    }

    /// The syntactic closedness premise of `[Code]`/`[T-Code]`.
    ///
    /// The success path — every well-typed program — is O(1): closedness is
    /// a cached metadata bit on the children's interned nodes. Only the
    /// error path materializes the ordered free-variable list.
    fn require_closed(&mut self, term: &Term) -> Result<()> {
        if is_closed(term) {
            return Ok(());
        }
        let collecting = self.sink.is_some();
        let leaked: Vec<String> = free_vars(term)
            .into_iter()
            .filter(|x| !(collecting && *x == error_symbol()))
            .map(|x| format!("`{x}`"))
            .collect();
        if leaked.is_empty() {
            return Ok(());
        }
        self.report(TypeError::OpenCode { code: term_to_string(term), free: leaked.join(", ") })
            .map(drop)
    }

    /// `[Conv]` with closure-η: checks `term` against `expected`. Returns
    /// `false` only after a collected mismatch, which is then accepted.
    fn check(&mut self, env: &Env, term: &Term, expected: &Term) -> Result<bool> {
        let found = self.infer(env, term)?;
        if self.poisoned(&found) || self.poisoned(expected) {
            return Ok(true);
        }
        match equiv_with_engine(env, &found, expected, &mut self.fuel, self.engine) {
            Ok(true) => Ok(true),
            Ok(false) => self
                .report(TypeError::Mismatch {
                    expected: term_to_string(expected),
                    found: term_to_string(&found),
                    term: term_to_string(term),
                })
                .map(|_| false),
            Err(error) => self.report(TypeError::Reduction(error)).map(|_| true),
        }
    }

    /// The universe the type `term` lives in, or `None` after recovery.
    fn universe(&mut self, env: &Env, term: &Term) -> Result<Option<Universe>> {
        // `□` itself is a valid classifier even though it is not a term.
        if matches!(term, Term::Sort(Universe::Box)) {
            return Ok(Some(Universe::Box));
        }
        let ty = self.infer(env, term)?;
        match self.head_normal(env, &ty)? {
            Some(Term::Sort(u)) => Ok(Some(u)),
            Some(other) => self
                .report(TypeError::NotAUniverse {
                    term: term_to_string(term),
                    ty: term_to_string(&other),
                })
                .map(|_| None),
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

    fn identity_code() -> Term {
        code("n", unit_ty(), "x", bool_ty(), var("x"))
    }

    #[test]
    fn atoms_type_as_in_cc() {
        assert!(alpha_eq(&infer_closed(&star()).unwrap(), &boxu()));
        assert!(matches!(infer_closed(&boxu()), Err(TypeError::BoxHasNoType)));
        assert!(alpha_eq(&infer_closed(&bool_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&tt()).unwrap(), &bool_ty()));
        assert!(alpha_eq(&infer_closed(&unit_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&unit_val()).unwrap(), &unit_ty()));
        assert!(matches!(infer_closed(&var("nope")), Err(TypeError::UnboundVariable(_))));
    }

    #[test]
    fn code_types_in_the_empty_environment() {
        let ty = infer_closed(&identity_code()).unwrap();
        let expected = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        assert!(definitionally_equal(&Env::new(), &ty, &expected));
    }

    #[test]
    fn open_code_is_rejected_even_when_ambient_env_binds_the_leak() {
        let ambient = Env::new().with_assumption(Symbol::intern("leak"), bool_ty());
        let open = code("n", unit_ty(), "x", bool_ty(), var("leak"));
        let err = infer(&ambient, &open).unwrap_err();
        match &err {
            TypeError::OpenCode { free, .. } => assert!(free.contains("leak")),
            other => panic!("expected OpenCode, got {other}"),
        }
        // Same for code types.
        let open_ty = code_ty("n", unit_ty(), "x", var("LeakTy"), bool_ty());
        let ambient = ambient.with_assumption(Symbol::intern("LeakTy"), star());
        assert!(matches!(infer(&ambient, &open_ty), Err(TypeError::OpenCode { .. })));
    }

    #[test]
    fn clo_substitutes_the_environment() {
        // ⟪λ (n : Σ A : ⋆. 1, x : fst n). x, ⟨Bool, ⟨⟩⟩⟫ : Π x : Bool. Bool
        let env_ty = sigma("A", star(), unit_ty());
        let clo = closure(
            code("n2", env_ty.clone(), "x", fst(var("n2")), var("x")),
            pair(bool_ty(), unit_val(), env_ty),
        );
        let ty = infer_closed(&clo).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn closures_require_matching_environments() {
        let clo = closure(identity_code(), tt());
        assert!(matches!(infer_closed(&clo), Err(TypeError::Mismatch { .. })));
        let not_code = closure(tt(), unit_val());
        assert!(matches!(infer_closed(&not_code), Err(TypeError::NotCode { .. })));
    }

    #[test]
    fn bare_code_cannot_be_applied() {
        let err = infer_closed(&app(identity_code(), tt())).unwrap_err();
        assert!(matches!(err, TypeError::NotAClosure { .. }));
        let err = infer_closed(&app(tt(), tt())).unwrap_err();
        assert!(matches!(err, TypeError::NotAClosure { .. }));
    }

    #[test]
    fn closure_application_types() {
        let clo = closure(identity_code(), unit_val());
        let ty = infer_closed(&app(clo, tt())).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn dependent_closures_substitute_arguments() {
        // The outer code of the polymorphic identity: applying it at Bool
        // gives Π x : Bool. Bool.
        let inner_env_ty = sigma("A", star(), unit_ty());
        let inner = code("n2", inner_env_ty.clone(), "x", fst(var("n2")), var("x"));
        let outer = closure(
            code(
                "n1",
                unit_ty(),
                "A",
                star(),
                closure(inner, pair(var("A"), unit_val(), inner_env_ty)),
            ),
            unit_val(),
        );
        let applied_ty = infer_closed(&app(outer, bool_ty())).unwrap();
        assert!(definitionally_equal(&Env::new(), &applied_ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn lets_pairs_and_projections_type_as_in_cc() {
        let t = let_("u", unit_ty(), unit_val(), tt());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &bool_ty()));
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann.clone());
        assert!(alpha_eq(&infer_closed(&p).unwrap(), &ann));
        assert!(alpha_eq(&infer_closed(&fst(p.clone())).unwrap(), &star()));
        let snd_ty = infer_closed(&snd(p)).unwrap();
        assert!(definitionally_equal(&Env::new(), &snd_ty, &bool_ty()));
        assert!(matches!(infer_closed(&fst(tt())), Err(TypeError::NotAPair { .. })));
        assert!(matches!(
            infer_closed(&pair(tt(), ff(), bool_ty())),
            Err(TypeError::PairAnnotationNotSigma { .. })
        ));
    }

    #[test]
    fn sigma_universes_support_type_capture() {
        // Σ A : ⋆. 1 : □ — the telescope of a closure capturing a type.
        let t = sigma("A", star(), unit_ty());
        assert!(infer_closed(&t).unwrap().is_box());
        // Small telescopes stay small.
        let t = sigma("b", bool_ty(), unit_ty());
        assert!(infer_closed(&t).unwrap().is_star());
    }

    #[test]
    fn conversion_runs_closures_inside_types() {
        // A pair annotation that needs a closure application reduced.
        let family = closure(
            code("n", unit_ty(), "b", bool_ty(), ite(var("b"), bool_ty(), unit_ty())),
            unit_val(),
        );
        let t = app(
            closure(
                code("n", unit_ty(), "x", ite(tt(), bool_ty(), unit_ty()), var("x")),
                unit_val(),
            ),
            tt(),
        );
        assert!(definitionally_equal(&Env::new(), &infer_closed(&t).unwrap(), &bool_ty()));
        // And checking against an unreduced type works through [Conv].
        check(&Env::new(), &tt(), &app(family, tt())).unwrap();
    }

    #[test]
    fn check_env_accepts_dependent_telescopes() {
        let env = Env::new()
            .with_assumption(Symbol::intern("A"), star())
            .with_assumption(Symbol::intern("a"), var("A"))
            .with_definition(Symbol::intern("u"), unit_val(), unit_ty());
        assert!(check_env(&env).is_ok());
        let bad = Env::new().with_definition(Symbol::intern("u"), star(), unit_ty());
        assert!(check_env(&bad).is_err());
    }

    #[test]
    fn shadowed_code_binders_keep_their_references() {
        // λ (n : 1, n : Σ A : ⋆. A). snd n — the argument binder shadows
        // the environment binder, so the body's `n` is the argument and
        // [Clo] must not substitute the environment into the result.
        let arg_ty = sigma("A", star(), var("A"));
        let shadowing = code("n", unit_ty(), "n", arg_ty.clone(), snd(var("n")));
        let clo = closure(shadowing, unit_val());
        let ty = infer_closed(&clo).unwrap();
        match &ty {
            Term::Pi { binder, codomain, .. } => {
                // The codomain projects the *argument*, not the unit env.
                assert!(
                    crate::subst::occurs_free(*binder, codomain),
                    "codomain `{codomain}` must still mention the argument binder"
                );
            }
            other => panic!("expected a closure type, got {other}"),
        }
        // And the closure type is the same as an α-variant without
        // shadowing.
        let unshadowed =
            closure(code("m", unit_ty(), "p", arg_ty.clone(), snd(var("p"))), unit_val());
        let expected = infer_closed(&unshadowed).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &expected), "{ty} vs {expected}");
    }

    #[test]
    fn collecting_runs_never_touch_the_code_memo() {
        use crate::tolerant::{error_term, infer_tolerant};
        // Recovery accepts code whose body is the sentinel …
        let poisoned = closure(code("n", unit_ty(), "x", bool_ty(), error_term()), unit_val());
        assert!(infer_tolerant(&Env::new(), &poisoned).is_clean());
        // … but must not leave its code type behind for a strict check on
        // the same thread, which still rejects the code as open.
        match infer_closed(&poisoned) {
            Err(TypeError::OpenCode { free, .. }) => assert!(free.contains("<error>"), "{free}"),
            other => panic!("expected OpenCode, got {other:?}"),
        }
    }

    fn closed_memo_hits() -> u64 {
        CLOSED_MEMO_HITS.with(std::cell::Cell::get)
    }

    #[test]
    fn closed_judgments_are_reused_under_any_ambient_environment() {
        // let A : ⋆ = Bool in ⟪λ (n : Σ A : ⋆. 1, A : fst n). A, ⟨A, ⟨⟩⟩⟫:
        // closed, but its derivation looks up the let-bound `A`, and [Clo]
        // freshens the argument binder `A` because the environment
        // mentions it. The node is held alive, as the pipeline holds its
        // terms: a dropped node's id is never reused, so a rebuilt term
        // would miss.
        let env_ty = sigma("A", star(), unit_ty());
        let term = let_(
            "A",
            star(),
            bool_ty(),
            closure(
                code("n", env_ty.clone(), "A", fst(var("n")), var("A")),
                pair(var("A"), unit_val(), env_ty),
            ),
        )
        .rc();
        reset_closed_memo();
        let empty = infer_closed(&term).unwrap();
        assert!(definitionally_equal(&Env::new(), &empty, &pi("x", bool_ty(), bool_ty())));
        let a = Symbol::intern("A");
        let ambients = [
            Env::new().with_assumption(a, bool_ty()),
            Env::new().with_definition(a, tt(), bool_ty()),
        ];
        for ambient in &ambients {
            let before = closed_memo_hits();
            let ty = infer(ambient, &term).unwrap();
            assert_eq!(closed_memo_hits(), before + 1, "not a memo hit under {ambient:?}");
            assert!(alpha_eq(&ty, &empty), "{ty} vs {empty}");
            // A re-derivation would have freshened the binder anew.
            assert!(ty.rc().same(&empty.clone().rc()), "the closure's type was re-derived");
        }
    }

    #[test]
    fn open_terms_are_never_memoized() {
        let x = Symbol::intern("x");
        let term = fst(var("x")).rc();
        let bools = Env::new().with_assumption(x, sigma("b", bool_ty(), unit_ty()));
        let units = Env::new().with_assumption(x, sigma("u", unit_ty(), unit_ty()));
        assert!(alpha_eq(&infer(&bools, &term).unwrap(), &bool_ty()));
        assert!(alpha_eq(&infer(&units, &term).unwrap(), &unit_ty()));
    }

    #[test]
    fn errors_are_never_memoized() {
        // ⟪λ (n : 1, x : Bool). ⟨tt, ff⟩ as Bool, ⟨⟩⟫ is closed and ill-typed.
        let bad =
            closure(code("n", unit_ty(), "x", bool_ty(), pair(tt(), ff(), bool_ty())), unit_val())
                .rc();
        for _ in 0..2 {
            let before = closed_memo_hits();
            assert!(matches!(infer_closed(&bad), Err(TypeError::PairAnnotationNotSigma { .. })));
            assert_eq!(closed_memo_hits(), before, "an error was answered from the memo");
        }
    }

    #[test]
    fn engines_never_share_memo_entries() {
        let clo = closure(identity_code(), unit_val()).rc();
        reset_closed_memo();
        let nbe = infer_closed(&clo).unwrap();
        let before = closed_memo_hits();
        let step = infer_with_engine(&Env::new(), &clo, Engine::Step).unwrap();
        assert_eq!(closed_memo_hits(), before, "the step engine read an NbE entry");
        assert!(alpha_eq(&nbe, &step), "{nbe} vs {step}");
    }

    #[test]
    fn is_well_typed_helper() {
        assert!(is_well_typed(&Env::new(), &unit_val()));
        assert!(!is_well_typed(&Env::new(), &var("ghost")));
    }

    #[test]
    fn error_display_is_informative() {
        let err = infer_closed(&app(tt(), ff())).unwrap_err();
        assert!(err.to_string().contains("non-closure"));
        let err = TypeError::OpenCode { code: "c".into(), free: "`x`".into() };
        assert!(err.to_string().contains("[Code]"));
    }
}
