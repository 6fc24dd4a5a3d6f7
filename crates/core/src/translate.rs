//! The typed closure-conversion translation from CC to CC-CC (Figure 9).
//!
//! The translation is defined on typing derivations; operationally this
//! means the translator is *type-directed*: every case is a homomorphic map
//! except `[CC-Lam]`, which must
//!
//! 1. infer the Π type of the λ-abstraction (rule `[CC-Lam]`'s premises),
//! 2. compute the dependency-ordered free variables of the function *and*
//!    its type with the metafunction `FV` (Figure 10),
//! 3. build the environment telescope `Σ (xi : Ai⁺ …)` and the environment
//!    tuple `⟨xi …⟩`,
//! 4. produce closed code that re-binds the free variables by projecting
//!    from its environment parameter — both in the body *and* in the
//!    argument's type annotation (this is the dependently typed twist), and
//! 5. pair the code with the environment into a closure.
//!
//! Type preservation (Theorem 5.6) is validated mechanically by
//! [`crate::verify`] and the integration test suite.
//!
//! Every constructed target term goes through the CC-CC smart constructors
//! and is therefore interned on creation: the duplicated environment types
//! and projection chains the translation mass-produces land on shared
//! nodes, the `FV` metafunction (step 2) reads cached free-variable
//! metadata instead of traversing, and the re-check of the output hits the
//! closed-term typing and conversion memos for every repeated closed
//! subterm: code blocks, environment telescopes, tuple annotations.

use crate::fv::{dependent_free_vars, FvError};
use cccc_source as src;
use cccc_target as tgt;
use cccc_target::tuple;
use cccc_util::symbol::Symbol;
use std::fmt;

/// Errors produced by the closure-conversion translation.
#[derive(Clone, Debug)]
pub enum TranslateError {
    /// The free-variable analysis failed (an unbound variable).
    FreeVariables(FvError),
    /// The source term is ill-typed; the translation is only defined on
    /// well-typed terms (it is defined on typing derivations).
    SourceType(src::TypeError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::FreeVariables(e) => write!(f, "free-variable analysis failed: {e}"),
            TranslateError::SourceType(e) => write!(f, "source term is ill-typed: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<FvError> for TranslateError {
    fn from(e: FvError) -> TranslateError {
        TranslateError::FreeVariables(e)
    }
}

impl From<src::TypeError> for TranslateError {
    fn from(e: src::TypeError) -> TranslateError {
        TranslateError::SourceType(e)
    }
}

/// Result type for the translation.
pub type Result<T> = std::result::Result<T, TranslateError>;

/// Translates a source universe to the identical target universe.
pub fn translate_universe(u: src::Universe) -> tgt::Universe {
    match u {
        src::Universe::Star => tgt::Universe::Star,
        src::Universe::Box => tgt::Universe::Box,
    }
}

/// Closure-converts the well-typed source term `term` under `env`
/// (the judgment `Γ ⊢ e : A ⇝ e` of Figure 9).
///
/// # Errors
///
/// Returns a [`TranslateError`] if `term` is ill-typed under `env` or
/// mentions variables not bound in `env`.
pub fn translate(env: &src::Env, term: &src::Term) -> Result<tgt::Term> {
    Ok(match term {
        // [CC-Var]
        src::Term::Var(x) => tgt::Term::Var(*x),
        // [CC-*] (and the universe □, which only occurs as a classifier)
        src::Term::Sort(u) => tgt::Term::Sort(translate_universe(*u)),
        // Ground types.
        src::Term::BoolTy => tgt::Term::BoolTy,
        src::Term::BoolLit(b) => tgt::Term::BoolLit(*b),
        src::Term::If { scrutinee, then_branch, else_branch } => tgt::Term::If {
            scrutinee: translate(env, scrutinee)?.rc(),
            then_branch: translate(env, then_branch)?.rc(),
            else_branch: translate(env, else_branch)?.rc(),
        },
        // [CC-Prod-*] / [CC-Prod-□]: Π types translate to closure types.
        src::Term::Pi { binder, domain, codomain } => {
            let inner = env.with_assumption(*binder, (**domain).clone());
            tgt::Term::Pi {
                binder: *binder,
                domain: translate(env, domain)?.rc(),
                codomain: translate(&inner, codomain)?.rc(),
            }
        }
        // [CC-Sig-*] / [CC-Sig-□]
        src::Term::Sigma { binder, first, second } => {
            let inner = env.with_assumption(*binder, (**first).clone());
            tgt::Term::Sigma {
                binder: *binder,
                first: translate(env, first)?.rc(),
                second: translate(&inner, second)?.rc(),
            }
        }
        // [CC-Lam]: the interesting case.
        src::Term::Lam { binder, domain, body } => {
            translate_lambda(env, term, *binder, domain, body)?
        }
        // [CC-App]: application is still the elimination form for closures.
        src::Term::App { func, arg } => {
            tgt::Term::App { func: translate(env, func)?.rc(), arg: translate(env, arg)?.rc() }
        }
        // [CC-Let]
        src::Term::Let { binder, annotation, bound, body } => {
            let inner = env.with_definition(*binder, (**bound).clone(), (**annotation).clone());
            tgt::Term::Let {
                binder: *binder,
                annotation: translate(env, annotation)?.rc(),
                bound: translate(env, bound)?.rc(),
                body: translate(&inner, body)?.rc(),
            }
        }
        // [CC-Pair]
        src::Term::Pair { first, second, annotation } => tgt::Term::Pair {
            first: translate(env, first)?.rc(),
            second: translate(env, second)?.rc(),
            annotation: translate(env, annotation)?.rc(),
        },
        // [CC-Fst] / [CC-Snd]
        src::Term::Fst(e) => tgt::Term::Fst(translate(env, e)?.rc()),
        src::Term::Snd(e) => tgt::Term::Snd(translate(env, e)?.rc()),
    })
}

/// The `[CC-Lam]` case: translates `λ binder : domain. body` into a closure.
fn translate_lambda(
    env: &src::Env,
    lambda: &src::Term,
    binder: Symbol,
    domain: &src::Term,
    body: &src::Term,
) -> Result<tgt::Term> {
    // The Π type of the function (needed because FV is computed for both the
    // function and its type — the codomain may mention free variables the
    // body does not).
    let function_ty = src::typecheck::infer(env, lambda)?;

    // xi : Ai … = FV(λ x : A. e, Π x : A. B, Γ)
    let free = dependent_free_vars(env, &[lambda, &function_ty])?;

    // Translate the types of the free variables; the telescope binds earlier
    // variables for later types, so translating under Γ is enough.
    let mut entries: Vec<(Symbol, tgt::Term)> = Vec::with_capacity(free.len());
    for (x, a) in &free {
        entries.push((*x, translate(env, a)?));
    }

    // Σ (xi : Ai⁺ …), terminated by the unit type.
    let environment_ty = tuple::telescope_type(&entries);
    // ⟨xi …⟩ — the dynamically constructed environment.
    let environment = tuple::variables_tuple(&entries);

    // The environment parameter of the code.
    let env_param = Symbol::fresh("n");
    let env_var = tgt::Term::Var(env_param);

    // x : let ⟨xi …⟩ = n in A⁺   — the argument annotation re-binds the free
    // variables so the (possibly dependent) domain remains well-scoped.
    let domain_translated = translate(env, domain)?;
    let argument_annotation = tuple::project_bindings(&env_var, &entries, domain_translated);

    // let ⟨xi …⟩ = n in e⁺
    let inner_env = env.with_assumption(binder, domain.clone());
    let body_translated = translate(&inner_env, body)?;
    let code_body = tuple::project_bindings(&env_var, &entries, body_translated);

    let code = tgt::Term::Code {
        env_binder: env_param,
        env_ty: environment_ty.rc(),
        arg_binder: binder,
        arg_ty: argument_annotation.rc(),
        body: code_body.rc(),
    };

    Ok(tgt::Term::Closure { code: code.rc(), env: environment.rc() })
}

/// Translates a whole environment `⊢ Γ ⇝ Γ` (the second judgment of
/// Figure 9): each entry's type (and definition) is translated under the
/// prefix that precedes it.
///
/// # Errors
///
/// Returns a [`TranslateError`] if any entry is ill-typed.
pub fn translate_env(env: &src::Env) -> Result<tgt::Env> {
    let mut source_prefix = src::Env::new();
    let mut translated = tgt::Env::new();
    for decl in env.iter() {
        match decl {
            src::Decl::Assumption { name, ty } => {
                let ty_translated = translate(&source_prefix, ty)?;
                translated.push_assumption(*name, ty_translated);
                source_prefix.push_assumption(*name, (**ty).clone());
            }
            src::Decl::Definition { name, ty, term } => {
                let ty_translated = translate(&source_prefix, ty)?;
                let term_translated = translate(&source_prefix, term)?;
                translated.push_definition(*name, term_translated, ty_translated);
                source_prefix.push_definition(*name, (**term).clone(), (**ty).clone());
            }
        }
    }
    Ok(translated)
}

/// Translates a closed, well-typed source program and returns the pair of
/// the translated term and the translation of its source type.
///
/// # Errors
///
/// Returns a [`TranslateError`] if the program is ill-typed.
pub fn translate_program(term: &src::Term) -> Result<(tgt::Term, tgt::Term)> {
    let env = src::Env::new();
    let ty = src::typecheck::infer(&env, term)?;
    Ok((translate(&env, term)?, translate(&env, &ty)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;
    use cccc_source::prelude;
    use cccc_target::builder as t;
    use cccc_target::equiv::definitionally_equal as target_eq;
    use cccc_target::reduce::normalize_default as target_normalize;
    use cccc_target::subst::{alpha_eq as target_alpha_eq, is_closed};

    fn empty_src() -> src::Env {
        src::Env::new()
    }

    fn empty_tgt() -> tgt::Env {
        tgt::Env::new()
    }

    #[test]
    fn variables_sorts_and_ground_terms_are_homomorphic() {
        let env = empty_src();
        assert!(target_alpha_eq(&translate(&env, &s::star()).unwrap(), &t::star()));
        assert!(target_alpha_eq(&translate(&env, &s::bool_ty()).unwrap(), &t::bool_ty()));
        assert!(target_alpha_eq(&translate(&env, &s::tt()).unwrap(), &t::tt()));
        assert!(target_alpha_eq(&translate(&env, &s::var("x")).unwrap(), &t::var("x")));
    }

    #[test]
    fn pi_types_translate_to_closure_types_structurally() {
        let env = empty_src();
        let translated = translate(&env, &prelude::poly_id_ty()).unwrap();
        let expected = t::pi("A", t::star(), t::pi("x", t::var("A"), t::var("A")));
        assert!(target_alpha_eq(&translated, &expected));
    }

    #[test]
    fn closed_lambda_gets_an_empty_environment() {
        // λ x : Bool. x  ⇝  ⟪λ (n : 1, x : let ⟨⟩ = n in Bool). …, ⟨⟩⟫
        let translated = translate(&empty_src(), &s::lam("x", s::bool_ty(), s::var("x"))).unwrap();
        match &translated {
            tgt::Term::Closure { code, env } => {
                assert!(target_alpha_eq(env, &t::unit_val()));
                assert!(is_closed(code), "code must be closed");
                match &**code {
                    tgt::Term::Code { env_ty, .. } => {
                        assert!(target_alpha_eq(env_ty, &t::unit_ty()))
                    }
                    other => panic!("expected code, got {other}"),
                }
            }
            other => panic!("expected closure, got {other}"),
        }
    }

    #[test]
    fn free_variables_are_captured_in_the_environment() {
        // Under Γ = y : Bool, the translation of λ x : Bool. y captures y.
        let env = empty_src().with_assumption(Symbol::intern("y"), s::bool_ty());
        let translated = translate(&env, &s::lam("x", s::bool_ty(), s::var("y"))).unwrap();
        match &translated {
            tgt::Term::Closure { code, env: closure_env } => {
                assert!(is_closed(code), "code must be closed even with captured variables");
                // The environment tuple mentions y.
                assert!(cccc_target::subst::occurs_free(Symbol::intern("y"), closure_env));
            }
            other => panic!("expected closure, got {other}"),
        }
    }

    #[test]
    fn polymorphic_identity_translates_to_the_papers_nested_closures() {
        let translated = translate(&empty_src(), &prelude::poly_id()).unwrap();
        // Two closures, two pieces of code, and every piece of code closed.
        assert_eq!(translated.closure_count(), 2);
        assert_eq!(translated.code_count(), 2);
        let mut all_code_closed = true;
        translated.visit(&mut |node| {
            if matches!(node, tgt::Term::Code { .. }) && !is_closed(node) {
                all_code_closed = false;
            }
        });
        assert!(all_code_closed);
        // And it type checks at the translated type.
        let ty = tgt::typecheck::infer(&empty_tgt(), &translated).unwrap();
        let expected = translate(&empty_src(), &prelude::poly_id_ty()).unwrap();
        assert!(target_eq(&empty_tgt(), &ty, &expected), "got {ty}, expected {expected}");
    }

    #[test]
    fn applications_still_run_after_translation() {
        // (λ A : ⋆. λ x : A. x) Bool true ⇝ … ⊲* true
        let program = s::app(s::app(prelude::poly_id(), s::bool_ty()), s::tt());
        let translated = translate(&empty_src(), &program).unwrap();
        let value = target_normalize(&empty_tgt(), &translated);
        assert!(target_alpha_eq(&value, &t::tt()));
    }

    #[test]
    fn lets_pairs_and_projections_are_homomorphic() {
        let program = s::let_(
            "p",
            s::sigma("x", s::bool_ty(), s::bool_ty()),
            s::pair(s::tt(), s::ff(), s::sigma("x", s::bool_ty(), s::bool_ty())),
            s::fst(s::var("p")),
        );
        let translated = translate(&empty_src(), &program).unwrap();
        assert!(matches!(translated, tgt::Term::Let { .. }));
        let value = target_normalize(&empty_tgt(), &translated);
        assert!(target_alpha_eq(&value, &t::tt()));
    }

    #[test]
    fn ill_typed_source_terms_are_rejected() {
        // The translation is type-directed at λ-abstractions, so an
        // ill-typed function body is detected there.
        let bad = s::lam("x", s::bool_ty(), s::app(s::tt(), s::ff()));
        assert!(matches!(translate(&empty_src(), &bad), Err(TranslateError::SourceType(_))));
        let unbound = s::lam("x", s::bool_ty(), s::var("ghost"));
        assert!(translate(&empty_src(), &unbound).is_err());
    }

    #[test]
    fn environment_translation_preserves_structure() {
        let env = empty_src()
            .with_assumption(Symbol::intern("A"), s::star())
            .with_assumption(Symbol::intern("x"), s::var("A"))
            .with_definition(Symbol::intern("b"), s::tt(), s::bool_ty());
        let translated = translate_env(&env).unwrap();
        assert_eq!(translated.len(), 3);
        assert!(tgt::typecheck::check_env(&translated).is_ok());
    }

    #[test]
    fn translate_program_returns_term_and_type() {
        let (term, ty) = translate_program(&prelude::poly_id()).unwrap();
        assert!(tgt::typecheck::check(&empty_tgt(), &term, &ty).is_ok());
    }

    #[test]
    fn translation_is_deterministic_up_to_alpha() {
        let a = translate(&empty_src(), &prelude::church_add()).unwrap();
        let b = translate(&empty_src(), &prelude::church_add()).unwrap();
        assert!(target_alpha_eq(&a, &b));
    }

    #[test]
    fn code_size_grows_but_lambda_count_matches_closure_count() {
        for entry in prelude::corpus() {
            let translated = translate(&empty_src(), &entry.term).unwrap();
            assert_eq!(
                entry.term.lambda_count(),
                translated.closure_count(),
                "`{}`: every λ must become exactly one closure",
                entry.name
            );
            assert!(translated.size() >= entry.term.size());
        }
    }
}
