//! Property suite for the hash-consed term kernel on CC-CC.
//!
//! Mirrors `cccc-source`'s `intern_properties` suite on the target
//! language, whose two-binder `Code`/`CodeTy` forms and closedness
//! predicate are the metadata's hardest cases:
//!
//! * **identity vs. α-equivalence** — an independent bottom-up rebuild of
//!   a program converges onto the same interned nodes, and node identity
//!   implies α-equivalence;
//! * **metadata agreement** — the cached free-variable set, the `[Code]`
//!   closedness bit, depth, and size match an independent
//!   recomputed-from-scratch traversal;
//! * **memoized conversion** — the memoized `equiv` agrees with the raw
//!   NbE engine (`conv_terms`, no memo) and the step-based oracle
//!   (`equiv_spec`), and answers identically when asked again from cache;
//! * **memoized typing** — the closed-term typing memo answers with the
//!   same type (up to α) and verdict whether it is cold or warmed by other
//!   programs, and the step engine agrees.

use cccc_target::builder::*;
use cccc_target::subst::alpha_eq;
use cccc_target::{equiv, nbe, typecheck, Env, RcTerm, Term};
use cccc_util::fuel::Fuel;
use cccc_util::Symbol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A deterministic, seedable generator of well-typed ground CC-CC
/// programs, covering the shapes closure conversion emits: empty and
/// capturing environments, ζ-redexes, projections, conditionals.
struct TargetGenerator {
    rng: StdRng,
    counter: u64,
}

impl TargetGenerator {
    fn new(seed: u64) -> TargetGenerator {
        TargetGenerator { rng: StdRng::seed_from_u64(seed), counter: 0 }
    }

    fn fresh(&mut self, base: &str) -> Symbol {
        self.counter += 1;
        Symbol::fresh(&format!("{base}{}", self.counter))
    }

    fn gen_bool(&mut self, depth: usize) -> Term {
        if depth == 0 {
            return bool_lit(self.rng.gen_bool(0.5));
        }
        match self.rng.gen_range(0..6u32) {
            0 => bool_lit(self.rng.gen_bool(0.5)),
            1 => ite(self.gen_bool(depth - 1), self.gen_bool(depth - 1), self.gen_bool(depth - 1)),
            2 => {
                let annotation = product(bool_ty(), bool_ty());
                let p = pair(self.gen_bool(depth - 1), self.gen_bool(depth - 1), annotation);
                if self.rng.gen_bool(0.5) {
                    fst(p)
                } else {
                    snd(p)
                }
            }
            3 => {
                let x = self.fresh("x");
                let body = ite(var_sym(x), bool_lit(self.rng.gen_bool(0.5)), var_sym(x));
                let clo =
                    closure(code_sym(self.fresh("n"), unit_ty(), x, bool_ty(), body), unit_val());
                app(clo, self.gen_bool(depth - 1))
            }
            4 => {
                let n = self.fresh("n");
                let x = self.fresh("x");
                let env_ty = product(bool_ty(), unit_ty());
                let body = ite(fst(var_sym(n)), var_sym(x), bool_lit(self.rng.gen_bool(0.5)));
                let clo = closure(
                    code_sym(n, env_ty.clone(), x, bool_ty(), body),
                    pair(self.gen_bool(depth - 1), unit_val(), env_ty),
                );
                app(clo, self.gen_bool(depth - 1))
            }
            _ => {
                let u = self.fresh("u");
                let_sym(
                    u,
                    bool_ty(),
                    self.gen_bool(depth - 1),
                    ite(var_sym(u), self.gen_bool(depth - 1), var_sym(u)),
                )
            }
        }
    }
}

const SEEDS: u64 = 60;

/// Independent reference implementation of the free-variable set — a plain
/// traversal with an explicit bound-variable stack, including the
/// telescoped scoping of `Code`/`CodeTy` (`env_binder` over argument type
/// and body, `arg_binder` over the body only).
fn reference_free_vars(term: &Term, bound: &mut Vec<Symbol>, out: &mut HashSet<Symbol>) {
    match term {
        Term::Var(x) => {
            if !bound.contains(x) {
                out.insert(*x);
            }
        }
        Term::Sort(_) | Term::Unit | Term::UnitVal | Term::BoolTy | Term::BoolLit(_) => {}
        Term::Pi { binder, domain, codomain: body }
        | Term::Sigma { binder, first: domain, second: body } => {
            reference_free_vars(domain, bound, out);
            bound.push(*binder);
            reference_free_vars(body, bound, out);
            bound.pop();
        }
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body }
        | Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result: body } => {
            reference_free_vars(env_ty, bound, out);
            bound.push(*env_binder);
            reference_free_vars(arg_ty, bound, out);
            bound.push(*arg_binder);
            reference_free_vars(body, bound, out);
            bound.pop();
            bound.pop();
        }
        Term::Closure { code, env } => {
            reference_free_vars(code, bound, out);
            reference_free_vars(env, bound, out);
        }
        Term::App { func, arg } => {
            reference_free_vars(func, bound, out);
            reference_free_vars(arg, bound, out);
        }
        Term::Let { binder, annotation, bound: bound_term, body } => {
            reference_free_vars(annotation, bound, out);
            reference_free_vars(bound_term, bound, out);
            bound.push(*binder);
            reference_free_vars(body, bound, out);
            bound.pop();
        }
        Term::Pair { first, second, annotation } => {
            reference_free_vars(first, bound, out);
            reference_free_vars(second, bound, out);
            reference_free_vars(annotation, bound, out);
        }
        Term::Fst(e) | Term::Snd(e) => reference_free_vars(e, bound, out),
        Term::If { scrutinee, then_branch, else_branch } => {
            reference_free_vars(scrutinee, bound, out);
            reference_free_vars(then_branch, bound, out);
            reference_free_vars(else_branch, bound, out);
        }
    }
}

fn reference_size(term: &Term) -> usize {
    let mut n = 0;
    term.visit(&mut |_| n += 1);
    n
}

fn assert_metadata_matches(node: &RcTerm) {
    let mut expected = HashSet::new();
    reference_free_vars(node, &mut Vec::new(), &mut expected);
    let cached: HashSet<Symbol> = node.free_vars().iter().collect();
    assert_eq!(cached, expected, "cached free vars disagree on {}", &**node);
    assert_eq!(node.is_closed(), expected.is_empty());
    assert_eq!(
        cccc_target::subst::is_closed(node),
        expected.is_empty(),
        "is_closed disagrees on {}",
        &**node
    );
    assert_eq!(node.meta().size as usize, reference_size(node), "size disagrees on {}", &**node);
    assert_eq!(node.meta().depth as usize, node.depth(), "depth disagrees on {}", &**node);
}

/// Rebuilds a term from scratch, re-interning every node bottom-up —
/// nothing is shared with the input except `Symbol`s.
fn deep_rebuild(term: &Term) -> RcTerm {
    let r = |t: &RcTerm| deep_rebuild(t);
    match term {
        Term::Var(_)
        | Term::Sort(_)
        | Term::Unit
        | Term::UnitVal
        | Term::BoolTy
        | Term::BoolLit(_) => term.clone().rc(),
        Term::Pi { binder, domain, codomain } => {
            Term::Pi { binder: *binder, domain: r(domain), codomain: r(codomain) }.rc()
        }
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => Term::Code {
            env_binder: *env_binder,
            env_ty: r(env_ty),
            arg_binder: *arg_binder,
            arg_ty: r(arg_ty),
            body: r(body),
        }
        .rc(),
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => Term::CodeTy {
            env_binder: *env_binder,
            env_ty: r(env_ty),
            arg_binder: *arg_binder,
            arg_ty: r(arg_ty),
            result: r(result),
        }
        .rc(),
        Term::Closure { code, env } => Term::Closure { code: r(code), env: r(env) }.rc(),
        Term::App { func, arg } => Term::App { func: r(func), arg: r(arg) }.rc(),
        Term::Let { binder, annotation, bound, body } => {
            Term::Let { binder: *binder, annotation: r(annotation), bound: r(bound), body: r(body) }
                .rc()
        }
        Term::Sigma { binder, first, second } => {
            Term::Sigma { binder: *binder, first: r(first), second: r(second) }.rc()
        }
        Term::Pair { first, second, annotation } => {
            Term::Pair { first: r(first), second: r(second), annotation: r(annotation) }.rc()
        }
        Term::Fst(e) => Term::Fst(r(e)).rc(),
        Term::Snd(e) => Term::Snd(r(e)).rc(),
        Term::If { scrutinee, then_branch, else_branch } => Term::If {
            scrutinee: r(scrutinee),
            then_branch: r(then_branch),
            else_branch: r(else_branch),
        }
        .rc(),
    }
}

#[test]
fn structurally_identical_programs_intern_to_the_same_node() {
    for seed in 0..SEEDS {
        let term = TargetGenerator::new(seed).gen_bool(3);
        let na = term.clone().rc();
        let nb = deep_rebuild(&term);
        assert!(na.same(&nb), "seed {seed}: identical programs got distinct nodes");
        assert_eq!(na.id(), nb.id());
        assert_eq!(na, nb);
        assert!(alpha_eq(&na, &nb), "seed {seed}: identical nodes not α-equal");
    }
}

#[test]
fn cached_metadata_matches_recomputation() {
    for seed in 0..SEEDS {
        let term = TargetGenerator::new(10_000 + seed).gen_bool(3);
        assert_metadata_matches(&term.clone().rc());
        term.visit(&mut |sub| {
            sub.for_each_child(assert_metadata_matches);
        });
    }
}

#[test]
fn well_typed_code_blocks_report_closed_metadata() {
    for seed in 0..SEEDS {
        let term = TargetGenerator::new(20_000 + seed).gen_bool(3);
        assert!(typecheck::infer(&Env::new(), &term).is_ok(), "seed {seed}");
        term.visit(&mut |sub| {
            if matches!(sub, Term::Code { .. }) {
                let node = sub.clone().rc();
                assert!(node.is_closed(), "seed {seed}: code `{}` not closed", &*node);
            }
        });
    }
}

#[test]
fn memoized_conversion_agrees_with_raw_nbe_and_step_oracle() {
    for seed in 0..SEEDS {
        let left = TargetGenerator::new(30_000 + seed).gen_bool(3);
        let right = TargetGenerator::new(40_000 + seed).gen_bool(3);
        let env = Env::new();

        let memoized = {
            let mut fuel = Fuel::default();
            equiv::equiv(&env, &left, &right, &mut fuel).unwrap_or(false)
        };
        let raw_nbe = {
            let mut fuel = Fuel::default();
            nbe::conv_terms(&env, &left, &right, &mut fuel).unwrap_or(false)
        };
        let step = {
            let mut fuel = Fuel::default();
            equiv::equiv_spec(&env, &left, &right, &mut fuel).unwrap_or(false)
        };
        assert_eq!(memoized, raw_nbe, "seed {seed}: memo vs raw NbE\n  {left}\n  {right}");
        assert_eq!(memoized, step, "seed {seed}: memo vs step oracle\n  {left}\n  {right}");

        let mut fuel = Fuel::default();
        let again = equiv::equiv(&env, &left, &right, &mut fuel).unwrap_or(false);
        assert_eq!(memoized, again, "seed {seed}: cached answer changed");
    }
}

/// Every closed subterm of the generated programs, plus one ill-typed
/// closed wrapper per program (`if p then p else ⟨⟩`), so verdicts cover
/// errors too. Each is held as a live node, as the pipeline holds its terms.
fn closed_judgments(seed_base: u64) -> Vec<RcTerm> {
    let mut terms = Vec::new();
    for seed in 0..SEEDS {
        let program = TargetGenerator::new(seed_base + seed).gen_bool(3);
        program.visit(&mut |sub| {
            if cccc_target::subst::is_closed(sub) {
                terms.push(sub.clone().rc());
            }
        });
        terms.push(ite(program.clone(), program, unit_val()).rc());
    }
    terms
}

#[test]
fn closed_memo_state_never_changes_a_typing_verdict() {
    let terms = closed_judgments(70_000);
    let env = Env::new();
    let cold: Vec<_> = terms
        .iter()
        .map(|t| {
            typecheck::reset_closed_memo();
            typecheck::infer(&env, t)
        })
        .collect();
    // Warm the memo with every other judgment, in both orders.
    typecheck::reset_closed_memo();
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..terms.len()).collect();
        if reversed {
            order.reverse();
        }
        for i in order {
            let term = &terms[i];
            let warm = typecheck::infer(&env, term);
            match (&cold[i], &warm) {
                (Ok(c), Ok(w)) => assert!(alpha_eq(c, w), "{}: cold {c} vs warm {w}", &**term),
                (Err(c), Err(w)) => assert_eq!(c.code(), w.code(), "{}", &**term),
                _ => panic!("{}: cold {:?} vs warm {warm:?}", &**term, cold[i]),
            }
            let step = typecheck::infer_with_engine(&env, term, equiv::Engine::Step);
            assert_eq!(warm.is_ok(), step.is_ok(), "{}: NbE vs step verdict", &**term);
        }
    }
}

#[test]
fn memoized_conversion_agrees_on_redex_reduct_pairs() {
    for seed in 0..SEEDS {
        let term = TargetGenerator::new(50_000 + seed).gen_bool(3);
        let env = Env::new();
        let reduct = cccc_target::reduce::normalize_default(&env, &term);
        let mut fuel = Fuel::default();
        assert!(
            equiv::equiv(&env, &term, &reduct, &mut fuel).unwrap(),
            "seed {seed}: term not equal to its own normal form"
        );
        let mut fuel = Fuel::default();
        assert!(equiv::equiv_spec(&env, &term, &reduct, &mut fuel).unwrap());
    }
}

#[test]
fn identity_fast_path_fires_on_identical_handles() {
    let before = equiv::conv_cache_stats().identity_hits;
    let term = TargetGenerator::new(99).gen_bool(3);
    let env = Env::new();
    let mut fuel = Fuel::default();
    assert!(equiv::equiv(&env, &term.clone(), &term, &mut fuel).unwrap());
    let after = equiv::conv_cache_stats().identity_hits;
    assert!(after > before, "identity fast path was not exercised");
}
