//! Abstract syntax of CC (Figure 1 of the paper).
//!
//! CC is the Calculus of Constructions extended with strong dependent pairs
//! (Σ types), dependent let, and η-equivalence for functions. Expressions
//! make no syntactic distinction between terms, types, and kinds; the
//! universe `⋆` (small types) is itself typed by `□` (large types), and `□`
//! has no type.
//!
//! Following §5.2 of the paper we also include the ground type `Bool` with
//! literals and a non-dependent `if`, which is what the correctness-of-
//! separate-compilation theorem observes.

use cccc_util::intern::{FreeVars, InternStats, Internable, Interner, Node, NodeMeta};
use cccc_util::symbol::Symbol;
use std::cell::RefCell;
use std::fmt;

/// The two universes of CC.
///
/// `⋆` ([`Universe::Star`]) is the impredicative universe of small types
/// (the types of programs); `□` ([`Universe::Box`]) is the predicative
/// universe of large types (the types of types). `□` is not a term: it never
/// appears in well-typed programs, only as the inferred type of `⋆` and of
/// kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Universe {
    /// The impredicative universe `⋆` of small types.
    Star,
    /// The predicative universe `□` of large types.
    Box,
}

impl fmt::Display for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Universe::Star => write!(f, "*"),
            Universe::Box => write!(f, "□"),
        }
    }
}

/// A hash-consed, reference-counted CC term handle. Terms are immutable;
/// substitution and reduction build new terms, sharing unchanged subterms.
///
/// Handles are produced by [`Term::rc`], which routes through a
/// thread-local [`Interner`]: structurally identical subterms share one
/// allocation and one [`NodeId`](cccc_util::intern::NodeId), so `==` on
/// handles is an O(1) identity test that coincides with structural
/// equality, and every node carries cached metadata — free-variable set,
/// closedness, depth, size (see [`cccc_util::intern`]).
pub type RcTerm = Node<Term>;

/// CC expressions (Figure 1).
///
/// The meta-variables `e`, `A`, `B` of the paper all range over this single
/// syntactic category.
///
/// The derived `PartialEq`/`Eq`/`Hash` are *shallow-structural*: children
/// compare by node identity, which — thanks to hash-consing — is full
/// structural equality (not α-equivalence; use
/// [`crate::subst::alpha_eq`] for that).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable `x`.
    Var(Symbol),
    /// A universe `⋆` or `□`.
    Sort(Universe),
    /// Dependent function type `Π x : A. B`.
    Pi {
        /// The bound variable `x` (may occur in `codomain`).
        binder: Symbol,
        /// The domain `A`.
        domain: RcTerm,
        /// The codomain `B`, which may mention `binder`.
        codomain: RcTerm,
    },
    /// Function `λ x : A. e`.
    Lam {
        /// The bound variable `x`.
        binder: Symbol,
        /// The annotation `A` on the argument.
        domain: RcTerm,
        /// The body `e`.
        body: RcTerm,
    },
    /// Application `e1 e2`.
    App {
        /// The function position `e1`.
        func: RcTerm,
        /// The argument position `e2`.
        arg: RcTerm,
    },
    /// Dependent let `let x = e : A in e'`.
    Let {
        /// The bound variable `x`.
        binder: Symbol,
        /// The annotation `A` on the definition.
        annotation: RcTerm,
        /// The definition `e`.
        bound: RcTerm,
        /// The body `e'`, which may mention `binder`.
        body: RcTerm,
    },
    /// Strong dependent pair type `Σ x : A. B`.
    Sigma {
        /// The bound variable `x` (names the first component in `second`).
        binder: Symbol,
        /// The type `A` of the first component.
        first: RcTerm,
        /// The type `B` of the second component, which may mention `binder`.
        second: RcTerm,
    },
    /// Dependent pair `⟨e1, e2⟩ as Σ x : A. B`.
    Pair {
        /// The first component `e1`.
        first: RcTerm,
        /// The second component `e2`.
        second: RcTerm,
        /// The Σ-type annotation the pair is formed at.
        annotation: RcTerm,
    },
    /// First projection `fst e`.
    Fst(RcTerm),
    /// Second projection `snd e`.
    Snd(RcTerm),
    /// The ground type `Bool` (§5.2).
    BoolTy,
    /// A boolean literal `true` or `false`.
    BoolLit(bool),
    /// Non-dependent conditional `if e then e1 else e2`.
    If {
        /// The scrutinee, of type `Bool`.
        scrutinee: RcTerm,
        /// The branch taken when the scrutinee is `true`.
        then_branch: RcTerm,
        /// The branch taken when the scrutinee is `false`.
        else_branch: RcTerm,
    },
}

thread_local! {
    /// The per-thread CC term interner. All smart constructors route
    /// through it, so structurally identical terms built on the same
    /// thread always share one node.
    static INTERNER: RefCell<Interner<Term>> = RefCell::new(Interner::new());
}

/// A snapshot of the CC interner's hit/miss counters (for benchmarks and
/// smoke assertions).
pub fn intern_stats() -> InternStats {
    INTERNER.with(|i| i.borrow().stats())
}

/// Number of entries currently in the CC interner table (live nodes
/// plus dead slots not yet reused or swept).
pub fn intern_table_len() -> usize {
    INTERNER.with(|i| i.borrow().len())
}

impl Internable for Term {
    fn compute_meta(&self) -> NodeMeta {
        // All unions go through [`FreeVars::union`]/[`FreeVars::minus`],
        // which share an existing child allocation whenever one side
        // covers the other — most nodes allocate nothing here.
        match self {
            Term::Var(x) => NodeMeta::leaf(FreeVars::singleton(*x)),
            Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => NodeMeta::leaf(FreeVars::closed()),
            Term::Pi { binder, domain, codomain: body }
            | Term::Lam { binder, domain, body }
            | Term::Sigma { binder, first: domain, second: body } => {
                let fv = FreeVars::union(domain.free_vars(), &body.free_vars().minus(&[*binder]));
                NodeMeta::node(fv, [domain.meta(), body.meta()])
            }
            Term::App { func, arg } => {
                let fv = FreeVars::union(func.free_vars(), arg.free_vars());
                NodeMeta::node(fv, [func.meta(), arg.meta()])
            }
            Term::Let { binder, annotation, bound, body } => {
                let fv = FreeVars::union(
                    &FreeVars::union(annotation.free_vars(), bound.free_vars()),
                    &body.free_vars().minus(&[*binder]),
                );
                NodeMeta::node(fv, [annotation.meta(), bound.meta(), body.meta()])
            }
            Term::Pair { first, second, annotation } => {
                let fv = FreeVars::union(
                    &FreeVars::union(first.free_vars(), second.free_vars()),
                    annotation.free_vars(),
                );
                NodeMeta::node(fv, [first.meta(), second.meta(), annotation.meta()])
            }
            // Single-child nodes share the child's set outright.
            Term::Fst(e) | Term::Snd(e) => NodeMeta::node(e.free_vars().clone(), [e.meta()]),
            Term::If { scrutinee, then_branch, else_branch } => {
                let fv = FreeVars::union(
                    &FreeVars::union(scrutinee.free_vars(), then_branch.free_vars()),
                    else_branch.free_vars(),
                );
                NodeMeta::node(fv, [scrutinee.meta(), then_branch.meta(), else_branch.meta()])
            }
        }
    }
}

impl Term {
    /// Interns the term, returning its hash-consed handle. O(1) in the
    /// size of the term: children are already interned, so only the head
    /// is hashed and, on a miss, only the head's metadata is derived.
    pub fn rc(self) -> RcTerm {
        INTERNER.with(|i| i.borrow_mut().intern(self))
    }

    /// Returns `true` for the universe `⋆`.
    pub fn is_star(&self) -> bool {
        matches!(self, Term::Sort(Universe::Star))
    }

    /// Returns `true` for the universe `□`.
    pub fn is_box(&self) -> bool {
        matches!(self, Term::Sort(Universe::Box))
    }

    /// Returns the universe if the term is a sort.
    pub fn as_sort(&self) -> Option<Universe> {
        match self {
            Term::Sort(u) => Some(*u),
            _ => None,
        }
    }

    /// Returns the variable name if the term is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns `true` when the term is a *value* in the sense of Theorem 4.8:
    /// a universe, a function, a pair, a type constructor, or a boolean
    /// literal.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Term::Sort(_)
                | Term::Lam { .. }
                | Term::Pi { .. }
                | Term::Sigma { .. }
                | Term::Pair { .. }
                | Term::BoolTy
                | Term::BoolLit(_)
        )
    }

    /// Calls `f` on each *direct* child handle, left to right.
    pub fn for_each_child(&self, mut f: impl FnMut(&RcTerm)) {
        match self {
            Term::Var(_) | Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => {}
            Term::Pi { domain: a, codomain: b, .. }
            | Term::Lam { domain: a, body: b, .. }
            | Term::Sigma { first: a, second: b, .. }
            | Term::App { func: a, arg: b } => {
                f(a);
                f(b);
            }
            Term::Let { annotation: a, bound: b, body: c, .. }
            | Term::Pair { first: a, second: b, annotation: c }
            | Term::If { scrutinee: a, then_branch: b, else_branch: c } => {
                f(a);
                f(b);
                f(c);
            }
            Term::Fst(e) | Term::Snd(e) => f(e),
        }
    }

    /// The number of AST nodes in the term, counted *as a tree* (shared
    /// subterms count once per occurrence). Used by the benchmarks to
    /// report code-size blow-up of the translation. O(1): summed from the
    /// children's cached metadata rather than traversed.
    pub fn size(&self) -> usize {
        let mut total: u64 = 1;
        self.for_each_child(|c| total = total.saturating_add(c.meta().size));
        total.try_into().unwrap_or(usize::MAX)
    }

    /// The maximum depth of the AST. O(1) via cached metadata.
    pub fn depth(&self) -> usize {
        let mut deepest: u32 = 0;
        self.for_each_child(|c| deepest = deepest.max(c.meta().depth));
        (deepest + 1) as usize
    }

    /// Counts the number of λ-abstractions in the term; every one of them
    /// becomes a closure after closure conversion.
    pub fn lambda_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |t| {
            if matches!(t, Term::Lam { .. }) {
                count += 1;
            }
        });
        count
    }

    /// Calls `f` on this term and every subterm, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Term)) {
        f(self);
        match self {
            Term::Var(_) | Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => {}
            Term::Pi { domain, codomain, .. } => {
                domain.visit(f);
                codomain.visit(f);
            }
            Term::Lam { domain, body, .. } => {
                domain.visit(f);
                body.visit(f);
            }
            Term::App { func, arg } => {
                func.visit(f);
                arg.visit(f);
            }
            Term::Let { annotation, bound, body, .. } => {
                annotation.visit(f);
                bound.visit(f);
                body.visit(f);
            }
            Term::Sigma { first, second, .. } => {
                first.visit(f);
                second.visit(f);
            }
            Term::Pair { first, second, annotation } => {
                first.visit(f);
                second.visit(f);
                annotation.visit(f);
            }
            Term::Fst(e) | Term::Snd(e) => e.visit(f),
            Term::If { scrutinee, then_branch, else_branch } => {
                scrutinee.visit(f);
                then_branch.visit(f);
                else_branch.visit(f);
            }
        }
    }

    /// Splits an application spine: `f a b c` becomes `(f, [a, b, c])`.
    pub fn spine(&self) -> (&Term, Vec<&RcTerm>) {
        let mut args = Vec::new();
        let mut head = self;
        while let Term::App { func, arg } = head {
            args.push(arg);
            head = func;
        }
        args.reverse();
        (head, args)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::term_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn universe_display() {
        assert_eq!(Universe::Star.to_string(), "*");
        assert_eq!(Universe::Box.to_string(), "□");
    }

    #[test]
    fn size_counts_nodes() {
        // λ x : Bool. x  has 3 nodes: Lam, BoolTy, Var.
        let t = lam("x", bool_ty(), var("x"));
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn lambda_count_counts_abstractions() {
        let t = lam("a", star(), lam("x", var("a"), var("x")));
        assert_eq!(t.lambda_count(), 2);
        assert_eq!(star().lambda_count(), 0);
    }

    #[test]
    fn values_are_recognized() {
        assert!(star().is_value());
        assert!(lam("x", bool_ty(), var("x")).is_value());
        assert!(bool_lit(true).is_value());
        assert!(!app(lam("x", bool_ty(), var("x")), bool_lit(true)).is_value());
        assert!(!var("x").is_value());
    }

    #[test]
    fn as_sort_and_as_var() {
        assert_eq!(star().as_sort(), Some(Universe::Star));
        assert_eq!(var("q").as_var().map(|s| s.base_name()), Some("q"));
        assert_eq!(var("q").as_sort(), None);
        assert!(star().is_star());
        assert!(boxu().is_box());
    }

    #[test]
    fn spine_splits_applications() {
        let t = app(app(var("f"), var("a")), var("b"));
        let (head, args) = t.spine();
        assert!(matches!(head, Term::Var(_)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn visit_reaches_every_node() {
        let t = pair(bool_lit(true), bool_lit(false), sigma("x", bool_ty(), bool_ty()));
        let mut n = 0;
        t.visit(&mut |_| n += 1);
        assert_eq!(n, t.size());
    }
}
