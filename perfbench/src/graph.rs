//! Seeded module graphs and edit scripts.
//!
//! A graph has [`LIBS`] polymorphic library units, [`CLIENTS`] client
//! units and one root, `main`. Each unit's Church arithmetic multiplies a
//! pair of numerals `(m, n)` that no other unit of its kind has, so the
//! units are pairwise α-distinct and each pays for every phase: the
//! driver's α-keyed memos cannot answer one unit from another. Across
//! seeds, graphs keep the same total work: the pairs are a fixed set in
//! shuffled order, and every [`TermGenerator`] program is drawn from a
//! fixed size band. What the seed varies is which unit gets which pair,
//! the programs, and the import edges.
//!
//! Clients are split into one family per library. A client imports its
//! family's library (most do) and up to two earlier clients of the same
//! family, so flipping a library's signature recompiles that family and
//! `main`, and nothing else. Linking substitutes an import's linked code
//! into every importer, so a client's linked code holds one copy of each
//! client below it per path; import edges are capped so that this is at
//! most [`MAX_LINKED_BODIES`] client bodies, which keeps the run time of
//! the linked program within a narrow range across seeds.

use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::generate::TermGenerator;
use cccc_source::prelude;

/// Library units per graph.
pub const LIBS: usize = 4;
/// Client units per graph (the root `main` comes on top).
pub const CLIENTS: usize = 35;
/// Clients without a library import (the rest import their family's).
const LIBLESS_CLIENTS: usize = 3;
/// The most client bodies one client's linked code may hold.
pub const MAX_LINKED_BODIES: usize = 4;
/// Client numeral sizes: `m` in `SIZES`, `n` in `SIZES` or one more, so
/// the edit script always finds a pair no other client holds.
const SIZES: std::ops::RangeInclusive<usize> = 2..=7;
/// Wire-word band every generated ground program must fall in.
const GROUND_WORDS: std::ops::RangeInclusive<usize> = 30..=60;

/// A small deterministic generator (SplitMix64): the benchmark's inputs
/// depend on the seed alone, never on the platform's randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a unit is, with its import edges as unit indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Π A:⋆. A → A`, or `Π A:⋆. A → Bool` when flipped.
    Lib {
        /// Whether the signature is currently the `A → Bool` one.
        flipped: bool,
    },
    /// A `Bool` client of an optional library and earlier clients.
    Client {
        /// The library it applies at `Bool`, if any.
        lib: Option<usize>,
        /// The earlier clients it folds with `if`.
        clients: Vec<usize>,
    },
    /// The root: folds every client no other client imports.
    Root {
        /// The folded clients.
        sinks: Vec<usize>,
    },
}

/// Everything a unit's source is built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitSpec {
    /// Unit name (also the variable importers use).
    pub name: String,
    /// Kind and import edges.
    pub kind: Kind,
    /// Church arithmetic `is_even (m · n)`; no two units of a kind share
    /// the pair `(m, n)`.
    pub m: usize,
    /// See [`UnitSpec::m`].
    pub n: usize,
    /// Seed of the client's [`TermGenerator`] ground program.
    pub ground_seed: u64,
    /// Binder-name version: bumping it is an α-rename.
    pub names: u64,
}

/// A module graph in topological order (the root last).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// The units.
    pub units: Vec<UnitSpec>,
}

/// One edit of an edit script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// New arithmetic sizes and ground program for a client; its
    /// interface stays `Bool`.
    Impl {
        /// Unit index.
        unit: usize,
        /// New `m`.
        m: usize,
        /// New `n`.
        n: usize,
        /// New ground-program seed.
        ground_seed: u64,
    },
    /// Renames every binder the unit's source introduces.
    Rename {
        /// Unit index.
        unit: usize,
    },
    /// Switches a library between `A → A` and `A → Bool`.
    Flip {
        /// Unit index.
        unit: usize,
    },
}

impl Edit {
    /// The edited unit.
    pub fn unit(&self) -> usize {
        match self {
            Edit::Impl { unit, .. } | Edit::Rename { unit } | Edit::Flip { unit } => *unit,
        }
    }
}

/// The first ground-program seed at or after `seed` whose program falls
/// in [`GROUND_WORDS`].
fn banded_ground_seed(mut seed: u64) -> u64 {
    while !GROUND_WORDS.contains(&src::wire::encode(&ground_program(seed)).len()) {
        seed = seed.wrapping_add(1);
    }
    seed
}

fn ground_program(seed: u64) -> src::Term {
    TermGenerator::new(seed).gen_ground_program()
}

/// `m · n` as Church arithmetic.
fn arithmetic(m: usize, n: usize) -> src::Term {
    s::apps(prelude::church_mul(), [prelude::church_numeral(m), prelude::church_numeral(n)])
}

fn is_even(n: src::Term) -> src::Term {
    s::app(prelude::church_is_even(), n)
}

/// `a xor b` written with `if` (`b` must be a variable, it occurs twice).
fn xor(a: src::Term, b: src::Term) -> src::Term {
    s::ite(a, s::ite(b.clone(), s::ff(), s::tt()), b)
}

/// `let x₁ : Bool = e₁ in … let xₖ : Bool = eₖ in xₖ`.
fn let_chain(bindings: Vec<(String, src::Term)>) -> src::Term {
    let last = bindings.last().expect("a chain binds something").0.clone();
    bindings
        .into_iter()
        .rev()
        .fold(s::var(&last), |body, (x, bound)| s::let_(&x, s::bool_ty(), bound, body))
}

impl Graph {
    /// The graph for `seed`.
    pub fn generate(seed: u64) -> Graph {
        let mut rng = Rng::new(seed);
        let mut units = Vec::with_capacity(LIBS + CLIENTS + 1);
        let mut lib_sizes: Vec<(usize, usize)> = (0..LIBS).map(|j| (3 + j, 6 - j)).collect();
        rng.shuffle(&mut lib_sizes);
        for (j, (m, n)) in lib_sizes.into_iter().enumerate() {
            units.push(UnitSpec {
                name: format!("lib{j}"),
                kind: Kind::Lib { flipped: false },
                m,
                n,
                ground_seed: 0,
                names: 0,
            });
        }
        let mut sizes: Vec<(usize, usize)> =
            SIZES.flat_map(|m| SIZES.map(move |n| (m, n))).take(CLIENTS).collect();
        rng.shuffle(&mut sizes);
        let mut has_lib = vec![true; CLIENTS];
        for slot in has_lib.iter_mut().take(LIBLESS_CLIENTS) {
            *slot = false;
        }
        rng.shuffle(&mut has_lib);
        // bodies[i]: client bodies in client i's linked code.
        let mut bodies = vec![0usize; CLIENTS];
        let mut imported = [false; CLIENTS];
        for i in 0..CLIENTS {
            let family = i % LIBS;
            let mut candidates: Vec<usize> = (family..i).step_by(LIBS).collect();
            rng.shuffle(&mut candidates);
            let wanted = rng.below(3);
            let mut clients = Vec::new();
            let mut weight = 1;
            for c in candidates {
                if clients.len() == wanted {
                    break;
                }
                if weight + bodies[c] <= MAX_LINKED_BODIES {
                    weight += bodies[c];
                    clients.push(c);
                }
            }
            clients.sort_unstable();
            bodies[i] = weight;
            for &c in &clients {
                imported[c] = true;
            }
            let (m, n) = sizes[i];
            units.push(UnitSpec {
                name: format!("c{i:02}"),
                kind: Kind::Client {
                    lib: has_lib[i].then_some(family),
                    clients: clients.into_iter().map(|c| LIBS + c).collect(),
                },
                m,
                n,
                ground_seed: banded_ground_seed(rng.next_u64()),
                names: 0,
            });
        }
        let sinks = (0..CLIENTS).filter(|&i| !imported[i]).map(|i| LIBS + i).collect();
        units.push(UnitSpec {
            name: "main".to_owned(),
            kind: Kind::Root { sinks },
            m: 0,
            n: 0,
            ground_seed: 0,
            names: 0,
        });
        Graph { units }
    }

    /// The index of the root unit.
    pub fn root(&self) -> usize {
        self.units.len() - 1
    }

    /// Names of `unit`'s direct imports.
    pub fn imports(&self, unit: usize) -> Vec<&str> {
        let indices: Vec<usize> = match &self.units[unit].kind {
            Kind::Lib { .. } => Vec::new(),
            Kind::Client { lib, clients } => lib.iter().chain(clients).copied().collect(),
            Kind::Root { sinks } => sinks.clone(),
        };
        indices.into_iter().map(|i| self.units[i].name.as_str()).collect()
    }

    /// The interface `unit` exports.
    pub fn interface(&self, unit: usize) -> src::Term {
        match self.units[unit].kind {
            Kind::Lib { flipped } => {
                let result = if flipped { s::bool_ty() } else { s::var("A") };
                s::pi("A", s::star(), s::arrow(s::var("A"), result))
            }
            _ => s::bool_ty(),
        }
    }

    /// `unit`'s source term.
    pub fn term(&self, unit: usize) -> src::Term {
        let spec = &self.units[unit];
        let v = spec.names;
        let name = |base: &str| format!("{base}_{v}");
        match &spec.kind {
            Kind::Lib { flipped } => {
                let (a, x, n) = (name("A"), name("x"), name("n"));
                let result = if *flipped { is_even(s::var(&n)) } else { s::var(&x) };
                let body =
                    s::let_(&n, prelude::church_nat_ty(), arithmetic(spec.m, spec.n), result);
                s::lam(&a, s::star(), s::lam(&x, s::var(&a), body))
            }
            Kind::Client { lib, clients } => {
                let (n, g) = (name("n"), name("g"));
                let mut bindings = vec![(g.clone(), ground_program(spec.ground_seed))];
                let mut acc = name("acc0");
                bindings.push((acc.clone(), xor(is_even(s::var(&n)), s::var(&g))));
                if let Some(lib) = lib {
                    let next = name("acc_lib");
                    let applied =
                        s::apps(s::var(&self.units[*lib].name), [s::bool_ty(), s::var(&acc)]);
                    bindings.push((next.clone(), applied));
                    acc = next;
                }
                for (k, &c) in clients.iter().enumerate() {
                    let next = name(&format!("acc{}", k + 1));
                    bindings.push((next.clone(), xor(s::var(&self.units[c].name), s::var(&acc))));
                    acc = next;
                }
                s::let_(
                    &n,
                    prelude::church_nat_ty(),
                    arithmetic(spec.m, spec.n),
                    let_chain(bindings),
                )
            }
            Kind::Root { sinks } => {
                let mut acc = name("acc0");
                let mut bindings = vec![(acc.clone(), s::tt())];
                for (k, &c) in sinks.iter().enumerate() {
                    let next = name(&format!("acc{}", k + 1));
                    bindings.push((next.clone(), xor(s::var(&self.units[c].name), s::var(&acc))));
                    acc = next;
                }
                let_chain(bindings)
            }
        }
    }

    /// The whole program as one source term: every unit let-bound under
    /// its name, in schedule order, around the root's body. Observing it
    /// with [`cccc_core::link::observe_source`] gives the reference value
    /// the compiled, linked program must agree with.
    pub fn linked_source(&self) -> src::Term {
        let root = self.root();
        (0..root).rev().fold(self.term(root), |body, u| {
            s::let_(&self.units[u].name, self.interface(u), self.term(u), body)
        })
    }

    /// Applies `edit`.
    pub fn apply(&mut self, edit: &Edit) {
        match *edit {
            Edit::Impl { unit, m, n, ground_seed } => {
                let spec = &mut self.units[unit];
                (spec.m, spec.n, spec.ground_seed) = (m, n, ground_seed);
            }
            Edit::Rename { unit } => self.units[unit].names += 1,
            Edit::Flip { unit } => {
                if let Kind::Lib { flipped } = &mut self.units[unit].kind {
                    *flipped = !*flipped;
                }
            }
        }
    }
}

/// The endless edit script for a graph and seed: about 70% impl-only
/// client edits, 20% α-renames of any unit, 10% library flips. An
/// impl-only edit moves its client to a numeral pair no other client
/// holds, so the graph stays α-distinct.
#[derive(Clone, Debug)]
pub struct EditScript {
    rng: Rng,
    units: usize,
    /// The clients' current `(m, n)` pairs.
    pairs: Vec<(usize, usize)>,
}

impl EditScript {
    /// The script for `graph` under `seed`.
    pub fn new(graph: &Graph, seed: u64) -> EditScript {
        EditScript {
            rng: Rng::new(seed ^ 0xED17_5C21_9700_0000),
            units: graph.units.len(),
            pairs: graph.units[LIBS..LIBS + CLIENTS].iter().map(|u| (u.m, u.n)).collect(),
        }
    }
}

impl Iterator for EditScript {
    type Item = Edit;

    fn next(&mut self) -> Option<Edit> {
        let rng = &mut self.rng;
        Some(match rng.below(10) {
            0..=6 => {
                let client = rng.below(CLIENTS);
                let free: Vec<(usize, usize)> = SIZES
                    .flat_map(|m| (*SIZES.start()..=SIZES.end() + 1).map(move |n| (m, n)))
                    .filter(|pair| !self.pairs.contains(pair))
                    .collect();
                let (m, n) = free[rng.below(free.len())];
                self.pairs[client] = (m, n);
                let ground_seed = banded_ground_seed(rng.next_u64());
                Edit::Impl { unit: LIBS + client, m, n, ground_seed }
            }
            7 | 8 => Edit::Rename { unit: rng.below(self.units) },
            _ => Edit::Flip { unit: rng.below(LIBS) },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn source_alphas(graph: &Graph) -> Vec<cccc_util::wire::Fingerprint> {
        (0..graph.units.len()).map(|u| src::wire::fingerprint_alpha(&graph.term(u))).collect()
    }

    #[test]
    fn a_seed_gives_identical_graphs_and_edit_scripts() {
        for seed in [1, 7, 2024] {
            let (a, b) = (Graph::generate(seed), Graph::generate(seed));
            assert_eq!(a, b);
            assert_eq!(source_alphas(&a), source_alphas(&b));
            let script_a: Vec<Edit> = EditScript::new(&a, seed).take(300).collect();
            let script_b: Vec<Edit> = EditScript::new(&b, seed).take(300).collect();
            assert_eq!(script_a, script_b);
        }
        assert_ne!(Graph::generate(1), Graph::generate(2));
    }

    #[test]
    fn units_are_alpha_distinct_before_and_after_edits() {
        for seed in [1, 7, 2024] {
            let mut graph = Graph::generate(seed);
            assert_eq!(graph.units.len(), LIBS + CLIENTS + 1);
            let alphas = source_alphas(&graph);
            assert_eq!(alphas.iter().collect::<HashSet<_>>().len(), alphas.len());
            for edit in EditScript::new(&graph, seed).take(40) {
                graph.apply(&edit);
            }
            let alphas = source_alphas(&graph);
            assert_eq!(alphas.iter().collect::<HashSet<_>>().len(), alphas.len());
        }
    }

    #[test]
    fn renames_keep_the_alpha_fingerprint_and_impl_edits_change_it() {
        let mut graph = Graph::generate(3);
        let before = source_alphas(&graph);
        graph.apply(&Edit::Rename { unit: LIBS });
        assert_eq!(before, source_alphas(&graph));
        graph.apply(&Edit::Impl { unit: LIBS, m: 9, n: 9, ground_seed: banded_ground_seed(5) });
        assert_ne!(before[LIBS], source_alphas(&graph)[LIBS]);
    }

    #[test]
    fn every_flip_keeps_the_graph_well_typed() {
        let seed = 11;
        let mut graph = Graph::generate(seed);
        let flips: Vec<Edit> = EditScript::new(&graph, seed)
            .filter(|e| matches!(e, Edit::Flip { .. }))
            .take(2 * LIBS)
            .collect();
        for edit in std::iter::once(None).chain(flips.iter().map(Some)) {
            if let Some(edit) = edit {
                graph.apply(edit);
            }
            let program = graph.linked_source();
            let ty = src::typecheck::infer(&src::Env::new(), &program).expect("graph type-checks");
            assert!(src::subst::alpha_eq(&ty, &s::bool_ty()));
            assert!(cccc_core::link::observe_source(&program).is_some());
        }
    }

    #[test]
    fn linked_clients_hold_a_bounded_number_of_client_bodies() {
        for seed in 0..20 {
            let graph = Graph::generate(seed);
            let mut bodies = vec![0usize; graph.units.len()];
            for u in LIBS..graph.root() {
                let Kind::Client { clients, .. } = &graph.units[u].kind else { unreachable!() };
                bodies[u] = 1 + clients.iter().map(|&c| bodies[c]).sum::<usize>();
                assert!(bodies[u] <= MAX_LINKED_BODIES, "seed {seed}, unit {u}");
            }
        }
    }
}
