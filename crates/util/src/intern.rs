//! Hash-consed term handles with cached per-node metadata.
//!
//! Both language crates (CC in `cccc-source`, CC-CC in `cccc-target`)
//! represent terms as immutable trees of reference-counted nodes. This
//! module provides the shared *hash-consing kernel* those crates build on:
//!
//! * [`Node<T>`] — an interned handle. Equality and hashing are **by node
//!   identity** ([`NodeId`]), which is O(1) and — because the interner
//!   deduplicates structurally identical values — coincides with structural
//!   equality for live nodes.
//! * [`NodeMeta`] — metadata computed once at interning time and cached on
//!   the node: the free-variable set (see [`FreeVars`]), the maximum binder
//!   depth, and the tree size. Substitution short-circuits on
//!   `free_vars().contains(x)` instead of re-traversing, and the `[Code]`
//!   closedness premise of CC-CC becomes a bit test.
//! * [`Interner<T>`] — the per-language deduplicating constructor. Each
//!   language crate owns a thread-local instance and routes its smart
//!   constructors (`Term::rc`) through it. Its table maps a head's
//!   structural hash to *weak* handles, so it hashes each request once,
//!   never clones a value, and keeps nothing alive; dead slots are reused
//!   or swept once the table has doubled since the last sweep.
//!
//! # Invariants
//!
//! The kernel maintains, and its clients may rely on, the following:
//!
//! 1. **No id collisions** — the interner never observes two structurally
//!    unequal values with equal [`NodeId`]s. Ids are allocated from a
//!    monotone per-interner counter and are never reused, even after a node
//!    dies and a structurally identical one is re-interned.
//! 2. **Deduplication of live nodes** — while a node is alive, interning a
//!    structurally identical value returns the *same* node (same id, same
//!    allocation). Hence `a.same(&b)` implies structural equality, and
//!    structural equality of live handles implies `a.same(&b)`.
//! 3. **Metadata agreement** — `meta()` always equals the value recomputed
//!    from scratch by [`Internable::compute_meta`]; it is computed exactly
//!    once per node, from the children's already-cached metadata.
//! 4. **No retention** — the table holds no strong reference, to a node or
//!    to any part of one: a dropped term is freed at once, whole, in
//!    constant stack depth however deep it is.
//!
//! Identity equality is *structural* equality, not α-equivalence: two
//! α-equivalent terms with different binder names are distinct nodes. The
//! language crates layer α-aware fast paths on top (a closed node is
//! α-equivalent to itself under any renaming).
//!
//! Interners are thread-local by construction ([`Node`] holds an [`Rc`] and
//! is neither `Send` nor `Sync`), so ids never need to be compared across
//! threads. The explicit cross-thread story lives in [`crate::wire`]: a
//! term is flattened to a `Send` word buffer on the producing thread and
//! re-interned into the consuming thread's interner, which is how the
//! parallel module driver's per-worker interners import and export terms
//! at compilation-unit boundaries.

use crate::symbol::Symbol;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::ManuallyDrop;
use std::rc::{Rc, Weak};

/// A fast, non-cryptographic hasher (the FxHash algorithm used by rustc).
///
/// Interning hashes a term *head* — a discriminant, a couple of [`Symbol`]s,
/// and child [`NodeId`]s — on every smart-constructor call, so the default
/// SipHash would dominate the cost of construction.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail: u64 = 0;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.add(tail);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`], used for the interner table and the
/// conversion memo tables.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The stable identity of an interned node.
///
/// Within one interner (hence one thread and one language), equal ids imply
/// structurally equal values — see the module invariants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u64);

impl NodeId {
    /// The raw counter value, mainly for diagnostics and memo keys.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The cached free-variable set of a node.
///
/// Represented as a sorted, deduplicated slice behind an [`Rc`] — `None`
/// for closed terms, so the (overwhelmingly common in CC-CC) closed case
/// costs no allocation and closedness is a single tag test. Membership is a
/// binary search; typical sets have a handful of entries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FreeVars(Option<Rc<[Symbol]>>);

impl FreeVars {
    /// The empty set: the term is closed.
    pub fn closed() -> FreeVars {
        FreeVars(None)
    }

    /// The singleton set `{s}` (a free variable occurrence).
    pub fn singleton(s: Symbol) -> FreeVars {
        FreeVars(Some(Rc::from([s].as_slice())))
    }

    /// Whether the set is empty — i.e. the term has no free variables.
    pub fn is_closed(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `s` is in the set.
    pub fn contains(&self, s: Symbol) -> bool {
        match &self.0 {
            None => false,
            Some(slice) => slice.binary_search(&s).is_ok(),
        }
    }

    /// Number of distinct free variables.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |slice| slice.len())
    }

    /// Whether the set is empty (alias of [`FreeVars::is_closed`], for the
    /// conventional collection API).
    pub fn is_empty(&self) -> bool {
        self.is_closed()
    }

    /// Iterates over the free variables in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.0.iter().flat_map(|slice| slice.iter().copied())
    }

    /// The union of two sets. Shares an existing allocation whenever one
    /// side covers the other (the common case on construction: most
    /// children are closed or repeat a sibling's variables), allocating
    /// only for a genuine merge.
    pub fn union(a: &FreeVars, b: &FreeVars) -> FreeVars {
        match (&a.0, &b.0) {
            (None, _) => b.clone(),
            (_, None) => a.clone(),
            (Some(x), Some(y)) => {
                if is_sorted_subset(y, x) {
                    a.clone()
                } else if is_sorted_subset(x, y) {
                    b.clone()
                } else {
                    let mut merged = Vec::with_capacity(x.len() + y.len());
                    merged.extend_from_slice(x);
                    merged.extend_from_slice(y);
                    merged.sort_unstable();
                    merged.dedup();
                    FreeVars(Some(Rc::from(merged.as_slice())))
                }
            }
        }
    }

    /// The set with the given binders removed. Shares the allocation when
    /// none of the binders is present.
    pub fn minus(&self, binders: &[Symbol]) -> FreeVars {
        match &self.0 {
            None => FreeVars(None),
            Some(slice) => {
                if !binders.iter().any(|b| slice.binary_search(b).is_ok()) {
                    return self.clone();
                }
                let remaining: Vec<Symbol> =
                    slice.iter().copied().filter(|v| !binders.contains(v)).collect();
                if remaining.is_empty() {
                    FreeVars(None)
                } else {
                    FreeVars(Some(Rc::from(remaining.as_slice())))
                }
            }
        }
    }
}

/// Whether sorted slice `small` is a subset of sorted slice `big`.
fn is_sorted_subset(small: &[Symbol], big: &[Symbol]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut bi = 0;
    'outer: for s in small {
        while bi < big.len() {
            match big[bi].cmp(s) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// An accumulator for building a [`FreeVars`] set from the cached sets of a
/// node's children, subtracting the node's own binders.
#[derive(Default, Debug)]
pub struct FvBuilder {
    vars: Vec<Symbol>,
}

impl FvBuilder {
    /// An empty accumulator.
    pub fn new() -> FvBuilder {
        FvBuilder::default()
    }

    /// Adds one free occurrence.
    pub fn add(&mut self, s: Symbol) {
        self.vars.push(s);
    }

    /// Adds every variable of `fv` (a child in non-binding position).
    pub fn extend(&mut self, fv: &FreeVars) {
        self.vars.extend(fv.iter());
    }

    /// Adds every variable of `fv` except the given binders (a child under
    /// the node's binders).
    pub fn extend_except(&mut self, fv: &FreeVars, binders: &[Symbol]) {
        self.vars.extend(fv.iter().filter(|v| !binders.contains(v)));
    }

    /// Finishes the set: sorts, deduplicates, and collapses the empty case
    /// to [`FreeVars::closed`].
    pub fn build(mut self) -> FreeVars {
        if self.vars.is_empty() {
            return FreeVars::closed();
        }
        self.vars.sort_unstable();
        self.vars.dedup();
        FreeVars(Some(Rc::from(self.vars.as_slice())))
    }
}

/// Metadata cached on every interned node, computed once at interning time
/// from the children's already-cached metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeMeta {
    /// The free variables of the subtree rooted here.
    pub free_vars: FreeVars,
    /// The maximum depth of the subtree (a leaf has depth 1).
    pub depth: u32,
    /// The number of nodes in the subtree *counted as a tree* (shared
    /// subterms count once per occurrence), matching the pre-kernel
    /// `Term::size`.
    pub size: u64,
}

impl NodeMeta {
    /// Metadata for a leaf node with the given free variables.
    pub fn leaf(free_vars: FreeVars) -> NodeMeta {
        NodeMeta { free_vars, depth: 1, size: 1 }
    }

    /// Metadata for an interior node: depth and size are derived from the
    /// children's cached metadata.
    pub fn node<'a>(
        free_vars: FreeVars,
        children: impl IntoIterator<Item = &'a NodeMeta>,
    ) -> NodeMeta {
        let mut depth = 0;
        let mut size: u64 = 1;
        for child in children {
            depth = depth.max(child.depth);
            size = size.saturating_add(child.size);
        }
        NodeMeta { free_vars, depth: depth + 1, size }
    }
}

/// A value that can be hash-consed by an [`Interner`].
///
/// `Eq`/`Hash` must be *shallow-structural*: children are compared and
/// hashed through their [`Node`] handles (identity), which — by the
/// deduplication invariant — coincides with deep structural equality.
/// `compute_meta` derives this node's metadata, reading the children's
/// cached [`NodeMeta`] rather than traversing.
pub trait Internable: Clone + Eq + Hash + 'static {
    /// Computes the metadata of this node from its children's cached
    /// metadata.
    fn compute_meta(&self) -> NodeMeta;
}

struct NodeInner<T> {
    id: NodeId,
    hash: u64,
    meta: NodeMeta,
    value: T,
}

/// An interned, reference-counted handle to a `T`.
///
/// Dereferences to `T`, so pattern matching on `&*node` works exactly as it
/// did on `Rc<T>`. Cloning is a reference-count bump. Equality and hashing
/// are by [`NodeId`] — O(1), and equivalent to structural equality for
/// handles from the same interner (see the module invariants).
pub struct Node<T: Internable> {
    /// Taken exactly once, by `Drop`.
    inner: ManuallyDrop<Rc<NodeInner<T>>>,
}

impl<T: Internable> Node<T> {
    /// The node's stable identity.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// The structural hash assigned by the interner (the hash of the head
    /// with children hashed by id).
    pub fn structural_hash(&self) -> u64 {
        self.inner.hash
    }

    /// The cached metadata.
    pub fn meta(&self) -> &NodeMeta {
        &self.inner.meta
    }

    /// The cached free-variable set.
    pub fn free_vars(&self) -> &FreeVars {
        &self.inner.meta.free_vars
    }

    /// Whether the subtree has no free variables (O(1)).
    pub fn is_closed(&self) -> bool {
        self.inner.meta.free_vars.is_closed()
    }

    /// Whether two handles are the *same* node (identity test). With the
    /// deduplication invariant this is equivalent to `==`.
    pub fn same(&self, other: &Node<T>) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// The underlying value.
    pub fn get(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> Clone for Node<T> {
    fn clone(&self) -> Node<T> {
        Node { inner: ManuallyDrop::new(Rc::clone(&self.inner)) }
    }
}

impl<T: Internable> Drop for Node<T> {
    fn drop(&mut self) {
        // SAFETY: `inner` is taken once, here, and never read again.
        let inner = unsafe { ManuallyDrop::take(&mut self.inner) };
        if Rc::strong_count(&inner) == 1 {
            release(inner);
        }
    }
}

thread_local! {
    /// Whether a [`release`] on this thread is freeing nodes.
    static RELEASING: Cell<bool> = const { Cell::new(false) };
    /// Nodes whose last handle died while another node was being freed,
    /// waiting for the outermost [`release`] to free them in turn.
    static DOOMED: RefCell<Vec<Rc<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Frees a node whose last handle just died, with its dead descendants,
/// in constant stack depth: a child whose last handle dies while its
/// parent is freed is queued rather than freed in a nested call, so
/// dropping a term as deep as any a small thread can build is safe.
fn release(last: Rc<dyn Any>) {
    if RELEASING.replace(true) {
        // Once the queue is gone (thread teardown), `last` is freed by
        // plain recursion as the unrun closure drops it.
        let _ = DOOMED.try_with(move |doomed| doomed.borrow_mut().push(last));
        return;
    }
    drop(last);
    while let Some(next) = DOOMED.try_with(|doomed| doomed.borrow_mut().pop()).ok().flatten() {
        drop(next);
    }
    RELEASING.set(false);
}

impl<T: Internable> std::ops::Deref for Node<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> AsRef<T> for Node<T> {
    fn as_ref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> PartialEq for Node<T> {
    fn eq(&self, other: &Node<T>) -> bool {
        self.inner.id == other.inner.id
    }
}

impl<T: Internable> Eq for Node<T> {}

impl<T: Internable> Hash for Node<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.id.hash(state);
    }
}

impl<T: Internable + fmt::Debug> fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

impl<T: Internable + fmt::Display> fmt::Display for Node<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

/// Counters describing an interner's behaviour, for benchmarks, pipeline
/// cache reports, and the CI smoke assertions.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Interning requests answered by an existing live node.
    pub hits: u64,
    /// Interning requests that allocated a new node.
    pub misses: u64,
    /// Dead-entry sweeps of the weak table performed so far.
    pub prunes: u64,
}

impl InternStats {
    /// The counter increments between `earlier` and `self` (both taken
    /// from the same interner, `self` later).
    pub fn since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            prunes: self.prunes.saturating_sub(earlier.prunes),
        }
    }
}

/// Counters for a memoized conversion checker, exposed for benchmarks and
/// the CI smoke assertion that the fast paths are actually exercised.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ConvCacheStats {
    /// Comparisons answered by node identity (both sides are the same
    /// interned node) — no traversal, no evaluation.
    pub identity_hits: u64,
    /// Comparisons answered from the memo table.
    pub memo_hits: u64,
    /// Comparisons that had to run the underlying decision procedure.
    pub memo_misses: u64,
    /// Wholesale clears performed because the table hit its cap.
    pub clears: u64,
}

impl ConvCacheStats {
    /// The counter increments between `earlier` and `self` (both taken
    /// from the same cache, `self` later).
    pub fn since(&self, earlier: &ConvCacheStats) -> ConvCacheStats {
        ConvCacheStats {
            identity_hits: self.identity_hits.saturating_sub(earlier.identity_hits),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(earlier.memo_misses),
            clears: self.clears.saturating_sub(earlier.clears),
        }
    }
}

/// A bounded memo table of decided conversion pairs, shared by both
/// languages' equivalence checkers (each holds its own thread-local
/// instance — node ids are per-interner, so the tables must not mix).
///
/// Keys are `(id₁, id₂, environment-fingerprint)` with the ids ordered
/// (the judgment is symmetric). Callers pass fingerprint `0` when both
/// sides are closed — conversion of closed terms cannot consult the
/// environment, so one cached answer serves every environment; this
/// cannot collide harmfully with a real fingerprint because closedness is
/// itself determined by the ids. When the table would outgrow its cap it
/// is cleared wholesale (simpler and cheaper than an eviction policy).
#[derive(Debug, Default)]
pub struct ConvCache {
    map: FxHashMap<(NodeId, NodeId, u64), bool>,
    stats: ConvCacheStats,
}

/// Decided conversion pairs never outgrow this many entries.
const CONV_CACHE_CAP: usize = 1 << 20;

impl ConvCache {
    /// An empty cache.
    pub fn new() -> ConvCache {
        ConvCache::default()
    }

    /// The ordered memo key for a pair of nodes under an environment
    /// fingerprint; the fingerprint collapses to `0` when both sides are
    /// closed (environment-independent judgment).
    pub fn key<T: Internable>(
        a: &Node<T>,
        b: &Node<T>,
        env_fingerprint: u64,
    ) -> (NodeId, NodeId, u64) {
        let (lo, hi) = if a.id() <= b.id() { (a.id(), b.id()) } else { (b.id(), a.id()) };
        let env_key = if a.is_closed() && b.is_closed() { 0 } else { env_fingerprint };
        (lo, hi, env_key)
    }

    /// Records an identity-fast-path hit (same node on both sides).
    pub fn note_identity_hit(&mut self) {
        self.stats.identity_hits += 1;
    }

    /// Looks up a previously decided pair, bumping the hit/miss counters.
    pub fn lookup(&mut self, key: (NodeId, NodeId, u64)) -> Option<bool> {
        match self.map.get(&key).copied() {
            Some(answer) => {
                self.stats.memo_hits += 1;
                Some(answer)
            }
            None => {
                self.stats.memo_misses += 1;
                None
            }
        }
    }

    /// Records a decided answer, clearing the table first if it is full.
    pub fn insert(&mut self, key: (NodeId, NodeId, u64), answer: bool) {
        if self.map.len() >= CONV_CACHE_CAP {
            self.map.clear();
            self.stats.clears += 1;
        }
        self.map.insert(key, answer);
    }

    /// Number of decided pairs currently in the table.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ConvCacheStats {
        self.stats
    }

    /// Clears the table and the counters.
    pub fn reset(&mut self) {
        self.map.clear();
        self.stats = ConvCacheStats::default();
    }
}

/// Chains one typing-environment entry into a content fingerprint — the
/// environment component of conversion memo keys. Both languages' `Env`
/// types maintain this incrementally on extension: an assumption passes
/// `definition: None`, a definition its term's id. Environments with equal
/// content (same names, same interned types/definitions, same order)
/// always agree; unequal content collides only with hash probability.
pub fn mix_env_entry(
    fingerprint: u64,
    name: Symbol,
    ty: NodeId,
    definition: Option<NodeId>,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(fingerprint);
    h.write_u8(if definition.is_some() { 2 } else { 1 });
    name.hash(&mut h);
    h.write_u64(ty.as_u64());
    if let Some(d) = definition {
        h.write_u64(d.as_u64());
    }
    h.finish()
}

/// The table is never swept before it holds this many slots.
const MIN_SWEEP_AT: usize = 8192;

/// The weak handles of the nodes whose structural hash is one table key.
/// A second member needs a real 64-bit collision, so almost every slot is
/// a [`Slot::One`].
enum Slot<T> {
    One(Weak<NodeInner<T>>),
    Many(Vec<Weak<NodeInner<T>>>),
}

impl<T: Internable> Slot<T> {
    /// The live member structurally equal to `value`, if any.
    fn find(&self, value: &T) -> Option<Rc<NodeInner<T>>> {
        let live_equal =
            |weak: &Weak<NodeInner<T>>| weak.upgrade().filter(|inner| inner.value == *value);
        match self {
            Slot::One(weak) => live_equal(weak),
            Slot::Many(weaks) => weaks.iter().find_map(live_equal),
        }
    }

    /// Adds a fresh node: it takes over a dead `One`, and joins a `Many`
    /// after the dead members are dropped.
    fn add(&mut self, fresh: Weak<NodeInner<T>>) {
        match self {
            Slot::One(weak) if weak.strong_count() == 0 => *weak = fresh,
            Slot::One(weak) => {
                let live = std::mem::replace(weak, Weak::new());
                *self = Slot::Many(vec![live, fresh]);
            }
            Slot::Many(weaks) => {
                weaks.retain(|weak| weak.strong_count() > 0);
                weaks.push(fresh);
            }
        }
    }

    /// Drops the dead members; `false` when none is left alive.
    fn retain_live(&mut self) -> bool {
        match self {
            Slot::One(weak) => weak.strong_count() > 0,
            Slot::Many(weaks) => {
                weaks.retain(|weak| weak.strong_count() > 0);
                !weaks.is_empty()
            }
        }
    }
}

/// A deduplicating constructor for [`Node`]s.
///
/// The table is keyed by the head's structural hash and holds only *weak*
/// handles, so it keeps no node — and no part of one — alive: a node whose
/// last handle is dropped is freed at once, together with every child
/// only it held (invariant 4). Its dead slot is reused when a value with
/// the same hash is interned again, and swept out once the table has
/// doubled since the last sweep (never below 8,192 slots), so
/// sweeping costs amortized O(1) per new slot. Ids are never reused.
pub struct Interner<T: Internable> {
    map: FxHashMap<u64, Slot<T>>,
    next_id: u64,
    sweep_at: usize,
    stats: InternStats,
}

impl<T: Internable> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: Internable> Interner<T> {
    /// An empty interner.
    pub fn new() -> Interner<T> {
        Interner {
            map: FxHashMap::default(),
            next_id: 0,
            sweep_at: MIN_SWEEP_AT,
            stats: InternStats::default(),
        }
    }

    /// Interns `value`: returns the existing node when a structurally
    /// identical live one exists, otherwise computes the metadata and
    /// moves `value` into a fresh node with the next id. The head is
    /// hashed once, and `value` is never cloned.
    pub fn intern(&mut self, value: T) -> Node<T> {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        let hash = hasher.finish();
        let inner = match self.map.entry(hash) {
            Entry::Occupied(mut slot) => {
                if let Some(inner) = slot.get().find(&value) {
                    self.stats.hits += 1;
                    return Node { inner: ManuallyDrop::new(inner) };
                }
                let inner = allocate(&mut self.next_id, hash, value);
                slot.get_mut().add(Rc::downgrade(&inner));
                inner
            }
            Entry::Vacant(slot) => {
                let inner = allocate(&mut self.next_id, hash, value);
                slot.insert(Slot::One(Rc::downgrade(&inner)));
                inner
            }
        };
        self.stats.misses += 1;
        if self.map.len() >= self.sweep_at {
            self.sweep();
        }
        Node { inner: ManuallyDrop::new(inner) }
    }

    /// Removes every slot with no live member, then waits for the table
    /// to double before the next sweep.
    fn sweep(&mut self) {
        self.map.retain(|_, slot| slot.retain_live());
        self.sweep_at = MIN_SWEEP_AT.max(2 * self.map.len());
        self.stats.prunes += 1;
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Number of table slots: one per structural hash of a live node, plus
    /// dead slots not yet reused or swept.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A fresh node for `value` with the next id; its metadata is computed
/// here, once (invariant 3).
fn allocate<T: Internable>(next_id: &mut u64, hash: u64, value: T) -> Rc<NodeInner<T>> {
    let meta = value.compute_meta();
    let id = NodeId(*next_id);
    *next_id += 1;
    Rc::new(NodeInner { id, hash, meta, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature term language exercising the kernel: variables, a
    /// binder, and pairs.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Mini {
        Var(Symbol),
        Lam(Symbol, Node<Mini>),
        Pair(Node<Mini>, Node<Mini>),
    }

    impl Internable for Mini {
        fn compute_meta(&self) -> NodeMeta {
            match self {
                Mini::Var(x) => NodeMeta::leaf(FreeVars::singleton(*x)),
                Mini::Lam(binder, body) => {
                    let mut fv = FvBuilder::new();
                    fv.extend_except(body.free_vars(), &[*binder]);
                    NodeMeta::node(fv.build(), [body.meta()])
                }
                Mini::Pair(a, b) => {
                    let mut fv = FvBuilder::new();
                    fv.extend(a.free_vars());
                    fv.extend(b.free_vars());
                    NodeMeta::node(fv.build(), [a.meta(), b.meta()])
                }
            }
        }
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn structurally_identical_values_share_a_node() {
        let mut i = Interner::new();
        let a = i.intern(Mini::Var(sym("x")));
        let b = i.intern(Mini::Var(sym("x")));
        assert!(a.same(&b));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        assert_eq!(i.stats().hits, 1);
        assert_eq!(i.stats().misses, 1);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern(Mini::Var(sym("x")));
        let b = i.intern(Mini::Var(sym("y")));
        assert!(!a.same(&b));
        assert_ne!(a.id(), b.id());
        assert_ne!(a, b);
    }

    #[test]
    fn deep_sharing_happens_bottom_up() {
        let mut i = Interner::new();
        let x1 = i.intern(Mini::Var(sym("x")));
        let p1 = i.intern(Mini::Pair(x1.clone(), x1.clone()));
        let x2 = i.intern(Mini::Var(sym("x")));
        let p2 = i.intern(Mini::Pair(x2.clone(), x2));
        assert!(p1.same(&p2));
        assert_eq!(p1.structural_hash(), p2.structural_hash());
    }

    #[test]
    fn metadata_free_vars_respect_binders() {
        let mut i = Interner::new();
        let x = i.intern(Mini::Var(sym("x")));
        let y = i.intern(Mini::Var(sym("y")));
        let body = i.intern(Mini::Pair(x, y));
        assert_eq!(body.free_vars().len(), 2);
        assert!(!body.is_closed());
        let lam = i.intern(Mini::Lam(sym("x"), body));
        assert!(lam.free_vars().contains(sym("y")));
        assert!(!lam.free_vars().contains(sym("x")));
        assert_eq!(lam.free_vars().len(), 1);
        // Binding the remaining variable closes the term.
        let closed = i.intern(Mini::Lam(sym("y"), lam));
        assert!(closed.is_closed());
        assert!(closed.free_vars().is_empty());
    }

    #[test]
    fn metadata_depth_and_size_are_tree_shaped() {
        let mut i = Interner::new();
        let x = i.intern(Mini::Var(sym("x")));
        let p = i.intern(Mini::Pair(x.clone(), x));
        // Shared child counts twice for size (tree semantics), once for depth.
        assert_eq!(p.meta().size, 3);
        assert_eq!(p.meta().depth, 2);
    }

    #[test]
    fn dead_nodes_are_reinterned_with_fresh_ids() {
        let mut i = Interner::new();
        let first_id = i.intern(Mini::Var(sym("gone"))).id();
        // The handle is dropped; interning again may not reuse the id.
        let second = i.intern(Mini::Var(sym("gone")));
        assert_ne!(first_id, second.id(), "ids are never reused");
        assert_eq!((i.len(), members(&i)), (1, 1), "the dead slot was taken over");
    }

    /// The number of weak handles the table holds, over all slots.
    fn members<T: Internable>(i: &Interner<T>) -> usize {
        i.map.values().map(|slot| if let Slot::Many(weaks) = slot { weaks.len() } else { 1 }).sum()
    }

    /// `Lam(x, Lam(x, … Var(x)))`, `depth` nodes deep.
    fn chain(i: &mut Interner<Mini>, depth: usize) -> Node<Mini> {
        let mut node = i.intern(Mini::Var(sym("x")));
        for _ in 1..depth {
            node = i.intern(Mini::Lam(sym("x"), node));
        }
        node
    }

    #[test]
    fn a_dropped_term_is_reclaimed_whole_by_one_sweep() {
        let mut i = Interner::new();
        let _live = i.intern(Mini::Var(sym("kept")));
        drop(chain(&mut i, 300));
        assert_eq!(i.len(), 301, "dead slots stay until reused or swept");
        i.sweep();
        assert_eq!(i.len(), 1, "one sweep leaves only the live node");
        assert_eq!(i.stats().prunes, 1);
    }

    /// [`Mini`] with a constant hash: every value lands in one slot.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Clash(Mini);

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    impl Internable for Clash {
        fn compute_meta(&self) -> NodeMeta {
            NodeMeta::leaf(FreeVars::closed())
        }
    }

    #[test]
    fn full_hash_collisions_keep_values_apart() {
        let mut i = Interner::new();
        let names = ["a", "b", "c", "d"];
        let nodes: Vec<Node<Clash>> =
            names.iter().map(|n| i.intern(Clash(Mini::Var(sym(n))))).collect();
        assert_eq!(i.len(), 1, "one hash, one slot");
        assert_eq!(members(&i), names.len());
        for (a, b) in nodes.iter().zip(nodes.iter().skip(1)) {
            assert!(!a.same(b), "distinct values get distinct nodes");
        }
        for (node, name) in nodes.iter().zip(names) {
            assert!(i.intern(Clash(Mini::Var(sym(name)))).same(node), "re-interning {name}");
        }
        assert_eq!(i.stats().hits, 4);

        // Dead members leave the slot when the next member joins it.
        let mut nodes = nodes;
        nodes.truncate(1);
        let fresh = i.intern(Clash(Mini::Var(sym("e"))));
        assert_eq!(members(&i), 2);
        drop((nodes, fresh));
        i.sweep();
        assert!(i.is_empty(), "a slot with no live member is swept");
    }

    #[test]
    fn sweeps_wait_for_the_table_to_double() {
        let mut i = Interner::new();
        let leaves: Vec<Node<Mini>> =
            (0..320).map(|k| i.intern(Mini::Var(sym(&format!("leaf{k}"))))).collect();
        let mut live = Vec::new();
        for a in &leaves {
            for b in &leaves {
                live.push(i.intern(Mini::Pair(a.clone(), b.clone())));
            }
        }
        let n = i.len();
        assert_eq!(n, 320 + 320 * 320);
        let bound = (n as f64 / MIN_SWEEP_AT as f64).log2().ceil() as u64 + 1;
        assert!(i.stats().prunes <= bound, "{} sweeps for {n} nodes", i.stats().prunes);
    }

    #[test]
    fn dropping_a_deep_term_does_not_overflow_a_small_stack() {
        let dropped = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut i = Interner::new();
                drop(chain(&mut i, 20_000));
                i.sweep();
                i.len()
            })
            .expect("spawn")
            .join()
            .expect("the drop cascade fits the stack");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn free_vars_iterates_sorted_and_supports_membership() {
        let mut b = FvBuilder::new();
        b.add(sym("b"));
        b.add(sym("a"));
        b.add(sym("b"));
        let fv = b.build();
        assert_eq!(fv.len(), 2);
        assert!(fv.contains(sym("a")));
        assert!(!fv.contains(sym("zz")));
        let collected: Vec<Symbol> = fv.iter().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_and_minus_share_allocations() {
        let mut b = FvBuilder::new();
        b.add(sym("a"));
        b.add(sym("b"));
        let ab = b.build();
        let mut b = FvBuilder::new();
        b.add(sym("a"));
        let a = b.build();

        // One side covers the other: the bigger allocation is shared.
        let u = FreeVars::union(&ab, &a);
        assert_eq!(u, ab);
        let u = FreeVars::union(&a, &ab);
        assert_eq!(u, ab);
        // Closed sides share outright.
        assert_eq!(FreeVars::union(&FreeVars::closed(), &ab), ab);
        assert_eq!(FreeVars::union(&ab, &FreeVars::closed()), ab);
        // Genuine merges merge.
        let mut b = FvBuilder::new();
        b.add(sym("c"));
        let c = b.build();
        let u = FreeVars::union(&ab, &c);
        assert_eq!(u.len(), 3);
        assert!(u.contains(sym("a")) && u.contains(sym("b")) && u.contains(sym("c")));

        // Minus shares when nothing is removed, subtracts otherwise.
        assert_eq!(ab.minus(&[sym("zz")]), ab);
        let only_b = ab.minus(&[sym("a")]);
        assert_eq!(only_b.len(), 1);
        assert!(only_b.contains(sym("b")));
        assert!(ab.minus(&[sym("a"), sym("b")]).is_closed());
        assert!(FreeVars::closed().minus(&[sym("a")]).is_closed());
    }

    #[test]
    fn empty_builder_is_closed() {
        assert!(FvBuilder::new().build().is_closed());
        assert_eq!(FreeVars::closed().len(), 0);
        assert!(FreeVars::closed().is_empty());
    }

    #[test]
    fn fx_hasher_handles_unaligned_tails() {
        let mut h = FxHasher::default();
        h.write(b"hello world, this is a tail");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is a tail");
        assert_eq!(a, h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(b"hello world, this is a tai1");
        assert_ne!(a, h3.finish());
    }

    #[test]
    fn node_id_displays_with_hash_prefix() {
        let mut i = Interner::new();
        let n = i.intern(Mini::Var(sym("d")));
        assert!(n.id().to_string().starts_with('#'));
        assert!(!i.is_empty());
        assert!(!i.is_empty());
    }
}
