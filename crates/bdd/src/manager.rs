//! The BDD node arena, unique table, and core symbolic operations.
//!
//! This is a complement-edge kernel in the Brace–Rudell–Bryant style:
//!
//! * there is a **single terminal node** (index 0, the constant TRUE); the
//!   constant FALSE is its complemented handle;
//! * a [`Bdd`] handle packs a node index and a complement bit
//!   (`index << 1 | complemented`), so negation is one XOR and costs no
//!   arena nodes;
//! * canonicity uses the **regular-high-child rule**: a stored node's high
//!   child is never complemented (a node that would violate this is stored
//!   negated and handed out through a complemented handle);
//! * the unique table is a flat open-addressed array (power-of-two
//!   capacity, multiply-xor hashing, linear probing) rather than a
//!   `HashMap`, and ITE results go through a fixed-size direct-mapped ops
//!   cache keyed by the Brace–Rudell standard triple;
//! * a mark-and-sweep garbage collector ([`BddManager::collect_garbage`])
//!   reclaims nodes not reachable from caller-supplied roots, so long
//!   candidate sweeps no longer grow the arena monotonically.
//!
//! All operations that the timing engine applies to deep graphs (`ite`,
//! `exists`, `and_exists`, `vector_compose`, `restrict`) run on explicit
//! frame stacks, so graphs tens of thousands of levels deep cannot
//! overflow the thread stack.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::OnceLock;

/// A Boolean variable, identified by its position in the global variable
/// order (smaller index = closer to the root).
///
/// The timing engine maps each (signal, time-shift) pair to one `Var`.
///
/// # Examples
///
/// ```
/// use mct_bdd::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given order index.
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// The position of this variable in the global order.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A handle to a BDD function owned by a [`BddManager`].
///
/// Handles are plain `Copy` values packing an arena index and a complement
/// bit. Because the arena is hash-consed and complement edges are
/// canonicalized (regular high child), two handles are `==` **iff** they
/// denote the same Boolean function — the property the cycle-time decision
/// algorithm relies on.
///
/// A `Bdd` is only meaningful together with the manager that created it;
/// mixing handles across managers is a logic error (and will panic on
/// out-of-range indices rather than corrupt memory).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-true function (the regular handle of the terminal).
    pub const TRUE: Bdd = Bdd(0);
    /// The constant-false function (the complemented terminal handle).
    pub const FALSE: Bdd = Bdd(1);

    /// Whether this handle is one of the two terminal constants.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Whether this handle is the constant-true function.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Whether this handle is the constant-false function.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    pub(crate) fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    pub(crate) fn complemented(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }
}

/// A prepared, deduplicated, order-sorted set of quantification variables.
///
/// [`BddManager::exists`] and friends accept a raw `&[Var]` and sort it on
/// every call; fixpoint loops that quantify the same variables thousands of
/// times should build a `VarSet` once and use
/// [`exists_set`](BddManager::exists_set) /
/// [`and_exists_set`](BddManager::and_exists_set) instead.
///
/// # Examples
///
/// ```
/// use mct_bdd::{BddManager, Var, VarSet};
/// let mut m = BddManager::new();
/// let a = m.var(Var::new(0));
/// let b = m.var(Var::new(1));
/// let f = m.and(a, b);
/// let set = VarSet::new(&[Var::new(0), Var::new(0)]); // dedups
/// assert_eq!(set.len(), 1);
/// assert_eq!(m.exists_set(f, &set), b);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarSet {
    /// Sorted, deduplicated variable indices.
    sorted: Vec<u32>,
}

impl VarSet {
    /// Builds a set from an arbitrary (unsorted, possibly duplicated) slice.
    pub fn new(vars: &[Var]) -> Self {
        let mut sorted: Vec<u32> = vars.iter().map(|v| v.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        VarSet { sorted }
    }

    /// Number of distinct variables in the set.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: Var) -> bool {
        self.sorted.binary_search(&v.index()).is_ok()
    }

    /// The variables, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.sorted.iter().map(|&i| Var(i))
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let vars: Vec<Var> = iter.into_iter().collect();
        VarSet::new(&vars)
    }
}

/// Memo tables that [`BddManager::and_exists_memo`] and
/// [`BddManager::vector_compose_memo`] keep from one call to the next. An
/// image fixpoint applies the same relation and rename at every step, and
/// consecutive sets share most of their subgraphs, so a kept memo answers
/// most of a step from the steps before it.
///
/// Entries name arena nodes, so the memo is stamped with the manager's
/// collection-plus-compaction count and dropped when that count moves (a
/// freed slot may be reused by another function). It is also dropped when
/// it grows past twice the live arena, and each table starts over when a
/// call passes another quantified set or substitution than its entries
/// were computed under. A memo belongs to one manager.
///
/// # Examples
///
/// ```
/// use mct_bdd::{BddManager, QuantMemo, Var, VarSet};
/// let mut m = BddManager::new();
/// let (a, b) = (m.var(Var::new(0)), m.var(Var::new(1)));
/// let f = m.xor(a, b);
/// let vars = VarSet::new(&[Var::new(0)]);
/// let mut memo = QuantMemo::default();
/// let r = m.and_exists_memo(f, b, &vars, &mut memo);
/// assert_eq!(r, m.and_exists_set(f, b, &vars));
/// ```
#[derive(Debug, Default)]
pub struct QuantMemo {
    /// `gc_runs + compactions` when the entries were made.
    stamp: u64,
    /// The quantified set the relational-product entries were computed
    /// under.
    vars: Vec<u32>,
    /// Unordered operand pair → `∃ vars. (f ∧ g)`.
    products: FxHashMap<(u32, u32), u32>,
    /// The substitution the composition entries were computed under.
    subst: Vec<(u32, u32)>,
    /// Regular node → its composition.
    composed: FxHashMap<u32, u32>,
}

/// A packed arena node: decision variable plus raw child handle bits.
/// The high child of a stored node is always a regular (non-complemented)
/// handle — that is the canonical form complement edges require.
#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

const TERMINAL_VAR: u32 = u32::MAX;
/// Sentinel variable index marking a swept (free-listed) arena slot.
const FREE_VAR: u32 = u32::MAX - 1;
/// Empty slot marker in the open-addressed unique table.
const EMPTY: u32 = u32::MAX;

/// Direct-mapped ops-cache entry for memoized ITE triples.
#[derive(Clone, Copy)]
struct OpsEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const OPS_VACANT: OpsEntry = OpsEntry {
    f: EMPTY,
    g: EMPTY,
    h: EMPTY,
    r: EMPTY,
};

/// log2 of the initial ops-cache entry count (entries are 16 bytes). The
/// cache scales with the unique table — see [`BddManager::maybe_grow_ops`]
/// — so tiny managers pay KiB, not the full cap.
const OPS_CACHE_MIN_BITS: u32 = 8;

/// log2 of the ops-cache entry cap (2^16 × 16 B ≈ 1 MiB). The cache is a
/// lossy direct-mapped memo, so this is a hard memory bound, not a limit
/// on what can be computed (a larger cap measured slower here — the
/// working set outgrows L2 and collision wins stop paying for the misses).
const OPS_CACHE_MAX_BITS: u32 = 16;

/// Default live-node count above which `maybe_collect_garbage` triggers.
const DEFAULT_GC_THRESHOLD: usize = 1 << 16;

/// Initial unique-table capacity (power of two). Deliberately small:
/// short-lived managers are created on hot analysis paths, so empty-table
/// setup cost matters as much as steady-state speed.
const INITIAL_UNIQUE_CAPACITY: usize = 1 << 8;

#[inline]
fn triple_hash(a: u32, b: u32, c: u32) -> u64 {
    // The FxHash multiply-xor scheme from `crate::hash`, unrolled for a
    // fixed-width three-word key.
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = (a as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
    (h.rotate_left(5) ^ c as u64).wrapping_mul(SEED)
}

fn gc_stress() -> bool {
    static STRESS: OnceLock<bool> = OnceLock::new();
    *STRESS.get_or_init(|| {
        std::env::var_os("MCT_BDD_GC_STRESS").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// `MCT_BDD_COMPACT_STRESS`: arm [`BddManager::compact_pending`] after
/// every garbage collection, so callers that opt into DFS-preorder
/// compaction run it at every boundary regardless of fragmentation.
fn compact_stress() -> bool {
    static STRESS: OnceLock<bool> = OnceLock::new();
    *STRESS.get_or_init(|| {
        std::env::var_os("MCT_BDD_COMPACT_STRESS").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Result of ITE standard-triple normalization.
enum Norm {
    /// The call resolved without touching the arena.
    Done(Bdd),
    /// A canonical `(f, g, h)` triple (f and g regular) plus an output
    /// complement flag.
    Triple(Bdd, Bdd, Bdd, bool),
}

/// Explicit-stack frame for the iterative ITE driver.
enum IteFrame {
    App(Bdd, Bdd, Bdd),
    Combine {
        var: u32,
        key: (u32, u32, u32),
        neg: bool,
    },
}

/// Explicit-stack frame for [`BddManager::and_exists_memo`].
enum QuantFrame {
    App(Bdd, Bdd),
    /// The quantified-variable early exit: inspect the low result before
    /// deciding whether the high branch is needed at all.
    AfterLo {
        f1: Bdd,
        g1: Bdd,
        key: (u32, u32),
    },
    CombineOr {
        key: (u32, u32),
    },
    CombineMk {
        var: u32,
        key: (u32, u32),
    },
}

/// Explicit-stack frame for [`BddManager::vector_compose_memo`].
enum ComposeFrame {
    Visit(Bdd),
    Emit { var: u32, reg: u32, c: u32 },
}

/// Owner of all BDD nodes: arena, unique table, ops cache, and the garbage
/// collector.
///
/// All operations take `&mut self` because they may allocate nodes and
/// populate memo tables. Handles stay valid until a garbage collection
/// sweeps them; any handle passed as a root to
/// [`collect_garbage`](Self::collect_garbage) survives collections
/// unchanged.
///
/// # Examples
///
/// ```
/// use mct_bdd::{Bdd, BddManager, Var};
///
/// let mut m = BddManager::new();
/// let x = m.var(Var::new(0));
/// let y = m.var(Var::new(1));
/// let f = m.xor(x, y);
/// assert!(m.eval(f, |v| v.index() == 0)); // x=1, y=0
/// assert_eq!(m.restrict(f, Var::new(1), true), m.not(x));
/// ```
pub struct BddManager {
    nodes: Vec<Node>,
    /// Swept arena slots available for reuse.
    free: Vec<u32>,
    /// Open-addressed unique table of node indices (power-of-two capacity).
    unique: Vec<u32>,
    unique_mask: usize,
    /// Live decision nodes (== occupied unique-table slots).
    unique_len: usize,
    /// One past the largest variable index any node has decided on. A
    /// variable's index is its level, so nothing above this can be tested.
    num_vars: u32,
    /// Direct-mapped memo for normalized ITE triples
    /// (`2^ops_bits` entries).
    ops: Box<[OpsEntry]>,
    /// log2 of the current ops-cache entry count.
    ops_bits: u32,
    /// Reusable scratch stacks for [`ite`](Self::ite) (empty between calls,
    /// kept for their capacity).
    ite_frames: Vec<IteFrame>,
    ite_results: Vec<Bdd>,
    /// The same for [`and_exists_memo`](Self::and_exists_memo) and
    /// [`vector_compose_memo`](Self::vector_compose_memo). Neither calls the
    /// other, so they share one result stack; both call `ite`, which keeps
    /// its own.
    quant_frames: Vec<QuantFrame>,
    compose_frames: Vec<ComposeFrame>,
    walk_results: Vec<Bdd>,
    /// The substitution of a running
    /// [`vector_compose_memo`](Self::vector_compose_memo) call by variable
    /// index; every slot is `None` between calls.
    compose_map: Vec<Option<Bdd>>,
    ops_hits: u64,
    ops_lookups: u64,
    /// Completed [`compact`](Self::compact) relocations.
    compactions: u64,
    /// Armed by a collection that left the arena fragmented (or by
    /// `MCT_BDD_COMPACT_STRESS`); cleared by [`compact`](Self::compact).
    compact_due: bool,
    /// Base GC trigger (live-node count); 0 means "collect at every
    /// `maybe_collect_garbage`" (the stress setting).
    gc_base: usize,
    /// Current adaptive trigger.
    gc_trigger: usize,
    gc_runs: u64,
    nodes_freed: u64,
    peak_nodes: usize,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("nodes", &self.num_nodes())
            .field("peak_nodes", &self.peak_nodes)
            .field("gc_runs", &self.gc_runs)
            .finish()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal node.
    pub fn new() -> Self {
        let base = if gc_stress() { 0 } else { DEFAULT_GC_THRESHOLD };
        let mut m = BddManager {
            nodes: Vec::with_capacity(INITIAL_UNIQUE_CAPACITY),
            free: Vec::new(),
            unique: vec![EMPTY; INITIAL_UNIQUE_CAPACITY],
            unique_mask: INITIAL_UNIQUE_CAPACITY - 1,
            unique_len: 0,
            num_vars: 0,
            ops: vec![OPS_VACANT; 1 << OPS_CACHE_MIN_BITS].into_boxed_slice(),
            ops_bits: OPS_CACHE_MIN_BITS,
            ite_frames: Vec::new(),
            ite_results: Vec::new(),
            quant_frames: Vec::new(),
            compose_frames: Vec::new(),
            walk_results: Vec::new(),
            compose_map: Vec::new(),
            ops_hits: 0,
            ops_lookups: 0,
            compactions: 0,
            compact_due: false,
            gc_base: base,
            gc_trigger: base,
            gc_runs: 0,
            nodes_freed: 0,
            peak_nodes: 1,
        };
        // Index 0 is the single terminal (TRUE); FALSE is its complemented
        // handle. The out-of-band variable index ranks it below every
        // decision node.
        m.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        });
        m
    }

    /// Number of live nodes (including the terminal). Swept slots awaiting
    /// reuse are not counted.
    pub fn num_nodes(&self) -> usize {
        self.unique_len + 1
    }

    /// The constant-true function.
    pub fn one(&self) -> Bdd {
        Bdd::TRUE
    }

    /// The constant-false function.
    pub fn zero(&self) -> Bdd {
        Bdd::FALSE
    }

    /// A constant function from a `bool`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The single-variable function `v`.
    pub fn var(&mut self, v: Var) -> Bdd {
        self.mk(v.index(), Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated single-variable function `¬v`.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        self.mk(v.index(), Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal: `v` if `positive`, `¬v` otherwise.
    pub fn literal(&mut self, v: Var, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    #[inline]
    fn node(&self, f: Bdd) -> Node {
        self.nodes[f.index()]
    }

    /// The decision variable at the root of `f`, or `None` for terminals.
    pub fn root_var(&self, f: Bdd) -> Option<Var> {
        let v = self.node(f).var;
        if v == TERMINAL_VAR {
            None
        } else {
            Some(Var(v))
        }
    }

    /// The low (else, `var = 0`) child of a decision node, with the
    /// handle's complement bit resolved into the child.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal constant.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "terminal nodes have no children");
        Bdd(self.node(f).lo ^ (f.0 & 1))
    }

    /// The high (then, `var = 1`) child of a decision node, with the
    /// handle's complement bit resolved into the child.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal constant.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "terminal nodes have no children");
        Bdd(self.node(f).hi ^ (f.0 & 1))
    }

    /// Semantic cofactors of a non-terminal handle (complement bit pushed
    /// into the children).
    #[inline]
    fn cofactors(&self, f: Bdd) -> (Bdd, Bdd) {
        let n = self.node(f);
        let c = f.0 & 1;
        (Bdd(n.lo ^ c), Bdd(n.hi ^ c))
    }

    #[inline]
    fn cofactors_at(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        if !f.is_const() && self.node(f).var == var {
            self.cofactors(f)
        } else {
            (f, f)
        }
    }

    /// The variable index at the root of `f`; the terminal's out-of-band
    /// index ranks it below every decision variable. A variable's index is
    /// its level, so top-variable selection compares indices directly.
    #[inline]
    fn var_rank(&self, f: Bdd) -> u32 {
        self.node(f).var
    }

    /// Canonicalizing constructor: collapses redundant tests and enforces
    /// the regular-high-child rule before consulting the unique table.
    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if var >= self.num_vars {
            self.num_vars = var + 1;
        }
        debug_assert!(
            var < self.var_rank(lo) && var < self.var_rank(hi),
            "mk: children must sit strictly below the decision variable"
        );
        if lo == hi {
            return lo;
        }
        if hi.is_complement() {
            let r = self.mk_raw(var, lo.complemented(), hi.regular());
            r.complemented()
        } else {
            self.mk_raw(var, lo, hi)
        }
    }

    /// Hash-consing lookup/insert; `hi` must be regular.
    fn mk_raw(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(!hi.is_complement(), "canonical high child must be regular");
        if (self.unique_len + 1) * 10 >= self.unique.len() * 7 {
            self.grow_unique();
        }
        let mut slot = triple_hash(var, lo.0, hi.0) as usize & self.unique_mask;
        loop {
            let entry = self.unique[slot];
            if entry == EMPTY {
                break;
            }
            let n = self.nodes[entry as usize];
            if n.var == var && n.lo == lo.0 && n.hi == hi.0 {
                return Bdd(entry << 1);
            }
            slot = (slot + 1) & self.unique_mask;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    var,
                    lo: lo.0,
                    hi: hi.0,
                };
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node {
                    var,
                    lo: lo.0,
                    hi: hi.0,
                });
                i
            }
        };
        self.unique[slot] = idx;
        self.unique_len += 1;
        if self.num_nodes() > self.peak_nodes {
            self.peak_nodes = self.num_nodes();
        }
        Bdd(idx << 1)
    }

    fn grow_unique(&mut self) {
        let new_cap = self.unique.len() * 2;
        let mut table = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for &entry in &self.unique {
            if entry == EMPTY {
                continue;
            }
            let n = self.nodes[entry as usize];
            let mut slot = triple_hash(n.var, n.lo, n.hi) as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = entry;
        }
        self.unique = table;
        self.unique_mask = mask;
        self.maybe_grow_ops();
    }

    /// Keeps the ops cache sized to the unique table (a quarter of its
    /// capacity, within `[2^OPS_CACHE_MIN_BITS, 2^OPS_CACHE_MAX_BITS]`).
    /// Growing re-slots the surviving entries; a collision keeps the later
    /// one, which is fine for a lossy memo.
    fn maybe_grow_ops(&mut self) {
        let unique_bits = self.unique.len().trailing_zeros();
        let want = unique_bits
            .saturating_sub(2)
            .clamp(OPS_CACHE_MIN_BITS, OPS_CACHE_MAX_BITS);
        if want <= self.ops_bits {
            return;
        }
        let old = std::mem::replace(
            &mut self.ops,
            vec![OPS_VACANT; 1usize << want].into_boxed_slice(),
        );
        self.ops_bits = want;
        for e in old.iter().filter(|e| e.f != EMPTY) {
            let slot = (triple_hash(e.f, e.g, e.h) >> (64 - self.ops_bits)) as usize;
            self.ops[slot] = *e;
        }
    }

    #[inline]
    fn ops_slot(&self, key: (u32, u32, u32)) -> usize {
        // Multiply-xor mixes into the high bits; take the top `ops_bits`.
        (triple_hash(key.0, key.1, key.2) >> (64 - self.ops_bits)) as usize
    }

    #[inline]
    fn ops_get(&mut self, key: (u32, u32, u32)) -> Option<Bdd> {
        self.ops_lookups += 1;
        let e = self.ops[self.ops_slot(key)];
        if e.f == key.0 && e.g == key.1 && e.h == key.2 {
            self.ops_hits += 1;
            Some(Bdd(e.r))
        } else {
            None
        }
    }

    #[inline]
    fn ops_put(&mut self, key: (u32, u32, u32), r: Bdd) {
        let slot = self.ops_slot(key);
        self.ops[slot] = OpsEntry {
            f: key.0,
            g: key.1,
            h: key.2,
            r: r.0,
        };
    }

    /// Brace–Rudell standard-triple normalization: resolve terminal cases,
    /// rewrite commuted/complemented forms of the same function onto one
    /// canonical triple (so they share an ops-cache entry), and factor the
    /// output complement out.
    fn normalize_ite(&self, f: Bdd, g: Bdd, h: Bdd) -> Norm {
        if f.is_true() {
            return Norm::Done(g);
        }
        if f.is_false() {
            return Norm::Done(h);
        }
        let (mut f, mut g, mut h) = (f, g, h);
        if g == f {
            g = Bdd::TRUE;
        } else if g == f.complemented() {
            g = Bdd::FALSE;
        }
        if h == f {
            h = Bdd::FALSE;
        } else if h == f.complemented() {
            h = Bdd::TRUE;
        }
        if g == h {
            return Norm::Done(g);
        }
        if g.is_true() && h.is_false() {
            return Norm::Done(f);
        }
        if g.is_false() && h.is_true() {
            return Norm::Done(f.complemented());
        }
        // Commutation rules: for the symmetric forms, put the smaller
        // (variable rank, regular handle) operand first so commuted calls
        // hit the same cache entry.
        let rank = |x: Bdd| (self.var_rank(x), x.0 & !1);
        if g.is_true() {
            // ite(f, 1, h) == ite(h, 1, f)
            if rank(h) < rank(f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if g.is_false() {
            // ite(f, 0, h) == ite(¬h, 0, ¬f)
            if rank(h) < rank(f) {
                let nf = f.complemented();
                f = h.complemented();
                h = nf;
            }
        } else if h.is_true() {
            // ite(f, g, 1) == ite(¬g, ¬f, 1)
            if rank(g) < rank(f) {
                let nf = f.complemented();
                f = g.complemented();
                g = nf;
            }
        } else if h.is_false() {
            // ite(f, g, 0) == ite(g, f, 0)
            if rank(g) < rank(f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if g == h.complemented() {
            // ite(f, g, ¬g) == ite(g, f, ¬f)
            if rank(g) < rank(f) {
                std::mem::swap(&mut f, &mut g);
                h = g.complemented();
            }
        }
        // Polarity rules: a regular f (swap branches), then a regular g
        // (factor the complement out of the result).
        let mut neg = false;
        if f.is_complement() {
            f = f.regular();
            std::mem::swap(&mut g, &mut h);
        }
        if g.is_complement() {
            g = g.complemented();
            h = h.complemented();
            neg = true;
        }
        Norm::Triple(f, g, h, neg)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`. The workhorse behind every binary
    /// operation. Runs on an explicit frame stack, so operand depth is
    /// limited by heap, not thread stack.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Scratch stacks live on the manager so the frequent tiny calls
        // (every `and`/`or`/`xor` lands here) don't pay two heap
        // allocations each. `ite` never re-enters itself, so taking them
        // is safe; they go back (capacity intact) on every exit path.
        let mut frames = std::mem::take(&mut self.ite_frames);
        let mut results = std::mem::take(&mut self.ite_results);
        frames.push(IteFrame::App(f, g, h));
        while let Some(frame) = frames.pop() {
            match frame {
                IteFrame::App(f, g, h) => match self.normalize_ite(f, g, h) {
                    Norm::Done(r) => results.push(r),
                    Norm::Triple(f, g, h, neg) => {
                        let key = (f.0, g.0, h.0);
                        if let Some(r) = self.ops_get(key) {
                            results.push(Bdd(r.0 ^ neg as u32));
                            continue;
                        }
                        let var = self.var_rank(f).min(self.var_rank(g)).min(self.var_rank(h));
                        let (f0, f1) = self.cofactors_at(f, var);
                        let (g0, g1) = self.cofactors_at(g, var);
                        let (h0, h1) = self.cofactors_at(h, var);
                        frames.push(IteFrame::Combine { var, key, neg });
                        frames.push(IteFrame::App(f1, g1, h1));
                        frames.push(IteFrame::App(f0, g0, h0));
                    }
                },
                IteFrame::Combine { var, key, neg } => {
                    let hi = results.pop().expect("high cofactor result");
                    let lo = results.pop().expect("low cofactor result");
                    let r = self.mk(var, lo, hi);
                    self.ops_put(key, r);
                    results.push(Bdd(r.0 ^ neg as u32));
                }
            }
        }
        debug_assert_eq!(results.len(), 1);
        let r = results.pop().expect("ite result");
        self.ite_frames = frames;
        self.ite_results = results;
        r
    }

    /// Boolean negation `¬f` — a constant-time complement-bit flip.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.complemented()
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g.complemented(), g)
    }

    /// Equivalence `f ↔ g` as a function (use `==` on handles for the
    /// constant-time equality *test*).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, g.complemented())
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Conjunction of an iterator of functions (`TRUE` when empty).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of functions (`FALSE` when empty).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// The cofactor of `f` with variable `v` fixed to `value`.
    ///
    /// Restriction commutes with complement, so the walk memoizes on
    /// regular handles and re-applies the complement bit on exit.
    pub fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        enum Frame {
            Visit(Bdd),
            Emit { var: u32, reg: u32, c: u32 },
        }
        let target = v.index();
        if target >= self.num_vars {
            // No node tests the variable.
            return f;
        }
        let mut memo: FxHashMap<u32, u32> = FxHashMap::default();
        let mut frames = vec![Frame::Visit(f)];
        let mut results: Vec<Bdd> = Vec::new();
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Visit(f) => {
                    let n = self.node(f);
                    if n.var > target {
                        // Past the variable in the order (or a terminal):
                        // unchanged.
                        results.push(f);
                        continue;
                    }
                    let c = f.0 & 1;
                    if n.var == target {
                        let child = if value { n.hi } else { n.lo };
                        results.push(Bdd(child ^ c));
                        continue;
                    }
                    let reg = f.0 & !1;
                    if let Some(&r) = memo.get(&reg) {
                        results.push(Bdd(r ^ c));
                        continue;
                    }
                    frames.push(Frame::Emit { var: n.var, reg, c });
                    frames.push(Frame::Visit(Bdd(n.hi)));
                    frames.push(Frame::Visit(Bdd(n.lo)));
                }
                Frame::Emit { var, reg, c } => {
                    let hi = results.pop().expect("restrict high result");
                    let lo = results.pop().expect("restrict low result");
                    let r = self.mk(var, lo, hi);
                    memo.insert(reg, r.0);
                    results.push(Bdd(r.0 ^ c));
                }
            }
        }
        results.pop().expect("restrict result")
    }

    /// Substitutes function `g` for variable `v` in `f` (Boolean
    /// composition `f[v ← g]`).
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Bdd {
        let map = [(v, g)];
        self.vector_compose(f, &map)
    }

    /// Simultaneous substitution: every variable listed in `subst` is
    /// replaced by its paired function; variables not listed stay themselves.
    ///
    /// This is the operation the decision algorithm uses to unroll the
    /// steady-state recurrence `x̂(n) = g(x̂(n−1), u(n−1))` until all time
    /// arguments align. Composition commutes with complement, so the walk
    /// memoizes on regular handles; the frame stack keeps arbitrarily deep
    /// operands off the thread stack.
    pub fn vector_compose(&mut self, f: Bdd, subst: &[(Var, Bdd)]) -> Bdd {
        self.vector_compose_memo(f, subst, &mut QuantMemo::default())
    }

    /// [`vector_compose`](Self::vector_compose) through a memo the caller
    /// keeps across calls with the same substitution.
    pub fn vector_compose_memo(
        &mut self,
        f: Bdd,
        subst: &[(Var, Bdd)],
        memo: &mut QuantMemo,
    ) -> Bdd {
        self.refresh(memo);
        let pairs = subst.iter().map(|&(v, g)| (v.0, g.0));
        if !memo.subst.iter().copied().eq(pairs.clone()) {
            memo.subst = pairs.collect();
            memo.composed.clear();
        }
        let memo = &mut memo.composed;
        // The stacks and the map go back, capacity intact, on return; `ite`
        // and `var` never reach them.
        let mut frames = std::mem::take(&mut self.compose_frames);
        let mut results = std::mem::take(&mut self.walk_results);
        let mut map = std::mem::take(&mut self.compose_map);
        debug_assert!(frames.is_empty() && results.is_empty());
        // Only the nodes of `f` are looked up, and no node decides on a
        // variable past `num_vars`.
        if map.len() < self.num_vars as usize {
            map.resize(self.num_vars as usize, None);
        }
        for &(v, g) in subst {
            if let Some(slot) = map.get_mut(v.index() as usize) {
                *slot = Some(g);
            }
        }
        frames.push(ComposeFrame::Visit(f));
        while let Some(frame) = frames.pop() {
            match frame {
                ComposeFrame::Visit(f) => {
                    if f.is_const() {
                        results.push(f);
                        continue;
                    }
                    let c = f.0 & 1;
                    let reg = f.0 & !1;
                    if let Some(&r) = memo.get(&reg) {
                        results.push(Bdd(r ^ c));
                        continue;
                    }
                    let n = self.node(f);
                    frames.push(ComposeFrame::Emit { var: n.var, reg, c });
                    frames.push(ComposeFrame::Visit(Bdd(n.hi)));
                    frames.push(ComposeFrame::Visit(Bdd(n.lo)));
                }
                ComposeFrame::Emit { var, reg, c } => {
                    let hi = results.pop().expect("compose high result");
                    let lo = results.pop().expect("compose low result");
                    let root = match map[var as usize] {
                        Some(g) => g,
                        None => self.var(Var(var)),
                    };
                    let r = self.ite(root, hi, lo);
                    memo.insert(reg, r.0);
                    results.push(Bdd(r.0 ^ c));
                }
            }
        }
        for &(v, _) in subst {
            if let Some(slot) = map.get_mut(v.index() as usize) {
                *slot = None;
            }
        }
        let r = results.pop().expect("compose result");
        self.compose_frames = frames;
        self.walk_results = results;
        self.compose_map = map;
        r
    }

    /// Renames variables according to `map` (a special case of
    /// [`vector_compose`](Self::vector_compose) provided for readability at
    /// call sites that shift time indices).
    pub fn rename_vars(&mut self, f: Bdd, map: &[(Var, Var)]) -> Bdd {
        let subst: Vec<(Var, Bdd)> = map
            .iter()
            .map(|&(from, to)| {
                let g = self.var(to);
                (from, g)
            })
            .collect();
        self.vector_compose(f, &subst)
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// Sorts `vars` on every call; hot loops should prepare a [`VarSet`]
    /// once and use [`exists_set`](Self::exists_set).
    pub fn exists(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        self.exists_set(f, &VarSet::new(vars))
    }

    /// The sorted quantifiable variables of `vars`. Variables past
    /// [`num_vars`](Self::num_vars) are dropped: no node tests them, so
    /// quantifying over them is the identity.
    fn quantified<'v>(&self, vars: &'v VarSet) -> &'v [u32] {
        &vars.sorted[..vars.sorted.partition_point(|&v| v < self.num_vars)]
    }

    /// Existential quantification over a prepared [`VarSet`].
    pub fn exists_set(&mut self, f: Bdd, vars: &VarSet) -> Bdd {
        // Quantification does not commute with complement, so the memo is
        // keyed on full handles.
        enum Frame {
            Visit(Bdd),
            Emit { f: u32, var: u32, quantified: bool },
        }
        let qvars = self.quantified(vars);
        let mut memo: FxHashMap<u32, u32> = FxHashMap::default();
        let mut frames = vec![Frame::Visit(f)];
        let mut results: Vec<Bdd> = Vec::new();
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Visit(f) => {
                    if f.is_const() {
                        results.push(f);
                        continue;
                    }
                    let n = self.node(f);
                    // All quantified variables above the root leave f
                    // untouched.
                    let pos = qvars.partition_point(|&v| v < n.var);
                    if pos == qvars.len() {
                        results.push(f);
                        continue;
                    }
                    if let Some(&r) = memo.get(&f.0) {
                        results.push(Bdd(r));
                        continue;
                    }
                    let (lo, hi) = self.cofactors(f);
                    frames.push(Frame::Emit {
                        f: f.0,
                        var: n.var,
                        quantified: qvars[pos] == n.var,
                    });
                    frames.push(Frame::Visit(hi));
                    frames.push(Frame::Visit(lo));
                }
                Frame::Emit { f, var, quantified } => {
                    let hi = results.pop().expect("exists high result");
                    let lo = results.pop().expect("exists low result");
                    let r = if quantified {
                        self.or(lo, hi)
                    } else {
                        self.mk(var, lo, hi)
                    };
                    memo.insert(f, r.0);
                    results.push(r);
                }
            }
        }
        results.pop().expect("exists result")
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        self.forall_set(f, &VarSet::new(vars))
    }

    /// Universal quantification over a prepared [`VarSet`].
    pub fn forall_set(&mut self, f: Bdd, vars: &VarSet) -> Bdd {
        self.exists_set(f.complemented(), vars).complemented()
    }

    /// The relational product `∃ vars. (f ∧ g)`, computed without building
    /// the full conjunction — the inner loop of symbolic reachability.
    ///
    /// Sorts `vars` on every call; fixpoint loops should prepare a
    /// [`VarSet`] once and use [`and_exists_set`](Self::and_exists_set).
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[Var]) -> Bdd {
        self.and_exists_set(f, g, &VarSet::new(vars))
    }

    /// Relational product over a prepared [`VarSet`].
    pub fn and_exists_set(&mut self, f: Bdd, g: Bdd, vars: &VarSet) -> Bdd {
        self.and_exists_memo(f, g, vars, &mut QuantMemo::default())
    }

    /// [`and_exists_set`](Self::and_exists_set) through a memo the caller
    /// keeps across calls with the same quantified set.
    pub fn and_exists_memo(&mut self, f: Bdd, g: Bdd, vars: &VarSet, memo: &mut QuantMemo) -> Bdd {
        if vars.is_empty() {
            return self.and(f, g);
        }
        self.refresh(memo);
        if memo.vars != vars.sorted {
            memo.vars.clone_from(&vars.sorted);
            memo.products.clear();
        }
        let memo = &mut memo.products;
        let qvars = self.quantified(vars);
        // The stacks go back, capacity intact, on return; `and`, `or` and
        // `mk` never reach them.
        let mut frames = std::mem::take(&mut self.quant_frames);
        let mut results = std::mem::take(&mut self.walk_results);
        debug_assert!(frames.is_empty() && results.is_empty());
        frames.push(QuantFrame::App(f, g));
        while let Some(frame) = frames.pop() {
            match frame {
                QuantFrame::App(f, g) => {
                    if f.is_false() || g.is_false() {
                        results.push(Bdd::FALSE);
                        continue;
                    }
                    if f.is_true() && g.is_true() {
                        results.push(Bdd::TRUE);
                        continue;
                    }
                    // ∧ commutes, so memoize the unordered pair.
                    let key = (f.0.min(g.0), f.0.max(g.0));
                    if let Some(&r) = memo.get(&key) {
                        results.push(Bdd(r));
                        continue;
                    }
                    let var = self.var_rank(f).min(self.var_rank(g));
                    let pos = qvars.partition_point(|&v| v < var);
                    if pos == qvars.len() {
                        // No quantified variable at or below the frontier:
                        // plain conjunction.
                        let r = self.and(f, g);
                        memo.insert(key, r.0);
                        results.push(r);
                        continue;
                    }
                    let (f0, f1) = self.cofactors_at(f, var);
                    let (g0, g1) = self.cofactors_at(g, var);
                    if qvars[pos] == var {
                        frames.push(QuantFrame::AfterLo { f1, g1, key });
                        frames.push(QuantFrame::App(f0, g0));
                    } else {
                        frames.push(QuantFrame::CombineMk { var, key });
                        frames.push(QuantFrame::App(f1, g1));
                        frames.push(QuantFrame::App(f0, g0));
                    }
                }
                QuantFrame::AfterLo { f1, g1, key } => {
                    let lo = results.pop().expect("and_exists low result");
                    if lo.is_true() {
                        // ∃x. h = lo ∨ hi is already TRUE: skip the high
                        // branch entirely.
                        memo.insert(key, Bdd::TRUE.0);
                        results.push(Bdd::TRUE);
                    } else {
                        results.push(lo);
                        frames.push(QuantFrame::CombineOr { key });
                        frames.push(QuantFrame::App(f1, g1));
                    }
                }
                QuantFrame::CombineOr { key } => {
                    let hi = results.pop().expect("and_exists high result");
                    let lo = results.pop().expect("and_exists low result");
                    let r = self.or(lo, hi);
                    memo.insert(key, r.0);
                    results.push(r);
                }
                QuantFrame::CombineMk { var, key } => {
                    let hi = results.pop().expect("and_exists high result");
                    let lo = results.pop().expect("and_exists low result");
                    let r = self.mk(var, lo, hi);
                    memo.insert(key, r.0);
                    results.push(r);
                }
            }
        }
        let r = results.pop().expect("and_exists result");
        self.quant_frames = frames;
        self.walk_results = results;
        r
    }

    /// Drops `memo` when a collection or compaction ran since its entries
    /// were made, or when it outgrew twice the live arena.
    fn refresh(&self, memo: &mut QuantMemo) {
        let stamp = self.gc_runs + self.compactions;
        if memo.stamp != stamp || memo.products.len() + memo.composed.len() > 2 * self.num_nodes() {
            *memo = QuantMemo {
                stamp,
                ..QuantMemo::default()
            };
        }
    }

    /// Evaluates `f` under a total assignment supplied as a predicate.
    pub fn eval<A: Fn(Var) -> bool>(&self, f: Bdd, assignment: A) -> bool {
        let mut cur = f;
        loop {
            if cur.is_true() {
                return true;
            }
            if cur.is_false() {
                return false;
            }
            let var = Var(self.node(cur).var);
            let (lo, hi) = self.cofactors(cur);
            cur = if assignment(var) { hi } else { lo };
        }
    }

    /// The set of variables `f` structurally depends on, in ascending order.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.index()];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let n = self.nodes[idx];
            vars.insert(n.var);
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        vars.into_iter().map(Var).collect()
    }

    /// Number of distinct subfunctions reachable from `f` (a size measure,
    /// counting each reached terminal constant separately).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if !seen.insert(g.0) {
                continue;
            }
            if g.is_const() {
                continue;
            }
            let (lo, hi) = self.cofactors(g);
            stack.push(lo);
            stack.push(hi);
        }
        seen.len()
    }

    /// Counts satisfying assignments of `f` over a space of `num_vars`
    /// variables (indices `0 .. num_vars`), as an `f64` to tolerate wide
    /// state spaces.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable with index `≥ num_vars`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> f64 {
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        let frac = self.sat_fraction(f, &mut memo);
        frac * 2f64.powi(num_vars as i32)
    }

    /// The fraction of the full assignment space satisfying `f` (independent
    /// of the number of variables).
    pub fn sat_fraction_of(&self, f: Bdd) -> f64 {
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        self.sat_fraction(f, &mut memo)
    }

    /// Memoized per *handle* (not per regular node): computing the
    /// complement side as `0.5·lo + 0.5·hi` rather than `1 − frac` keeps
    /// the floating-point evaluation order identical to a kernel without
    /// complement edges, so reported state counts stay bit-identical. Runs
    /// on an explicit stack (reachable sets can be very deep); each node's
    /// value is a pure function of its children's, so the traversal order
    /// cannot perturb the floats either.
    fn sat_fraction(&self, f: Bdd, memo: &mut FxHashMap<u32, f64>) -> f64 {
        fn value(memo: &FxHashMap<u32, f64>, g: Bdd) -> Option<f64> {
            if g.is_true() {
                Some(1.0)
            } else if g.is_false() {
                Some(0.0)
            } else {
                memo.get(&g.0).copied()
            }
        }
        let mut stack = vec![f];
        while let Some(&g) = stack.last() {
            if value(memo, g).is_some() {
                stack.pop();
                continue;
            }
            let (lo, hi) = self.cofactors(g);
            match (value(memo, lo), value(memo, hi)) {
                (Some(l), Some(h)) => {
                    memo.insert(g.0, 0.5 * l + 0.5 * h);
                    stack.pop();
                }
                (lv, hv) => {
                    if hv.is_none() {
                        stack.push(hi);
                    }
                    if lv.is_none() {
                        stack.push(lo);
                    }
                }
            }
        }
        value(memo, f).expect("root fraction computed")
    }

    /// Returns one satisfying partial assignment (a cube) of `f`, or `None`
    /// if `f` is unsatisfiable. Variables not mentioned are don't-cares.
    pub fn any_sat(&self, f: Bdd) -> Option<Vec<(Var, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut cube = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let var = Var(self.node(cur).var);
            let (lo, hi) = self.cofactors(cur);
            if lo.is_false() {
                cube.push((var, true));
                cur = hi;
            } else {
                cube.push((var, false));
                cur = lo;
            }
        }
        Some(cube)
    }

    /// Whether `f` and `g` denote the same function; constant time thanks to
    /// canonicity. Provided for call-site readability.
    pub fn equal(&self, f: Bdd, g: Bdd) -> bool {
        f == g
    }

    /// Mark-and-sweep garbage collection: every node not reachable from
    /// `roots` is freed and its arena slot recycled. Handles to freed nodes become invalid; handles
    /// to surviving nodes are unchanged. The ops cache is cleared (it may
    /// reference freed nodes).
    ///
    /// Returns the number of nodes freed.
    pub fn collect_garbage(&mut self, roots: &[Bdd]) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<usize> = Vec::new();
        for &f in roots {
            if !f.is_const() {
                stack.push(f.index());
            }
        }
        while let Some(idx) = stack.pop() {
            if marked[idx] {
                continue;
            }
            marked[idx] = true;
            let n = self.nodes[idx];
            debug_assert_ne!(n.var, FREE_VAR, "root or child points at a freed node");
            let (lo, hi) = ((n.lo >> 1) as usize, (n.hi >> 1) as usize);
            if !marked[lo] {
                stack.push(lo);
            }
            if !marked[hi] {
                stack.push(hi);
            }
        }
        // Sweep: free-list every live-but-unmarked slot.
        let mut freed = 0usize;
        for (idx, &live) in marked.iter().enumerate().skip(1) {
            if !live && self.nodes[idx].var != FREE_VAR {
                self.nodes[idx].var = FREE_VAR;
                self.free.push(idx as u32);
                freed += 1;
            }
        }
        // Rebuild the unique table over the survivors (no tombstones),
        // growing first if they would overload it — an overfull
        // open-addressed table never terminates probing.
        let live = marked.iter().skip(1).filter(|&&m| m).count();
        let mut cap = self.unique.len();
        while (live + 1) * 10 >= cap * 7 {
            cap *= 2;
        }
        if cap != self.unique.len() {
            self.unique = vec![EMPTY; cap];
            self.unique_mask = cap - 1;
            self.maybe_grow_ops();
        } else {
            self.unique.fill(EMPTY);
        }
        self.unique_len = 0;
        for (idx, &live) in marked.iter().enumerate().skip(1) {
            if !live {
                continue;
            }
            let n = self.nodes[idx];
            let mut slot = triple_hash(n.var, n.lo, n.hi) as usize & self.unique_mask;
            while self.unique[slot] != EMPTY {
                slot = (slot + 1) & self.unique_mask;
            }
            self.unique[slot] = idx as u32;
            self.unique_len += 1;
        }
        // The ops cache may name freed nodes; drop it wholesale.
        self.ops.fill(OPS_VACANT);
        self.gc_runs += 1;
        self.nodes_freed += freed as u64;
        // Arm compaction when at least half the arena is holes: survivors
        // are then scattered across a mostly-dead address range and the
        // iterative operator stacks pay cache misses on every probe.
        self.compact_due = compact_stress() || self.free.len() >= live.max(1);
        // Adaptive re-arm: wait until the live set doubles before the next
        // automatic collection (unless a stress/explicit base of 0 forces
        // collection at every opportunity).
        self.gc_trigger = if self.gc_base == 0 {
            0
        } else {
            self.gc_base.max(self.num_nodes() * 2)
        };
        freed
    }

    /// Runs [`collect_garbage`](Self::collect_garbage) only when the live
    /// node count exceeds the current trigger. Call at natural boundaries
    /// (between sweep candidates, between fixpoint iterations) with the
    /// handles that must survive. Returns whether a collection ran.
    pub fn maybe_collect_garbage(&mut self, roots: &[Bdd]) -> bool {
        if self.num_nodes() <= self.gc_trigger {
            return false;
        }
        self.collect_garbage(roots);
        true
    }

    /// One past the largest variable index any node has decided on: the
    /// variables `0 .. num_vars` span every function this manager built.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Overrides the live-node count that arms
    /// [`maybe_collect_garbage`](Self::maybe_collect_garbage). A threshold
    /// of 0 collects at every opportunity (useful for shaking out unrooted
    /// handles; the `MCT_BDD_GC_STRESS` environment variable applies the same
    /// setting process-wide).
    pub fn set_gc_threshold(&mut self, live_nodes: usize) {
        self.gc_base = live_nodes;
        self.gc_trigger = live_nodes;
    }

    /// Clears the ITE ops cache (unique table and arena are kept).
    ///
    /// Superseded by [`collect_garbage`](Self::collect_garbage), which also
    /// reclaims arena nodes; kept for callers that only want to drop memo
    /// state.
    pub fn clear_caches(&mut self) {
        self.ops.fill(OPS_VACANT);
    }

    /// Arena, cache, and collector statistics.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.num_nodes() as u64,
            peak_nodes: self.peak_nodes as u64,
            gc_runs: self.gc_runs,
            nodes_freed: self.nodes_freed,
            ops_cache_hits: self.ops_hits,
            ops_cache_lookups: self.ops_lookups,
            compactions: self.compactions,
            mvec_memo_hits: 0,
            sigma_pruned: 0,
            sigma_reused: 0,
            skew_lp_iterations: 0,
            skew_lp_cuts: 0,
        }
    }

    /// Whether the last garbage collection left the arena fragmented
    /// enough that a [`compact`](Self::compact) is worth its linear cost
    /// (always true under `MCT_BDD_COMPACT_STRESS`).
    pub fn compact_pending(&self) -> bool {
        self.compact_due
    }

    /// Relocates every live node into DFS preorder — children follow
    /// parents, the low subtree immediately after its node — and drops the
    /// free list, leaving a dense arena. Iterative `ite`/`exists`/
    /// `compose` stacks then walk mostly-forward through a contiguous
    /// address range, which shrinks unique-table probe and ops-cache miss
    /// rates.
    ///
    /// **This is the one operation that invalidates surviving handles.**
    /// Every retained handle — the `roots` passed here and any copy held
    /// elsewhere — must be rewritten through the returned [`CompactMap`]
    /// before its next use: only call this at a boundary where every
    /// outstanding handle is enumerable. Nodes that are live but
    /// unreachable from `roots` survive at the tail of the new arena (callers typically compact right after
    /// [`collect_garbage`](Self::collect_garbage), where none exist).
    pub fn compact(&mut self, roots: &[Bdd]) -> CompactMap {
        let old_len = self.nodes.len();
        let mut map = vec![EMPTY; old_len];
        map[0] = 0;
        // `order[new] = old`: terminal first, then a DFS preorder from the
        // caller's roots.
        let mut order: Vec<u32> = Vec::with_capacity(self.unique_len + 1);
        order.push(0);
        let mut stack: Vec<u32> = Vec::new();
        let seeds = roots
            .iter()
            .filter(|f| !f.is_const())
            .map(|f| f.index() as u32);
        for seed in seeds {
            if map[seed as usize] != EMPTY {
                continue;
            }
            stack.push(seed);
            while let Some(idx) = stack.pop() {
                if map[idx as usize] != EMPTY {
                    continue;
                }
                map[idx as usize] = order.len() as u32;
                order.push(idx);
                let n = self.nodes[idx as usize];
                debug_assert_ne!(n.var, FREE_VAR, "compact root points at a freed node");
                // Push high first so the low subtree is laid out first,
                // immediately following its parent.
                let (lo, hi) = (n.lo >> 1, n.hi >> 1);
                if hi != 0 && map[hi as usize] == EMPTY {
                    stack.push(hi);
                }
                if lo != 0 && map[lo as usize] == EMPTY {
                    stack.push(lo);
                }
            }
        }
        // Live nodes the walk missed (unrooted, not yet swept)
        // keep their relative arena order at the tail.
        for (idx, slot) in map.iter_mut().enumerate().take(old_len).skip(1) {
            if self.nodes[idx].var < FREE_VAR && *slot == EMPTY {
                *slot = order.len() as u32;
                order.push(idx as u32);
            }
        }
        // Rebuild the arena in the new order, remapping child handles.
        let mut nodes: Vec<Node> = Vec::with_capacity(order.len());
        for &old in &order {
            let n = self.nodes[old as usize];
            if old == 0 {
                nodes.push(n);
                continue;
            }
            nodes.push(Node {
                var: n.var,
                lo: map[(n.lo >> 1) as usize] << 1 | (n.lo & 1),
                hi: map[(n.hi >> 1) as usize] << 1 | (n.hi & 1),
            });
        }
        self.nodes = nodes;
        self.free.clear();
        self.rebuild_unique_from_arena(order.len() - 1);
        self.clear_caches();
        self.compactions += 1;
        self.compact_due = false;
        CompactMap { map }
    }

    /// Rebuilds the open-addressed unique table from the arena after
    /// [`compact`](Self::compact) relocated the nodes (growing it first if
    /// the survivors would exceed the 70% load bound).
    fn rebuild_unique_from_arena(&mut self, live: usize) {
        let mut cap = self.unique.len();
        while (live + 1) * 10 >= cap * 7 {
            cap *= 2;
        }
        if cap != self.unique.len() {
            self.unique = vec![EMPTY; cap];
            self.unique_mask = cap - 1;
        } else {
            self.unique.fill(EMPTY);
        }
        self.unique_len = 0;
        for idx in 1..self.nodes.len() {
            let n = self.nodes[idx];
            if n.var >= FREE_VAR {
                continue;
            }
            let mut slot = triple_hash(n.var, n.lo, n.hi) as usize & self.unique_mask;
            while self.unique[slot] != EMPTY {
                slot = (slot + 1) & self.unique_mask;
            }
            self.unique[slot] = idx as u32;
            self.unique_len += 1;
        }
        debug_assert_eq!(self.unique_len, live);
        self.maybe_grow_ops();
    }
}

/// Relocation map returned by [`BddManager::compact`]: rewrite every
/// retained handle before using it against the compacted manager.
pub struct CompactMap {
    /// Old arena index → new arena index.
    map: Vec<u32>,
}

impl CompactMap {
    /// The post-compaction handle denoting the same function as `f`.
    pub fn rewrite(&self, f: Bdd) -> Bdd {
        if f.is_const() {
            return f;
        }
        Bdd(self.map[f.index()] << 1 | (f.0 & 1))
    }
}

/// Occupancy and collector snapshot of a [`BddManager`].
///
/// Every counter is also declared in [`BddStats::COUNTERS`], which is what
/// each sink (the CLI's JSON, the service's aggregate and log line, this
/// type's `Display`) iterates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BddStats {
    /// Live arena nodes (including the terminal).
    pub nodes: u64,
    /// High-water mark of live nodes over the manager's lifetime.
    pub peak_nodes: u64,
    /// Completed garbage collections.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub nodes_freed: u64,
    /// ITE ops-cache hits.
    pub ops_cache_hits: u64,
    /// ITE ops-cache lookups.
    pub ops_cache_lookups: u64,
    /// Completed DFS-preorder arena compactions
    /// ([`BddManager::compact`]).
    pub compactions: u64,
    /// Per-cone decision outcomes answered from a cone's memo or its cached
    /// entry, keyed by the cone's projection of the shift vector, instead
    /// of being re-derived; a repeated shift vector counts once per cone.
    /// Only decided shift vectors count: a vector that a settled
    /// candidate's walk never reached is counted as a repeat in the report
    /// but never asks a memo. Filled in by the analysis layer (the memos
    /// live above the kernel); [`BddManager::stats`] reports 0.
    pub mvec_memo_hits: u64,
    /// Decided failing shift combinations that the path-coupled LP proved
    /// unrealizable and dropped from the failing set. Filled in by the
    /// analysis layer; [`BddManager::stats`] reports 0.
    pub sigma_pruned: u64,
    /// Sinks that a sink-by-sink decision visited without making a fresh
    /// comparison: the sink's decision record answered every check. Only
    /// decided shift vectors visit sinks. Filled in by the analysis layer;
    /// [`BddManager::stats`] reports 0.
    pub sigma_reused: u64,
    /// Simplex pivots performed by the clock-skew feasibility programs.
    /// Filled in by the analysis layer; [`BddManager::stats`] reports 0.
    pub skew_lp_iterations: u64,
    /// Infeasibility verdicts (feasibility cuts) returned by the clock-skew
    /// binary search. Filled in by the analysis layer;
    /// [`BddManager::stats`] reports 0.
    pub skew_lp_cuts: u64,
}

/// One counter of [`BddStats`].
#[derive(Clone, Copy)]
pub struct StatCounter {
    /// The counter's key in every sink: JSON objects and log fields.
    pub name: &'static str,
    /// A high-water mark: across many runs the largest value is the
    /// meaningful aggregate, not the sum. (Within one run, managers' arenas
    /// coexist, so [`BddStats::absorb`] adds every counter.)
    pub high_water: bool,
    field: fn(&mut BddStats) -> &mut u64,
}

impl StatCounter {
    const fn new(
        name: &'static str,
        high_water: bool,
        field: fn(&mut BddStats) -> &mut u64,
    ) -> Self {
        StatCounter {
            name,
            high_water,
            field,
        }
    }

    /// This counter's value in `stats`.
    pub fn get(&self, stats: &BddStats) -> u64 {
        *(self.field)(&mut stats.clone())
    }
}

impl BddStats {
    /// Every counter, in the order sinks report them.
    pub const COUNTERS: [StatCounter; 12] = [
        StatCounter::new("nodes", true, |s| &mut s.nodes),
        StatCounter::new("peak_nodes", true, |s| &mut s.peak_nodes),
        StatCounter::new("gc_runs", false, |s| &mut s.gc_runs),
        StatCounter::new("nodes_freed", false, |s| &mut s.nodes_freed),
        StatCounter::new("ops_cache_hits", false, |s| &mut s.ops_cache_hits),
        StatCounter::new("ops_cache_lookups", false, |s| &mut s.ops_cache_lookups),
        StatCounter::new("compactions", false, |s| &mut s.compactions),
        StatCounter::new("mvec_memo_hits", false, |s| &mut s.mvec_memo_hits),
        StatCounter::new("sigma_pruned", false, |s| &mut s.sigma_pruned),
        StatCounter::new("sigma_reused", false, |s| &mut s.sigma_reused),
        StatCounter::new("skew_lp_iterations", false, |s| &mut s.skew_lp_iterations),
        StatCounter::new("skew_lp_cuts", false, |s| &mut s.skew_lp_cuts),
    ];

    /// Each counter with its value, in [`COUNTERS`](Self::COUNTERS) order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static StatCounter, u64)> + '_ {
        Self::COUNTERS.iter().map(move |c| (c, c.get(self)))
    }

    /// Accumulates another manager's statistics into this one (peaks and
    /// node counts add — the managers' arenas coexist in memory).
    pub fn absorb(&mut self, other: &BddStats) {
        for c in &Self::COUNTERS {
            *(c.field)(self) += c.get(other);
        }
    }
}

/// `name=value` for every counter, space-separated.
impl fmt::Display for BddStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (c, v)) in self.counters().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={v}", c.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new();
        let a = m.var(Var::new(0));
        let b = m.var(Var::new(1));
        let c = m.var(Var::new(2));
        (m, a, b, c)
    }

    #[test]
    fn constants() {
        let m = BddManager::new();
        assert!(m.one().is_true());
        assert!(m.zero().is_false());
        assert_eq!(m.constant(true), m.one());
        assert_eq!(m.constant(false), m.zero());
        // A single shared terminal; FALSE is its complement edge.
        assert_eq!(m.num_nodes(), 1);
    }

    #[test]
    fn var_is_canonical() {
        let mut m = BddManager::new();
        let a1 = m.var(Var::new(0));
        let a2 = m.var(Var::new(0));
        assert_eq!(a1, a2);
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn var_and_nvar_share_a_node() {
        let mut m = BddManager::new();
        let p = m.var(Var::new(0));
        let n = m.nvar(Var::new(0));
        assert_eq!(m.not(p), n);
        // Complement edges: the negative literal is the same arena node.
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn not_involution() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
        assert_ne!(f, nf);
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup();
        let and = m.and(a, b);
        let l = m.not(and);
        let na = m.not(a);
        let nb = m.not(b);
        let r = m.or(na, nb);
        assert_eq!(l, r);
    }

    #[test]
    fn xor_truth_table() {
        let (mut m, a, b, _) = setup();
        let f = m.xor(a, b);
        for (va, vb, expect) in [
            (false, false, false),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            let got = m.eval(f, |v| if v.index() == 0 { va } else { vb });
            assert_eq!(got, expect, "a={va} b={vb}");
        }
    }

    #[test]
    fn ite_collapses_equal_branches() {
        let (mut m, a, b, _) = setup();
        assert_eq!(m.ite(a, b, b), b);
    }

    #[test]
    fn ite_standard_triples_share_cache_entries() {
        let (mut m, a, b, _) = setup();
        // and(a, b) and or(¬a, ¬b) are complements; with standard-triple
        // normalization the second is answered from the first's cache line.
        let f = m.and(a, b);
        let before = m.stats();
        let na = m.not(a);
        let nb = m.not(b);
        let g = m.or(na, nb);
        let after = m.stats();
        assert_eq!(g, m.not(f));
        assert!(after.ops_cache_hits > before.ops_cache_hits);
        // No new nodes were needed for the complemented form.
        assert_eq!(after.nodes, before.nodes);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, a, b, c) = setup();
        let bc = m.or(b, c);
        let f = m.and(a, bc); // a ∧ (b ∨ c)
        assert_eq!(m.restrict(f, Var::new(0), false), m.zero());
        let f_a1 = m.restrict(f, Var::new(0), true);
        assert_eq!(f_a1, bc);
        // Restricting a variable f does not depend on is identity.
        assert_eq!(m.restrict(f, Var::new(7), true), f);
    }

    #[test]
    fn restrict_through_complement_edges() {
        let (mut m, a, b, c) = setup();
        let bc = m.or(b, c);
        let f = m.and(a, bc);
        let nf = m.not(f);
        // ¬(a ∧ (b∨c)) with a=1 is ¬(b∨c).
        let got = m.restrict(nf, Var::new(0), true);
        assert_eq!(got, m.not(bc));
    }

    #[test]
    fn compose_substitutes() {
        let (mut m, a, b, c) = setup();
        let f = m.xor(a, b);
        let g = m.and(b, c);
        let composed = m.compose(f, Var::new(0), g); // (b∧c) ⊕ b
                                                     // Truth check: b=1,c=0 → (b∧c)=0 ⊕ 1 = 1
        assert!(m.eval(composed, |v| v.index() == 1));
        // b=1, c=1 → 1 ⊕ 1 = 0
        assert!(!m.eval(composed, |v| v.index() <= 2 && v.index() >= 1));
    }

    #[test]
    fn vector_compose_is_simultaneous() {
        // f = a ⊕ b; swap a and b simultaneously: must still be a ⊕ b,
        // not collapse through sequential substitution.
        let (mut m, a, b, _) = setup();
        let f = m.xor(a, b);
        let swapped = m.vector_compose(f, &[(Var::new(0), b), (Var::new(1), a)]);
        assert_eq!(swapped, f);
    }

    #[test]
    fn rename_shifts_support() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let g = m.rename_vars(
            f,
            &[(Var::new(0), Var::new(10)), (Var::new(1), Var::new(11))],
        );
        assert_eq!(m.support(g), vec![Var::new(10), Var::new(11)]);
    }

    #[test]
    fn exists_removes_var() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        let e = m.exists(f, &[Var::new(0)]);
        assert_eq!(e, b);
        let e2 = m.exists(f, &[Var::new(0), Var::new(1)]);
        assert!(e2.is_true());
    }

    #[test]
    fn exists_set_matches_exists() {
        let (mut m, a, b, c) = setup();
        let ab = m.xor(a, b);
        let f = m.or(ab, c);
        let vars = [Var::new(1), Var::new(0), Var::new(1)]; // unsorted, dup
        let set = VarSet::new(&vars);
        assert_eq!(set.len(), 2);
        assert!(set.contains(Var::new(0)));
        assert!(!set.contains(Var::new(2)));
        let via_slice = m.exists(f, &vars);
        let via_set = m.exists_set(f, &set);
        assert_eq!(via_slice, via_set);
    }

    #[test]
    fn forall_dual() {
        let (mut m, a, b, _) = setup();
        let f = m.or(a, b);
        let g = m.forall(f, &[Var::new(0)]);
        assert_eq!(g, b);
        let h = m.forall(f, &[Var::new(0), Var::new(1)]);
        assert!(h.is_false());
    }

    #[test]
    fn and_exists_matches_composed_ops() {
        let (mut m, a, b, c) = setup();
        let f = m.xor(a, b);
        let g = m.or(b, c);
        let vars = [Var::new(1)];
        let direct = {
            let conj = m.and(f, g);
            m.exists(conj, &vars)
        };
        let fused = m.and_exists(f, g, &vars);
        assert_eq!(direct, fused);
        let fused_set = m.and_exists_set(f, g, &VarSet::new(&vars));
        assert_eq!(direct, fused_set);
    }

    #[test]
    fn support_and_size() {
        let (mut m, a, _, c) = setup();
        let f = m.and(a, c);
        assert_eq!(m.support(f), vec![Var::new(0), Var::new(2)]);
        assert!(m.size(f) >= 2);
        assert!(m.support(m.one()).is_empty());
    }

    #[test]
    fn sat_count_small() {
        let (mut m, a, b, c) = setup();
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f, 3) as u64, 2); // c free
        let g = m.or_all([a, b, c]);
        assert_eq!(m.sat_count(g, 3) as u64, 7);
        assert_eq!(m.sat_count(m.one(), 3) as u64, 8);
        assert_eq!(m.sat_count(m.zero(), 3) as u64, 0);
    }

    #[test]
    fn any_sat_finds_model() {
        let (mut m, a, b, _) = setup();
        let na = m.not(a);
        let f = m.and(na, b);
        let cube = m.any_sat(f).expect("satisfiable");
        // Model must actually satisfy f.
        let val = |v: Var| {
            cube.iter()
                .find(|&&(cv, _)| cv == v)
                .map(|&(_, s)| s)
                .unwrap_or(false)
        };
        assert!(m.eval(f, val));
        assert!(m.any_sat(m.zero()).is_none());
    }

    #[test]
    fn and_all_or_all_empty() {
        let mut m = BddManager::new();
        assert!(m.and_all(std::iter::empty()).is_true());
        assert!(m.or_all(std::iter::empty()).is_false());
    }

    #[test]
    fn clear_caches_preserves_functions() {
        let (mut m, a, b, _) = setup();
        let f = m.and(a, b);
        m.clear_caches();
        let g = m.and(a, b);
        assert_eq!(f, g);
    }

    #[test]
    fn stats_track_growth() {
        let (mut m, a, b, _) = setup();
        let before = m.stats();
        let f = m.and(a, b);
        let mid = m.stats();
        assert!(mid.nodes >= before.nodes);
        assert!(mid.peak_nodes >= mid.nodes);
        assert!(mid.ops_cache_lookups > before.ops_cache_lookups);
        // A repeated operation is answered from the ops cache.
        let g = m.and(a, b);
        let after = m.stats();
        assert_eq!(f, g);
        assert!(after.ops_cache_hits > mid.ops_cache_hits);
        assert!(after.to_string().contains(" ops_cache_hits="));
    }

    #[test]
    fn literal_polarity() {
        let mut m = BddManager::new();
        let p = m.literal(Var::new(4), true);
        let n = m.literal(Var::new(4), false);
        assert_eq!(m.not(p), n);
    }

    #[test]
    #[should_panic(expected = "terminal nodes have no children")]
    fn low_of_terminal_panics() {
        let m = BddManager::new();
        let _ = m.low(Bdd::TRUE);
    }

    #[test]
    fn implies_truth() {
        let (mut m, a, b, _) = setup();
        let f = m.implies(a, b);
        assert!(m.eval(f, |_| false));
        assert!(!m.eval(f, |v| v.index() == 0));
    }

    #[test]
    fn sat_fraction_of_half() {
        let mut m = BddManager::new();
        let a = m.var(Var::new(0));
        assert!((m.sat_fraction_of(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unique_table_grows_past_initial_capacity() {
        let mut m = BddManager::new();
        // Enough product terms to push well past the initial table size.
        let mut acc = m.zero();
        for i in 0..2000u32 {
            let x = m.var(Var::new(i % 40));
            let y = m.var(Var::new((i * 7 + 3) % 40));
            let ny = if i % 3 == 0 { m.not(y) } else { y };
            let t = m.and(x, ny);
            acc = m.or(acc, t);
        }
        assert!(m.num_nodes() > INITIAL_UNIQUE_CAPACITY / 2);
        // Canonicity survives growth: rebuilding a term finds the old node.
        let x = m.var(Var::new(1));
        let y = m.var(Var::new(10));
        let t1 = m.and(x, y);
        let t2 = m.and(x, y);
        assert_eq!(t1, t2);
    }

    #[test]
    fn gc_reclaims_unrooted_nodes() {
        let (mut m, a, b, c) = setup();
        let keep = m.xor(a, b);
        // Build a pile of garbage that references nothing we keep.
        let mut junk = c;
        for i in 3..40u32 {
            let v = m.var(Var::new(i));
            junk = m.xor(junk, v);
        }
        let before = m.num_nodes();
        let freed = m.collect_garbage(&[keep]);
        assert!(freed > 0, "expected the junk chain to be swept");
        assert!(m.num_nodes() < before);
        // The kept function is untouched and still canonical. (The var
        // handles themselves dangle — a literal's leaf node is not part of
        // the xor's graph — so re-create them first.)
        let a2 = m.var(Var::new(0));
        let b2 = m.var(Var::new(1));
        assert_eq!(m.xor(a2, b2), keep);
        assert!(m.eval(keep, |v| v.index() == 0));
        let _ = (a, b);
        // Rebuilding the junk is possible (fresh nodes from the free list).
        let v5 = m.var(Var::new(5));
        assert!(!v5.is_const());
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().nodes_freed, freed as u64);
    }

    #[test]
    fn maybe_gc_threshold_and_rearm() {
        let mut m = BddManager::new();
        m.set_gc_threshold(8);
        let mut keep = m.var(Var::new(0));
        for i in 1..32u32 {
            let v = m.var(Var::new(i));
            keep = m.xor(keep, v);
        }
        assert!(m.maybe_collect_garbage(&[keep]));
        // Nothing was garbage (the chain is rooted), so the trigger re-arms
        // at twice the live count and an immediate retry declines.
        assert!(!m.maybe_collect_garbage(&[keep]));
        assert!(m.eval(keep, |_| true) == (31 % 2 == 0) || m.num_nodes() > 1);
    }

    #[test]
    fn gc_keeps_functions_correct_across_free_list_reuse() {
        let (mut m, a, b, c) = setup();
        let keep = m.ite(a, b, c);
        let junk1 = m.xor(b, c);
        let _ = junk1;
        m.collect_garbage(&[keep]);
        // Allocate again: free slots are reused, semantics must hold.
        let g = m.xor(b, c);
        let h = m.xor(c, b);
        assert_eq!(g, h);
        for env in 0..8u32 {
            let assign = |v: Var| env >> v.index() & 1 == 1;
            let expect = if assign(Var::new(0)) {
                assign(Var::new(1))
            } else {
                assign(Var::new(2))
            };
            assert_eq!(m.eval(keep, assign), expect, "env={env:03b}");
        }
    }

    /// A function over `n` vars with enough structure that compaction has
    /// real subtrees to relocate.
    fn chain(m: &mut BddManager, n: u32) -> Bdd {
        let mut f = m.var(Var::new(0));
        for i in 1..n {
            let v = m.var(Var::new(i));
            f = if i % 3 == 0 { m.and(f, v) } else { m.xor(f, v) };
        }
        f
    }

    #[test]
    fn compact_preserves_semantics_and_canonicity() {
        let mut m = BddManager::new();
        let keep = chain(&mut m, 12);
        let other = {
            let a = m.var(Var::new(2));
            let b = m.var(Var::new(7));
            m.or(a, b)
        };
        // Punch holes: garbage between the kept functions.
        let junk = chain(&mut m, 16);
        let _ = junk;
        m.collect_garbage(&[keep, other]);
        let truth: Vec<bool> = (0..1u32 << 12)
            .map(|env| m.eval(keep, |v| env >> v.index() & 1 == 1))
            .collect();
        let map = m.compact(&[keep, other]);
        let keep2 = map.rewrite(keep);
        let other2 = map.rewrite(other);
        // Dense arena: no free slots remain, live count unchanged.
        for (env, want) in truth.iter().enumerate() {
            let got = m.eval(keep2, |v| env as u32 >> v.index() & 1 == 1);
            assert_eq!(got, *want, "env={env:012b}");
        }
        // Canonicity: rebuilding a kept function finds the relocated node.
        let a = m.var(Var::new(2));
        let b = m.var(Var::new(7));
        assert_eq!(m.or(a, b), other2);
        assert_eq!(m.stats().compactions, 1);
    }

    #[test]
    fn compact_terminal_and_constants_are_stable() {
        let mut m = BddManager::new();
        let f = chain(&mut m, 6);
        let map = m.compact(&[f]);
        assert_eq!(map.rewrite(m.one()), m.one());
        assert_eq!(map.rewrite(m.zero()), m.zero());
    }

    /// A 4-bit counter's image step `∃ cur. set ∧ T`, renamed back to the
    /// current variables 0..4 (next variables are 4..8).
    struct Counter {
        relation: Bdd,
        cur: VarSet,
        rename: Vec<(Var, Var)>,
    }

    impl Counter {
        fn new(m: &mut BddManager) -> Counter {
            let mut relation = m.one();
            let mut carry = m.one();
            for i in 0..4 {
                let c = m.var(Var::new(i));
                let f = m.xor(c, carry);
                let n = m.var(Var::new(i + 4));
                let bit = m.xnor(n, f);
                relation = m.and(relation, bit);
                carry = m.and(carry, c);
            }
            Counter {
                relation,
                cur: (0..4).map(Var::new).collect(),
                rename: (0..4).map(|i| (Var::new(i + 4), Var::new(i))).collect(),
            }
        }

        fn fresh(&self, m: &mut BddManager, set: Bdd) -> Bdd {
            let next = m.and_exists_set(set, self.relation, &self.cur);
            m.rename_vars(next, &self.rename)
        }

        fn kept(&self, m: &mut BddManager, set: Bdd, memo: &mut QuantMemo) -> Bdd {
            let next = m.and_exists_memo(set, self.relation, &self.cur, memo);
            let subst: Vec<(Var, Bdd)> = self.rename.iter().map(|&(n, c)| (n, m.var(c))).collect();
            m.vector_compose_memo(next, &subst, memo)
        }
    }

    #[test]
    fn kept_memo_matches_fresh_calls_across_collection_and_compaction() {
        let mut m = BddManager::new();
        let mut counter = Counter::new(&mut m);
        let mut memo = QuantMemo::default();
        // Live ballast, so the memo stays inside its bound of twice the
        // live arena and only the stamp can drop it.
        let mut ballast = m.zero();
        for i in 8..264 {
            let v = m.var(Var::new(i));
            ballast = m.xor(ballast, v);
        }
        // From the two states {0, 1}, the counter walks pairs of states.
        let high: Vec<Bdd> = (1..4).map(|i| m.nvar(Var::new(i))).collect();
        let mut set = m.and_all(high);
        for _ in 0..3 {
            let kept = counter.kept(&mut m, set, &mut memo);
            assert_eq!(kept, counter.fresh(&mut m, set));
            set = kept;
        }
        // Each collection frees the last state and its image; the next
        // state's nodes take the freed slots, so a memo that outlived the
        // collection would answer for the wrong state.
        for state in 0..16u32 {
            assert!(m.collect_garbage(&[counter.relation, set, ballast]) > 0);
            let lits: Vec<Bdd> = (0..4)
                .map(|b| m.literal(Var::new(b), state >> b & 1 == 1))
                .collect();
            let cube = m.and_all(lits);
            let kept = counter.kept(&mut m, cube, &mut memo);
            assert_eq!(kept, counter.fresh(&mut m, cube), "state {state}");
        }
        // A compaction moves every node the memo names.
        let map = m.compact(&[counter.relation, set, ballast]);
        counter.relation = map.rewrite(counter.relation);
        set = map.rewrite(set);
        for _ in 0..3 {
            let kept = counter.kept(&mut m, set, &mut memo);
            assert_eq!(kept, counter.fresh(&mut m, set));
            set = kept;
        }
    }

    /// Truth table of `f` over variables 0..6: bit `a` is `f` under the
    /// assignment whose variable `v` is bit `v` of `a`.
    fn table(m: &BddManager, f: Bdd) -> u64 {
        (0..64u32).fold(0, |t, a| {
            t | u64::from(m.eval(f, |v| a >> v.index() & 1 == 1)) << a
        })
    }

    /// The function over variables 0..6 with truth table `t`.
    fn from_table(m: &mut BddManager, t: u64) -> Bdd {
        let mut f = m.zero();
        for a in (0..64u32).filter(|a| t >> a & 1 == 1) {
            let lits: Vec<Bdd> = (0..6)
                .map(|v| m.literal(Var::new(v), a >> v & 1 == 1))
                .collect();
            let cube = m.and_all(lits);
            f = m.or(f, cube);
        }
        f
    }

    /// `∃ vars. t` on truth tables.
    fn exists_table(t: u64, vars: &[u32]) -> u64 {
        vars.iter().fold(t, |t, &v| {
            (0..64u32).fold(0, |r, a| r | ((t >> a | t >> (a ^ 1 << v)) & 1) << a)
        })
    }

    /// `t[v ← g_v]` on truth tables.
    fn compose_table(t: u64, subst: &[(u32, u64)]) -> u64 {
        (0..64u32).fold(0, |r, a| {
            let b = subst
                .iter()
                .fold(a, |b, &(v, g)| (b & !(1 << v)) | ((g >> a & 1) as u32) << v);
            r | (t >> b & 1) << a
        })
    }

    /// Seeded sequences of kept-memo relational products and compositions,
    /// mixed with plain compositions, quantifications, `ite`, collections
    /// and compactions on one manager, against truth tables and the plain
    /// calls. The walks' manager-owned stacks must come back empty from
    /// every call, and a kept memo must never answer across a collection
    /// or compaction. Under `MCT_BDD_GC_STRESS` and
    /// `MCT_BDD_COMPACT_STRESS` every step also collects and compacts.
    #[test]
    fn reused_stacks_match_truth_tables_across_mixed_calls() {
        let mut rng = mct_prng::SmallRng::seed_from_u64(0x5ac4_2b1d);
        for _ in 0..4 {
            let mut m = BddManager::new();
            let mut memo = QuantMemo::default();
            let sets: [&[u32]; 3] = [&[0, 2, 5], &[1, 3], &[4]];
            let mut pool: Vec<(Bdd, u64)> = (0..8)
                .map(|_| {
                    let t = rng.next_u64();
                    (from_table(&mut m, t), t)
                })
                .collect();
            // Two substitutions: a rename and two functions of the pool.
            let rename: Vec<(u32, Bdd, u64)> = [(0, 3), (3, 1), (5, 2)]
                .iter()
                .map(|&(v, w)| {
                    let g = m.var(Var::new(w));
                    (v, g, table(&m, g))
                })
                .collect();
            let mut substs = [
                rename,
                vec![(1, pool[0].0, pool[0].1), (4, pool[1].0, pool[1].1)],
            ];
            for _ in 0..300 {
                let pick = |rng: &mut mct_prng::SmallRng| pool[rng.gen_range(0..pool.len())];
                let (f, tf) = pick(&mut rng);
                let (g, tg) = pick(&mut rng);
                let (h, th) = pick(&mut rng);
                let vars = sets[rng.gen_range(0..sets.len())];
                let set: VarSet = vars.iter().map(|&v| Var::new(v)).collect();
                let subst = &substs[rng.gen_range(0..substs.len())];
                let pairs: Vec<(Var, Bdd)> =
                    subst.iter().map(|&(v, g, _)| (Var::new(v), g)).collect();
                let tables: Vec<(u32, u64)> = subst.iter().map(|&(v, _, t)| (v, t)).collect();
                let result = match rng.gen_range(0..8u32) {
                    0 | 1 => {
                        let r = m.and_exists_memo(f, g, &set, &mut memo);
                        assert_eq!(r, m.and_exists_set(f, g, &set));
                        Some((r, exists_table(tf & tg, vars)))
                    }
                    2 | 3 => {
                        let r = m.vector_compose_memo(f, &pairs, &mut memo);
                        assert_eq!(r, m.vector_compose(f, &pairs));
                        Some((r, compose_table(tf, &tables)))
                    }
                    4 => Some((m.vector_compose(f, &pairs), compose_table(tf, &tables))),
                    5 => Some((m.exists_set(f, &set), exists_table(tf, vars))),
                    6 => Some((m.ite(f, g, h), tf & tg | !tf & th)),
                    _ => None,
                };
                assert!(m.quant_frames.is_empty() && m.compose_frames.is_empty());
                assert!(m.walk_results.is_empty());
                assert!(m.compose_map.iter().all(Option::is_none));
                if let Some((r, t)) = result {
                    assert_eq!(table(&m, r), t);
                    pool[rng.gen_range(0..8usize)] = (r, t);
                }
                let roots: Vec<Bdd> = pool
                    .iter()
                    .map(|p| p.0)
                    .chain(substs.iter().flatten().map(|s| s.1))
                    .collect();
                let collect = rng.gen_range(0..10u32) == 0;
                if collect {
                    m.collect_garbage(&roots);
                } else {
                    m.maybe_collect_garbage(&roots);
                }
                if (collect && rng.gen_bool()) || m.compact_pending() {
                    let map = m.compact(&roots);
                    for p in &mut pool {
                        p.0 = map.rewrite(p.0);
                    }
                    for s in substs.iter_mut().flatten() {
                        s.1 = map.rewrite(s.1);
                    }
                }
            }
            assert!(m.walk_results.capacity() > 0);
        }
    }

    #[test]
    fn compact_stress_env_arms_after_gc() {
        let mut m = BddManager::new();
        let keep = chain(&mut m, 8);
        let junk = chain(&mut m, 12);
        let _ = junk;
        m.collect_garbage(&[keep]);
        // Enough junk died that the fragmentation heuristic arms on its
        // own (free >= live).
        assert!(m.compact_pending());
        let map = m.compact(&[keep]);
        let keep2 = map.rewrite(keep);
        assert!(!m.compact_pending());
        assert_eq!(m.eval(keep2, |_| true), m.eval(keep2, |_| true));
    }

    #[test]
    fn num_vars_bounds_every_decided_variable() {
        let (mut m, a, _b, c) = setup();
        assert_eq!(m.num_vars(), 3);
        let f = m.and(a, c);
        // Variables past `num_vars` appear in no node: restricting or
        // quantifying them is the identity.
        assert_eq!(m.restrict(f, Var::new(7), true), f);
        assert_eq!(m.exists(f, &[Var::new(7)]), f);
        let c_only = m.exists(f, &[Var::new(0), Var::new(7)]);
        assert_eq!(c_only, c);
        let _ = m.var(Var::new(9));
        assert_eq!(m.num_vars(), 10);
    }

    #[test]
    fn varset_iter_sorted_dedup() {
        let set = VarSet::new(&[Var::new(9), Var::new(2), Var::new(9), Var::new(4)]);
        let got: Vec<u32> = set.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![2, 4, 9]);
        assert!(!set.is_empty());
        let empty = VarSet::new(&[]);
        assert!(empty.is_empty());
        let collected: VarSet = [Var::new(3), Var::new(1)].into_iter().collect();
        assert_eq!(collected, VarSet::new(&[Var::new(1), Var::new(3)]));
    }
}
