//! The sweep engine behind [`crate::MctAnalyzer`]: every analysis runs
//! sliced into cones of influence through one candidate pool.
//!
//! # Architecture
//!
//! Decision Algorithm 6.1 compares one BDD per state bit and per output,
//! and each of those functions depends only on the leaves of its own cone
//! of influence ([`mct_netlist::decompose`]). A machine is therefore the
//! lockstep product of its cones, and the unsliced machine is the one-cone
//! case. Every analysis runs the same phases:
//!
//! 1. **Setup.** The global delay classes, the explicit descending-τ
//!    candidate plan ([`plan`]; each candidate's `|Φ(τ)|` is interval
//!    arithmetic, so σ explosion is detected before any symbolic work),
//!    and per-cone views, extractors, and provenance ([`ConeMeta`]).
//! 2. **Reachability.** One stateful cone: its own layer union is the
//!    global reachable set. Several: cones advance in lockstep from their
//!    initial states, so the global set is `⋃_k ∧_c I_c^k` over per-cone
//!    exactly-`k`-step layers — generally a strict subset of `∏_c R_c`
//!    (two in-phase togglers reach 2 states, not 4). Either way the
//!    projection of the global set onto a cone is the cone's own reachable
//!    set, which is exactly the frontier restriction its decisions need.
//!    Each cone steps through one [`Image`]; a layer product first runs
//!    every cone to ρ closure and imports each distinct layer once.
//! 3. **Sweep.** Work items are (candidate, Φ-window) pairs claimed from a
//!    shared counter ([`plan_items`]); one thread runs the same loop on the
//!    calling thread. For each gated σ every cone answers its projection
//!    `σ|c` from the first source that has it — its seed, a per-cone memo
//!    shared by all workers, or the worker's own lazily built environment
//!    for that cone (the BDD managers are single-threaded by design) — and
//!    [`ConeMeta::in_parent`] / [`Engine::merge_exact`] recombine the
//!    answers. A repeated σ repeats its projection in every cone, so the
//!    cone memos answer it. An environment decides `C_x` sink by sink
//!    ([`DecisionContext::walk`]) through its [`SinkCursor`]: each check is
//!    first asked of the sink's record at its projection of σ, shared by
//!    all workers, and a sink is extracted only for a check no record
//!    holds; the cursor carries each sink's projection, record snapshot and
//!    function from one σ to the next.
//! 4. **Reconcile.** A candidate's windows merge in window order
//!    ([`merge_chunks`]), and [`reconcile`] replays candidates in strict
//!    descending-τ order, reconstructing the exact report of a sequential
//!    sweep; speculative work past the first terminal event is discarded.
//! 5. **Harvest.** Seeded runs return a [`ConeCacheEntry`] for each cone
//!    that did new work: its seed, plus its fresh memo outcomes, plus its
//!    layers.
//!
//! # Bit-identity
//!
//! * **Gating is global.** Planning, σ enumeration, and feasibility use the
//!   parent delay classes, so every slicing walks the same `(candidate, σ)`
//!   sequence.
//! * **`C_x` factors over cones and sinks.** Each basis/induction
//!   comparison belongs to exactly one cone, provided the cone is decided
//!   at the *global* depth `m(σ) = max σ`. The whole machine's first
//!   mismatch is the minimum over cones of the mapped key
//!   `(basis/induction, cycle, state/output, parent index)`. Within a
//!   cone, a comparison's verdict depends only on (sink, the sink's
//!   projection of σ, cycle or depth), so records keyed by (sink,
//!   projection) answer it for every σ that shares the projection.
//! * **The exact check merges by budget and iteration.** The product
//!   machine factors per cone; the global bit budget is checked against
//!   `product_bits(parent_ns, parent_np, max_c m_state, max_c m_input)`,
//!   and a divergence is the minimum over cones of `(bad_iteration, parent
//!   output index)`.
//! * **Reach layers are ρ-shaped.** Each cone's layer sequence is
//!   eventually periodic, so an entry stores `layers[0 .. tail + period)`
//!   and replays any depth.

use crate::analyzer::{
    lp_max_tau, skewed_k_min, validate_skew_holds, MctOptions, MctReport, SigmaStrategy,
    ValidityRegion, VarOrder,
};
use crate::artifact::{ConeCacheEntry, ExactPart};
use crate::breakpoints::BreakpointIter;
use crate::decision::{
    Check, DecisionContext, DecisionOutcome, SinkRecord, SinkVerdicts, SteadyRows,
};
use crate::error::MctError;
use crate::exact::{decide_exact_detail, history_depths, product_bits};
use crate::sigma::{ShiftRange, SigmaIter, SigmaPruneStats, SigmaWalk, TauRange};
use mct_bdd::{Bdd, BddManager, BddStats, Var};
use mct_lp::Rat;
use mct_netlist::{Cone, FsmView, NetId};
use mct_tbf::{
    count_states, transfer_bdd, ConeExtractor, DelayClass, DiscreteMachine, Image, StaticOrder,
    TimedVar, TimedVarTable,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a seeded run produced beyond the report: replay accounting and
/// fresh cache entries for the cones that did new work.
pub struct DecomposeArtifacts {
    /// Number of cones the circuit was sliced into.
    pub cones_total: usize,
    /// Seeded cones that built no BDD environment: every answer they gave
    /// came from the seed.
    pub cones_replayed: usize,
    /// One slot per cone in slicing order: `Some` holds a fresh entry for a
    /// cone that produced new results (merged with its seed's, when it had
    /// one); `None` means the caller's existing entry — if any — is still
    /// current.
    pub entries: Vec<Option<ConeCacheEntry>>,
}

/// Immutable inputs of one sweep, shared by every worker.
struct SweepShared {
    /// Delay classes of the whole machine (one per `(leaf, delay)` pair).
    classes: Vec<DelayClass>,
    /// Per-class delay interval `[k_min, k_max]` in milli-units.
    intervals: Vec<(i64, i64)>,
    /// The steady-state delay `L` in milli-units.
    l_millis: i64,
    opts: MctOptions,
}

impl SweepShared {
    fn early_exit(&self) -> bool {
        self.opts.exhaustive_floor.is_none()
    }
}

/// One candidate period of the plan.
struct PlannedCandidate {
    /// The breakpoint τ (left end of the examined interval), milli-units.
    tau: Rat,
    /// The previous (larger) breakpoint — right end of the interval.
    prev: Option<Rat>,
    /// `|Φ(τ)|` before feasibility filtering, saturating at `u128::MAX`.
    combos: u128,
}

/// The full candidate list of one sweep, in descending τ order.
struct SweepPlan {
    candidates: Vec<PlannedCandidate>,
    /// A `(max_candidates + 1)`-th breakpoint exists: the sweep ends by
    /// budget, and that candidate counts as examined-but-unprocessed.
    overflowed: bool,
}

/// Drains the breakpoint iterator into an explicit plan.
fn plan(bp_delays: &[i64], floor: Rat, shared: &SweepShared) -> SweepPlan {
    let mut candidates = Vec::new();
    let mut prev: Option<Rat> = None;
    let mut overflowed = false;
    for b in BreakpointIter::new(bp_delays, floor) {
        if candidates.len() == shared.opts.max_candidates {
            overflowed = true;
            break;
        }
        let ranges: Vec<ShiftRange> = shared
            .intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, b))
            .collect();
        candidates.push(PlannedCandidate {
            tau: b,
            prev,
            combos: SigmaIter::combination_count(&ranges),
        });
        prev = Some(b);
    }
    SweepPlan {
        candidates,
        overflowed,
    }
}

/// What happened to one planned candidate.
enum CandState {
    /// Never evaluated (beyond the stop index); the reconciler must not
    /// reach it.
    Pending,
    Done(CandidateEval),
    /// Evaluation failed (σ explosion, an extraction error, or an exact
    /// product over budget).
    Failed(MctError),
    /// The wall-clock deadline expired before this candidate ran.
    DeadlineHit,
}

/// The result of evaluating the feasible shift combinations of one
/// candidate (or one window of them).
#[derive(Default)]
struct CandidateEval {
    /// Feasible shift vectors in enumeration order (the reconciler
    /// reconstructs the τ-ordered cache-hit count from these).
    sigmas: Vec<Vec<i64>>,
    /// Outcome of the first invalid σ in enumeration order, if any.
    first_invalid: Option<DecisionOutcome>,
    /// The sup of the feasible τ range of each failing σ.
    failing_sups: Vec<Rat>,
}

/// The sweep's diagnostics, counted by every worker. Which worker answers
/// what depends on scheduling, so only single-thread counts repeat.
#[derive(Default)]
struct SweepCounters {
    /// Cone decisions answered by a seed or a cone memo instead of a walk
    /// (`mvec_memo_hits`).
    memo_hits: AtomicU64,
    /// Φ subtrees cut by the pruned walk (`sigma_pruned_subtrees`).
    pruned_subtrees: AtomicU64,
    /// Combinations contained in the cut subtrees (`sigma_pruned`).
    pruned_combos: AtomicU64,
    /// Sinks a walk visited without making a fresh comparison: every check
    /// was answered by the sink's record (`sigma_reused`).
    reused: AtomicU64,
}

impl SweepCounters {
    /// Writes the diagnostics into `kernel`.
    fn diagnostics(&self, kernel: &mut BddStats) {
        kernel.mvec_memo_hits = self.memo_hits.load(Ordering::Relaxed);
        kernel.sigma_pruned_subtrees = self.pruned_subtrees.load(Ordering::Relaxed);
        kernel.sigma_pruned = self.pruned_combos.load(Ordering::Relaxed);
        kernel.sigma_reused = self.reused.load(Ordering::Relaxed);
    }
}

/// A shift combination that survived feasibility gating: the closed-form
/// range sup and (when LP path coupling is on) the LP sup.
struct SigmaGate {
    hi: Option<Rat>,
    lp_sup: Option<f64>,
}

/// Applies the feasibility gates to one σ of one candidate: its
/// independent-interval closed-form τ range, which the Φ walk carries to
/// the leaf, must be non-empty, and then (optionally) the path-coupled LP
/// must be feasible. Returns `None` when the combination is infeasible.
fn gate_sigma(
    shared: &SweepShared,
    cand: &PlannedCandidate,
    sigma: &[i64],
    (lo, hi): TauRange,
) -> Option<SigmaGate> {
    if hi.is_some_and(|h| lo >= h) {
        return None;
    }
    let lp_sup = if shared.opts.path_coupled_lp {
        // Path coupling proving infeasibility gates the σ out entirely.
        Some(lp_max_tau(
            &shared.classes,
            sigma,
            shared.opts.delay_variation,
            shared.l_millis,
            cand.tau,
            cand.prev,
        )?)
    } else {
        None
    };
    Some(SigmaGate { hi, lp_sup })
}

/// The sup of the feasible τ range of a failing σ: the closed form,
/// tightened by the LP sup when available.
fn failing_sup(shared: &SweepShared, cand: &PlannedCandidate, gate: &SigmaGate) -> Rat {
    let closed_form_sup = gate
        .hi
        .or(cand.prev)
        .unwrap_or(Rat::new(shared.l_millis, 1));
    match gate.lp_sup {
        Some(v) => Rat::new((v * 1000.0).round() as i64, 1000).min(closed_form_sup),
        None => closed_form_sup,
    }
}

/// The full-Φ window: every ordinal of the candidate's enumeration.
const FULL_WINDOW: (u128, u128) = (0, u128::MAX);

/// Callback of [`for_each_gated`]: one surviving combination and its gate.
type GatedVisitor<'a> = &'a mut dyn FnMut(&[i64], &SigmaGate) -> Result<(), MctError>;

/// Enumerates the *gated* (feasible) shift combinations of one candidate
/// window in flat-odometer order, through the strategy selected by
/// [`MctOptions::sigma`]: [`SigmaStrategy::Flat`] walks every combination
/// and gates each afterwards; [`SigmaStrategy::Pruned`] walks the prefix
/// tree of [`SigmaWalk`], cutting subtrees whose partial-assignment τ bound
/// (or, with LP path coupling, whose assigned-suffix LP relaxation) is
/// already empty. Both visit exactly the surviving σ in exactly the flat
/// order, so everything downstream is byte-identical; pruning changes only
/// work, witnessed by `stats`.
fn for_each_gated(
    shared: &SweepShared,
    cand: &PlannedCandidate,
    window: (u128, u128),
    stats: &mut SigmaPruneStats,
    visit: GatedVisitor<'_>,
) -> Result<(), MctError> {
    let ranges: Vec<ShiftRange> = shared
        .intervals
        .iter()
        .map(|&(lo, hi)| ShiftRange::at(lo, hi, cand.tau))
        .collect();
    let prune = shared.opts.sigma == SigmaStrategy::Pruned;
    let walk = SigmaWalk::new(&ranges, &shared.intervals, cand.tau, cand.prev, prune)
        .window(window.0, window.1);
    let lp = shared.opts.path_coupled_lp;
    let mut subtree_infeasible = |partial: &[i64], j: usize| {
        lp && lp_max_tau(
            &shared.classes[j..],
            partial,
            shared.opts.delay_variation,
            shared.l_millis,
            cand.tau,
            cand.prev,
        )
        .is_none()
    };
    let mut gated = |sigma: &[i64], bound: TauRange| match gate_sigma(shared, cand, sigma, bound) {
        None => Ok(true),
        Some(gate) => visit(sigma, &gate).map(|()| true),
    };
    walk.run(stats, &mut subtree_infeasible, &mut gated)?;
    Ok(())
}

/// One unit of pool work: an ordinal window of one candidate's Φ tree.
/// Small candidates are one full-window item; large ones split into
/// contiguous windows so several workers advance one candidate together.
struct WorkItem {
    /// Candidate index in the plan.
    cand: usize,
    /// Ordinal window `[start, end)` of the candidate's enumeration.
    window: (u128, u128),
}

/// Don't split a candidate below this many combinations — windows smaller
/// than this are dominated by per-chunk overhead (cache warm-up, dispatch).
const SPLIT_MIN: u128 = 256;

/// Builds the dispatch list: items ordered by (candidate, window start), so
/// chunk results concatenate back into flat enumeration order.
fn plan_items(shared: &SweepShared, sweep: &SweepPlan, threads: usize) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for (cand, planned) in sweep.candidates.iter().enumerate() {
        let combos = planned.combos;
        let splittable = threads > 1
            && combos >= SPLIT_MIN
            // An exploding candidate must surface as ONE SigmaExplosion.
            && combos <= shared.opts.max_sigma_combos as u128;
        let chunks = if splittable {
            combos.min(4 * threads as u128)
        } else {
            1
        };
        for k in 0..chunks {
            items.push(WorkItem {
                cand,
                window: if chunks == 1 {
                    FULL_WINDOW
                } else {
                    (combos * k / chunks, combos * (k + 1) / chunks)
                },
            });
        }
    }
    items
}

/// The cross-worker coordination state of one pool run: the item dispatch
/// counter, the (shrink-only, candidate-granular) stop index, and the
/// deadline.
struct PoolControl {
    next: AtomicUsize,
    stop_at: AtomicUsize,
    deadline: Option<Instant>,
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

/// Reassembles one candidate from its chunk outcomes (in window order).
///
/// A terminal chunk (error or deadline) publishes the stop index *at* its
/// own candidate, and workers only skip items strictly past the stop index
/// — so every chunk of a candidate at or before the stop is recorded, and
/// an unrecorded chunk can only belong to a candidate past the effective
/// sweep (merged to `Pending`, which the reconciler never reaches).
fn merge_chunks(chunks: Vec<Option<CandState>>) -> CandState {
    let mut merged = CandidateEval::default();
    let (mut deadline, mut pending) = (false, false);
    for chunk in chunks {
        match chunk {
            Some(CandState::Failed(e)) => return CandState::Failed(e),
            Some(CandState::DeadlineHit) => deadline = true,
            Some(CandState::Done(eval)) => {
                // Windows are disjoint and ordered, so concatenation *is*
                // the flat enumeration order.
                if merged.first_invalid.is_none() {
                    merged.first_invalid = eval.first_invalid;
                }
                merged.sigmas.extend(eval.sigmas);
                merged.failing_sups.extend(eval.failing_sups);
            }
            None | Some(CandState::Pending) => pending = true,
        }
    }
    if deadline {
        CandState::DeadlineHit
    } else if pending {
        CandState::Pending
    } else {
        CandState::Done(merged)
    }
}

/// Replays per-candidate outcomes in descending-τ order, producing the
/// exact report of a sequential sweep. Stops at the first terminal state
/// (deadline, error, or — without an exhaustive floor — the candidate after
/// the first failure).
fn reconcile(
    shared: &SweepShared,
    sweep: &SweepPlan,
    states: Vec<CandState>,
    report: &mut MctReport,
) -> Result<(), MctError> {
    let mut seen: HashSet<Vec<i64>> = HashSet::new();
    let mut prev_tau: Option<Rat> = None;
    let mut smallest_examined: Option<Rat> = None;
    let mut found_failure = false;
    let mut completed = true;
    for (cand, state) in sweep.candidates.iter().zip(states) {
        match state {
            CandState::Pending => {
                completed = false;
                break;
            }
            CandState::DeadlineHit => {
                report.candidates_checked += 1;
                report.timed_out = true;
                completed = false;
                break;
            }
            CandState::Failed(e) => return Err(e),
            CandState::Done(eval) => {
                report.candidates_checked += 1;
                for sigma in eval.sigmas {
                    report.sigma_checked += 1;
                    if !seen.insert(sigma) {
                        report.sigma_cache_hits += 1;
                    }
                }
                let region_valid = eval.failing_sups.is_empty();
                report.regions.push(ValidityRegion {
                    tau_lo: cand.tau.as_f64() / 1000.0,
                    tau_hi: prev_tau.map_or(f64::INFINITY, |p| p.as_f64() / 1000.0),
                    valid: region_valid,
                });
                if !region_valid && !found_failure {
                    found_failure = true;
                    let bound = eval
                        .failing_sups
                        .iter()
                        .copied()
                        .fold(eval.failing_sups[0], Rat::max);
                    report.bound_exact = bound;
                    report.mct_upper_bound = bound.as_f64() / 1000.0;
                    report.first_failing_tau = Some(cand.tau.as_f64() / 1000.0);
                    report.failure = eval.first_invalid;
                    if shared.early_exit() {
                        return Ok(());
                    }
                }
                prev_tau = Some(cand.tau);
                smallest_examined = Some(cand.tau);
            }
        }
    }
    if completed && sweep.overflowed {
        // The sequential loop counts the (max_candidates + 1)-th breakpoint
        // before noticing the budget is spent.
        report.candidates_checked += 1;
    }
    if !found_failure {
        // Every examined period was valid: the certified bound is the
        // smallest period checked. When nothing was certified the sound
        // claim is the steady machine's: every shift is 1 above L.
        report.exhausted = true;
        let bound = smallest_examined.unwrap_or(Rat::new(shared.l_millis, 1));
        report.bound_exact = bound;
        report.mct_upper_bound = bound.as_f64() / 1000.0;
    }
    Ok(())
}

// ------------------------------------------------------------------ cones

/// One cone's static data: its extractor, its provenance in the parent
/// machine, and its local σ layout.
struct ConeMeta<'v> {
    extractor: ConeExtractor<'v>,
    /// Parent state-bit index of each local state bit (equally, the parent
    /// leaf index of each local state leaf).
    dffs: Vec<usize>,
    /// Parent output position of each local output.
    outputs: Vec<usize>,
    /// Parent class position of each local class: the projection of σ onto
    /// the cone is `sub[i] = sigma[class_global[i]]`.
    class_global: Vec<usize>,
    /// `(delay, local class position)` pairs per local leaf — the shift
    /// function of the cone's discretized machines (a handful of delays per
    /// leaf, so a scan beats hashing).
    leaf_classes: Vec<Vec<(i64, usize)>>,
    /// Extraction start of each sink, in `view.sinks()` order.
    starts: Vec<(NetId, i64)>,
    /// Local class positions of the `(leaf, delay)` pairs reaching each
    /// sink: the layout of the sink's projection of σ, which keys its
    /// decision records.
    sink_classes: Vec<Vec<usize>>,
}

impl ConeMeta<'_> {
    /// Writes the cone's projection of σ into `sub`.
    fn project(&self, sigma: &[i64], sub: &mut Vec<i64>) {
        sub.clear();
        sub.extend(self.class_global.iter().map(|&g| sigma[g]));
    }

    /// The shift of the local class of `(leaf, delay)` under the cone
    /// projection `sub`, clamped like [`DiscreteMachine::with_shift_fn`].
    fn shift(&self, sub: &[i64], leaf: usize, delay: i64) -> i64 {
        sub[self.class_of(leaf, delay)].max(1)
    }

    /// Sink `s`'s projection of the cone projection `sub`: the clamped
    /// shifts of its classes, which key its decision records.
    fn sink_key<'s>(&'s self, s: usize, sub: &'s [i64]) -> impl Iterator<Item = i64> + Clone + 's {
        self.sink_classes[s].iter().map(move |&i| sub[i].max(1))
    }

    fn class_of(&self, leaf: usize, delay: i64) -> usize {
        self.leaf_classes[leaf]
            .iter()
            .find(|&&(d, _)| d == delay)
            .expect("every (leaf, delay) pair of the cone is a class")
            .1
    }

    /// A cone-local mismatch in the parent machine's indices, keyed by its
    /// place in the whole-machine decision order `(phase, cycle,
    /// state/output, parent index)`; `None` when the cone is valid. That
    /// decision checks basis cycles (state bits, then outputs) before
    /// induction (state bits, then outputs), and each check belongs to
    /// exactly one cone, so the first mismatch of the whole machine is the
    /// one with the smallest key over cones.
    fn in_parent(&self, o: DecisionOutcome) -> Option<((u8, i64, u8, usize), DecisionOutcome)> {
        Some(match o {
            DecisionOutcome::Valid => return None,
            DecisionOutcome::BasisStateMismatch { cycle, bit } => {
                let bit = self.dffs[bit];
                (
                    (0, cycle, 0, bit),
                    DecisionOutcome::BasisStateMismatch { cycle, bit },
                )
            }
            DecisionOutcome::BasisOutputMismatch { cycle, output } => {
                let output = self.outputs[output];
                (
                    (0, cycle, 1, output),
                    DecisionOutcome::BasisOutputMismatch { cycle, output },
                )
            }
            DecisionOutcome::InductionStateMismatch { bit } => {
                let bit = self.dffs[bit];
                (
                    (1, 0, 0, bit),
                    DecisionOutcome::InductionStateMismatch { bit },
                )
            }
            DecisionOutcome::InductionOutputMismatch { output } => {
                let output = self.outputs[output];
                (
                    (1, 0, 1, output),
                    DecisionOutcome::InductionOutputMismatch { output },
                )
            }
        })
    }
}

/// Fresh per-cone answers, shared by every worker: the cone verdicts,
/// harvested into the cone's next entry, and the per-sink decision records,
/// which live only as long as the run.
struct ConeMemo {
    cx: Mutex<HashMap<(Vec<i64>, i64), DecisionOutcome>>,
    exact: Mutex<HashMap<Vec<i64>, ExactPart>>,
    /// Per sink: its record at every projection decided so far.
    records: Vec<Mutex<HashMap<Vec<i64>, SinkRecord>>>,
}

impl ConeMemo {
    fn new(sinks: usize) -> Self {
        ConeMemo {
            cx: Mutex::default(),
            exact: Mutex::default(),
            records: (0..sinks).map(|_| Mutex::default()).collect(),
        }
    }
}

/// One sink of a cone on one worker, carried from one σ to the next.
#[derive(Default)]
struct CarriedSink {
    /// The sink's projection at the last σ that visited it.
    key: Vec<i64>,
    /// A snapshot of the sink's shared record at `key`.
    record: SinkRecord,
    /// The sink's function at `key`, once extracted. Dropped at every item
    /// boundary, before any collection.
    function: Option<Bdd>,
    /// The last walk that visited the sink.
    visited: u64,
    /// The last walk in which the sink made a fresh comparison.
    compared: u64,
}

/// A cone's sinks on one worker. Consecutive σ mostly share a sink's
/// projection, so the cursor keeps each sink's projection, record snapshot
/// and function between walks, and re-reads the shared record only when a
/// σ moves the sink to another projection. A snapshot can miss verdicts
/// that other workers added since; that costs at most a recomputation,
/// because a record only gains verdicts and each verdict is a property of
/// (sink, projection, check).
#[derive(Default)]
struct SinkCursor {
    sinks: Vec<CarriedSink>,
    /// Walks so far: the stamp of the current one.
    walks: u64,
    /// Sinks the current walk visited without making a fresh comparison.
    reused: u64,
}

/// One walk through a [`SinkCursor`]: σ's projection onto the cone, and the
/// cone's shared records.
struct CursorWalk<'a, 'v> {
    cursor: &'a mut SinkCursor,
    meta: &'a ConeMeta<'v>,
    memo: &'a ConeMemo,
    sub: &'a [i64],
}

impl SinkVerdicts for CursorWalk<'_, '_> {
    type Error = MctError;

    fn known(&mut self, s: usize, check: Check) -> Option<bool> {
        let cursor = &mut *self.cursor;
        let sink = &mut cursor.sinks[s];
        if sink.visited != cursor.walks {
            sink.visited = cursor.walks;
            cursor.reused += 1;
            let key = self.meta.sink_key(s, self.sub);
            if !sink.key.iter().copied().eq(key.clone()) {
                sink.key.clear();
                sink.key.extend(key);
                sink.function = None;
                let records = self.memo.records[s].lock().expect("sink records");
                match records.get(sink.key.as_slice()) {
                    Some(shared) => sink.record.clone_from(shared),
                    None => sink.record.clone_from(&SinkRecord::default()),
                }
            }
        }
        sink.record.known(check)
    }

    fn function(
        &mut self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        s: usize,
    ) -> Result<Bdd, MctError> {
        if let Some(f) = self.cursor.sinks[s].function {
            return Ok(f);
        }
        #[cfg(test)]
        TEST_SINK_EXTRACTIONS.set(TEST_SINK_EXTRACTIONS.get() + 1);
        let (meta, sub) = (self.meta, self.sub);
        let mut policy = |m: &mut BddManager, t: &mut TimedVarTable, leaf: usize, k: i64| {
            let v = t.var(TimedVar::Shifted {
                leaf,
                shift: meta.shift(sub, leaf, k),
            });
            m.var(v)
        };
        let f = meta
            .extractor
            .extract_at(manager, table, &[meta.starts[s]], &mut policy)?[0];
        self.cursor.sinks[s].function = Some(f);
        Ok(f)
    }

    fn record(&mut self, s: usize, check: Check, equal: bool) {
        let cursor = &mut *self.cursor;
        let sink = &mut cursor.sinks[s];
        if sink.compared != cursor.walks {
            // Every check asks `known` first, so the sink was counted.
            sink.compared = cursor.walks;
            cursor.reused -= 1;
        }
        sink.record.note(check, equal);
        let mut records = self.memo.records[s].lock().expect("sink records");
        match records.get_mut(sink.key.as_slice()) {
            Some(shared) => shared.note(check, equal),
            None => {
                records.insert(sink.key.clone(), sink.record.clone());
            }
        }
    }
}

/// The layers of a [`FreshCone`], kept only when a layer product or a
/// harvested entry needs them.
#[derive(Default)]
struct Layers {
    /// `seq[k]` = the exactly-`k`-step state set.
    seq: Vec<Bdd>,
    /// Index of each stored layer: ρ detection by hashed lookup.
    index: HashMap<Bdd, usize>,
    /// `(tail, period)` once the sequence has closed its cycle.
    rho: Option<(usize, usize)>,
}

/// One cone's reachability run: a layer-by-layer image iteration over its
/// functional machine, in what becomes (or feeds) the cone's environment
/// manager.
struct FreshCone {
    manager: BddManager,
    table: TimedVarTable,
    image: Image,
    /// The newest layer.
    last: Bdd,
    /// Union of every layer so far; the cone's reachable set once an image
    /// step adds nothing.
    reach: Bdd,
    saturated: bool,
    layers: Option<Layers>,
}

impl FreshCone {
    fn new(
        extractor: &ConeExtractor<'_>,
        opts: &MctOptions,
        order_hint: i64,
        keep_layers: bool,
    ) -> Result<Self, MctError> {
        let view = extractor.view();
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        if opts.ordering != VarOrder::Alloc {
            StaticOrder::compute(view, order_hint).apply(&mut table);
        }
        let image = Image::functional(extractor, &mut manager, &mut table)?;
        let mut init = manager.one();
        for (leaf, bit) in view.circuit().initial_state().into_iter().enumerate() {
            let lit = manager.literal(table.var(TimedVar::Shifted { leaf, shift: 0 }), bit);
            init = manager.and(init, lit);
        }
        let layers = keep_layers.then(|| Layers {
            seq: vec![init],
            index: HashMap::from([(init, 0)]),
            rho: None,
        });
        Ok(FreshCone {
            manager,
            table,
            image,
            last: init,
            reach: init,
            saturated: false,
            layers,
        })
    }

    /// One image step.
    fn step(&mut self) {
        let img = self.image.step(&mut self.manager, self.last);
        match self.layers.as_mut() {
            Some(layers) => match layers.index.entry(img) {
                Entry::Occupied(j) => {
                    let j = *j.get();
                    layers.rho = Some((j, layers.seq.len() - j));
                }
                Entry::Vacant(slot) => {
                    slot.insert(layers.seq.len());
                    layers.seq.push(img);
                }
            },
            None => {
                self.manager
                    .maybe_collect_garbage(&[self.image.relation(), img, self.reach]);
            }
        }
        let union = self.manager.or(self.reach, img);
        // Once a layer adds nothing, no later layer can: the image of the
        // union is the union shifted by one layer.
        self.saturated = union == self.reach;
        self.reach = union;
        self.last = img;
    }

    /// Steps while `more` holds, polling the deadline between image steps.
    /// Returns false when the deadline expired first.
    fn run_while(&mut self, deadline: Option<Instant>, more: impl Fn(&Self) -> bool) -> bool {
        while more(self) {
            if expired(deadline) {
                return false;
            }
            self.step();
        }
        true
    }

    /// Runs until the union is the cone's reachable set.
    fn saturate(&mut self, deadline: Option<Instant>) -> bool {
        self.run_while(deadline, |fc| !fc.saturated)
    }

    /// Runs to ρ closure, so any depth replays from the stored prefix.
    fn complete(&mut self, deadline: Option<Instant>) -> bool {
        self.run_while(deadline, |fc| {
            fc.layers
                .as_ref()
                .expect("harvests keep layers")
                .rho
                .is_none()
        })
    }

    /// The cone's entry skeleton: its layers and reachable set, transferred
    /// into a private manager (so sweep-time collections cannot reclaim
    /// them). Requires [`complete`](Self::complete).
    fn entry(&self) -> Result<ConeCacheEntry, MctError> {
        let layers = self.layers.as_ref().expect("harvests keep layers");
        let (tail, period) = layers.rho.expect("complete ran");
        let mut entry = ConeCacheEntry::empty();
        for &l in &layers.seq {
            let t = transfer_bdd(
                &self.manager,
                &self.table,
                l,
                &mut entry.manager,
                &mut entry.table,
            )?;
            entry.layers.push(t);
        }
        entry.tail = tail;
        entry.period = period;
        entry.reach = Some(transfer_bdd(
            &self.manager,
            &self.table,
            self.reach,
            &mut entry.manager,
            &mut entry.table,
        )?);
        Ok(entry)
    }
}

/// Where a cone's frontier restriction comes from once reachability is
/// done.
enum ConeReach<'s> {
    /// No restriction: a stateless cone, or reachability is off.
    Free,
    /// Replayed from the cone's seed.
    Seed(&'s ConeCacheEntry),
    /// Computed by this run.
    Fresh(Box<FreshCone>),
    /// Computed by this run and already turned into the single worker's
    /// environment.
    Promoted,
}

impl ConeReach<'_> {
    /// The reachable set, with the manager and table that own it.
    fn set(&self) -> Option<(&BddManager, &TimedVarTable, Bdd)> {
        match self {
            ConeReach::Free => None,
            ConeReach::Seed(s) => Some((&s.manager, &s.table, s.reach?)),
            ConeReach::Fresh(fc) => Some((&fc.manager, &fc.table, fc.reach)),
            ConeReach::Promoted => unreachable!("promoted cones already have an environment"),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Collection threshold forced onto every environment built on this
    /// thread (tests of the candidate-boundary collection).
    pub(crate) static TEST_GC_THRESHOLD: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
    /// Sinks extracted by sink-by-sink decisions on this thread.
    pub(crate) static TEST_SINK_EXTRACTIONS: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    /// Every `(cone, sink, projection, depth)` decided on this thread.
    pub(crate) static TEST_SINK_KEYS: std::cell::RefCell<HashSet<SinkKey>> =
        std::cell::RefCell::default();
}

/// `(cone, sink, projection, depth)`: what one sink's checks depend on.
#[cfg(test)]
type SinkKey = (usize, usize, Vec<i64>, i64);

/// A cone's symbolic environment on one worker: a private manager and
/// table, the steady machine and frontier restriction, and the steady rows
/// and sink cursor of its sink-by-sink decisions.
struct ConeEnv<'v> {
    manager: BddManager,
    table: TimedVarTable,
    ctx: DecisionContext<'v>,
    rows: SteadyRows,
    cursor: SinkCursor,
}

impl<'v> ConeEnv<'v> {
    /// Builds an environment, importing the cone's reachable set — a linear
    /// transfer walk, not a repeat of the image fixpoint.
    fn build(
        meta: &ConeMeta<'v>,
        reach: &ConeReach<'_>,
        opts: &MctOptions,
        order_hint: i64,
    ) -> Result<Self, MctError> {
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        if opts.ordering != VarOrder::Alloc {
            StaticOrder::compute(meta.extractor.view(), order_hint).apply(&mut table);
        }
        let mut ctx = DecisionContext::new(&meta.extractor, &mut manager, &mut table)?;
        if let Some((m, t, set)) = reach.set() {
            ctx = ctx.with_restriction(transfer_bdd(m, t, set, &mut manager, &mut table)?);
        }
        Ok(Self::finish(meta, manager, table, ctx))
    }

    /// Turns a reachability run's manager into an environment in place.
    fn promote(meta: &ConeMeta<'v>, fc: FreshCone) -> Result<Self, MctError> {
        let FreshCone {
            mut manager,
            mut table,
            reach,
            ..
        } = fc;
        let ctx = DecisionContext::new(&meta.extractor, &mut manager, &mut table)?
            .with_restriction(reach);
        Ok(Self::finish(meta, manager, table, ctx))
    }

    fn finish(
        meta: &ConeMeta<'v>,
        manager: BddManager,
        table: TimedVarTable,
        ctx: DecisionContext<'v>,
    ) -> Self {
        #[cfg(test)]
        let manager = {
            let mut manager = manager;
            if let Some(t) = TEST_GC_THRESHOLD.get() {
                manager.set_gc_threshold(t);
            }
            manager
        };
        ConeEnv {
            manager,
            table,
            ctx,
            rows: SteadyRows::default(),
            cursor: SinkCursor {
                sinks: (0..meta.starts.len())
                    .map(|_| CarriedSink::default())
                    .collect(),
                ..SinkCursor::default()
            },
        }
    }

    /// Decides `C_x` at cone projection `sub` and global depth `m`, sink by
    /// sink through the cursor. Returns the outcome and the number of
    /// visited sinks that made no fresh comparison.
    fn walk(
        &mut self,
        meta: &ConeMeta<'v>,
        memo: &ConeMemo,
        sub: &[i64],
        m: i64,
    ) -> Result<(DecisionOutcome, u64), MctError> {
        let cursor = &mut self.cursor;
        cursor.walks += 1;
        cursor.reused = 0;
        let mut sinks = CursorWalk {
            cursor,
            meta,
            memo,
            sub,
        };
        let o = self.ctx.walk(
            &mut self.manager,
            &mut self.table,
            &mut self.rows,
            &mut sinks,
            m,
        )?;
        Ok((o, self.cursor.reused))
    }

    /// Item-boundary maintenance: drop the carried sink functions, then
    /// collect and compact. Per-σ machines are gone by now and the records,
    /// snapshots and memoized verdicts hold no handles, so the context plus
    /// the steady rows enumerate every live handle of this manager.
    fn settle(&mut self) {
        for sink in &mut self.cursor.sinks {
            sink.function = None;
        }
        let mut roots = self.ctx.gc_roots();
        roots.extend(self.rows.handles_mut().map(|h| *h));
        self.manager.maybe_collect_garbage(&roots);
        if self.manager.compact_pending() {
            let map = self.manager.compact(&roots);
            self.ctx.rebind(&map);
            for h in self.rows.handles_mut() {
                *h = map.rewrite(*h);
            }
        }
    }
}

/// One worker's private state: its lazily built cone environments and the
/// key its σ decisions project into.
struct Worker<'v> {
    envs: Vec<Option<ConeEnv<'v>>>,
    /// The current cone projection `σ|c` and global depth `m`: the cone
    /// memo's key, borrowed for lookups and cloned only when a miss inserts
    /// it.
    key: (Vec<i64>, i64),
}

/// Everything one worker brings back.
struct WorkerOut {
    states: Vec<(usize, CandState)>,
    kernel: BddStats,
    /// Which cones this worker built an environment for.
    built: Vec<bool>,
}

/// The shared, read-only state of the candidate pool.
struct Engine<'a, 'v> {
    shared: &'a SweepShared,
    sweep: &'a SweepPlan,
    cones: &'a [ConeMeta<'v>],
    seeds: &'a [Option<&'a ConeCacheEntry>],
    reach: &'a [ConeReach<'a>],
    memos: &'a [ConeMemo],
    counters: SweepCounters,
    order_hint: i64,
    parent_ns: usize,
    parent_np: usize,
}

impl<'v> Engine<'_, 'v> {
    /// Runs the item loop on `threads` workers (on the calling thread when
    /// there is one), merging chunk results back per candidate.
    fn run_pool(
        &self,
        threads: usize,
        envs: Vec<Option<ConeEnv<'v>>>,
        deadline: Option<Instant>,
    ) -> (Vec<CandState>, BddStats, Vec<bool>) {
        let items = plan_items(self.shared, self.sweep, threads);
        let control = PoolControl {
            next: AtomicUsize::new(0),
            stop_at: AtomicUsize::new(usize::MAX),
            deadline,
        };
        let outs: Vec<WorkerOut> = if threads <= 1 {
            vec![self.work(&items, &control, envs)]
        } else {
            #[cfg(test)]
            let gc_threshold = TEST_GC_THRESHOLD.get();
            let (items, control) = (&items, &control);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let envs = self.cones.iter().map(|_| None).collect();
                        scope.spawn(move || {
                            #[cfg(test)]
                            TEST_GC_THRESHOLD.set(gc_threshold);
                            self.work(items, control, envs)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<CandState>> = items.iter().map(|_| None).collect();
        let mut kernel = BddStats::default();
        let mut built = vec![false; self.cones.len()];
        for out in outs {
            kernel.absorb(&out.kernel);
            for (b, w) in built.iter_mut().zip(out.built) {
                *b |= w;
            }
            for (index, state) in out.states {
                slots[index] = Some(state);
            }
        }
        // Regroup the chunk results per candidate, in window order.
        let mut states = Vec::with_capacity(self.sweep.candidates.len());
        let mut slots = slots.into_iter().zip(&items).peekable();
        for cand in 0..self.sweep.candidates.len() {
            let mut chunks = Vec::new();
            while slots.peek().is_some_and(|(_, item)| item.cand == cand) {
                chunks.push(slots.next().expect("peeked").0);
            }
            states.push(merge_chunks(chunks));
        }
        (states, kernel, built)
    }

    /// One worker: claim and evaluate items until the list (or the stop
    /// index) is exhausted. The stop index only shrinks and items are
    /// candidate-ordered, so a claim past it ends the worker; items *at*
    /// the stop candidate still run, because its remaining chunks must
    /// complete for the merge.
    fn work(
        &self,
        items: &[WorkItem],
        control: &PoolControl,
        envs: Vec<Option<ConeEnv<'v>>>,
    ) -> WorkerOut {
        let mut w = Worker {
            envs,
            key: Default::default(),
        };
        let mut states = Vec::new();
        loop {
            let index = control.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            if item.cand > control.stop_at.load(Ordering::Acquire) {
                break;
            }
            let cand = &self.sweep.candidates[item.cand];
            let state = if expired(control.deadline) {
                CandState::DeadlineHit
            } else if cand.combos > self.shared.opts.max_sigma_combos as u128 {
                CandState::Failed(MctError::SigmaExplosion {
                    tau: cand.tau.as_f64() / 1000.0,
                    cap: self.shared.opts.max_sigma_combos,
                })
            } else {
                let outcome = self.eval_candidate(&mut w, cand, item.window);
                for env in w.envs.iter_mut().flatten() {
                    env.settle();
                }
                match outcome {
                    Ok(eval) => CandState::Done(eval),
                    Err(e) => CandState::Failed(e),
                }
            };
            let terminal = match &state {
                CandState::Done(eval) => !eval.failing_sups.is_empty() && self.shared.early_exit(),
                _ => true,
            };
            if terminal {
                control.stop_at.fetch_min(item.cand, Ordering::AcqRel);
            }
            states.push((index, state));
        }
        let mut kernel = BddStats::default();
        for env in w.envs.iter().flatten() {
            kernel.absorb(&env.manager.stats());
        }
        WorkerOut {
            states,
            kernel,
            built: w.envs.iter().map(Option::is_some).collect(),
        }
    }

    /// Evaluates one candidate window: enumerate the gated σ and decide
    /// each.
    fn eval_candidate(
        &self,
        w: &mut Worker<'v>,
        cand: &PlannedCandidate,
        window: (u128, u128),
    ) -> Result<CandidateEval, MctError> {
        let mut eval = CandidateEval::default();
        let mut stats = SigmaPruneStats::default();
        let mut visit = |sigma: &[i64], gate: &SigmaGate| -> Result<(), MctError> {
            let outcome = self.decide(w, sigma)?;
            if !outcome.is_valid() {
                eval.first_invalid.get_or_insert(outcome);
                eval.failing_sups.push(failing_sup(self.shared, cand, gate));
            }
            eval.sigmas.push(sigma.to_vec());
            Ok(())
        };
        for_each_gated(self.shared, cand, window, &mut stats, &mut visit)?;
        if stats.subtrees > 0 {
            self.counters
                .pruned_subtrees
                .fetch_add(stats.subtrees, Ordering::Relaxed);
            self.counters
                .pruned_combos
                .fetch_add(stats.combos, Ordering::Relaxed);
        }
        Ok(eval)
    }

    /// Decides one gated σ: every cone answers its projection, and the
    /// answers recombine into the whole machine's outcome.
    fn decide(&self, w: &mut Worker<'v>, sigma: &[i64]) -> Result<DecisionOutcome, MctError> {
        if self.shared.opts.exact_check {
            let parts = (0..self.cones.len())
                .map(|c| {
                    self.cones[c].project(sigma, &mut w.key.0);
                    self.exact_part(c, w)
                })
                .collect::<Result<Vec<_>, _>>()?;
            return self.merge_exact(&parts);
        }
        w.key.1 = sigma.iter().copied().max().unwrap_or(1).max(1);
        let mut first: Option<((u8, i64, u8, usize), DecisionOutcome)> = None;
        for (c, meta) in self.cones.iter().enumerate() {
            meta.project(sigma, &mut w.key.0);
            if let Some(mapped) = meta.in_parent(self.cx_outcome(c, w)?) {
                if first.as_ref().is_none_or(|(k, _)| mapped.0 < *k) {
                    first = Some(mapped);
                }
            }
        }
        Ok(first.map_or(DecisionOutcome::Valid, |(_, o)| o))
    }

    /// Cone `c`'s environment on this worker, built on first use.
    fn env<'e>(
        &self,
        c: usize,
        envs: &'e mut [Option<ConeEnv<'v>>],
    ) -> Result<&'e mut ConeEnv<'v>, MctError> {
        if envs[c].is_none() {
            envs[c] = Some(ConeEnv::build(
                &self.cones[c],
                &self.reach[c],
                &self.shared.opts,
                self.order_hint,
            )?);
        }
        Ok(envs[c].as_mut().expect("just built"))
    }

    /// Cone `c`'s `C_x` verdict at the projection and global induction depth
    /// in `w.key`, decided sink by sink when neither its seed nor its memo
    /// holds it.
    fn cx_outcome(&self, c: usize, w: &mut Worker<'v>) -> Result<DecisionOutcome, MctError> {
        let known = self.seeds[c]
            .and_then(|s| s.outcomes_cx.get(&w.key).copied())
            .or_else(|| {
                self.memos[c]
                    .cx
                    .lock()
                    .expect("cone memo")
                    .get(&w.key)
                    .copied()
            });
        if let Some(o) = known {
            self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(o);
        }
        let (sub, m) = (&w.key.0, w.key.1);
        #[cfg(test)]
        TEST_SINK_KEYS.with_borrow_mut(|keys| {
            for s in 0..self.cones[c].starts.len() {
                keys.insert((c, s, self.cones[c].sink_key(s, sub).collect(), m));
            }
        });
        let env = self.env(c, &mut w.envs)?;
        let (o, reused) = env.walk(&self.cones[c], &self.memos[c], sub, m)?;
        self.counters.reused.fetch_add(reused, Ordering::Relaxed);
        self.memos[c]
            .cx
            .lock()
            .expect("cone memo")
            .insert(w.key.clone(), o);
        Ok(o)
    }

    /// Cone `c`'s exact-check part at the projection in `w.key`: the local
    /// history depths always, plus the local product-machine verdict when
    /// the local product fits the bit budget.
    fn exact_part(&self, c: usize, w: &mut Worker<'v>) -> Result<ExactPart, MctError> {
        let sub = &w.key.0;
        let known = self.seeds[c]
            .and_then(|s| s.outcomes_exact.get(sub).copied())
            .or_else(|| {
                self.memos[c]
                    .exact
                    .lock()
                    .expect("cone memo")
                    .get(sub)
                    .copied()
            });
        if let Some(p) = known {
            self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p);
        }
        let meta = &self.cones[c];
        let view = meta.extractor.view();
        let budget = self.shared.opts.max_product_bits;
        let env = self.env(c, &mut w.envs)?;
        // The product check does not factor per sink: build the machine.
        let machine = DiscreteMachine::with_shift_fn(
            &meta.extractor,
            &mut env.manager,
            &mut env.table,
            |leaf, k| meta.shift(sub, leaf, k),
        )?;
        let (m_state, m_input) = history_depths(
            view.num_state_bits(),
            &mut env.manager,
            &env.table,
            &machine,
        )?;
        let bits = product_bits(
            view.num_state_bits(),
            view.num_input_bits(),
            m_state,
            m_input,
        );
        // A local product over budget means the global one is too: the
        // merge reports ProductTooLarge without running any fixpoint.
        let fix = if bits > budget {
            None
        } else {
            Some(decide_exact_detail(
                view,
                &mut env.manager,
                &mut env.table,
                &machine,
                env.ctx.steady(),
                budget,
            )?)
        };
        let part = ExactPart {
            m_state,
            m_input,
            fix,
        };
        self.memos[c]
            .exact
            .lock()
            .expect("cone memo")
            .insert(sub.clone(), part);
        Ok(part)
    }

    /// Recombines per-cone exact parts: the global product's bit budget is
    /// checked against the maxed history depths, and a divergence is the
    /// minimum over cones of `(bad_iteration, parent output index)`.
    fn merge_exact(&self, parts: &[ExactPart]) -> Result<DecisionOutcome, MctError> {
        let m_state = parts.iter().map(|p| p.m_state).fold(1, i64::max);
        let m_input = parts.iter().map(|p| p.m_input).fold(1, i64::max);
        let bits = product_bits(self.parent_ns, self.parent_np, m_state, m_input);
        let cap = self.shared.opts.max_product_bits;
        if bits > cap {
            return Err(MctError::ProductTooLarge { bits, cap });
        }
        let mut best: Option<(u64, usize)> = None;
        for (meta, part) in self.cones.iter().zip(parts) {
            let run = part
                .fix
                .expect("within the global budget, every local product fits");
            if let DecisionOutcome::InductionOutputMismatch { output } = run.outcome {
                let key = (
                    run.bad_iteration.expect("diverging run has an iteration"),
                    meta.outputs[output],
                );
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        Ok(match best {
            Some((_, output)) => DecisionOutcome::InductionOutputMismatch { output },
            None => DecisionOutcome::Valid,
        })
    }
}

/// Computes every stateful cone's reachable set and the global reachable
/// state count. Returns `None` when the deadline expired mid-fixpoint.
fn reachability<'s>(
    metas: &[ConeMeta<'_>],
    seeds: &[Option<&'s ConeCacheEntry>],
    opts: &MctOptions,
    order_hint: i64,
    harvest: bool,
    deadline: Option<Instant>,
    kernel: &mut BddStats,
) -> Result<Option<(Vec<ConeReach<'s>>, f64)>, MctError> {
    // Every flip-flop lives in exactly one cone.
    let parent_ns: usize = metas.iter().map(|m| m.dffs.len()).sum();
    let stateful: Vec<usize> = (0..metas.len())
        .filter(|&c| metas[c].extractor.view().num_state_bits() > 0)
        .collect();
    // Layers are kept only when a layer product or a harvested entry
    // needs them.
    let keep_layers = harvest || stateful.len() > 1;
    let mut reach: Vec<ConeReach<'s>> = Vec::with_capacity(metas.len());
    for (c, meta) in metas.iter().enumerate() {
        reach.push(match seeds[c] {
            _ if !stateful.contains(&c) => ConeReach::Free,
            Some(s) if s.reach.is_some() && s.has_layers() => ConeReach::Seed(s),
            _ => ConeReach::Fresh(Box::new(FreshCone::new(
                &meta.extractor,
                opts,
                order_hint,
                keep_layers,
            )?)),
        });
    }
    let states = if let [c] = stateful[..] {
        // One stateful cone owns every flip-flop: its own reachable set is
        // the global one, and no layer product is needed.
        match &mut reach[c] {
            ConeReach::Seed(s) => count_states(&s.manager, s.reach.expect("checked"), parent_ns),
            ConeReach::Fresh(fc) => {
                if !fc.saturate(deadline) {
                    return Ok(None);
                }
                count_states(&fc.manager, fc.reach, parent_ns)
            }
            _ => unreachable!("stateful cones have a reach source"),
        }
    } else {
        // Cones step in lockstep from their initial states: the global
        // exactly-k-step set is the product of per-cone layers, taken in a
        // counting manager over parent-leaf variables. Every cone first
        // runs to ρ closure, so each distinct layer is imported once.
        for r in &mut reach {
            if let ConeReach::Fresh(fc) = r {
                if !fc.complete(deadline) {
                    return Ok(None);
                }
            }
        }
        let mut shapes: Vec<_> = stateful
            .iter()
            .map(|&c| match &reach[c] {
                ConeReach::Seed(s) => (c, (s.tail, s.period), &s.layers[..], &s.manager, &s.table),
                ConeReach::Fresh(fc) => {
                    let layers = fc.layers.as_ref().expect("layer products keep layers");
                    let rho = layers.rho.expect("complete ran");
                    (c, rho, &layers.seq[..], &fc.manager, &fc.table)
                }
                _ => unreachable!("stateful cones have a reach source"),
            })
            .collect();
        // Variables go cone by cone in order of ρ tail: cones whose layers
        // cycle from step 0 on top, long-tailed ones (a counter with an
        // enable input grows one state per layer) at the bottom, below the
        // few distinct combinations the cycling cones contribute.
        shapes.sort_by_key(|&(_, (tail, _), ..)| tail);
        let mut counting = BddManager::new();
        let mut table = TimedVarTable::new();
        table.preregister(shapes.iter().flat_map(|&(c, ..)| {
            metas[c]
                .dffs
                .iter()
                .map(|&leaf| TimedVar::Arbitrary { leaf, delay: 1 })
        }));
        // Import each layer in local coordinates, then rebase it onto the
        // cone's parent-leaf variables.
        let mut imported: Vec<Vec<Bdd>> = Vec::with_capacity(shapes.len());
        for &(c, _, layers, src_mgr, src_tbl) in &shapes {
            let map: Vec<(Var, Var)> = metas[c]
                .dffs
                .iter()
                .enumerate()
                .map(|(l, &leaf)| {
                    (
                        table.var(TimedVar::Shifted { leaf: l, shift: 0 }),
                        table.var(TimedVar::Arbitrary { leaf, delay: 1 }),
                    )
                })
                .collect();
            let mut rebased = Vec::with_capacity(layers.len());
            for &l in layers {
                let local = transfer_bdd(src_mgr, src_tbl, l, &mut counting, &mut table)?;
                rebased.push(counting.rename_vars(local, &map));
            }
            imported.push(rebased);
        }
        let mut roots: Vec<Bdd> = imported.iter().flatten().copied().collect();
        let mut reached = counting.zero();
        for k in 0.. {
            if expired(deadline) {
                return Ok(None);
            }
            let mut a_k = counting.one();
            for (&(_, (tail, period), ..), layers) in shapes.iter().zip(&imported) {
                let j = if k < layers.len() {
                    k
                } else {
                    tail + (k - tail) % period
                };
                a_k = counting.and(a_k, layers[j]);
            }
            let grown = counting.or(reached, a_k);
            if grown == reached {
                // No k-step product adds a state: the global fixpoint has
                // converged, and by totality every cone is locally
                // saturated too (its union is its reachable set).
                break;
            }
            reached = grown;
            roots.push(reached);
            counting.maybe_collect_garbage(&roots);
            roots.pop();
        }
        kernel.absorb(&counting.stats());
        count_states(&counting, reached, parent_ns)
    };
    Ok(Some((reach, states)))
}

/// Runs the analysis of `view` sliced into `cones`, replaying from `seeds`
/// (one optional entry per cone, positional) and, when `harvest` is set,
/// assembling fresh entries for the cones that produced new results.
pub(crate) fn run(
    view: &FsmView<'_>,
    cones: &[Cone],
    opts: &MctOptions,
    seeds: &[Option<&ConeCacheEntry>],
    harvest: bool,
) -> Result<(MctReport, DecomposeArtifacts), MctError> {
    let deadline = opts
        .time_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let total = cones.len();
    let seeds: Vec<Option<&ConeCacheEntry>> = (0..total)
        .map(|c| seeds.get(c).copied().flatten())
        .collect();

    // ---- Setup: the global classes and the candidate plan. -------------
    let extractor = ConeExtractor::new(view).with_node_limit(opts.cone_node_limit);
    let classes = extractor.delay_classes_at(&view.sink_starts())?;
    validate_skew_holds(view, &classes, opts.delay_variation)?;
    let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);
    let mut report = MctReport {
        circuit: view.circuit().name().to_owned(),
        steady_delay: l_millis as f64 / 1000.0,
        mct_upper_bound: 0.0,
        bound_exact: Rat::ZERO,
        first_failing_tau: None,
        failure: None,
        candidates_checked: 0,
        sigma_checked: 0,
        sigma_cache_hits: 0,
        used_reachability: false,
        reachable_states: None,
        exhausted: false,
        timed_out: false,
        regions: Vec::new(),
        skew: None,
        kernel: BddStats::default(),
    };
    let mut artifacts = DecomposeArtifacts {
        cones_total: total,
        cones_replayed: seeds.iter().filter(|s| s.is_some()).count(),
        entries: (0..total).map(|_| None).collect(),
    };
    if l_millis == 0 {
        // No combinational paths at all: any positive period works.
        if opts.skew {
            crate::skew::run_tier(view, opts, &mut report)?;
        }
        return Ok((report, artifacts));
    }
    let intervals: Vec<(i64, i64)> = classes
        .iter()
        .map(|c| (skewed_k_min(c, opts.delay_variation), c.delay))
        .collect();
    let class_ix: HashMap<(usize, i64), usize> = classes
        .iter()
        .enumerate()
        .map(|(i, c)| ((c.leaf, c.delay), i))
        .collect();
    let floor = match opts.exhaustive_floor {
        Some(tau) => Rat::new((tau * 1000.0).round() as i64, 1),
        None => Rat::new(l_millis, opts.floor_divisor.max(1)),
    };
    // The static order's shift hint: the largest shift a sweep can
    // reference appears at the floor period (⌈L/floor⌉, +1 slack).
    let floor_millis = floor.as_f64();
    let order_hint = if floor_millis > 0.0 {
        (l_millis as f64 / floor_millis).ceil() as i64 + 1
    } else {
        64
    }
    .clamp(1, 128);
    let bp_delays: Vec<i64> = intervals.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
    let shared = SweepShared {
        classes,
        intervals,
        l_millis,
        opts: opts.clone(),
    };
    let sweep = plan(&bp_delays, floor, &shared);

    // ---- Per-cone views, extractors, and provenance. --------------------
    let parent_ns = view.num_state_bits();
    let views: Vec<FsmView<'_>> = cones
        .iter()
        .map(|c| FsmView::new(&c.circuit))
        .collect::<Result<_, _>>()?;
    let mut metas = Vec::with_capacity(total);
    for (cone, view_c) in cones.iter().zip(&views) {
        let extractor = ConeExtractor::new(view_c).with_node_limit(opts.cone_node_limit);
        // Slices copy the skew annotations, so per-cone classes carry the
        // same adjusted delays as their global counterparts.
        let starts = view_c.sink_starts();
        let local = extractor.delay_classes_at(&starts)?;
        let mut leaf_classes = vec![Vec::new(); view_c.leaves().len()];
        for (i, k) in local.iter().enumerate() {
            leaf_classes[k.leaf].push((k.delay, i));
        }
        let mut meta = ConeMeta {
            class_global: local
                .iter()
                .map(|k| class_ix[&(cone.parent_leaf(k.leaf, parent_ns), k.delay)])
                .collect(),
            leaf_classes,
            starts,
            sink_classes: Vec::new(),
            extractor,
            dffs: cone.dffs.clone(),
            outputs: cone.outputs.clone(),
        };
        meta.sink_classes = meta
            .starts
            .iter()
            .map(|&start| {
                let classes = meta.extractor.delay_classes_at(&[start])?;
                Ok(classes
                    .iter()
                    .map(|k| meta.class_of(k.leaf, k.delay))
                    .collect())
            })
            .collect::<Result<_, MctError>>()?;
        metas.push(meta);
    }

    // ---- Reachability. ---------------------------------------------------
    let threads = match opts.num_threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let mut reach: Vec<ConeReach<'_>> = (0..total).map(|_| ConeReach::Free).collect();
    let mut reach_done = true;
    if opts.use_reachability && parent_ns > 0 {
        match reachability(
            &metas,
            &seeds,
            opts,
            order_hint,
            harvest,
            deadline,
            &mut report.kernel,
        )? {
            Some((r, states)) => {
                reach = r;
                report.reachable_states = Some(states);
                report.used_reachability = true;
            }
            None => reach_done = false,
        }
    }
    // Harvested layers go to private entry managers before any sweep-time
    // collection can reclaim them.
    let mut pending: Vec<Option<ConeCacheEntry>> = (0..total).map(|_| None).collect();
    if harvest && reach_done {
        for (slot, r) in pending.iter_mut().zip(reach.iter_mut()) {
            if let ConeReach::Fresh(fc) = r {
                if !fc.complete(deadline) {
                    reach_done = false;
                    break;
                }
                *slot = Some(fc.entry()?);
            }
        }
    }

    // ---- Sweep. ------------------------------------------------------------
    let memos: Vec<ConeMemo> = metas
        .iter()
        .map(|m| ConeMemo::new(m.starts.len()))
        .collect();
    let mut envs: Vec<Option<ConeEnv<'_>>> = (0..total).map(|_| None).collect();
    let (states, built) = if reach_done {
        if threads <= 1 {
            // The single worker sweeps in the reachability managers.
            for (c, r) in reach.iter_mut().enumerate() {
                if let ConeReach::Fresh(_) = r {
                    let ConeReach::Fresh(fc) = std::mem::replace(r, ConeReach::Promoted) else {
                        unreachable!("matched above");
                    };
                    envs[c] = Some(ConeEnv::promote(&metas[c], *fc)?);
                }
            }
        }
        let engine = Engine {
            shared: &shared,
            sweep: &sweep,
            cones: &metas,
            seeds: &seeds,
            reach: &reach,
            memos: &memos,
            counters: SweepCounters::default(),
            order_hint,
            parent_ns,
            parent_np: view.num_input_bits(),
        };
        let (states, kernel, built) = engine.run_pool(threads, envs, deadline);
        report.kernel.absorb(&kernel);
        for r in &reach {
            if let ConeReach::Fresh(fc) = r {
                report.kernel.absorb(&fc.manager.stats());
            }
        }
        engine.counters.diagnostics(&mut report.kernel);
        (states, built)
    } else {
        // The deadline expired inside the fixpoint: the same partial report
        // as a deadline at the first candidate, and nothing harvested. The
        // aborted fixpoint's managers go uncounted — how far a wall-clock
        // deadline lets it get is not a property of the circuit, so its
        // kernel counters would only add noise.
        let states = (0..sweep.candidates.len())
            .map(|i| {
                if i == 0 {
                    CandState::DeadlineHit
                } else {
                    CandState::Pending
                }
            })
            .collect();
        report.timed_out = true;
        (states, vec![false; total])
    };
    reconcile(&shared, &sweep, states, &mut report)?;

    // ---- Harvest. ----------------------------------------------------------
    artifacts.cones_replayed = (0..total)
        .filter(|&c| seeds[c].is_some() && !built[c])
        .count();
    if harvest && reach_done {
        for (c, slot) in artifacts.entries.iter_mut().enumerate() {
            let seed = seeds[c];
            if seed.is_some() && !built[c] {
                continue; // fully replayed: the caller's entry is current
            }
            let mut entry = match (pending[c].take(), seed) {
                (Some(e), _) => e,
                // Partial replay: carry the seed's layers forward so the
                // new entry supersedes the old one completely.
                (None, Some(s)) => s.copy_layers()?,
                (None, None) => ConeCacheEntry::empty(),
            };
            if let Some(s) = seed {
                entry
                    .outcomes_cx
                    .extend(s.outcomes_cx.iter().map(|(k, &v)| (k.clone(), v)));
                entry
                    .outcomes_exact
                    .extend(s.outcomes_exact.iter().map(|(k, &v)| (k.clone(), v)));
            }
            let memo = &memos[c];
            entry
                .outcomes_cx
                .extend(std::mem::take(&mut *memo.cx.lock().expect("cone memo")));
            entry
                .outcomes_exact
                .extend(std::mem::take(&mut *memo.exact.lock().expect("cone memo")));
            *slot = Some(entry);
        }
    }
    if opts.skew {
        crate::skew::run_tier(view, opts, &mut report)?;
    }
    Ok((report, artifacts))
}

#[cfg(test)]
mod tests {
    use super::{TEST_GC_THRESHOLD, TEST_SINK_EXTRACTIONS, TEST_SINK_KEYS};
    use crate::analyzer::{MctAnalyzer, MctOptions, MctReport, VarOrder};
    use crate::error::MctError;
    use crate::ConeCacheEntry;
    use mct_netlist::{Circuit, GateKind, Time};

    fn t(v: f64) -> Time {
        Time::from_f64(v)
    }

    fn figure2() -> Circuit {
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], t(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], t(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], t(5.0));
        let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], t(2.0));
        let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        c
    }

    /// Three independent cones: a fast toggler, a slow toggler, and a
    /// stateless input buffer. `invert` swaps the buffer for an inverter —
    /// a delay-preserving one-cone edit (the ECO shape).
    fn tri(invert: bool) -> Circuit {
        let mut c = Circuit::new("tri");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", true, Time::UNIT);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        let a = c.add_input("a");
        let kind = if invert { GateKind::Not } else { GateKind::Buf };
        let ab = c.add_gate("ab", kind, &[a], t(3.0));
        c.set_output(q0);
        c.set_output(q1);
        c.set_output(ab);
        c
    }

    /// Everything except the (scheduling-dependent) kernel diagnostics.
    fn strip(mut r: MctReport) -> String {
        r.kernel = Default::default();
        format!("{r:?}")
    }

    fn run(c: &Circuit, opts: &MctOptions) -> Result<MctReport, MctError> {
        MctAnalyzer::new(c).unwrap().run(opts)
    }

    /// The sliced production path at {1, 2, 4} threads against the unsliced
    /// single-thread reference.
    fn assert_identity(c: &Circuit, opts: &MctOptions) {
        let reference = run(
            c,
            &MctOptions {
                decompose: false,
                num_threads: 1,
                ..opts.clone()
            },
        )
        .map(strip);
        for threads in [1usize, 2, 4] {
            let sliced = run(
                c,
                &MctOptions {
                    num_threads: threads,
                    ..opts.clone()
                },
            )
            .map(strip);
            assert_eq!(reference, sliced, "{} at {threads} threads", c.name());
        }
    }

    #[test]
    fn slicing_and_threads_never_change_the_report() {
        let variants = [
            MctOptions::fixed_delays(),
            MctOptions::paper(),
            MctOptions {
                exhaustive_floor: Some(0.5),
                ..MctOptions::fixed_delays()
            },
            MctOptions {
                exhaustive_floor: Some(0.5),
                ..MctOptions::paper()
            },
            MctOptions {
                exact_check: true,
                ..MctOptions::fixed_delays()
            },
            MctOptions {
                exact_check: true,
                ..MctOptions::paper()
            },
            MctOptions {
                path_coupled_lp: true,
                ..MctOptions::paper()
            },
            MctOptions {
                use_reachability: false,
                ..MctOptions::fixed_delays()
            },
            MctOptions {
                ordering: VarOrder::Alloc,
                ..MctOptions::fixed_delays()
            },
            // Over the exact check's bit budget: the error is identical too.
            MctOptions {
                exact_check: true,
                max_product_bits: 2,
                ..MctOptions::fixed_delays()
            },
            MctOptions {
                max_sigma_combos: 0,
                ..MctOptions::fixed_delays()
            },
        ];
        for opts in &variants {
            assert_identity(&tri(false), opts);
            assert_identity(&figure2(), opts);
        }
        let over = run(
            &tri(false),
            &MctOptions {
                exact_check: true,
                max_product_bits: 2,
                ..MctOptions::fixed_delays()
            },
        );
        assert!(
            matches!(over, Err(MctError::ProductTooLarge { .. })),
            "{over:?}"
        );
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::paper()
        };
        let seq = strip(run(&c, &opts).unwrap());
        for threads in [0, 8] {
            let par = run(
                &c,
                &MctOptions {
                    num_threads: threads,
                    ..opts.clone()
                },
            );
            assert_eq!(seq, strip(par.unwrap()), "{threads} threads");
        }
    }

    #[test]
    fn phase_locked_togglers_reach_two_states() {
        // Both togglers flip every cycle from 0, so the global machine
        // visits exactly {00, 11} — NOT the 4-state product of the per-cone
        // reach sets. The layer-product recombination must see that.
        let mut c = Circuit::new("lock");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        c.set_output(q0);
        c.set_output(q1);
        let sliced = run(&c, &MctOptions::fixed_delays()).unwrap();
        assert_eq!(sliced.reachable_states, Some(2.0));
        assert_identity(&c, &MctOptions::fixed_delays());
    }

    /// With an aggressive collection threshold the arena stays bounded
    /// across the sweep: every candidate's machines are reclaimed at the
    /// item boundary, leaving only the pinned steady machine and the
    /// restriction live.
    #[test]
    fn gc_bounds_arena_between_candidates() {
        let opts = MctOptions {
            // Exhaustive: every candidate runs, so many machines are built
            // and reclaimed.
            exhaustive_floor: Some(0.5),
            ..MctOptions::paper()
        };
        let baseline = run(&figure2(), &opts).unwrap();
        TEST_GC_THRESHOLD.set(Some(1));
        let collected = run(&figure2(), &opts);
        TEST_GC_THRESHOLD.set(None);
        let stats = collected.unwrap().kernel;
        assert!(stats.gc_runs >= 1, "{stats:?}");
        assert!(stats.nodes_freed > 0, "{stats:?}");
        // Never more live nodes than the default cadence leaves (equal
        // under MCT_BDD_GC_STRESS, which collects at every boundary anyway).
        assert!(stats.nodes <= baseline.kernel.nodes, "{stats:?}");
        assert!(stats.nodes < stats.peak_nodes, "{stats:?}");
    }

    /// A one-hot ring of `n` flip-flops, each stage a buffer 0.2 slower
    /// than the last: under the paper's 90–100% variation the stage
    /// intervals overlap, so most candidates straddle several of them at
    /// once and carry many shift combinations.
    fn ring(n: usize) -> Circuit {
        stepped_ring(n, 0.2)
    }

    /// [`ring`] with stages `step` apart.
    fn stepped_ring(n: usize, step: f64) -> Circuit {
        let mut c = Circuit::new("ring");
        let qs: Vec<_> = (0..n)
            .map(|i| c.add_dff(format!("q{i}"), i == 0, Time::ZERO))
            .collect();
        for (i, &q) in qs.iter().enumerate() {
            let d = t(10.0 + step * i as f64);
            let b = c.add_gate(format!("b{i}"), GateKind::Buf, &[q], d);
            c.connect_dff_data(&format!("q{}", (i + 1) % n), b).unwrap();
        }
        c.set_output(qs[0]);
        c
    }

    /// Sink-by-sink decisions extract a sink only for a check its record
    /// cannot answer, so a σ-heavy sweep extracts no more sinks than it
    /// has distinct (sink, projection, depth) keys — and far fewer than
    /// the σ count times the sink count that whole machines would take.
    #[test]
    fn sink_extractions_bounded_by_distinct_sink_keys() {
        let c = ring(6);
        let opts = MctOptions {
            exhaustive_floor: Some(2.0),
            ..MctOptions::paper()
        };
        TEST_SINK_EXTRACTIONS.set(0);
        TEST_SINK_KEYS.with_borrow_mut(|k| k.clear());
        let report = run(&c, &opts).unwrap();
        let extractions = TEST_SINK_EXTRACTIONS.get();
        let keys = TEST_SINK_KEYS.with_borrow(|k| k.len()) as u64;
        let sinks = 7;
        assert!(report.sigma_checked >= 100, "{report:?}");
        assert!(extractions > 0, "{report:?}");
        assert!(
            extractions <= keys,
            "{extractions} extractions, {keys} keys"
        );
        assert!(
            extractions * 10 < report.sigma_checked as u64 * sinks,
            "{extractions} extractions for {} σ",
            report.sigma_checked
        );
        assert!(report.kernel.sigma_reused > 0, "{:?}", report.kernel);
        assert_identity(&c, &opts);
    }

    /// Carried sink functions never outlive an item boundary. With a
    /// collection forced at every boundary, σ-heavy rings report the same
    /// bytes as without and as the unsliced reference, at one thread and at
    /// two, and the single worker reuses exactly as many sinks. The 6-stage
    /// ring's candidates hold at most 64 combinations, so two workers share
    /// it candidate by candidate; the 8-stage ring at 0.1 steps has
    /// 256-combination candidates, which two workers split into Φ windows.
    #[test]
    fn carried_sink_state_never_outlives_a_collection() {
        let opts = MctOptions {
            exhaustive_floor: Some(2.0),
            ..MctOptions::paper()
        };
        for (c, sigmas) in [(ring(6), 819), (stepped_ring(8, 0.1), 3315)] {
            let reference = run(
                &c,
                &MctOptions {
                    decompose: false,
                    ..opts.clone()
                },
            )
            .map(strip)
            .unwrap();
            for threads in [1usize, 2] {
                carried_state_case(&c, threads, sigmas, &opts, &reference);
            }
        }
    }

    fn carried_state_case(
        c: &Circuit,
        threads: usize,
        sigmas: usize,
        opts: &MctOptions,
        reference: &str,
    ) {
        let opts = MctOptions {
            num_threads: threads,
            ..opts.clone()
        };
        let plain = run(c, &opts).unwrap();
        TEST_GC_THRESHOLD.set(Some(0));
        let forced = run(c, &opts);
        TEST_GC_THRESHOLD.set(None);
        let forced = forced.unwrap();
        assert_eq!(forced.sigma_checked, sigmas, "{forced:?}");
        assert!(forced.kernel.gc_runs > 0, "{:?}", forced.kernel);
        if threads == 1 {
            assert_eq!(
                forced.kernel.sigma_reused, plain.kernel.sigma_reused,
                "{:?}",
                forced.kernel
            );
        }
        let forced = strip(forced);
        assert_eq!(forced, strip(plain), "{threads} threads");
        assert_eq!(forced, reference, "{threads} threads");
    }

    /// A three-cone composite: an enabled 3-bit counter, a 3-bit LFSR and
    /// a 3-bit one-hot rotator, with the counter declared first or last.
    /// The counter's layers grow by one state per step (a ρ tail of 7);
    /// the other two cycle from step 0.
    fn counter_composite(counter_last: bool) -> Circuit {
        fn counter(c: &mut Circuit) {
            let en = c.add_input("en");
            let qs: Vec<_> = (0..3)
                .map(|i| c.add_dff(format!("c{i}"), false, Time::ZERO))
                .collect();
            let mut carry = en;
            for (i, &q) in qs.iter().enumerate() {
                let nx = c.add_gate(format!("cnx{i}"), GateKind::Xor, &[q, carry], t(0.4));
                c.connect_dff_data(&format!("c{i}"), nx).unwrap();
                if i < 2 {
                    carry = c.add_gate(format!("ccy{i}"), GateKind::And, &[carry, q], t(0.4));
                }
            }
            c.set_output(qs[2]);
        }
        let mut c = Circuit::new("counter_composite");
        if !counter_last {
            counter(&mut c);
        }
        let ls: Vec<_> = (0..3)
            .map(|i| c.add_dff(format!("l{i}"), i == 0, Time::ZERO))
            .collect();
        let fb = c.add_gate("lfb", GateKind::Xor, &[ls[2], ls[1]], t(1.0));
        c.connect_dff_data("l0", fb).unwrap();
        for i in 1..3 {
            let b = c.add_gate(format!("lsh{i}"), GateKind::Buf, &[ls[i - 1]], t(1.0));
            c.connect_dff_data(&format!("l{i}"), b).unwrap();
        }
        c.set_output(ls[2]);
        let rs: Vec<_> = (0..3)
            .map(|i| c.add_dff(format!("r{i}"), i == 0, Time::ZERO))
            .collect();
        for i in 0..3 {
            let b = c.add_gate(format!("rb{i}"), GateKind::Buf, &[rs[(i + 2) % 3]], t(1.5));
            c.connect_dff_data(&format!("r{i}"), b).unwrap();
        }
        c.set_output(rs[2]);
        if counter_last {
            counter(&mut c);
        }
        c
    }

    #[test]
    fn layer_product_is_independent_of_cone_declaration_order() {
        let opts = MctOptions {
            exhaustive_floor: Some(0.3),
            ..MctOptions::fixed_delays()
        };
        let mut reports = Vec::new();
        for counter_last in [false, true] {
            let c = counter_composite(counter_last);
            let reference = run(
                &c,
                &MctOptions {
                    decompose: false,
                    num_threads: 1,
                    ..opts.clone()
                },
            )
            .map(strip)
            .unwrap();
            for threads in [1, 2] {
                let opts = MctOptions {
                    num_threads: threads,
                    ..opts.clone()
                };
                let (r1, a1) = MctAnalyzer::new(&c)
                    .unwrap()
                    .run_decomposed(&opts, &[])
                    .unwrap();
                assert_eq!(a1.cones_total, 3);
                assert_eq!(
                    strip(r1),
                    reference,
                    "counter_last {counter_last}, {threads} threads"
                );
                let (r2, a2) = MctAnalyzer::new(&c)
                    .unwrap()
                    .run_decomposed(&opts, &seeds_of(&a1.entries))
                    .unwrap();
                assert_eq!(a2.cones_replayed, 3);
                assert_eq!(
                    strip(r2),
                    reference,
                    "replay, counter_last {counter_last}, {threads} threads"
                );
            }
            // The failing bit is a declaration index: the one field the
            // two declaration orders may report differently.
            let mut r = run(&c, &opts).unwrap();
            r.failure = None;
            reports.push(strip(r));
        }
        assert!(reports[0].contains("reachable_states: Some(168.0)"));
        assert_eq!(reports[0], reports[1]);
    }

    fn seeds_of(entries: &[Option<ConeCacheEntry>]) -> Vec<Option<&ConeCacheEntry>> {
        entries.iter().map(Option::as_ref).collect()
    }

    #[test]
    fn full_seeds_replay_every_cone() {
        for opts in [
            MctOptions {
                exhaustive_floor: Some(0.5),
                ..MctOptions::fixed_delays()
            },
            MctOptions {
                exact_check: true,
                exhaustive_floor: Some(0.5),
                ..MctOptions::fixed_delays()
            },
        ] {
            let (r1, a1) = MctAnalyzer::new(&tri(false))
                .unwrap()
                .run_decomposed(&opts, &[])
                .unwrap();
            assert_eq!((a1.cones_total, a1.cones_replayed), (3, 0));
            assert!(a1.entries.iter().all(Option::is_some));
            let (r2, a2) = MctAnalyzer::new(&tri(false))
                .unwrap()
                .run_decomposed(&opts, &seeds_of(&a1.entries))
                .unwrap();
            assert_eq!(a2.cones_replayed, 3);
            // Replayed cones produce no superseding entries.
            assert!(a2.entries.iter().all(Option::is_none));
            assert_eq!(strip(r1), strip(r2));
        }
    }

    #[test]
    fn one_cone_edit_replays_the_rest() {
        let opts = MctOptions {
            exhaustive_floor: Some(0.5),
            ..MctOptions::fixed_delays()
        };
        let (_, a1) = MctAnalyzer::new(&tri(false))
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        // The stateless `ab` cone (index 2, after the two flip-flop cones)
        // is edited, so its stale seed must be withheld.
        let mut seeds = seeds_of(&a1.entries);
        seeds[2] = None;
        let edited = tri(true);
        let (r, a) = MctAnalyzer::new(&edited)
            .unwrap()
            .run_decomposed(&opts, &seeds)
            .unwrap();
        assert_eq!((a.cones_total, a.cones_replayed), (3, 2));
        // Only the re-analyzed cone gets a fresh entry.
        assert!(a.entries[0].is_none() && a.entries[1].is_none());
        assert!(a.entries[2].is_some());
        // The mixed-seed report matches a cold unsliced run of the edit.
        let reference = run(
            &edited,
            &MctOptions {
                decompose: false,
                ..opts
            },
        );
        assert_eq!(strip(reference.unwrap()), strip(r));
    }
}
