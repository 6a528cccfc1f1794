//! The sweep engine behind [`crate::MctAnalyzer`]: every analysis runs
//! sliced into cones of influence through one sequential sweep loop.
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
//! 3. **Sweep.** One loop on the calling thread walks the plan in
//!    descending τ ([`Engine::sweep`]), decides the σ of the candidate's
//!    Φ walk until the candidate is settled, runs the LP of a failing σ
//!    that could raise the candidate's bound under
//!    [`MctOptions::path_coupled_lp`], and writes the report as it goes; it
//!    stops after the first failing candidate unless the floor is
//!    exhaustive. For each σ every cone answers its projection `σ|c`
//!    from the first source
//!    that has it — its seed, its memo, or its lazily built environment
//!    (the reachability manager itself, when this run computed the cone's
//!    reachable set) — and [`ConeMeta::in_parent`] /
//!    [`Engine::merge_exact`] recombine the answers. A repeated σ repeats
//!    its projection in every cone, so the cone memos answer it. An
//!    environment decides `C_x` sink by sink ([`DecisionContext::walk`])
//!    through its [`SinkCursor`]: each check is first asked of the sink's
//!    record at its projection of σ, and a sink is extracted only for a
//!    check no record holds; the cursor carries each sink's projection,
//!    record snapshot and function from one σ to the next.
//! 4. **Harvest.** Seeded runs return a [`ConeCacheEntry`] for each cone
//!    that did new work: its seed, plus its fresh memo outcomes, plus its
//!    layers.
//!
//! # Bit-identity
//!
//! * **Φ is global.** Planning, σ enumeration, and the LPs use the parent
//!   delay classes, so every slicing walks the same `(candidate, σ)`
//!   sequence, with or without LP coupling.
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
    lp_ceiling, lp_max_tau, skewed_k_min, validate_skew_holds, LpTau, MctOptions, MctReport,
    ValidityRegion, VarOrder,
};
use crate::artifact::{ConeCacheEntry, ExactPart};
use crate::breakpoints::BreakpointIter;
use crate::decision::{
    Check, DecisionContext, DecisionOutcome, SinkRecord, SinkVerdicts, SteadyRows,
};
use crate::error::MctError;
use crate::exact::{decide_exact_detail, history_depths, product_bits};
use crate::sigma::{ShiftRange, SigmaIter, SigmaWalk};
use mct_bdd::{Bdd, BddManager, BddStats, FxHashMap, Var};
use mct_lp::Rat;
use mct_netlist::{Cone, FsmView, NetId};
use mct_tbf::{
    count_states, ConeExtractor, DelayClass, DiscreteMachine, Image, StaticOrder, TimedVar,
    TimedVarTable,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
#[cfg(test)]
use std::collections::HashSet;
use std::ops::ControlFlow;
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

/// Immutable inputs of one sweep.
struct SweepShared {
    /// Delay classes of the whole machine (one per `(leaf, delay)` pair).
    classes: Vec<DelayClass>,
    /// Per-class delay interval `[k_min, k_max]` in milli-units.
    intervals: Vec<(i64, i64)>,
    /// The steady-state delay `L` in milli-units.
    l_millis: i64,
    opts: MctOptions,
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
        candidates.push(PlannedCandidate {
            tau: b,
            prev,
            combos: SigmaIter::combination_count(&shared.ranges(b)),
        });
        prev = Some(b);
    }
    SweepPlan {
        candidates,
        overflowed,
    }
}

impl SweepShared {
    /// Each class's shift range at `tau`: the axes of `Φ(tau)`.
    fn ranges(&self, tau: Rat) -> Vec<ShiftRange> {
        self.intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
            .collect()
    }

    /// The bound past which no failing σ of `cand` can raise it: the
    /// interval's upper end, or under LP coupling the rounded LP ceiling
    /// just below it. Once the bound reaches it, every later σ of `Φ(τ)`
    /// leaves it as it is: [`omega_sup`](Self::omega_sup) returns at most
    /// the interval's upper end, and under LP coupling it skips every σ
    /// whose own cap the bound reaches.
    fn cap(&self, cand: &PlannedCandidate) -> Rat {
        let lp = self
            .opts
            .path_coupled_lp
            .then(|| lp_ceiling(self.l_millis, cand.prev));
        self.failing_sup(cand, None, lp)
    }

    /// Whether `cand`'s walk can stop: it holds a failure in Ω, with bound
    /// `sup`, and either an earlier candidate failed (only the region's
    /// validity is still open) or `sup` has reached the
    /// [`cap`](Self::cap).
    fn settled(&self, cand: &PlannedCandidate, sup: Option<Rat>, failed: bool) -> bool {
        sup.is_some_and(|b| failed || b >= self.cap(cand))
    }

    /// The sup a failing σ adds to its candidate's bound: the sup `hi` of
    /// its closed-form τ range, tightened by its LP optimum `lp` when LP
    /// coupling found one. The optimum is rounded to micro-units; with `lp`
    /// at the LP's own ceiling this is the σ's *cap*, which bounds what its
    /// LP can add.
    fn failing_sup(&self, cand: &PlannedCandidate, hi: Option<Rat>, lp: Option<f64>) -> Rat {
        let closed_form_sup = hi.or(cand.prev).unwrap_or(Rat::new(self.l_millis, 1));
        match lp {
            Some(v) => Rat::new((v * 1000.0).round() as i64, 1000).min(closed_form_sup),
            None => closed_form_sup,
        }
    }

    /// What failing σ adds to its candidate's bound, given the bound `sup`
    /// its earlier failing σ hold: `None` when σ leaves Ω or cannot raise
    /// the bound. Without [`MctOptions::path_coupled_lp`] every failing σ
    /// is in Ω with its closed-form sup. With it, the LP runs while the
    /// candidate holds no failure, and after that only while σ's cap
    /// exceeds `sup`: a skipped σ would add at most its cap, which the
    /// bound already reaches. An LP-infeasible σ leaves Ω and is counted
    /// in `dropped`; a stalled LP proves nothing, and σ keeps its
    /// closed-form sup.
    fn omega_sup(
        &self,
        cand: &PlannedCandidate,
        sigma: &[i64],
        hi: Option<Rat>,
        sup: Option<Rat>,
        dropped: &mut u64,
    ) -> Option<Rat> {
        if !self.opts.path_coupled_lp {
            return Some(self.failing_sup(cand, hi, None));
        }
        let ceiling = lp_ceiling(self.l_millis, cand.prev);
        if sup.is_some_and(|b| self.failing_sup(cand, hi, Some(ceiling)) <= b) {
            return None;
        }
        let lp = lp_max_tau(
            &self.classes,
            sigma,
            self.opts.delay_variation,
            self.l_millis,
            cand.tau,
            cand.prev,
        );
        match lp {
            LpTau::Infeasible => {
                *dropped += 1;
                None
            }
            LpTau::Sup(v) => Some(self.failing_sup(cand, hi, Some(v))),
            LpTau::Unknown => Some(self.failing_sup(cand, hi, None)),
        }
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
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

    /// Whether every verdict of `seed` fits this cone, so that
    /// [`in_parent`](Self::in_parent) and [`Engine::merge_exact`] can use
    /// it: each state bit and output it names exists here, every exact part
    /// has positive history depths and, unless its own product exceeds
    /// `budget`, a verdict of the exact check's kinds, and every diverging
    /// exact run has its iteration. A file that decodes cleanly can still
    /// break these; such a seed is dropped, and the cone is recomputed.
    fn fits(&self, seed: &ConeCacheEntry, budget: usize) -> bool {
        let cx_fits = |o: &DecisionOutcome| match *o {
            DecisionOutcome::Valid => true,
            DecisionOutcome::BasisStateMismatch { bit, .. }
            | DecisionOutcome::InductionStateMismatch { bit } => bit < self.dffs.len(),
            DecisionOutcome::BasisOutputMismatch { output, .. }
            | DecisionOutcome::InductionOutputMismatch { output } => output < self.outputs.len(),
        };
        let view = self.extractor.view();
        let depth = 1..=i64::from(u32::MAX);
        let exact_fits = |p: &ExactPart| {
            depth.contains(&p.m_state)
                && depth.contains(&p.m_input)
                && match p.fix {
                    None => {
                        product_bits(
                            view.num_state_bits(),
                            view.num_input_bits(),
                            p.m_state,
                            p.m_input,
                        ) > budget
                    }
                    Some(run) => match run.outcome {
                        DecisionOutcome::Valid => true,
                        DecisionOutcome::InductionOutputMismatch { output } => {
                            output < self.outputs.len() && run.bad_iteration.is_some()
                        }
                        _ => false,
                    },
                }
        };
        seed.outcomes_cx.values().all(cx_fits) && seed.outcomes_exact.values().all(exact_fits)
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

/// Fresh per-cone answers: the cone verdicts, harvested into the cone's
/// next entry, and the per-sink decision records, which live only as long
/// as the run.
struct ConeMemo {
    cx: FxHashMap<(Vec<i64>, i64), DecisionOutcome>,
    exact: FxHashMap<Vec<i64>, ExactPart>,
    /// Per sink: its record at every projection decided so far.
    records: Vec<SinkRecords>,
}

impl ConeMemo {
    fn new(sinks: usize) -> Self {
        ConeMemo {
            cx: FxHashMap::default(),
            exact: FxHashMap::default(),
            records: (0..sinks).map(|_| SinkRecords::default()).collect(),
        }
    }
}

/// One sink's records, one per projection, each in a slot that a
/// projection index names.
#[derive(Default)]
struct SinkRecords {
    slots: FxHashMap<Vec<i64>, usize>,
    records: Vec<SinkRecord>,
}

/// One sink of a cone, carried from one σ to the next.
#[derive(Default)]
struct CarriedSink {
    /// The sink's projection at the last σ that visited it.
    key: Vec<i64>,
    /// The slot of the sink's record at `key`, once it has one.
    slot: Option<usize>,
    /// The sink's function at `key`, once extracted. Dropped at every
    /// candidate boundary, before any collection.
    function: Option<Bdd>,
    /// The last walk that visited the sink.
    visited: u64,
    /// The last walk in which the sink made a fresh comparison.
    compared: u64,
}

/// A cone's sinks. Consecutive σ mostly share a sink's projection, so the
/// cursor keeps each sink's projection, record slot and function between
/// walks, and reads the projection index only when a σ moves the sink to
/// another projection.
#[derive(Default)]
struct SinkCursor {
    sinks: Vec<CarriedSink>,
    /// Walks so far: the stamp of the current one.
    walks: u64,
    /// Sinks the current walk visited without making a fresh comparison.
    reused: u64,
}

/// One walk through a [`SinkCursor`]: σ's projection onto the cone, and the
/// cone's records.
struct CursorWalk<'a, 'v> {
    cursor: &'a mut SinkCursor,
    meta: &'a ConeMeta<'v>,
    records: &'a mut [SinkRecords],
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
                sink.slot = self.records[s].slots.get(sink.key.as_slice()).copied();
            }
        }
        let records = &self.records[s].records;
        sink.slot.and_then(|slot| records[slot].known(check))
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
        let records = &mut self.records[s];
        let slot = *sink.slot.get_or_insert_with(|| {
            records
                .slots
                .insert(sink.key.clone(), records.records.len());
            records.records.push(SinkRecord::default());
            records.records.len() - 1
        });
        records.records[slot].note(check, equal);
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

    /// The cone's layers and, with `with_reach`, its reachable set, as an
    /// entry over only the variables they decide on (the manager's
    /// preregistered static-order copies stay out). Requires
    /// [`complete`](Self::complete).
    fn entry(&self, with_reach: bool) -> ConeCacheEntry {
        let layers = self.layers.as_ref().expect("entries keep layers");
        let (tail, period) = layers.rho.expect("complete ran");
        let mut roots = layers.seq.clone();
        if with_reach {
            roots.push(self.reach);
        }
        let mut snapshot = self.manager.export_bdd(&roots);
        let vars = snapshot
            .compact_vars()
            .into_iter()
            .map(|v| {
                self.table
                    .timed_var(Var::new(v))
                    .expect("cone BDDs only use table-allocated variables")
            })
            .collect();
        ConeCacheEntry {
            vars,
            snapshot,
            tail,
            period,
            has_reach: with_reach,
            ..ConeCacheEntry::empty()
        }
    }
}

/// Where a cone's frontier restriction comes from once reachability is
/// done.
enum ConeReach<'s> {
    /// No restriction: a stateless cone, or reachability is off.
    Free,
    /// Replayed from the cone's seed.
    Seed(&'s ConeCacheEntry),
    /// Computed by this run; the sweep decides in its manager.
    Fresh(Box<FreshCone>),
}

#[cfg(test)]
thread_local! {
    /// Collection threshold forced onto every environment (tests of the
    /// candidate-boundary collection).
    pub(crate) static TEST_GC_THRESHOLD: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
    /// Sinks extracted by sink-by-sink decisions.
    pub(crate) static TEST_SINK_EXTRACTIONS: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    /// Every `(cone, sink, projection, depth)` decided.
    pub(crate) static TEST_SINK_KEYS: std::cell::RefCell<HashSet<SinkKey>> =
        std::cell::RefCell::default();
    /// Switches the settled-candidate stop off: every σ of `Φ(τ)` is
    /// decided.
    pub(crate) static TEST_DECIDE_EVERY_SIGMA: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
    /// σ decided by the sweep.
    pub(crate) static TEST_SIGMA_DECIDED: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    /// The shift ranges of every examined candidate, in sweep order.
    pub(crate) static TEST_EXAMINED: std::cell::RefCell<Vec<Vec<ShiftRange>>> =
        std::cell::RefCell::default();
}

/// `(cone, sink, projection, depth)`: what one sink's checks depend on.
#[cfg(test)]
type SinkKey = (usize, usize, Vec<i64>, i64);

/// A cone's symbolic environment: a private manager and table, the steady
/// machine and frontier restriction, and the steady rows and sink cursor of
/// its sink-by-sink decisions.
struct ConeEnv<'v> {
    manager: BddManager,
    table: TimedVarTable,
    ctx: DecisionContext<'v>,
    rows: SteadyRows,
    cursor: SinkCursor,
}

impl<'v> ConeEnv<'v> {
    /// Builds an environment, importing the reachable set of the cone's
    /// seed, if any — one linear import of the reach root's nodes, not a
    /// repeat of the image fixpoint.
    fn build(
        meta: &ConeMeta<'v>,
        seed: Option<&ConeCacheEntry>,
        opts: &MctOptions,
        order_hint: i64,
    ) -> Result<Self, MctError> {
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        if opts.ordering != VarOrder::Alloc {
            StaticOrder::compute(meta.extractor.view(), order_hint).apply(&mut table);
        }
        let mut ctx = DecisionContext::new(&meta.extractor, &mut manager, &mut table)?;
        if let Some(s) = seed {
            let root = s.reach_root().expect("restricting seeds carry a reach set");
            ctx = ctx.with_restriction(s.import(&mut manager, root, |&tv| table.var(tv))[0]);
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
        records: &mut [SinkRecords],
        sub: &[i64],
        m: i64,
    ) -> Result<(DecisionOutcome, u64), MctError> {
        let cursor = &mut self.cursor;
        cursor.walks += 1;
        cursor.reused = 0;
        let mut sinks = CursorWalk {
            cursor,
            meta,
            records,
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

    /// Candidate-boundary maintenance: drop the carried sink functions,
    /// then collect and compact. Per-σ machines are gone by now and the
    /// records and memoized verdicts hold no handles, so the
    /// context plus the steady rows enumerate every live handle of this
    /// manager.
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

/// The sweep's mutable state: each cone's lazily built environment and
/// memo, the key σ decisions project into, and the diagnostics.
struct SweepState<'v> {
    envs: Vec<Option<ConeEnv<'v>>>,
    memos: Vec<ConeMemo>,
    /// The current cone projection `σ|c` and global depth `m`: the cone
    /// memo's key, borrowed for lookups and cloned only when a miss inserts
    /// it.
    key: (Vec<i64>, i64),
    /// Cone decisions answered by a seed or a cone memo instead of a walk
    /// (`mvec_memo_hits`).
    memo_hits: u64,
    /// Sinks a walk visited without making a fresh comparison: every check
    /// was answered by the sink's record (`sigma_reused`).
    reused: u64,
    /// Failing σ that LP coupling proved infeasible and dropped from Ω
    /// (`sigma_pruned`).
    lp_dropped: u64,
}

impl SweepState<'_> {
    /// Writes the kernel counters of every environment and the sweep's
    /// diagnostics into `kernel`.
    fn finish(&self, kernel: &mut BddStats) {
        for env in self.envs.iter().flatten() {
            kernel.absorb(&env.manager.stats());
        }
        kernel.mvec_memo_hits = self.memo_hits;
        kernel.sigma_pruned = self.lp_dropped;
        kernel.sigma_reused = self.reused;
    }
}

/// The read-only inputs of the sweep loop.
struct Engine<'a, 'v> {
    shared: &'a SweepShared,
    cones: &'a [ConeMeta<'v>],
    seeds: &'a [Option<&'a ConeCacheEntry>],
    /// Per cone, the seed whose reachable set restricts a fresh
    /// environment. Cones whose reachable set this run computed already
    /// have their environment.
    restrict: &'a [Option<&'a ConeCacheEntry>],
    order_hint: i64,
    parent_ns: usize,
    parent_np: usize,
}

impl<'v> Engine<'_, 'v> {
    /// Walks the plan in descending τ, deciding σ until the candidate's
    /// verdict is settled, and writes the report as it goes. Stops after
    /// the first failing candidate unless the floor is exhaustive, and at
    /// the deadline; a report already marked `timed_out` (the deadline
    /// expired inside the reachability fixpoint) stops at the first
    /// candidate.
    ///
    /// Once a candidate is [`settled`](SweepShared::settled), no σ left in
    /// its walk can change the region, the bound or the first failure, so
    /// the walk stops there. Its σ counts are closed-form: `|Φ(τ)|`, and
    /// `|Φ(τ) ∩ Φ(τ_prev)|` repeats.
    fn sweep(
        &self,
        st: &mut SweepState<'v>,
        plan: &SweepPlan,
        deadline: Option<Instant>,
        report: &mut MctReport,
    ) -> Result<(), MctError> {
        let opts = &self.shared.opts;
        let mut prev_ranges: Option<Vec<ShiftRange>> = None;
        let mut failed = false;
        let mut completed = true;
        let mut smallest_examined: Option<Rat> = None;
        for cand in &plan.candidates {
            report.candidates_checked += 1;
            if report.timed_out || expired(deadline) {
                report.timed_out = true;
                completed = false;
                break;
            }
            if cand.combos > opts.max_sigma_combos as u128 {
                return Err(MctError::SigmaExplosion {
                    tau: cand.tau.as_f64() / 1000.0,
                    cap: opts.max_sigma_combos,
                });
            }
            let mut first_invalid = None;
            let mut sup: Option<Rat> = None;
            let ranges = self.shared.ranges(cand.tau);
            #[cfg(test)]
            TEST_EXAMINED.with_borrow_mut(|e| e.push(ranges.clone()));
            let walk = SigmaWalk::new(&ranges, &self.shared.intervals, cand.tau, cand.prev);
            let walked = walk.run::<MctError>(&mut |sigma, hi| {
                let outcome = self.decide(st, sigma)?;
                if !outcome.is_valid() {
                    if let Some(s) = self
                        .shared
                        .omega_sup(cand, sigma, hi, sup, &mut st.lp_dropped)
                    {
                        first_invalid.get_or_insert(outcome);
                        sup = Some(sup.map_or(s, |b| b.max(s)));
                    }
                }
                let settled = self.shared.settled(cand, sup, failed);
                #[cfg(test)]
                let settled = settled && !TEST_DECIDE_EVERY_SIGMA.get();
                Ok(if settled {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                })
            });
            for env in st.envs.iter_mut().flatten() {
                env.settle();
            }
            walked?;
            // Shift ranges only grow as τ descends, so every earlier Φ
            // meets Φ(τ) inside the previous candidate's.
            report.sigma_checked += cand.combos as usize;
            report.sigma_cache_hits += prev_ranges
                .as_ref()
                .map_or(0, |p| SigmaIter::shared_count(p, &ranges) as usize);
            prev_ranges = Some(ranges);
            report.regions.push(ValidityRegion {
                tau_lo: cand.tau.as_f64() / 1000.0,
                tau_hi: cand.prev.map_or(f64::INFINITY, |p| p.as_f64() / 1000.0),
                valid: sup.is_none(),
            });
            if let Some(bound) = sup.filter(|_| !failed) {
                failed = true;
                report.bound_exact = bound;
                report.mct_upper_bound = bound.as_f64() / 1000.0;
                report.first_failing_tau = Some(cand.tau.as_f64() / 1000.0);
                report.failure = first_invalid;
                if opts.exhaustive_floor.is_none() {
                    return Ok(());
                }
            }
            smallest_examined = Some(cand.tau);
        }
        if completed && plan.overflowed {
            // The loop counts the (max_candidates + 1)-th breakpoint before
            // noticing the budget is spent.
            report.candidates_checked += 1;
        }
        if !failed {
            // Every examined period was valid: the certified bound is the
            // smallest period checked. When nothing was certified the sound
            // claim is the steady machine's: every shift is 1 above L.
            report.exhausted = true;
            let bound = smallest_examined.unwrap_or(Rat::new(self.shared.l_millis, 1));
            report.bound_exact = bound;
            report.mct_upper_bound = bound.as_f64() / 1000.0;
        }
        Ok(())
    }

    /// Decides one σ: every cone answers its projection, and the answers
    /// recombine into the whole machine's outcome.
    fn decide(&self, st: &mut SweepState<'v>, sigma: &[i64]) -> Result<DecisionOutcome, MctError> {
        #[cfg(test)]
        TEST_SIGMA_DECIDED.set(TEST_SIGMA_DECIDED.get() + 1);
        if self.shared.opts.exact_check {
            let parts = (0..self.cones.len())
                .map(|c| {
                    self.cones[c].project(sigma, &mut st.key.0);
                    self.exact_part(c, st)
                })
                .collect::<Result<Vec<_>, _>>()?;
            return self.merge_exact(&parts);
        }
        st.key.1 = sigma.iter().copied().max().unwrap_or(1).max(1);
        let mut first: Option<((u8, i64, u8, usize), DecisionOutcome)> = None;
        for (c, meta) in self.cones.iter().enumerate() {
            meta.project(sigma, &mut st.key.0);
            if let Some(mapped) = meta.in_parent(self.cx_outcome(c, st)?) {
                if first.as_ref().is_none_or(|(k, _)| mapped.0 < *k) {
                    first = Some(mapped);
                }
            }
        }
        Ok(first.map_or(DecisionOutcome::Valid, |(_, o)| o))
    }

    /// Cone `c`'s environment, built on first use.
    fn env<'e>(
        &self,
        c: usize,
        envs: &'e mut [Option<ConeEnv<'v>>],
    ) -> Result<&'e mut ConeEnv<'v>, MctError> {
        if envs[c].is_none() {
            envs[c] = Some(ConeEnv::build(
                &self.cones[c],
                self.restrict[c],
                &self.shared.opts,
                self.order_hint,
            )?);
        }
        Ok(envs[c].as_mut().expect("just built"))
    }

    /// Cone `c`'s `C_x` verdict at the projection and global induction depth
    /// in `st.key`, decided sink by sink when neither its seed nor its memo
    /// holds it.
    fn cx_outcome(&self, c: usize, st: &mut SweepState<'v>) -> Result<DecisionOutcome, MctError> {
        let known = self.seeds[c]
            .and_then(|s| s.outcomes_cx.get(&st.key).copied())
            .or_else(|| st.memos[c].cx.get(&st.key).copied());
        if let Some(o) = known {
            st.memo_hits += 1;
            return Ok(o);
        }
        let (sub, m) = (&st.key.0, st.key.1);
        #[cfg(test)]
        TEST_SINK_KEYS.with_borrow_mut(|keys| {
            for s in 0..self.cones[c].starts.len() {
                keys.insert((c, s, self.cones[c].sink_key(s, sub).collect(), m));
            }
        });
        let env = self.env(c, &mut st.envs)?;
        let (o, reused) = env.walk(&self.cones[c], &mut st.memos[c].records, sub, m)?;
        st.reused += reused;
        st.memos[c].cx.insert(st.key.clone(), o);
        Ok(o)
    }

    /// Cone `c`'s exact-check part at the projection in `st.key`: the local
    /// history depths always, plus the local product-machine verdict when
    /// the local product fits the bit budget.
    fn exact_part(&self, c: usize, st: &mut SweepState<'v>) -> Result<ExactPart, MctError> {
        let sub = &st.key.0;
        let known = self.seeds[c]
            .and_then(|s| s.outcomes_exact.get(sub).copied())
            .or_else(|| st.memos[c].exact.get(sub).copied());
        if let Some(p) = known {
            st.memo_hits += 1;
            return Ok(p);
        }
        let meta = &self.cones[c];
        let view = meta.extractor.view();
        let budget = self.shared.opts.max_product_bits;
        let env = self.env(c, &mut st.envs)?;
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
        st.memos[c].exact.insert(sub.clone(), part);
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
            Some(s) if s.has_reach && s.has_layers() => ConeReach::Seed(s),
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
            ConeReach::Seed(s) => s.reach_states(parent_ns),
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
        let fresh: Vec<Option<ConeCacheEntry>> = reach
            .iter()
            .map(|r| match r {
                ConeReach::Fresh(fc) => Some(fc.entry(false)),
                _ => None,
            })
            .collect();
        let mut shapes: Vec<(usize, &ConeCacheEntry)> = stateful
            .iter()
            .map(|&c| match (&reach[c], &fresh[c]) {
                (ConeReach::Seed(s), _) => (c, *s),
                (_, Some(e)) => (c, e),
                _ => unreachable!("stateful cones have a reach source"),
            })
            .collect();
        // Variables go cone by cone in order of ρ tail: cones whose layers
        // cycle from step 0 on top, long-tailed ones (a counter with an
        // enable input grows one state per layer) at the bottom, below the
        // few distinct combinations the cycling cones contribute.
        shapes.sort_by_key(|&(_, e)| e.tail);
        let mut counting = BddManager::new();
        let mut table = TimedVarTable::new();
        table.preregister(shapes.iter().flat_map(|&(c, ..)| {
            metas[c]
                .dffs
                .iter()
                .map(|&leaf| TimedVar::Arbitrary { leaf, delay: 1 })
        }));
        // Import each cone's layers once, sending its local state variables
        // straight to its parent-leaf variables.
        let imported: Vec<Vec<Bdd>> = shapes
            .iter()
            .map(|&(c, e)| {
                let dffs = &metas[c].dffs;
                e.import(&mut counting, e.layer_roots(), |&tv| {
                    table.var(match tv {
                        TimedVar::Shifted { leaf, shift: 0 } if leaf < dffs.len() => {
                            TimedVar::Arbitrary {
                                leaf: dffs[leaf],
                                delay: 1,
                            }
                        }
                        other => other,
                    })
                })
            })
            .collect();
        let mut roots: Vec<Bdd> = imported.iter().flatten().copied().collect();
        let mut reached = counting.zero();
        for k in 0.. {
            if expired(deadline) {
                return Ok(None);
            }
            let mut a_k = counting.one();
            for (&(_, e), layers) in shapes.iter().zip(&imported) {
                let j = if k < layers.len() {
                    k
                } else {
                    e.tail + (k - e.tail) % e.period
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
    let sweep_plan = plan(&bp_delays, floor, &shared);

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

    // A seed whose verdicts do not fit its cone is a miss.
    let seeds: Vec<Option<&ConeCacheEntry>> = seeds
        .iter()
        .zip(&metas)
        .map(|(s, meta)| s.filter(|s| meta.fits(s, opts.max_product_bits)))
        .collect();

    // ---- Reachability. ---------------------------------------------------
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
    // Harvested layers are exported before any sweep-time collection can
    // reclaim them.
    let mut pending: Vec<Option<ConeCacheEntry>> = (0..total).map(|_| None).collect();
    if harvest && reach_done {
        for (slot, r) in pending.iter_mut().zip(reach.iter_mut()) {
            if let ConeReach::Fresh(fc) = r {
                if !fc.complete(deadline) {
                    reach_done = false;
                    break;
                }
                *slot = Some(fc.entry(true));
            }
        }
    }

    // ---- Sweep. ------------------------------------------------------------
    let mut st = SweepState {
        envs: (0..total).map(|_| None).collect(),
        memos: metas
            .iter()
            .map(|m| ConeMemo::new(m.starts.len()))
            .collect(),
        key: Default::default(),
        memo_hits: 0,
        reused: 0,
        lp_dropped: 0,
    };
    let mut restrict: Vec<Option<&ConeCacheEntry>> = vec![None; total];
    if reach_done {
        // The sweep decides in the reachability managers.
        for (c, r) in reach.into_iter().enumerate() {
            match r {
                ConeReach::Free => {}
                ConeReach::Seed(s) => restrict[c] = Some(s),
                ConeReach::Fresh(fc) => st.envs[c] = Some(ConeEnv::promote(&metas[c], *fc)?),
            }
        }
    } else {
        // The deadline expired inside the fixpoint: the same partial report
        // as a deadline at the first candidate, and nothing harvested. The
        // aborted fixpoint's managers go uncounted — how far a wall-clock
        // deadline lets it get is not a property of the circuit, so its
        // kernel counters would only add noise.
        report.timed_out = true;
    }
    let engine = Engine {
        shared: &shared,
        cones: &metas,
        seeds: &seeds,
        restrict: &restrict,
        order_hint,
        parent_ns,
        parent_np: view.num_input_bits(),
    };
    engine.sweep(&mut st, &sweep_plan, deadline, &mut report)?;
    st.finish(&mut report.kernel);

    // ---- Harvest. ----------------------------------------------------------
    let built: Vec<bool> = st.envs.iter().map(Option::is_some).collect();
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
                (Some(mut e), Some(s)) => {
                    e.outcomes_cx
                        .extend(s.outcomes_cx.iter().map(|(k, &v)| (k.clone(), v)));
                    e.outcomes_exact
                        .extend(s.outcomes_exact.iter().map(|(k, &v)| (k.clone(), v)));
                    e
                }
                (Some(e), None) => e,
                // Partial replay: the seed's layers and verdicts carry
                // forward, so the new entry supersedes the old one
                // completely.
                (None, Some(s)) => s.clone(),
                (None, None) => ConeCacheEntry::empty(),
            };
            let memo = &mut st.memos[c];
            entry.outcomes_cx.extend(std::mem::take(&mut memo.cx));
            entry.outcomes_exact.extend(std::mem::take(&mut memo.exact));
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
    use super::{
        PlannedCandidate, SweepShared, TEST_DECIDE_EVERY_SIGMA, TEST_EXAMINED, TEST_GC_THRESHOLD,
        TEST_SIGMA_DECIDED, TEST_SINK_EXTRACTIONS, TEST_SINK_KEYS,
    };
    use crate::analyzer::{MctAnalyzer, MctOptions, MctReport, VarOrder};
    use crate::error::MctError;
    use crate::sigma::SigmaIter;
    use crate::ConeCacheEntry;
    use mct_gen::families;
    use mct_lp::Rat;
    use mct_netlist::{Circuit, GateKind, Time};
    use std::collections::HashSet;

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

    /// Everything except the kernel diagnostics.
    fn strip(mut r: MctReport) -> String {
        r.kernel = Default::default();
        format!("{r:?}")
    }

    fn run(c: &Circuit, opts: &MctOptions) -> Result<MctReport, MctError> {
        MctAnalyzer::new(c).unwrap().run(opts)
    }

    /// The sliced production path against the unsliced reference.
    fn assert_identity(c: &Circuit, opts: &MctOptions) {
        let reference = run(
            c,
            &MctOptions {
                decompose: false,
                ..opts.clone()
            },
        )
        .map(strip);
        assert_eq!(reference, run(c, opts).map(strip), "{}", c.name());
    }

    #[test]
    fn slicing_never_changes_the_report() {
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

    /// One run with the settled-candidate stop on or off: the report, the
    /// σ it decided, and `(sigma_checked, sigma_cache_hits)` counted by
    /// brute force over the Φ of every examined candidate.
    fn traced(
        c: &Circuit,
        opts: &MctOptions,
        stop: bool,
    ) -> (Result<MctReport, MctError>, u64, (usize, usize)) {
        TEST_DECIDE_EVERY_SIGMA.set(!stop);
        TEST_SIGMA_DECIDED.set(0);
        TEST_EXAMINED.with_borrow_mut(Vec::clear);
        let report = run(c, opts);
        TEST_DECIDE_EVERY_SIGMA.set(false);
        let mut seen = HashSet::new();
        let mut counts = (0, 0);
        for ranges in TEST_EXAMINED.take() {
            for sigma in SigmaIter::new(&ranges) {
                counts.0 += 1;
                if !seen.insert(sigma) {
                    counts.1 += 1;
                }
            }
        }
        (report, TEST_SIGMA_DECIDED.get(), counts)
    }

    /// A candidate's walk stops once its verdict is settled, and the
    /// report is the one that deciding every σ gives: same regions, bound,
    /// first failure and errors, and σ counts that a brute-force count over
    /// the examined candidates' Φ confirms.
    #[test]
    fn settled_candidates_stop_without_changing_the_report() {
        let lfsr = families::lfsr(12, &[5, 11], t(2.0));
        let mut circuits: Vec<Circuit> = (1..=4)
            .map(|seed| families::random_fsm(seed, 3, 1, 10))
            .collect();
        circuits.extend([figure2(), families::sigma_star(2), lfsr.clone()]);
        let mut decided_total = (0, 0);
        for c in &circuits {
            let l = run(c, &MctOptions::fixed_delays()).unwrap().steady_delay;
            let floor = MctOptions {
                exhaustive_floor: Some(l / 2.0),
                ..MctOptions::paper()
            };
            let variants = [
                MctOptions::paper(),
                MctOptions::fixed_delays(),
                floor.clone(),
                MctOptions {
                    path_coupled_lp: true,
                    ..floor.clone()
                },
                MctOptions {
                    exact_check: true,
                    max_product_bits: 16,
                    ..floor
                },
            ];
            for opts in &variants {
                let (stopped, decided, counts) = traced(c, opts, true);
                let (full, all, full_counts) = traced(c, opts, false);
                let what = format!("{} {opts:?}", c.name());
                assert!(decided <= all, "{what}");
                decided_total.0 += decided;
                decided_total.1 += all;
                if let Ok(r) = &full {
                    // Without the stop every counted σ is decided.
                    assert_eq!(all, r.sigma_checked as u64, "{what}");
                    assert_eq!((r.sigma_checked, r.sigma_cache_hits), full_counts);
                }
                if let Ok(r) = &stopped {
                    assert_eq!((r.sigma_checked, r.sigma_cache_hits), counts, "{what}");
                }
                assert_eq!(stopped.map(strip), full.map(strip), "{what}");
            }
        }
        assert!(decided_total.0 < decided_total.1, "{decided_total:?}");
        // Every σ of the LFSR's second candidate fails, and the first
        // failing one already reaches the interval's upper end.
        let (report, decided, _) = traced(&lfsr, &MctOptions::paper(), true);
        let report = report.unwrap();
        assert_eq!(report.sigma_checked, 4_097, "{report:?}");
        assert!(decided <= 4, "{decided} σ decided");

        // Under LP coupling a failing σ may add less than the interval's
        // upper end, and then the walk goes on until the bound reaches the
        // cap. No circuit above has a first failure in Ω below its cap
        // (nor did thousands of random LP-mode circuits), so a stop that
        // ignores the cap would not show in their reports: the rule is
        // checked on its own.
        let shared = SweepShared {
            classes: Vec::new(),
            intervals: Vec::new(),
            l_millis: 5_000,
            opts: MctOptions {
                path_coupled_lp: true,
                ..MctOptions::paper()
            },
        };
        let cand = PlannedCandidate {
            tau: Rat::new(1_500, 1),
            prev: Some(Rat::new(2_000, 1)),
            combos: 1,
        };
        let cap = shared.cap(&cand);
        assert_eq!(cap, Rat::new(1_999_999, 1_000));
        let below = Some(Rat::new(1_800, 1));
        assert!(!shared.settled(&cand, None, true));
        assert!(!shared.settled(&cand, below, false));
        assert!(shared.settled(&cand, below, true));
        assert!(shared.settled(&cand, Some(cap), false));
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
    /// candidate boundary, leaving only the rooted steady machine and the
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

    /// Carried sink functions never outlive a candidate boundary. With a
    /// collection forced at every boundary, σ-heavy rings report the same
    /// bytes as without and as the unsliced reference, and reuse exactly as
    /// many sinks.
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
            let plain = run(&c, &opts).unwrap();
            TEST_GC_THRESHOLD.set(Some(0));
            let forced = run(&c, &opts);
            TEST_GC_THRESHOLD.set(None);
            let forced = forced.unwrap();
            assert_eq!(forced.sigma_checked, sigmas, "{forced:?}");
            assert!(forced.kernel.gc_runs > 0, "{:?}", forced.kernel);
            assert_eq!(
                forced.kernel.sigma_reused, plain.kernel.sigma_reused,
                "{:?}",
                forced.kernel
            );
            let forced = strip(forced);
            assert_eq!(forced, strip(plain));
            assert_eq!(forced, reference);
        }
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
                    ..opts.clone()
                },
            )
            .map(strip)
            .unwrap();
            let (r1, a1) = MctAnalyzer::new(&c)
                .unwrap()
                .run_decomposed(&opts, &[])
                .unwrap();
            assert_eq!(a1.cones_total, 3);
            assert_eq!(strip(r1), reference, "counter_last {counter_last}");
            let (r2, a2) = MctAnalyzer::new(&c)
                .unwrap()
                .run_decomposed(&opts, &seeds_of(&a1.entries))
                .unwrap();
            assert_eq!(a2.cones_replayed, 3);
            assert_eq!(strip(r2), reference, "replay, counter_last {counter_last}");
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
