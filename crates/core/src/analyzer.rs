//! The minimum-cycle-time analysis: options, the report, and the
//! [`MctAnalyzer`] entry points.
//!
//! The sweep itself — breakpoints, Φ enumeration, feasibility, decisions
//! per cone of influence, and the final bound `D̄_s = max_{σ ∈ Ω} τ(σ)` —
//! lives in [`crate::sweep`]; this module owns the option/report types and
//! the slicing.

use crate::artifact::ConeCacheEntry;
use crate::decision::DecisionOutcome;
use crate::error::MctError;
use crate::sweep::{self, DecomposeArtifacts};
use mct_bdd::BddStats;
use mct_lp::{LpOutcome, Rat, Simplex};
use mct_netlist::{Circuit, Cone, FsmView, NetId};
use mct_tbf::DelayClass;
use std::collections::HashMap;

/// Variable-ordering policy for the symbolic kernel.
///
/// Ordering is a performance lever only: the analyses compare canonical
/// function handles, so both policies yield a bit-identical [`MctReport`] —
/// only node counts and wall time change. [`VarOrder::Static`] is the
/// production path; [`VarOrder::Alloc`] is kept as a library-level
/// reference (the golden reports were captured under it, and the
/// order-invariance tests compare against it). No CLI flag or service
/// option selects it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VarOrder {
    /// First-use allocation order (the historical behaviour).
    Alloc,
    /// Structural static order computed from the netlist before any BDD is
    /// built (see [`StaticOrder`]): leaves clustered by a sink-DFS over the
    /// gate DAG, timed copies of each leaf interleaved at adjacent levels.
    #[default]
    Static,
}

/// Configuration of a cycle-time analysis.
#[derive(Clone, Debug)]
pub struct MctOptions {
    /// Gate delays vary in `[num/den · d, d]`; `None` means fixed (exact)
    /// delays. The paper's evaluation uses `(9, 10)` — delays between 90%
    /// and 100% of their maxima.
    pub delay_variation: Option<(i64, i64)>,
    /// Restrict the decision algorithm's induction frontier to the
    /// reachable state space (the paper's sequential don't-cares).
    pub use_reachability: bool,
    /// Couple each delay class to a representative gate path with the
    /// linear programs of Section 7, instead of only the independent-interval
    /// closed form. Each σ the walk visits is still decided first; the LP
    /// runs only for a failing σ that could raise the candidate's bound,
    /// drops it from the failing set when no delay assignment realizes it,
    /// and otherwise tightens its sup.
    pub path_coupled_lp: bool,
    /// When set, sweep past the first failure down to this period (in time
    /// units), recording the validity of every interval in
    /// [`MctReport::regions`].
    pub exhaustive_floor: Option<f64>,
    /// Abort with [`MctError::SigmaExplosion`] if one τ interval yields
    /// more shift combinations than this.
    pub max_sigma_combos: usize,
    /// Stop sweeping (reporting exhaustion) after this many candidate
    /// periods.
    pub max_candidates: usize,
    /// Give up below `L / floor_divisor` when no failure has been found
    /// (`L` = the steady-state delay).
    pub floor_divisor: i64,
    /// State cap for cone extraction (see
    /// [`ConeExtractor::with_node_limit`]).
    pub cone_node_limit: usize,
    /// Use the exact product-machine equivalence check instead of the
    /// sufficient condition `C_x` (Section 6's "decide whether two finite
    /// state machines are equivalent", made affordable symbolically).
    /// Accepts strictly more periods (e.g. unobservable lagging state) but
    /// costs a reachability fixpoint over an expanded state per shift
    /// combination.
    pub exact_check: bool,
    /// Bit budget for the exact check's expanded product state.
    pub max_product_bits: usize,
    /// Wall-clock budget for the analysis, in milliseconds, armed when the
    /// analysis starts and polled between reachability image steps and
    /// between candidates. When exceeded the report carries the best
    /// *partial* result with [`MctReport::timed_out`] set — the same
    /// convention as the paper's table, which reports the last value with
    /// a `†` for runs that exhausted memory.
    pub time_budget_ms: Option<u64>,
    /// Variable-ordering policy for every BDD manager the analysis builds.
    /// Never changes the report — see [`VarOrder`].
    pub ordering: VarOrder,
    /// Slice the circuit into independent cones of influence
    /// ([`mct_netlist::decompose`]) and decide each cone with its own
    /// symbolic stack, recombining per-cone verdicts into the whole-circuit
    /// report — the production path (the default). `false` analyzes the
    /// whole circuit as one cone: the unsliced reference that tests check
    /// recombination against, like [`VarOrder::Alloc`]. The report is
    /// bit-identical either way, so the field is excluded from result-cache
    /// fingerprints, and no CLI flag or service option selects the
    /// reference.
    pub decompose: bool,
    /// Run the clock-skew optimization tier after the sweep: solve the
    /// Fishburn-style feasibility programs over per-register skews,
    /// binary-search the minimum structurally feasible period, certify it
    /// exactly, and report both the zero-skew and skew-optimal bounds (with
    /// an integer-milli witness) in [`MctReport::skew`].
    ///
    /// Unlike `ordering`/`decompose` this **changes the report**,
    /// so it is **included** in result-cache fingerprints. Note that skew
    /// *annotations* on the circuit always take effect in the sweep itself
    /// (they are circuit semantics); this flag only adds the optimizer
    /// tier.
    pub skew: bool,
    /// Per-register skew magnitude bound `|s_i| ≤ B` for the optimizer, in
    /// time units. `None` uses the steady-state delay `L`. Included in
    /// result-cache fingerprints (it changes [`MctReport::skew`]).
    pub skew_bound: Option<f64>,
}

impl Default for MctOptions {
    /// The paper's evaluation setting: 90–100% delay variation, no LP
    /// path coupling (independent intervals), reachability on.
    fn default() -> Self {
        MctOptions {
            delay_variation: Some((9, 10)),
            use_reachability: true,
            path_coupled_lp: false,
            exhaustive_floor: None,
            max_sigma_combos: 1 << 14,
            max_candidates: 20_000,
            floor_divisor: 64,
            cone_node_limit: 4_000_000,
            exact_check: false,
            max_product_bits: 48,
            time_budget_ms: None,
            ordering: VarOrder::default(),
            decompose: true,
            skew: false,
            skew_bound: None,
        }
    }
}

impl MctOptions {
    /// Exact (fixed) gate delays — the setting of the paper's worked
    /// Example 2.
    pub fn fixed_delays() -> Self {
        MctOptions {
            delay_variation: None,
            ..MctOptions::default()
        }
    }

    /// The paper's Section-8 evaluation setting (alias of `default`).
    pub fn paper() -> Self {
        MctOptions::default()
    }
}

/// One τ interval of the sweep and whether it was certified valid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ValidityRegion {
    /// Left (inclusive) end of the interval, in time units.
    pub tau_lo: f64,
    /// Right (exclusive) end, in time units (`f64::INFINITY` for the first
    /// interval).
    pub tau_hi: f64,
    /// Whether every feasible shift combination passed the decision
    /// algorithm.
    pub valid: bool,
}

/// Result of a cycle-time analysis.
#[derive(Clone, Debug)]
pub struct MctReport {
    /// Circuit name.
    pub circuit: String,
    /// The steady-state delay `L` (the largest register-to-register path),
    /// in time units.
    pub steady_delay: f64,
    /// The computed upper bound `D̄_s` on the minimum cycle time, in time
    /// units: the machine is certified to behave identically to steady
    /// state at every period greater than this.
    pub mct_upper_bound: f64,
    /// `D̄_s` as an exact rational in milli-units.
    pub bound_exact: Rat,
    /// The left end of the first failing interval, if any (time units).
    pub first_failing_tau: Option<f64>,
    /// Diagnostics of the first failing shift combination.
    pub failure: Option<DecisionOutcome>,
    /// Number of candidate periods examined.
    pub candidates_checked: usize,
    /// Number of shift combinations of the examined candidates: every σ of
    /// `Φ(τ)` of every examined candidate, with or without
    /// [`MctOptions::path_coupled_lp`]. Counted in closed form, so it
    /// includes the σ that a settled candidate's walk skips without
    /// deciding them; the report is the one that deciding all of them
    /// gives.
    pub sigma_checked: usize,
    /// How many of those repeat a shift vector of an earlier examined
    /// candidate (the paper's Φ-signature cache): `|Φ(τ) ∩ Φ(τ_prev)|`
    /// per candidate, in closed form. A decided repeat is answered by the
    /// per-cone memos, since it repeats its projection onto every cone.
    pub sigma_cache_hits: usize,
    /// Whether the induction frontier was restricted to reachable states.
    pub used_reachability: bool,
    /// Number of reachable states, when computed.
    pub reachable_states: Option<f64>,
    /// The sweep ended by budget/floor rather than by failure: every
    /// examined period was valid and `mct_upper_bound` is the smallest
    /// period examined.
    pub exhausted: bool,
    /// The wall-clock budget expired mid-analysis; the bound is partial
    /// (the smallest period certified before the deadline, or the steady
    /// delay `L` when nothing was), like the paper's `†` rows.
    pub timed_out: bool,
    /// Interval-by-interval validity (populated when
    /// [`MctOptions::exhaustive_floor`] is set; otherwise only the
    /// intervals up to the first failure).
    pub regions: Vec<ValidityRegion>,
    /// Clock-skew optimization results, present iff [`MctOptions::skew`]
    /// was set. Part of the deterministic report contract (unlike
    /// [`kernel`](Self::kernel)).
    pub skew: Option<crate::skew::SkewReport>,
    /// Symbolic-kernel diagnostics, aggregated across every BDD manager the
    /// analysis used (one per cone, plus the layer product): live/peak node
    /// counts, garbage-collection runs, and operation-cache hit rates.
    ///
    /// Unlike every other field, this is **not** part of the deterministic
    /// report contract — the counters depend on GC thresholds, on the
    /// variable order, on the slicing and on what a seed replays. It is
    /// excluded from the serialized report and must be ignored by
    /// bit-identity comparisons.
    pub kernel: BddStats,
}

/// Orchestrates the analysis of one circuit.
pub struct MctAnalyzer<'c> {
    view: FsmView<'c>,
}

impl<'c> MctAnalyzer<'c> {
    /// Builds an analyzer for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns structural netlist errors (unconnected flip-flops,
    /// combinational cycles).
    pub fn new(circuit: &'c Circuit) -> Result<Self, MctError> {
        Ok(MctAnalyzer {
            view: FsmView::new(circuit)?,
        })
    }

    /// The FSM view under analysis.
    pub fn view(&self) -> &FsmView<'c> {
        &self.view
    }

    /// Runs the sweep and returns the report.
    ///
    /// # Errors
    ///
    /// [`MctError::Tbf`] on extraction blow-up,
    /// [`MctError::SigmaExplosion`] when one interval has too many shift
    /// combinations.
    pub fn run(&mut self, opts: &MctOptions) -> Result<MctReport, MctError> {
        sweep::run(&self.view, &self.cones(opts), opts, &[], false).map(|(report, _)| report)
    }

    /// Runs the analysis, replaying per-cone results from `seeds`, and
    /// harvests fresh [`ConeCacheEntry`] values for the cones that did new
    /// work — one-cone circuits included.
    ///
    /// `seeds` is either empty or one entry per cone in slicing order
    /// ([`mct_netlist::decompose`] order); a seed must come from an earlier
    /// `run_decomposed` of a cone with the **same layout digest** under
    /// options with the same [`ConeCacheEntry::key`] (every cached artifact
    /// — outcomes, layer sets, reach sets — is positional on the cone's
    /// local leaf indices). The report is bit-identical to
    /// [`run`](Self::run) with or without seeds.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_decomposed(
        &mut self,
        opts: &MctOptions,
        seeds: &[Option<&ConeCacheEntry>],
    ) -> Result<(MctReport, DecomposeArtifacts), MctError> {
        sweep::run(&self.view, &self.cones(opts), opts, seeds, true)
    }

    /// The slicing `opts` selects: the cones of influence, or the whole
    /// circuit as one cone (the unsliced reference).
    fn cones(&self, opts: &MctOptions) -> Vec<Cone> {
        let circuit = self.view.circuit();
        if opts.decompose {
            return mct_netlist::decompose(circuit);
        }
        vec![Cone {
            circuit: circuit.clone(),
            dffs: (0..self.view.num_state_bits()).collect(),
            inputs: (0..self.view.num_input_bits()).collect(),
            outputs: (0..circuit.outputs().len()).collect(),
        }]
    }
}

/// The variation minimum of one delay class. Variation models *gate* delay
/// uncertainty, so only the physical portion `delay − skew_offset` scales;
/// the skew constant rides along unscaled (a clock-tree design parameter,
/// not a device delay). With a zero offset this is exactly the historical
/// `(k_max·num).div_euclid(den)` floor.
pub(crate) fn skewed_k_min(class: &DelayClass, variation: Option<(i64, i64)>) -> i64 {
    match variation {
        Some((num, den)) => {
            ((class.delay - class.skew_offset) * num).div_euclid(den) + class.skew_offset
        }
        None => class.delay,
    }
}

/// Rejects skew annotations that drive some effective path delay below
/// zero at its variation minimum — the skewed register model would have a
/// capture edge preceding the launch (a hold violation no period can fix).
/// An effective delay of exactly zero is allowed: it is the `k → 0⁺` limit
/// the shift clamp already handles.
pub(crate) fn validate_skew_holds(
    view: &FsmView<'_>,
    classes: &[DelayClass],
    variation: Option<(i64, i64)>,
) -> Result<(), MctError> {
    if !view.has_skew() {
        return Ok(());
    }
    for c in classes {
        let k_min = skewed_k_min(c, variation);
        if k_min < 0 {
            return Err(MctError::SkewHoldViolation {
                leaf: view.circuit().net_name(view.leaves()[c.leaf]).to_owned(),
                effective: k_min as f64 / 1000.0,
            });
        }
    }
    Ok(())
}

/// What the Section-7 linear program proves about one shift combination.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum LpTau {
    /// No delay assignment realizes the combination on the examined
    /// interval.
    Infeasible,
    /// The maximal τ, in milli-units, at most [`lp_ceiling`].
    Sup(f64),
    /// The solver stopped at its pivot cap: nothing is proven, so the
    /// combination stays in Ω with its closed-form sup.
    Unknown,
}

/// The margin (milli-units) that stands in for the LP's strict
/// inequalities.
const LP_EPS: f64 = 1e-3;

/// The LP's τ ceiling on the examined interval `[·, interval_hi)`: just
/// below `interval_hi`, or the steady-state delay `L` on the first
/// interval.
pub(crate) fn lp_ceiling(l_millis: i64, interval_hi: Option<Rat>) -> f64 {
    interval_hi.map_or(l_millis as f64, |h| h.as_f64() - LP_EPS)
}

/// The Section-7 linear program for one shift combination: maximize τ
/// subject to `(σ_i − 1)τ < k_i ≤ σ_i τ`, `k_i = c2q_i + Σ d_e` over the
/// class's representative path, `d_e ∈ [α·d_e^max, d_e^max]`, and τ within
/// the examined interval, up to [`lp_ceiling`]. The optimum is clamped to
/// that ceiling, so simplex round-off never lifts it above.
pub(crate) fn lp_max_tau(
    classes: &[DelayClass],
    sigma: &[i64],
    variation: Option<(i64, i64)>,
    l_millis: i64,
    interval_lo: Rat,
    interval_hi: Option<Rat>,
) -> LpTau {
    // Collect the distinct gate-pin delay variables.
    let mut edge_ix: HashMap<(NetId, usize, i64), usize> = HashMap::new();
    for class in classes {
        for e in &class.path {
            let next = edge_ix.len();
            edge_ix.entry((e.node, e.pin, e.delay)).or_insert(next);
        }
    }
    let num_vars = 1 + edge_ix.len(); // τ is variable 0
    let mut lp = Simplex::new(num_vars);
    let mut obj = vec![0.0; num_vars];
    obj[0] = 1.0;
    lp.set_objective(&obj);
    // Edge bounds.
    let (num, den) = variation.unwrap_or((1, 1));
    for (&(_, _, d), &ix) in &edge_ix {
        let hi = d as f64;
        let lo = (d * num) as f64 / den as f64;
        lp.add_bounds(1 + ix, lo, hi);
    }
    // Class shift constraints. Zero-delay classes are degenerate: their
    // shift is clamped to 1 by convention (the limit k → 0⁺), so they
    // impose no constraint.
    for (class, &s) in classes.iter().zip(sigma) {
        if class.delay == 0 {
            continue;
        }
        let path_sum: i64 = class.path.iter().map(|e| e.delay).sum();
        let c2q = (class.delay - path_sum) as f64;
        let mut upper = vec![0.0; num_vars]; // Σd_e − στ ≤ −c2q
        upper[0] = -(s as f64);
        for e in &class.path {
            upper[1 + edge_ix[&(e.node, e.pin, e.delay)]] += 1.0;
        }
        lp.add_le(&upper, -c2q);
        let mut lower = vec![0.0; num_vars]; // (σ−1)τ − Σd_e ≤ c2q − ε
        lower[0] = (s - 1) as f64;
        for e in &class.path {
            lower[1 + edge_ix[&(e.node, e.pin, e.delay)]] -= 1.0;
        }
        lp.add_le(&lower, c2q - LP_EPS);
    }
    // The examined interval and the global ceiling τ ≤ L.
    let mut tau_row = vec![0.0; num_vars];
    tau_row[0] = 1.0;
    lp.add_ge(&tau_row, interval_lo.as_f64());
    let ceiling = lp_ceiling(l_millis, interval_hi);
    lp.add_le(&tau_row, ceiling);
    match lp.solve() {
        LpOutcome::Optimal { value, .. } => LpTau::Sup(value.min(ceiling)),
        LpOutcome::Infeasible => LpTau::Infeasible,
        // τ ≤ ceiling bounds the objective, so only the pivot cap is left.
        _ => LpTau::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{GateKind, Time};

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

    #[test]
    fn figure2_fixed_delays_bound_is_2_5() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9, "{report:?}");
        assert_eq!(report.steady_delay, 5.0);
        assert_eq!(report.first_failing_tau, Some(2.0));
        assert!(!report.exhausted);
        assert!(report.failure.is_some());
    }

    #[test]
    fn figure2_with_variation_still_2_5() {
        // With 90–100% variation the first failing combination appears at
        // τ = 2.25 (shift set of the 5-delay class widens to {2, 3}), and
        // the sup of its feasible range is 5/2 — the bound stays 2.5.
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9, "{report:?}");
        assert!(report.first_failing_tau.unwrap() < 2.5);
    }

    #[test]
    fn figure2_lp_mode_agrees() {
        let c = figure2();
        let opts = MctOptions {
            path_coupled_lp: true,
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        // The LP bound sits one strict-inequality ε below the closed form.
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-4, "{report:?}");
    }

    #[test]
    fn toggler_bound_equals_its_only_path() {
        // Single inverter loop of delay 1: at τ < 1 the shift becomes 2 and
        // the startup behaviour differs — bound = 1.
        let mut c = Circuit::new("toggler");
        let q = c.add_dff("q", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q], t(1.0));
        c.connect_dff_data("q", nq).unwrap();
        c.set_output(q);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!((report.mct_upper_bound - 1.0).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn constant_register_valid_at_every_period() {
        // q' = q: the machine never transitions, so every period is valid
        // and the sweep exhausts its floor.
        let mut c = Circuit::new("hold");
        let q = c.add_dff("q", true, Time::ZERO);
        let b = c.add_gate("b", GateKind::Buf, &[q], t(1.0));
        c.connect_dff_data("q", b).unwrap();
        c.set_output(q);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!(report.exhausted, "{report:?}");
        assert!(report.mct_upper_bound < 0.1);
        assert!(report.first_failing_tau.is_none());
    }

    #[test]
    fn exhaustive_mode_records_regions() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9);
        assert!(report.regions.len() >= 5);
        // The region starting at 2.5 is valid; the region at 2.0 is not.
        let at = |lo: f64| {
            report
                .regions
                .iter()
                .find(|r| (r.tau_lo - lo).abs() < 1e-9)
                .copied()
                .unwrap_or_else(|| panic!("no region at {lo}"))
        };
        assert!(at(2.5).valid);
        assert!(!at(2.0).valid);
    }

    #[test]
    fn sigma_cache_is_exercised() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.sigma_cache_hits > 0, "{report:?}");
    }

    #[test]
    fn no_state_no_paths_is_trivial() {
        let mut c = Circuit::new("wire");
        let a = c.add_input("a");
        c.set_output(a);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert_eq!(report.mct_upper_bound, 0.0);
        assert_eq!(report.steady_delay, 0.0);
    }

    #[test]
    fn zero_time_budget_reports_partial() {
        let c = figure2();
        let opts = MctOptions {
            time_budget_ms: Some(0),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.timed_out, "{report:?}");
        // Nothing was certified, so the sound partial bound is the steady
        // machine's: the first candidate τ = L has every shift equal to 1.
        assert_eq!(report.mct_upper_bound, report.steady_delay, "{report:?}");
    }

    #[test]
    fn deadline_covers_reachability() {
        // A 16-bit counter's fixpoint takes 65,536 image steps; the
        // deadline is polled between them, so the run stops promptly with
        // the same partial report a deadline at the first candidate gives.
        let c = mct_gen::families::binary_counter(16, Time::from_f64(1.0));
        let started = std::time::Instant::now();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                time_budget_ms: Some(20),
                ..MctOptions::default()
            })
            .unwrap();
        assert!(report.timed_out, "{report:?}");
        assert_eq!(report.mct_upper_bound, report.steady_delay);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn generous_budget_unchanged() {
        let c = figure2();
        let opts = MctOptions {
            time_budget_ms: Some(60_000),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(!report.timed_out);
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9);
    }

    /// Kernel diagnostics are explicitly outside the deterministic report
    /// contract (a seeded run skips work, so its node counters differ):
    /// zero them before comparing.
    fn strip_kernel(mut r: MctReport) -> MctReport {
        r.kernel = Default::default();
        r
    }

    #[test]
    fn seeded_runs_match_cold_runs_across_options() {
        let c = figure2();
        let opts = MctOptions::default();
        let (cold, first) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        assert_eq!(first.cones_total, 1);
        let seeds: Vec<Option<&ConeCacheEntry>> =
            first.entries.iter().map(Option::as_ref).collect();
        assert!(seeds[0].is_some(), "one-cone circuits harvest too");

        // The same options replay every decision from the seed.
        let (warm, again) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &seeds)
            .unwrap();
        assert_eq!(again.cones_replayed, 1);
        let (cold, warm) = (strip_kernel(cold), strip_kernel(warm));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));

        // Different delay options share the key: the seed's reach set and
        // verdicts warm-start them, and the report is the cold one.
        let fixed = MctOptions::fixed_delays();
        assert_eq!(ConeCacheEntry::key(&opts), ConeCacheEntry::key(&fixed));
        let cold_fixed = strip_kernel(MctAnalyzer::new(&c).unwrap().run(&fixed).unwrap());
        let (warm_fixed, _) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&fixed, &seeds)
            .unwrap();
        assert_eq!(
            format!("{cold_fixed:?}"),
            format!("{:?}", strip_kernel(warm_fixed))
        );
    }

    /// A run seeded with its own harvest replays every cone to the same
    /// report. A harvest holds only the verdicts of the σ its run decided,
    /// so an exhaustive run from the same seeds decides the σ they lack and
    /// still reports what a cold exhaustive run does.
    #[test]
    fn seeded_runs_replay_their_own_harvest() {
        let suite = mct_gen::standard_suite();
        let mut circuits = vec![mct_gen::families::lfsr(12, &[5, 11], t(2.0))];
        for name in ["syn-s5378x", "syn-s15850x"] {
            let row = suite.iter().find(|e| e.circuit.name() == name);
            circuits.push(row.expect("suite row").circuit.clone());
        }
        let opts = MctOptions::paper();
        for c in &circuits {
            let name = c.name();
            let run = |opts: &MctOptions, seeds: &[Option<&ConeCacheEntry>]| {
                let (r, a) = MctAnalyzer::new(c)
                    .unwrap()
                    .run_decomposed(opts, seeds)
                    .unwrap();
                (strip_kernel(r), a)
            };
            let (cold, harvest) = run(&opts, &[]);
            let seeds: Vec<Option<&ConeCacheEntry>> =
                harvest.entries.iter().map(Option::as_ref).collect();
            let (warm, replay) = run(&opts, &seeds);
            assert_eq!(replay.cones_replayed, replay.cones_total, "{name}");
            assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{name}");

            let floor = MctOptions {
                exhaustive_floor: Some(cold.steady_delay / 2.0),
                ..opts.clone()
            };
            let (cold, _) = run(&floor, &[]);
            let (warm, a) = run(&floor, &seeds);
            assert!(a.cones_replayed < a.cones_total, "{name}: nothing decided");
            assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{name}");
        }
    }

    #[test]
    fn mvec_memo_hits_surface_in_kernel() {
        // Figure 2 is one cone whose projection of σ is σ itself, so the
        // cone memo answers exactly the decided σ that an earlier
        // candidate decided too.
        let c = figure2();
        let run = |opts: &MctOptions| {
            crate::sweep::TEST_SIGMA_DECIDED.set(0);
            let report = MctAnalyzer::new(&c).unwrap().run(opts).unwrap();
            (report, crate::sweep::TEST_SIGMA_DECIDED.get())
        };
        // A sweep that decides every σ it counts: every repeated σ is
        // answered by the memo and every memo answer is a repeat, so the
        // kernel counter equals the cache-hit count exactly.
        let (report, decided) = run(&MctOptions::default());
        assert_eq!(decided, report.sigma_checked as u64, "{report:?}");
        assert!(report.sigma_cache_hits > 0, "{report:?}");
        assert_eq!(
            report.kernel.mvec_memo_hits, report.sigma_cache_hits as u64,
            "{:?}",
            report.kernel
        );
        // An exhaustive sweep stops settled candidates early: the repeats
        // it skips are counted in closed form but never reach the memo.
        let (report, decided) = run(&MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        });
        assert!(decided < report.sigma_checked as u64, "{report:?}");
        assert!(report.kernel.mvec_memo_hits > 0, "{:?}", report.kernel);
        assert!(
            report.kernel.mvec_memo_hits <= report.sigma_cache_hits as u64,
            "{report:?}"
        );
    }

    /// A toggler with a static hazard behind a shared trunk: `x` feeds
    /// `y = x` (0.1) and `z = ¬x` (0.2), so `a = y ∧ z` is 0 in steady
    /// state. Under 90–100% variation the two classes' independent
    /// intervals overlap, so the closed form admits both shift orders, and
    /// either order glitches `a`. But `z`'s path is always the slower one,
    /// so the path-coupled LP proves the order that shifts `y` further
    /// unrealizable.
    fn hazard_trunk() -> Circuit {
        let mut c = Circuit::new("hazard_trunk");
        let q = c.add_dff("q", false, Time::ZERO);
        let x = c.add_gate("x", GateKind::Buf, &[q], t(4.0));
        let y = c.add_gate("y", GateKind::Buf, &[x], t(0.1));
        let z = c.add_gate("z", GateKind::Not, &[x], t(0.2));
        let a = c.add_gate("a", GateKind::And, &[y, z], Time::ZERO);
        let n = c.add_gate("n", GateKind::Not, &[q], t(1.0));
        let g = c.add_gate("g", GateKind::Or, &[a, n], Time::ZERO);
        c.connect_dff_data("q", g).unwrap();
        c.set_output(q);
        c
    }

    #[test]
    fn lp_drops_only_failing_sigma_and_counts_them() {
        let c = hazard_trunk();
        let closed_opts = MctOptions {
            exhaustive_floor: Some(0.5),
            ..MctOptions::default()
        };
        let lp_opts = MctOptions {
            path_coupled_lp: true,
            ..closed_opts.clone()
        };
        let run = |opts: &MctOptions| MctAnalyzer::new(&c).unwrap().run(opts).unwrap();
        let (closed, lp) = (run(&closed_opts), run(&lp_opts));
        // The LP proved some failing σ unrealizable and said so.
        assert!(lp.kernel.sigma_pruned > 0, "{:?}", lp.kernel);
        assert_eq!(closed.kernel.sigma_pruned, 0, "{:?}", closed.kernel);
        // Both sweeps examine every candidate and count every σ of Φ(τ).
        assert_eq!(lp.candidates_checked, closed.candidates_checked);
        assert_eq!(lp.sigma_checked, closed.sigma_checked);
        assert_eq!(lp.sigma_cache_hits, closed.sigma_cache_hits);
        // Dropping σ from Ω only turns regions valid and lowers the bound.
        assert!(lp.bound_exact <= closed.bound_exact, "{lp:?}");
        for (l, k) in lp.regions.iter().zip(&closed.regions) {
            assert_eq!((l.tau_lo, l.tau_hi), (k.tau_lo, k.tau_hi));
            assert!(l.valid || !k.valid, "{lp:?}");
        }
    }

    #[test]
    fn sigma_reuse_counter_populated() {
        // Plenty of distinct σ per candidate, and the output sink reads the
        // flip-flop at delay 0 under every σ ⇒ some sinks are answered by
        // their decision records without being extracted.
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.kernel.sigma_reused > 0, "{:?}", report.kernel);
    }

    #[test]
    fn reports_identical_across_ordering_policies() {
        let c = figure2();
        let base = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let run = |ordering| {
            strip_kernel(
                MctAnalyzer::new(&c)
                    .unwrap()
                    .run(&MctOptions {
                        ordering,
                        ..base.clone()
                    })
                    .unwrap(),
            )
        };
        let alloc = run(VarOrder::Alloc);
        let fixed = run(VarOrder::Static);
        assert_eq!(format!("{alloc:?}"), format!("{fixed:?}"));
    }

    #[test]
    fn kernel_diagnostics_populated() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!(report.kernel.nodes > 0, "{:?}", report.kernel);
        assert!(report.kernel.peak_nodes >= report.kernel.nodes);
        assert!(report.kernel.ops_cache_lookups > 0);
    }

    #[test]
    fn reachability_reported() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!(report.used_reachability);
        assert_eq!(report.reachable_states, Some(2.0));
    }
}
