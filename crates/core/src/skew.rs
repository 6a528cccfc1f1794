//! Per-register clock-skew optimization (the Fishburn formulation on top
//! of the TBF register model).
//!
//! The skewed model lets DFF `i` sample at `kT + s_i` instead of the
//! nominal edge. Every register-to-register path of raw delay `k` (source
//! clock-to-Q included) then has *effective* delay `k + s_source − s_sink`,
//! and the machine behaves like steady state at any period `T` that makes
//! every effective delay land in `(0, T]` — all shifts collapse to 1.
//! That structural condition is a system of difference constraints over
//! the skew vector:
//!
//! ```text
//! setup:  s_j − s_i ≤ T − k_max(j, i)        (longest raw path j → i)
//! hold:   s_i − s_j ≤ k_min(j, i)            (shortest, at its variation minimum)
//! bound:  |s_i| ≤ B                          (the --skew-bound magnitude cap)
//! ```
//!
//! with primary inputs and outputs clocked by a zero-skew environment
//! node. For a fixed `T` feasibility is a linear program (solved by the
//! workspace simplex, whose pivots surface as kernel counters); the tier
//! binary-searches the minimum feasible **integer-milli** period — skews
//! are annotated in the same fixed-point milli grid as every other delay,
//! and over integer skews the optimum is itself an integer — then
//! certifies the boundary exactly with an integer Bellman–Ford pass and
//! extracts the shortest-distance witness.
//!
//! The structural optimum ignores logical falsity (a never-sensitized
//! path still constrains it), so the reported skew-optimal bound is
//! `min(zero-skew MCT, MCT of the witness-annotated machine)` — the
//! witness machine is re-swept through the exact TBF analysis whenever
//! the LP period beats the zero-skew bound. Soundness: LP-feasible at `T`
//! ⇒ every effective delay ≤ `T` ⇒ every shift is 1 at τ ≥ `T` ⇒ the
//! skewed machine equals steady state there, so its true MCT can only be
//! smaller.

use crate::analyzer::{MctAnalyzer, MctOptions, MctReport};
use crate::error::MctError;
use mct_lp::{LpOutcome, Rat, Simplex};
use mct_netlist::{FsmView, SinkKind, Time};
use mct_tbf::ConeExtractor;
use std::collections::HashMap;

/// Result of the clock-skew optimization tier.
///
/// All fields are deterministic functions of the circuit and the semantic
/// options — the report is part of the bit-identity contract.
#[derive(Clone, PartialEq, Debug)]
pub struct SkewReport {
    /// Exact MCT upper bound of the machine with every skew forced to
    /// zero, in milli-units (reuses the main sweep when the circuit
    /// carries no annotations).
    pub zero_skew_bound: Rat,
    /// Exact MCT upper bound under the optimized skews, in milli-units:
    /// `min(zero_skew_bound, bound of the witness-annotated machine)`.
    pub optimal_bound: Rat,
    /// Minimum structurally feasible period found by the LP binary search,
    /// in milli-units (integer — see the module docs).
    pub lp_period_millis: i64,
    /// The certified skew witness, one entry per flip-flop in
    /// [`mct_netlist::Circuit::dffs`] order, in milli-units. All zeros
    /// when skewing cannot beat the zero-skew bound.
    pub witness_millis: Vec<i64>,
    /// Whether the optimal bound is strictly below the zero-skew bound.
    pub improved: bool,
    /// The magnitude cap `B` the search ran under, in milli-units.
    pub skew_bound_millis: i64,
}

/// One aggregated clock-graph edge: the longest and (variation-scaled)
/// shortest raw delays between a source and a capture clock node.
struct Hull {
    k_max: i64,
    k_min: i64,
}

/// Runs the tier and attaches its [`SkewReport`] (and LP kernel counters)
/// to `report`. Deterministic in `(view, opts, report.bound_exact)`, so
/// every slicing produces the identical attachment.
pub(crate) fn run_tier(
    view: &FsmView<'_>,
    opts: &MctOptions,
    report: &mut MctReport,
) -> Result<(), MctError> {
    let circuit = view.circuit();
    let num_regs = view.num_state_bits();

    // Zero-skew baseline: the main sweep already is it unless the circuit
    // carries annotations, in which case a zeroed clone is re-analyzed.
    let zero_skew_bound = if view.has_skew() {
        let mut zeroed = circuit.clone();
        for q in zeroed.dffs() {
            zeroed.set_dff_skew(q, Time::ZERO).expect("dff id");
        }
        let sub = MctAnalyzer::new(&zeroed)?.run(&sub_opts(opts))?;
        report.kernel.absorb(&sub.kernel);
        sub.bound_exact
    } else {
        report.bound_exact
    };

    // Aggregate per-(source, capture) raw-delay hulls from the per-sink
    // class walks. Clock node ids: 0..num_regs are the registers, the last
    // is the zero-skew environment (inputs and outputs).
    let env = num_regs;
    let extractor = ConeExtractor::new(view).with_node_limit(opts.cone_node_limit);
    let mut hulls: HashMap<(usize, usize), Hull> = HashMap::new();
    let mut t_floor = 1i64; // periods are positive; self-loops raise this
    for sink in view.sinks() {
        let snk = match sink.kind {
            SinkKind::NextState { index } => index,
            SinkKind::Output { .. } => env,
        };
        for class in extractor.delay_classes(&[sink.net])? {
            let src = if class.leaf < num_regs {
                class.leaf
            } else {
                env
            };
            let k_min = match opts.delay_variation {
                Some((num, den)) => (class.delay * num).div_euclid(den),
                None => class.delay,
            };
            if src == snk {
                // The skews cancel: the edge is a hard period floor.
                t_floor = t_floor.max(class.delay);
                continue;
            }
            hulls
                .entry((src, snk))
                .and_modify(|h| {
                    h.k_max = h.k_max.max(class.delay);
                    h.k_min = h.k_min.min(k_min);
                })
                .or_insert(Hull {
                    k_max: class.delay,
                    k_min,
                });
        }
    }
    let mut edges: Vec<(usize, usize, Hull)> =
        hulls.into_iter().map(|((s, k), h)| (s, k, h)).collect();
    edges.sort_by_key(|&(s, k, _)| (s, k));

    let structural_l = edges
        .iter()
        .map(|(_, _, h)| h.k_max)
        .max()
        .unwrap_or(0)
        .max(t_floor);
    let bound_b = match opts.skew_bound {
        Some(b) => (b * 1000.0).round() as i64,
        None => structural_l,
    }
    .max(0);

    if num_regs == 0 || edges.is_empty() {
        // Nothing to skew: the structural floor (combinational paths
        // through the environment) is the LP answer and the zero-skew
        // bound is already optimal.
        report.skew = Some(SkewReport {
            zero_skew_bound,
            optimal_bound: zero_skew_bound,
            lp_period_millis: t_floor.max(1),
            witness_millis: vec![0; num_regs],
            improved: false,
            skew_bound_millis: bound_b,
        });
        return Ok(());
    }

    // Binary search the minimum feasible integer period with the simplex
    // feasibility oracle, then certify the boundary exactly.
    let num_nodes = num_regs + 1;
    let mut pivots = 0u64;
    let mut cuts = 0u64;
    let mut probe = |t: i64| -> bool {
        let (feasible, p) = lp_feasible(t, num_nodes, env, bound_b, &edges);
        pivots += p;
        if !feasible {
            cuts += 1;
        }
        feasible
    };
    let mut t_star = if probe(t_floor) {
        t_floor
    } else {
        let (mut lo, mut hi) = (t_floor, structural_l);
        debug_assert!(probe(hi), "zero skew is feasible at the structural L");
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    // Exact certification (and f64 repair, if the oracle mis-bracketed):
    // feasible at t_star, infeasible at t_star − 1.
    while bf_feasible(t_star, num_nodes, env, bound_b, &edges).is_none() {
        t_star += 1;
    }
    while t_star > t_floor && bf_feasible(t_star - 1, num_nodes, env, bound_b, &edges).is_some() {
        t_star -= 1;
    }
    let witness =
        bf_feasible(t_star, num_nodes, env, bound_b, &edges).expect("certified feasible above");
    let witness: Vec<i64> = witness[..num_regs].to_vec();

    // Structural bound beats the zero-skew MCT? Re-sweep the witness
    // machine exactly; otherwise skewing cannot help (the LP period is an
    // upper bound on the witness machine's MCT, so a period at or above
    // the zero-skew bound proves nothing better).
    let mut optimal_bound = zero_skew_bound;
    let mut final_witness = vec![0i64; num_regs];
    if Rat::new(t_star, 1) < zero_skew_bound {
        let mut annotated = circuit.clone();
        for (q, &s) in annotated.dffs().into_iter().zip(&witness) {
            annotated
                .set_dff_skew(q, Time::from_millis(s))
                .expect("dff id");
        }
        let sub = MctAnalyzer::new(&annotated)?.run(&sub_opts(opts))?;
        report.kernel.absorb(&sub.kernel);
        if sub.bound_exact < zero_skew_bound {
            optimal_bound = sub.bound_exact;
            final_witness = witness;
        }
    }

    report.kernel.skew_lp_iterations += pivots;
    report.kernel.skew_lp_cuts += cuts;
    report.skew = Some(SkewReport {
        zero_skew_bound,
        optimal_bound,
        lp_period_millis: t_star,
        improved: optimal_bound < zero_skew_bound,
        witness_millis: final_witness,
        skew_bound_millis: bound_b,
    });
    Ok(())
}

/// The options the tier's sub-analyses (zeroed baseline, witness machine)
/// run under: same semantics, no recursion, no nondeterministic budget.
fn sub_opts(opts: &MctOptions) -> MctOptions {
    MctOptions {
        skew: false,
        exhaustive_floor: None,
        time_budget_ms: None,
        ..opts.clone()
    }
}

/// Simplex feasibility of the skew system at period `t`, plus the pivot
/// count. Variables are the shifted skews `s_i + B ∈ [0, 2B]` (the
/// environment pinned at `B`), so the difference rows carry over
/// unchanged.
fn lp_feasible(
    t: i64,
    num_nodes: usize,
    env: usize,
    bound_b: i64,
    edges: &[(usize, usize, Hull)],
) -> (bool, u64) {
    let mut lp = Simplex::new(num_nodes);
    let mut diff = |j: usize, i: usize, c: i64| {
        let mut row = vec![0.0; num_nodes];
        row[j] = 1.0;
        row[i] = -1.0;
        lp.add_le(&row, c as f64);
    };
    for &(src, snk, ref h) in edges {
        diff(src, snk, t - h.k_max); // setup
        diff(snk, src, h.k_min); // hold
    }
    for v in 0..num_nodes {
        if v == env {
            lp.add_bounds(v, bound_b as f64, bound_b as f64);
        } else {
            lp.add_bounds(v, 0.0, 2.0 * bound_b as f64);
        }
    }
    let (outcome, pivots) = lp.solve_counted();
    (matches!(outcome, LpOutcome::Optimal { .. }), pivots)
}

/// Exact feasibility of the skew system at period `t` by Bellmann-Ford
/// negative-cycle detection over the difference-constraint graph. Returns
/// the shortest-distance witness (normalized to a zero environment skew)
/// when feasible.
fn bf_feasible(
    t: i64,
    num_nodes: usize,
    env: usize,
    bound_b: i64,
    edges: &[(usize, usize, Hull)],
) -> Option<Vec<i64>> {
    // A constraint `s_to − s_from ≤ w` is the relaxation edge
    // `d_to ≤ d_from + w`.
    let mut rows: Vec<(usize, usize, i128)> = Vec::with_capacity(edges.len() * 2 + num_nodes * 2);
    for &(src, snk, ref h) in edges {
        rows.push((snk, src, (t - h.k_max) as i128)); // setup: s_src − s_snk ≤ t − k_max
        rows.push((src, snk, h.k_min as i128)); // hold: s_snk − s_src ≤ k_min
    }
    for v in 0..num_nodes {
        if v != env {
            rows.push((env, v, bound_b as i128)); // s_v − s_env ≤ B
            rows.push((v, env, bound_b as i128)); // s_env − s_v ≤ B
        }
    }
    // Virtual-source Bellman–Ford: all distances start at 0.
    let mut dist = vec![0i128; num_nodes];
    for _ in 0..num_nodes {
        let mut changed = false;
        for &(from, to, w) in &rows {
            if dist[from] + w < dist[to] {
                dist[to] = dist[from] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &(from, to, w) in &rows {
        if dist[from] + w < dist[to] {
            return None; // negative cycle: infeasible at this period
        }
    }
    let base = dist[env];
    Some(dist.iter().map(|&d| (d - base) as i64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{Circuit, GateKind};

    fn t(v: f64) -> Time {
        Time::from_f64(v)
    }

    /// Ring q0 −(NOT, 5)→ q1 −(BUF, 1)→ q0: zero-skew MCT is 5, but
    /// skewing q1 by +2 balances both paths at 3.
    fn unbalanced_ring() -> Circuit {
        let mut c = Circuit::new("unbalanced");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n1 = c.add_gate("n1", GateKind::Not, &[q0], t(5.0));
        let n0 = c.add_gate("n0", GateKind::Buf, &[q1], t(1.0));
        c.connect_dff_data("q1", n1).unwrap();
        c.connect_dff_data("q0", n0).unwrap();
        c.set_output(q0);
        c
    }

    fn skew_opts() -> MctOptions {
        MctOptions {
            skew: true,
            ..MctOptions::fixed_delays()
        }
    }

    #[test]
    fn unbalanced_ring_improves_by_exactly_two() {
        let c = unbalanced_ring();
        let report = MctAnalyzer::new(&c).unwrap().run(&skew_opts()).unwrap();
        let skew = report.skew.as_ref().expect("tier ran");
        assert_eq!(skew.zero_skew_bound, Rat::new(5000, 1), "{skew:?}");
        assert_eq!(skew.lp_period_millis, 3000);
        assert_eq!(skew.optimal_bound, Rat::new(3000, 1), "{skew:?}");
        assert!(skew.improved);
        // Witness balances the ring: s1 − s0 = 2.0.
        assert_eq!(skew.witness_millis.len(), 2);
        assert_eq!(skew.witness_millis[1] - skew.witness_millis[0], 2000);
        // Exact margin: 5 − 3 = 2 time units.
        let margin = skew.zero_skew_bound - skew.optimal_bound;
        assert_eq!(margin, Rat::new(2000, 1));
    }

    #[test]
    fn symmetric_ring_cannot_improve() {
        // Both paths already equal: skew moves one constraint up exactly as
        // much as it moves the other down.
        let mut c = Circuit::new("symmetric");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n1 = c.add_gate("n1", GateKind::Not, &[q0], t(3.0));
        let n0 = c.add_gate("n0", GateKind::Buf, &[q1], t(3.0));
        c.connect_dff_data("q1", n1).unwrap();
        c.connect_dff_data("q0", n0).unwrap();
        c.set_output(q0);
        let report = MctAnalyzer::new(&c).unwrap().run(&skew_opts()).unwrap();
        let skew = report.skew.as_ref().expect("tier ran");
        assert_eq!(skew.optimal_bound, skew.zero_skew_bound, "{skew:?}");
        assert!(!skew.improved);
        assert_eq!(skew.witness_millis, vec![0, 0]);
        assert_eq!(skew.lp_period_millis, 3000);
    }

    #[test]
    fn self_loop_floors_the_period() {
        // A register feeding itself: its own skew cancels, so no skew
        // assignment can beat the loop delay.
        let mut c = Circuit::new("selfloop");
        let q = c.add_dff("q", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q], t(4.0));
        c.connect_dff_data("q", nq).unwrap();
        c.set_output(q);
        let report = MctAnalyzer::new(&c).unwrap().run(&skew_opts()).unwrap();
        let skew = report.skew.as_ref().expect("tier ran");
        assert_eq!(skew.lp_period_millis, 4000);
        assert!(!skew.improved);
    }

    #[test]
    fn skew_bound_caps_the_gain() {
        // The unbalanced ring needs |s1| = 2.0 for the full gain; capping
        // at 1.0 only reaches T = 4 (paths 5 − 1 and 1 + 1 → max 4).
        let c = unbalanced_ring();
        let opts = MctOptions {
            skew_bound: Some(1.0),
            ..skew_opts()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        let skew = report.skew.as_ref().expect("tier ran");
        assert_eq!(skew.skew_bound_millis, 1000);
        assert_eq!(skew.lp_period_millis, 4000);
        assert_eq!(skew.optimal_bound, Rat::new(4000, 1), "{skew:?}");
    }

    #[test]
    fn annotated_circuit_reports_both_bounds() {
        // The witness pre-annotated by hand: the main sweep is the skewed
        // machine, the tier recovers the zero-skew baseline from a zeroed
        // clone, and the report's own bound matches the optimal one.
        let mut c = unbalanced_ring();
        let q1 = c.lookup("q1").unwrap();
        c.set_dff_skew(q1, t(2.0)).unwrap();
        let report = MctAnalyzer::new(&c).unwrap().run(&skew_opts()).unwrap();
        assert_eq!(report.bound_exact, Rat::new(3000, 1));
        let skew = report.skew.as_ref().expect("tier ran");
        assert_eq!(skew.zero_skew_bound, Rat::new(5000, 1));
        assert_eq!(skew.optimal_bound, Rat::new(3000, 1));
        assert!(skew.improved);
    }

    #[test]
    fn hold_violating_annotation_rejected() {
        // Skewing q1 by +6 makes the 5-delay path's effective delay −1.
        let mut c = unbalanced_ring();
        let q1 = c.lookup("q1").unwrap();
        c.set_dff_skew(q1, t(6.0)).unwrap();
        let err = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap_err();
        assert!(matches!(err, MctError::SkewHoldViolation { .. }), "{err:?}");
    }

    #[test]
    fn kernel_counters_populated() {
        let c = unbalanced_ring();
        let report = MctAnalyzer::new(&c).unwrap().run(&skew_opts()).unwrap();
        assert!(report.kernel.skew_lp_iterations > 0, "{:?}", report.kernel);
        assert!(report.kernel.skew_lp_cuts > 0, "{:?}", report.kernel);
    }
}
