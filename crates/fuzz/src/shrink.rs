//! Delta-debugging shrinker: reduce a failing circuit while preserving the
//! failure predicate.
//!
//! The shrinker runs greedy passes to a fixpoint (or an evaluation budget,
//! or a wall-clock deadline):
//! splice gates out of the network, convert flip-flops to primary inputs,
//! drop gate input pins, and snap delays to whole time units. Each edit is
//! kept only if the candidate still satisfies the predicate, so the result
//! is 1-minimal with respect to the edit set — removing any single
//! remaining node loses the failure.

use std::time::Instant;

use mct_netlist::Circuit;

use crate::edit::{apply_plan, EditPlan};

/// Outcome of a shrink run.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The reduced circuit (still satisfies the predicate).
    pub circuit: Circuit,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Accepted edits.
    pub steps: usize,
    /// The deadline passed before the passes reached their fixpoint:
    /// `circuit` is the smallest failing circuit found by then.
    pub cut_short: bool,
}

/// Shrinks `circuit` under `predicate` (`true` = still failing), spending at
/// most `max_evals` predicate evaluations and starting none after
/// `deadline`. `circuit` itself must satisfy the predicate for the result
/// to be meaningful.
pub fn shrink(
    circuit: &Circuit,
    predicate: impl Fn(&Circuit) -> bool,
    max_evals: usize,
    deadline: Option<Instant>,
) -> ShrinkOutcome {
    let mut current = circuit.clone();
    let mut evals = 0usize;
    let mut steps = 0usize;
    let mut cut_short = false;

    let mut try_plan =
        |current: &mut Circuit, plan: &EditPlan, evals: &mut usize, steps: &mut usize| -> bool {
            if *evals >= max_evals || cut_short {
                return false;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                cut_short = true;
                return false;
            }
            let Some(candidate) = apply_plan(current, plan) else {
                return false;
            };
            // An edit that removes nothing (e.g. splicing an unreferenced
            // gate's only use is the output list) can still change the circuit;
            // require real progress to guarantee termination.
            if candidate.num_nodes() >= current.num_nodes() && !plan.snap_delays {
                return false;
            }
            *evals += 1;
            if predicate(&candidate) {
                *current = candidate;
                *steps += 1;
                true
            } else {
                false
            }
        };

    loop {
        let mut progressed = false;

        // Pass 1: splice gates, last-declared first (removing a sink frees
        // its fan-in cone for later passes).
        let mut idx = current.gates().len();
        while idx > 0 {
            idx -= 1;
            let gates = current.gates();
            let Some(&victim) = gates.get(idx) else {
                continue;
            };
            let plan = EditPlan {
                splice: [victim.index()].into(),
                ..EditPlan::default()
            };
            progressed |= try_plan(&mut current, &plan, &mut evals, &mut steps);
        }

        // Pass 2: convert flip-flops into primary inputs.
        let mut idx = current.dffs().len();
        while idx > 0 {
            idx -= 1;
            let dffs = current.dffs();
            let Some(&victim) = dffs.get(idx) else {
                continue;
            };
            let plan = EditPlan {
                inputize: [victim.index()].into(),
                ..EditPlan::default()
            };
            progressed |= try_plan(&mut current, &plan, &mut evals, &mut steps);
        }

        // Pass 3: drop gate input pins (beyond the first).
        let mut gidx = current.gates().len();
        while gidx > 0 {
            gidx -= 1;
            let fanin = {
                let gates = current.gates();
                let Some(&gate) = gates.get(gidx) else {
                    continue;
                };
                match current.node(gate) {
                    mct_netlist::Node::Gate { inputs, .. } => inputs.len(),
                    _ => continue,
                }
            };
            for pin in (1..fanin).rev() {
                // Re-resolve by position: an accepted edit rebuilds the
                // circuit and invalidates previously fetched ids.
                let gates = current.gates();
                let Some(&gate) = gates.get(gidx) else {
                    break;
                };
                let fanin_now = match current.node(gate) {
                    mct_netlist::Node::Gate { inputs, .. } => inputs.len(),
                    _ => break,
                };
                if pin >= fanin_now {
                    continue;
                }
                let plan = EditPlan {
                    drop_pins: [(gate.index(), vec![pin])].into(),
                    ..EditPlan::default()
                };
                progressed |= try_plan(&mut current, &plan, &mut evals, &mut steps);
            }
        }

        if evals >= max_evals || !progressed || deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
    }

    // Final cosmetic pass: whole-unit delays read better in repro files.
    let snap = EditPlan {
        snap_delays: true,
        ..EditPlan::default()
    };
    try_plan(&mut current, &snap, &mut evals, &mut steps);

    ShrinkOutcome {
        circuit: current,
        evals,
        steps,
        cut_short,
    }
}
