//! The *exact* equivalence check of Section 6: product-machine reachability.
//!
//! The paper notes that deciding `y(n, τ) = y(n, L)` for all `n` is exactly
//! machine equivalence, and adopts the state sufficient condition `C_x`
//! because explicit minimization "takes too much memory for most practical
//! circuits". With BDDs a symbolic product construction is affordable for
//! the smaller machines: the discretized machine at period `τ` becomes an
//! ordinary FSM over an *expanded* state — the last `m` state vectors and
//! the last `m_u − 1` input vectors — running in lockstep with the
//! steady-state machine on shared fresh inputs. The period is valid **iff**
//! no reachable product state distinguishes any primary output.
//!
//! Unlike `C_x`, this accepts machines whose perturbed state sequence is
//! merely *output-equivalent* to the steady one (e.g. a lagging register
//! that no output observes), and it subsumes the reachability restriction:
//! the product reachable set *is* the exact set of sequential don't-cares.
//!
//! The expanded state has `ns·m + np·(m_u − 1) + ns` bits, so the check is
//! gated by a configurable bit budget.

use crate::decision::DecisionOutcome;
use crate::error::MctError;
use mct_bdd::{Bdd, BddManager, Var};
use mct_netlist::FsmView;
use mct_tbf::{DiscreteMachine, Image, TimedVar, TimedVarTable};

/// Runs the exact product-machine equivalence check for one discretized
/// machine against the steady-state machine.
///
/// Returns [`DecisionOutcome::Valid`] iff the sampled I/O behaviour at this
/// shift assignment equals steady-state behaviour from the circuit's
/// initial state for *every* input sequence (pre-initial input history is
/// adversarial).
///
/// # Errors
///
/// [`MctError::ProductTooLarge`] when the expanded product state exceeds
/// `max_product_bits`.
pub fn decide_exact(
    view: &FsmView<'_>,
    manager: &mut BddManager,
    table: &mut TimedVarTable,
    machine: &DiscreteMachine,
    steady: &DiscreteMachine,
    max_product_bits: usize,
) -> Result<DecisionOutcome, MctError> {
    decide_exact_detail(view, manager, table, machine, steady, max_product_bits)
        .map(|run| run.outcome)
}

/// One exact product check: the outcome plus the fixpoint iteration at
/// which divergence first became reachable.
///
/// The iteration index makes per-cone exact verdicts mergeable: the
/// whole machine's check reports the lowest-indexed diverging output of the
/// *earliest* diverging fixpoint frontier, so the recombined diagnostic
/// must order cone verdicts by `(bad_iteration, parent output index)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExactRun {
    /// The equivalence verdict.
    pub outcome: DecisionOutcome,
    /// Fixpoint iteration (0 = the initial set, before any image) at which
    /// the diverging output became reachable; `None` when valid.
    pub bad_iteration: Option<u64>,
}

/// History depths (`m_state`, `m_input`) referenced by a machine's
/// supports, as used for the product-state layout and the bit budget.
///
/// # Errors
///
/// [`MctError::UnsupportedMachineVar`] on any non-`Shifted` variable.
pub(crate) fn history_depths(
    ns: usize,
    manager: &mut BddManager,
    table: &TimedVarTable,
    machine: &DiscreteMachine,
) -> Result<(i64, i64), MctError> {
    let mut m_state = 1i64;
    let mut m_input = 1i64;
    for &f in machine.next_state.iter().chain(&machine.outputs) {
        for v in manager.support(f) {
            match table.timed_var(v) {
                Some(TimedVar::Shifted { leaf, shift }) if leaf < ns => {
                    m_state = m_state.max(shift);
                }
                Some(TimedVar::Shifted { shift, .. }) => {
                    m_input = m_input.max(shift);
                }
                other => {
                    return Err(MctError::UnsupportedMachineVar {
                        var: format!("{other:?}"),
                    })
                }
            }
        }
    }
    Ok((m_state, m_input))
}

/// The product-state width for given leaf counts and history depths.
pub(crate) fn product_bits(ns: usize, np: usize, m_state: i64, m_input: i64) -> usize {
    ns * m_state as usize + np * (m_input as usize - 1) + ns
}

pub(crate) fn decide_exact_detail(
    view: &FsmView<'_>,
    manager: &mut BddManager,
    table: &mut TimedVarTable,
    machine: &DiscreteMachine,
    steady: &DiscreteMachine,
    max_product_bits: usize,
) -> Result<ExactRun, MctError> {
    let ns = view.num_state_bits();
    let np = view.num_input_bits();
    let init = view.circuit().initial_state();

    // History depths actually referenced by the machine.
    let (m_state, m_input) = history_depths(ns, manager, table, machine)?;
    let bits = product_bits(ns, np, m_state, m_input);
    if bits > max_product_bits {
        return Err(MctError::ProductTooLarge {
            bits,
            cap: max_product_bits,
        });
    }

    // Current-state variable layout (all already in the machine's own
    // coordinates, so the machine BDDs need no re-mapping):
    //   state history slot  (ℓ, d), d ∈ 1..=m_state  ↦ Shifted{ℓ, d}
    //   input history slot  (ℓ, d), d ∈ 2..=m_input  ↦ Shifted{ℓ, d}
    //   steady copy x̂(n−1)                            ↦ Shifted{state ℓ, 0}
    //   fresh input w = u(n−1)                        ↦ Shifted{input ℓ, 1}
    #[derive(Clone, Copy)]
    struct Slot {
        leaf: usize,
        depth: i64,
        /// Whether this is the steady-machine copy (depth 0 state slots).
        current: TimedVar,
    }
    let mut slots: Vec<Slot> = Vec::new();
    for leaf in 0..ns {
        for depth in 1..=m_state {
            slots.push(Slot {
                leaf,
                depth,
                current: TimedVar::Shifted { leaf, shift: depth },
            });
        }
    }
    for leaf in ns..ns + np {
        for depth in 2..=m_input {
            slots.push(Slot {
                leaf,
                depth,
                current: TimedVar::Shifted { leaf, shift: depth },
            });
        }
    }
    for leaf in 0..ns {
        slots.push(Slot {
            leaf,
            depth: 0,
            current: TimedVar::Shifted { leaf, shift: 0 },
        });
    }

    // The steady machine's functions re-based onto the x̂ copy variables.
    let steady_remap: Vec<(Var, Bdd)> = (0..ns)
        .map(|leaf| {
            let from = table.var(TimedVar::Shifted { leaf, shift: 1 });
            let to = table.var(TimedVar::Shifted { leaf, shift: 0 });
            let g = manager.var(to);
            (from, g)
        })
        .collect();
    let steady_next: Vec<Bdd> = steady
        .next_state
        .iter()
        .map(|&f| manager.vector_compose(f, &steady_remap))
        .collect();
    let steady_out: Vec<Bdd> = steady
        .outputs
        .iter()
        .map(|&f| manager.vector_compose(f, &steady_remap))
        .collect();

    // Next-value function of every slot, over current vars + fresh inputs.
    let next_fn = |manager: &mut BddManager, table: &mut TimedVarTable, slot: &Slot| -> Bdd {
        if slot.depth == 0 {
            steady_next[slot.leaf]
        } else if slot.depth == 1 {
            debug_assert!(slot.leaf < ns);
            machine.next_state[slot.leaf]
        } else if slot.leaf < ns {
            let v = table.var(TimedVar::Shifted {
                leaf: slot.leaf,
                shift: slot.depth - 1,
            });
            manager.var(v)
        } else {
            // Input history: slot d receives u one cycle fresher; d = 2
            // receives the fresh input itself.
            let v = table.var(TimedVar::Shifted {
                leaf: slot.leaf,
                shift: slot.depth - 1,
            });
            manager.var(v)
        }
    };

    // The product's image operator. Current variables are the slots'
    // own coordinates; a step also quantifies the fresh inputs.
    let mut bits: Vec<(Var, Bdd, Var)> = Vec::with_capacity(slots.len());
    for slot in &slots {
        let primed = table.var(TimedVar::Primed {
            leaf: slot.leaf,
            depth: slot.depth,
        });
        let f = next_fn(manager, table, slot);
        bits.push((primed, f, table.var(slot.current)));
    }
    let fresh: Vec<Var> = (ns..ns + np)
        .map(|leaf| table.var(TimedVar::Shifted { leaf, shift: 1 }))
        .collect();
    let mut image = Image::new(manager, &bits, &fresh);

    // Initial set: every state-history slot and the steady copy hold the
    // initial values; input-history slots are adversarial (free).
    let mut reached = manager.one();
    for (slot, &(_, _, cur)) in slots.iter().zip(&bits) {
        if slot.leaf < ns {
            let lit = manager.literal(cur, init[slot.leaf]);
            reached = manager.and(reached, lit);
        }
    }

    // The output-divergence condition over (product state, fresh input).
    // Per-output diffs are kept so the diagnostic path below reuses them
    // instead of re-deriving each with a second xor pass.
    let mut divergence = manager.zero();
    let mut output_diffs: Vec<Bdd> = Vec::with_capacity(machine.outputs.len());
    for (&yt, &ys) in machine.outputs.iter().zip(&steady_out) {
        let diff = manager.xor(yt, ys);
        divergence = manager.or(divergence, diff);
        output_diffs.push(diff);
    }

    // Least fixpoint, checking divergence as the frontier grows so failing
    // periods exit early.
    let mut iteration = 0u64;
    loop {
        let bad = manager.and(reached, divergence);
        if !bad.is_false() {
            // Identify the concrete diverging output for diagnostics. A
            // globally diverging output is not necessarily *reachably*
            // diverging, so each diff is re-checked against the frontier.
            for (i, &diff) in output_diffs.iter().enumerate() {
                let hit = manager.and(reached, diff);
                if !hit.is_false() {
                    return Ok(ExactRun {
                        outcome: DecisionOutcome::InductionOutputMismatch { output: i },
                        bad_iteration: Some(iteration),
                    });
                }
            }
            unreachable!("divergence is the disjunction of per-output diffs");
        }
        let img = image.step(manager, reached);
        let new_reached = manager.or(reached, img);
        if new_reached == reached {
            return Ok(ExactRun {
                outcome: DecisionOutcome::Valid,
                bad_iteration: None,
            });
        }
        reached = new_reached;
        iteration += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{Circuit, GateKind, Time};
    use mct_tbf::ConeExtractor;

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

    fn run_exact(circuit: &Circuit, tau_millis: i64) -> DecisionOutcome {
        let view = FsmView::new(circuit).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| {
            if k == 0 {
                1
            } else {
                (k + tau_millis - 1) / tau_millis
            }
        })
        .unwrap();
        decide_exact(&view, &mut m, &mut tbl, &machine, &steady, 64).unwrap()
    }

    #[test]
    fn figure2_exact_agrees_with_cx() {
        assert!(run_exact(&figure2(), 4000).is_valid());
        assert!(run_exact(&figure2(), 2500).is_valid());
        // The failing period must keep reporting the same diverging output:
        // fig2's single output is index 0, and the diagnostic path derives
        // the index from the cached per-output diffs.
        assert_eq!(
            run_exact(&figure2(), 2000),
            DecisionOutcome::InductionOutputMismatch { output: 0 }
        );
    }

    #[test]
    fn non_shifted_machine_var_is_a_structured_error() {
        // A machine that (incorrectly) references an `Absolute` variable
        // must produce `UnsupportedMachineVar`, not a panic.
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        let mut machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, _| 1).unwrap();
        let rogue = tbl.var(TimedVar::Absolute { leaf: 0, cycle: 3 });
        machine.next_state[0] = m.var(rogue);
        let err = decide_exact(&view, &mut m, &mut tbl, &machine, &steady, 64);
        match err {
            Err(MctError::UnsupportedMachineVar { var }) => {
                assert!(var.contains("Absolute"), "got {var}");
            }
            other => panic!("expected UnsupportedMachineVar, got {other:?}"),
        }
    }

    #[test]
    fn unobserved_lagging_register_accepted_only_by_exact() {
        // q0 is a toggler driving the only output; q1 shadows q0 through a
        // slow buffer and feeds nothing. At τ below the slow delay q1 lags —
        // a *state* mismatch that no output can see: the sufficient
        // condition C_x rejects, the exact check accepts.
        let mut c = Circuit::new("shadow");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let _q1 = c.add_dff("q1", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q0], t(1.0));
        let slow = c.add_gate("slow", GateKind::Buf, &[q0], t(5.0));
        c.connect_dff_data("q0", nq).unwrap();
        c.connect_dff_data("q1", slow).unwrap();
        c.set_output(q0);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        // τ = 3: the q0 loop (delay 1) keeps shift 1, the shadow path
        // (delay 5) gets shift 2.
        let machine =
            DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| (k + 2999) / 3000)
                .unwrap();
        let ctx = crate::decision::DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        assert!(
            !ctx.decide(&mut m, &mut tbl, &machine).is_valid(),
            "C_x must conservatively reject the lagging shadow register"
        );
        let exact = decide_exact(&view, &mut m, &mut tbl, &machine, &steady, 64).unwrap();
        assert!(
            exact.is_valid(),
            "the exact check must accept: no output observes q1, got {exact:?}"
        );
    }

    #[test]
    fn exact_rejects_observable_lag() {
        // Same shadow machine but with q1 exposed as an output: now the lag
        // is observable and even the exact check must reject.
        let mut c = Circuit::new("shadow_out");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q0], t(1.0));
        let slow = c.add_gate("slow", GateKind::Buf, &[q0], t(5.0));
        c.connect_dff_data("q0", nq).unwrap();
        c.connect_dff_data("q1", slow).unwrap();
        c.set_output(q0);
        c.set_output(q1);
        let _ = q1;
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        let machine =
            DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| (k + 2999) / 3000)
                .unwrap();
        let exact = decide_exact(&view, &mut m, &mut tbl, &machine, &steady, 64).unwrap();
        assert!(!exact.is_valid());
    }

    #[test]
    fn product_bit_budget_enforced() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| {
            if k == 0 {
                1
            } else {
                (k + 1999) / 2000
            }
        })
        .unwrap();
        let err = decide_exact(&view, &mut m, &mut tbl, &machine, &steady, 2);
        assert!(matches!(err, Err(MctError::ProductTooLarge { .. })));
    }

    #[test]
    fn input_driven_machine_exact() {
        // q' = q XOR a: reading the input two cycles late is observable.
        let mut c = Circuit::new("xorin");
        let a = c.add_input("a");
        let q = c.add_dff("q", false, Time::ZERO);
        let nx = c.add_gate("nx", GateKind::Xor, &[q, a], t(1.0));
        c.connect_dff_data("q", nx).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let steady = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        let ok = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, _| 1).unwrap();
        assert!(decide_exact(&view, &mut m, &mut tbl, &ok, &steady, 64)
            .unwrap()
            .is_valid());
        let late = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, _| 2).unwrap();
        assert!(!decide_exact(&view, &mut m, &mut tbl, &late, &steady, 64)
            .unwrap()
            .is_valid());
    }
}
