//! Symbolic reachability over the functional machine.
//!
//! The paper lists the reachable state space, initial states, and
//! unrealizable transitions among the sequential don't-cares that
//! combinational delay metrics ignore. This module computes the reachable
//! set `R` of a circuit by the standard BDD least-fixpoint image iteration;
//! analyses then restrict their equality checks to `R`.

use crate::error::TbfError;
use crate::extract::ConeExtractor;
use crate::image::Image;
use crate::vars::{TimedVar, TimedVarTable};
use mct_bdd::{Bdd, BddManager};

/// The set of states reachable from the circuit's initial state, as a BDD
/// over the current-state variables `TimedVar::Shifted { leaf, shift: 0 }`.
///
/// A least fixpoint of [`Image`] steps over the whole machine, the same
/// image engine the sliced sweep and the exact check step through. Each
/// step images the reached set; between steps the collector may run, with
/// the image's relation and the reached set as its roots. Returns the
/// constant-true BDD for a machine with no flip-flops.
///
/// # Errors
///
/// Propagates [`TbfError::ConeExplosion`] from cone extraction.
///
/// # Examples
///
/// ```
/// use mct_bdd::BddManager;
/// use mct_netlist::{Circuit, FsmView, GateKind, Time};
/// use mct_tbf::{reachable_states, ConeExtractor, TimedVarTable};
///
/// // A 2-bit one-hot-ish machine: q1' = q0, q0' = ¬q1; from state 00 it
/// // cycles 00 → 10 → 11 → 01 → 00: all four states reachable.
/// let mut c = Circuit::new("cycle");
/// let q0 = c.add_dff("q0", false, Time::ZERO);
/// let q1 = c.add_dff("q1", false, Time::ZERO);
/// let n0 = c.add_gate("n0", GateKind::Not, &[q1], Time::UNIT);
/// let b1 = c.add_gate("b1", GateKind::Buf, &[q0], Time::UNIT);
/// c.connect_dff_data("q0", n0).unwrap();
/// c.connect_dff_data("q1", b1).unwrap();
/// c.set_output(q0);
/// let view = FsmView::new(&c).unwrap();
/// let ex = ConeExtractor::new(&view);
/// let mut m = BddManager::new();
/// let mut tbl = TimedVarTable::new();
/// let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
/// assert!(r.is_true());
/// ```
pub fn reachable_states(
    extractor: &ConeExtractor<'_>,
    manager: &mut BddManager,
    table: &mut TimedVarTable,
) -> Result<Bdd, TbfError> {
    let view = extractor.view();
    if view.num_state_bits() == 0 {
        return Ok(manager.one());
    }
    let mut image = Image::functional(extractor, manager, table)?;
    let mut reached = manager.one();
    for (leaf, v) in view.circuit().initial_state().into_iter().enumerate() {
        let lit = manager.literal(table.var(TimedVar::Shifted { leaf, shift: 0 }), v);
        reached = manager.and(reached, lit);
    }
    loop {
        let img = image.step(manager, reached);
        let new_reached = manager.or(reached, img);
        if new_reached == reached {
            return Ok(reached);
        }
        reached = new_reached;
        manager.maybe_collect_garbage(&[image.relation(), reached]);
    }
}

/// Counts the states in a reachable-set BDD over `num_state` state bits.
pub fn count_states(manager: &BddManager, reached: Bdd, num_state: usize) -> f64 {
    // `sat_fraction_of` is the exact fraction of the assignment space
    // independent of which variables appear, so scaling by 2^bits counts
    // states as long as the set's support is within the state bits (true
    // for the output of `reachable_states`).
    manager.sat_fraction_of(reached) * 2f64.powi(num_state as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_bdd::Var;
    use mct_netlist::{Circuit, FsmView, GateKind, Time};

    /// A 3-bit one-hot ring counter starting at 100: only 3 of 8 states are
    /// reachable.
    fn ring3() -> Circuit {
        let mut c = Circuit::new("ring3");
        let q0 = c.add_dff("q0", true, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let q2 = c.add_dff("q2", false, Time::ZERO);
        let b0 = c.add_gate("b0", GateKind::Buf, &[q2], Time::UNIT);
        let b1 = c.add_gate("b1", GateKind::Buf, &[q0], Time::UNIT);
        let b2 = c.add_gate("b2", GateKind::Buf, &[q1], Time::UNIT);
        c.connect_dff_data("q0", b0).unwrap();
        c.connect_dff_data("q1", b1).unwrap();
        c.connect_dff_data("q2", b2).unwrap();
        c.set_output(q2);
        c
    }

    #[test]
    fn ring_counter_reaches_three_states() {
        let c = ring3();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
        assert!(!r.is_true());
        assert_eq!(count_states(&m, r, 3) as u64, 3);
        // The initial state 100 is in R; the dead state 000 is not.
        let in_set = |bits: [bool; 3]| {
            m.eval(r, |v: Var| match tbl.timed_var(v) {
                Some(TimedVar::Shifted { leaf, shift: 0 }) => bits[leaf],
                _ => false,
            })
        };
        assert!(in_set([true, false, false]));
        assert!(!in_set([false, false, false]));
        assert!(!in_set([true, true, false]));
    }

    #[test]
    fn toggler_reaches_both_states() {
        let mut c = Circuit::new("t");
        let q = c.add_dff("q", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q], Time::UNIT);
        c.connect_dff_data("q", nq).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
        assert!(r.is_true());
    }

    #[test]
    fn stuck_machine_reaches_closure_of_init() {
        // q' = q: only the initial state is reachable.
        let mut c = Circuit::new("stuck");
        let q = c.add_dff("q", true, Time::ZERO);
        let b = c.add_gate("b", GateKind::Buf, &[q], Time::UNIT);
        c.connect_dff_data("q", b).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
        assert_eq!(count_states(&m, r, 1) as u64, 1);
    }

    #[test]
    fn input_driven_machine() {
        // q' = q XOR a: both states reachable thanks to the free input.
        let mut c = Circuit::new("xorin");
        let a = c.add_input("a");
        let q = c.add_dff("q", false, Time::ZERO);
        let nx = c.add_gate("nx", GateKind::Xor, &[q, a], Time::UNIT);
        c.connect_dff_data("q", nx).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
        assert!(r.is_true());
    }

    #[test]
    fn no_state_machine_is_trivially_true() {
        let mut c = Circuit::new("compute");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a], Time::UNIT);
        c.set_output(g);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let r = reachable_states(&ex, &mut m, &mut tbl).unwrap();
        assert!(r.is_true());
    }
}
