//! Decision Algorithm 6.1: is a candidate clock period valid?
//!
//! Given the machine discretized at period `τ` —
//! `x(n) = g(…, x(n − m_i), …, u(n − m_j), …)` — and the steady-state
//! machine `x̂(n) = g(…, x̂(n − 1), …, u(n − 1), …)`, the period is accepted
//! if the *state sufficient condition* `C_x` holds:
//!
//! 1. `x(n, τ) = x(n, L)` for all `n`, and
//! 2. `y(n, τ) = y(n, L)` for all `n`.
//!
//! Following the paper, each is checked by induction on `n` with
//! `m = max m_i`:
//!
//! * **Basis** (`1 ≤ n ≤ m`): unroll both machines from the initial state —
//!   references to cycles `≤ 0` read the initial values, references to
//!   input cycles become free variables — and compare BDDs cycle by cycle.
//! * **Step**: assume equality below `n`; replace `x(n − m_i)` by
//!   `x̂(n − m_i)`, then iteratively substitute
//!   `x̂(n) = g(x̂(n−1), u(n−1))` until every argument is expressed over the
//!   frontier state `x̂(n − m)` and the inputs in between; the BDDs are
//!   equal iff the condition holds for all `n`.
//!
//! The check is *sufficient*: a machine whose perturbed state sequence is
//! merely output-equivalent to the steady one is conservatively rejected
//! (the paper makes the same trade, Definition 3).
//!
//! As an extension, the induction frontier may be restricted to a set of
//! states (typically the reachable set): equality then only needs to hold
//! where the machine can actually be — the paper's "reachable state space
//! and unrealizable transitions" don't-cares.

use crate::error::MctError;
use mct_bdd::{Bdd, BddManager, CompactMap, Var};
use mct_netlist::FsmView;
use mct_tbf::{ConeExtractor, DiscreteMachine, TimedVar, TimedVarTable};

/// Where a rejected period first diverged from steady-state behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecisionOutcome {
    /// The period is valid (the state sufficient condition `C_x` holds).
    Valid,
    /// Startup divergence: state bit `bit` differs at absolute cycle
    /// `cycle` when both machines run from the initial state.
    BasisStateMismatch {
        /// Absolute cycle (`1 ≤ cycle ≤ m`).
        cycle: i64,
        /// Index of the differing state bit.
        bit: usize,
    },
    /// Startup divergence on primary output `output` at `cycle`.
    BasisOutputMismatch {
        /// Absolute cycle (`1 ≤ cycle ≤ m`).
        cycle: i64,
        /// Index of the differing output.
        output: usize,
    },
    /// Steady-state divergence of state bit `bit` (induction step failed).
    InductionStateMismatch {
        /// Index of the differing state bit.
        bit: usize,
    },
    /// Steady-state divergence of output `output`.
    InductionOutputMismatch {
        /// Index of the differing output.
        output: usize,
    },
}

impl DecisionOutcome {
    /// Whether the candidate period was accepted.
    pub fn is_valid(self) -> bool {
        matches!(self, DecisionOutcome::Valid)
    }

    /// Decomposes the outcome into `(kind, cycle, index)` for stable
    /// serialization: `kind` is one of `"valid"`, `"basis_state"`,
    /// `"basis_output"`, `"induction_state"`, `"induction_output"`; `cycle`
    /// is present for the basis variants; `index` is the state bit or
    /// output index for the mismatch variants.
    pub fn parts(self) -> (&'static str, Option<i64>, Option<usize>) {
        match self {
            DecisionOutcome::Valid => ("valid", None, None),
            DecisionOutcome::BasisStateMismatch { cycle, bit } => {
                ("basis_state", Some(cycle), Some(bit))
            }
            DecisionOutcome::BasisOutputMismatch { cycle, output } => {
                ("basis_output", Some(cycle), Some(output))
            }
            DecisionOutcome::InductionStateMismatch { bit } => ("induction_state", None, Some(bit)),
            DecisionOutcome::InductionOutputMismatch { output } => {
                ("induction_output", None, Some(output))
            }
        }
    }

    /// Reassembles an outcome from the [`parts`](Self::parts) encoding.
    /// Returns `None` for an unknown kind or missing fields.
    pub fn from_parts(kind: &str, cycle: Option<i64>, index: Option<usize>) -> Option<Self> {
        match kind {
            "valid" => Some(DecisionOutcome::Valid),
            "basis_state" => Some(DecisionOutcome::BasisStateMismatch {
                cycle: cycle?,
                bit: index?,
            }),
            "basis_output" => Some(DecisionOutcome::BasisOutputMismatch {
                cycle: cycle?,
                output: index?,
            }),
            "induction_state" => Some(DecisionOutcome::InductionStateMismatch { bit: index? }),
            "induction_output" => Some(DecisionOutcome::InductionOutputMismatch { output: index? }),
            _ => None,
        }
    }
}

/// Reusable state for running the decision algorithm at many candidate
/// periods of one circuit: the steady-state machine, the initial state, and
/// an optional frontier restriction.
pub struct DecisionContext<'c> {
    view: &'c FsmView<'c>,
    steady: DiscreteMachine,
    init: Vec<bool>,
    restriction: Option<Bdd>,
}

impl<'c> DecisionContext<'c> {
    /// Builds the context (extracts the steady-state machine).
    ///
    /// # Errors
    ///
    /// Propagates extraction failures.
    pub fn new(
        extractor: &ConeExtractor<'c>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
    ) -> Result<Self, MctError> {
        let view = extractor.view();
        let steady = DiscreteMachine::steady_state(extractor, manager, table)?;
        // The steady machine lives for the whole sweep; pin it so garbage
        // collections (inside the reachability fixpoint, between sweep
        // candidates) never reclaim it.
        for &f in steady.next_state.iter().chain(&steady.outputs) {
            manager.protect(f);
        }
        let init = view.circuit().initial_state();
        Ok(DecisionContext {
            view,
            steady,
            init,
            restriction: None,
        })
    }

    /// Handles that must survive a garbage collection run between sweep
    /// candidates: the steady machine (also pinned at construction) and the
    /// frontier restriction.
    pub fn gc_roots(&self) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> =
            Vec::with_capacity(self.steady.next_state.len() + self.steady.outputs.len() + 1);
        roots.extend(&self.steady.next_state);
        roots.extend(&self.steady.outputs);
        roots.extend(self.restriction);
        roots
    }

    /// Rewrites every held handle through a compaction `map` (see
    /// [`BddManager::compact`]). Must be called — with the same manager's
    /// map — immediately after any compaction while this context is live;
    /// the manager remaps its own pin table, but the handle *copies* held
    /// here go stale without this.
    pub fn rebind(&mut self, map: &CompactMap) {
        for f in self
            .steady
            .next_state
            .iter_mut()
            .chain(self.steady.outputs.iter_mut())
        {
            *f = map.rewrite(*f);
        }
        if let Some(r) = self.restriction.as_mut() {
            *r = map.rewrite(*r);
        }
    }

    /// Restricts the induction frontier to `set` (a BDD over
    /// `TimedVar::Shifted { leaf, shift: 0 }` state variables, e.g. the
    /// reachable set).
    pub fn with_restriction(mut self, set: Bdd) -> Self {
        self.restriction = Some(set);
        self
    }

    /// The steady-state machine `y(n, L)`.
    pub fn steady(&self) -> &DiscreteMachine {
        &self.steady
    }

    /// Runs Decision Algorithm 6.1 on `machine` (the discretization at one
    /// candidate period / shift assignment).
    pub fn decide(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        machine: &DiscreteMachine,
    ) -> DecisionOutcome {
        self.decide_with_depth(manager, table, machine, machine.max_shift.max(1))
    }

    /// [`decide`](Self::decide) with an explicit induction depth `m ≥
    /// machine.max_shift`.
    ///
    /// The basis unrolls `m` cycles and the induction frontier sits at
    /// `x̂(n − m)`, exactly as if the machine contained a shift-`m`
    /// reference. Used by the sweep: each cone of influence is decided at
    /// the *whole machine's* depth so that per-cone outcomes (mismatch
    /// cycles in particular) land on the same cycles an unsliced run
    /// reports.
    pub fn decide_with_depth(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        machine: &DiscreteMachine,
        m: i64,
    ) -> DecisionOutcome {
        debug_assert!(m >= machine.max_shift.max(1), "depth below machine shift");
        let ns = self.view.num_state_bits();

        // ---- Basis: unroll both machines from the initial state. --------
        // value_at[r][j] = BDD of state bit j at absolute cycle r (index
        // r-1), over Absolute input variables.
        let mut xt: Vec<Vec<Bdd>> = Vec::with_capacity(m as usize);
        let mut xs: Vec<Vec<Bdd>> = Vec::with_capacity(m as usize);
        for r in 1..=m {
            let xt_row: Vec<Bdd> = (0..ns)
                .map(|j| self.compose_basis(manager, table, machine.next_state[j], r, &xt))
                .collect();
            let xs_row: Vec<Bdd> = (0..ns)
                .map(|j| self.compose_basis(manager, table, self.steady.next_state[j], r, &xs))
                .collect();
            for j in 0..ns {
                if xt_row[j] != xs_row[j] {
                    return DecisionOutcome::BasisStateMismatch { cycle: r, bit: j };
                }
            }
            for (i, (&fy, &fys)) in machine.outputs.iter().zip(&self.steady.outputs).enumerate() {
                let yt = self.compose_basis(manager, table, fy, r, &xt);
                let ys = self.compose_basis(manager, table, fys, r, &xs);
                if yt != ys {
                    return DecisionOutcome::BasisOutputMismatch {
                        cycle: r,
                        output: i,
                    };
                }
            }
            xt.push(xt_row);
            xs.push(xs_row);
        }

        // ---- Induction step. --------------------------------------------
        // Steady trajectory above the frontier x̂(n − m):
        // trail[d][ℓ] = x̂(n − m + d) over frontier vars (leaf, shift m) and
        // input vars (leaf, shift m − d′).
        let mut trail: Vec<Vec<Bdd>> = Vec::with_capacity(m as usize + 1);
        let frontier: Vec<Bdd> = (0..ns)
            .map(|leaf| {
                let v = table.var(TimedVar::Shifted { leaf, shift: m });
                manager.var(v)
            })
            .collect();
        trail.push(frontier);
        for d in 1..=m {
            let input_shift = m - (d - 1);
            let row: Vec<Bdd> = (0..ns)
                .map(|j| {
                    let prev = &trail[(d - 1) as usize];
                    self.compose_shifted(
                        manager,
                        table,
                        self.steady.next_state[j],
                        |leaf, _s| prev[leaf],
                        |leaf, _s| TimedVar::Shifted {
                            leaf,
                            shift: input_shift,
                        },
                    )
                })
                .collect();
            trail.push(row);
        }

        // The restriction, renamed onto the frontier variables.
        let frontier_restriction = self.restriction.map(|r| {
            let map: Vec<(Var, Var)> = (0..ns)
                .map(|leaf| {
                    (
                        table.var(TimedVar::Shifted { leaf, shift: 0 }),
                        table.var(TimedVar::Shifted { leaf, shift: m }),
                    )
                })
                .collect();
            manager.rename_vars(r, &map)
        });
        let equal_under_restriction =
            |manager: &mut BddManager, a: Bdd, b: Bdd| match frontier_restriction {
                None => a == b,
                Some(r) => {
                    if a == b {
                        true
                    } else {
                        let diff = manager.xor(a, b);
                        manager.and(diff, r).is_false()
                    }
                }
            };

        for j in 0..ns {
            let x_tau = self.compose_shifted(
                manager,
                table,
                machine.next_state[j],
                |leaf, s| trail[(m - s) as usize][leaf],
                |leaf, s| TimedVar::Shifted { leaf, shift: s },
            );
            let x_hat = trail[m as usize][j];
            if !equal_under_restriction(manager, x_tau, x_hat) {
                return DecisionOutcome::InductionStateMismatch { bit: j };
            }
        }
        for (i, (&fy, &fys)) in machine.outputs.iter().zip(&self.steady.outputs).enumerate() {
            let y_tau = self.compose_shifted(
                manager,
                table,
                fy,
                |leaf, s| trail[(m - s) as usize][leaf],
                |leaf, s| TimedVar::Shifted { leaf, shift: s },
            );
            let y_hat = self.compose_shifted(
                manager,
                table,
                fys,
                |leaf, _s| trail[(m - 1) as usize][leaf],
                |leaf, _s| TimedVar::Shifted { leaf, shift: 1 },
            );
            if !equal_under_restriction(manager, y_tau, y_hat) {
                return DecisionOutcome::InductionOutputMismatch { output: i };
            }
        }
        DecisionOutcome::Valid
    }

    /// Composes a machine function for the basis at absolute cycle `r`:
    /// state references `(ℓ, s)` become the previously computed value at
    /// cycle `r − s` (or the initial constant for cycles ≤ 0); input
    /// references become absolute-cycle variables.
    fn compose_basis(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        f: Bdd,
        r: i64,
        history: &[Vec<Bdd>],
    ) -> Bdd {
        self.compose_shifted(
            manager,
            table,
            f,
            |leaf, s| {
                let cycle = r - s;
                if cycle >= 1 {
                    history[(cycle - 1) as usize][leaf]
                } else {
                    if self.init[leaf] {
                        Bdd::TRUE
                    } else {
                        Bdd::FALSE
                    }
                }
            },
            |leaf, s| TimedVar::Absolute { leaf, cycle: r - s },
        )
    }

    /// Substitutes every `Shifted` variable in `f`'s support: state leaves
    /// through `state_at(leaf, shift)`, input leaves through the variable
    /// named by `input_at(leaf, shift)`.
    fn compose_shifted(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        f: Bdd,
        state_at: impl Fn(usize, i64) -> Bdd,
        input_at: impl Fn(usize, i64) -> TimedVar,
    ) -> Bdd {
        let ns = self.view.num_state_bits();
        let support = manager.support(f);
        let mut subst: Vec<(Var, Bdd)> = Vec::with_capacity(support.len());
        for v in support {
            let tv = table
                .timed_var(v)
                .expect("machine BDDs only use table-allocated variables");
            match tv {
                TimedVar::Shifted { leaf, shift } if leaf < ns => {
                    subst.push((v, state_at(leaf, shift)));
                }
                TimedVar::Shifted { leaf, shift } => {
                    let target = table.var(input_at(leaf, shift));
                    let g = manager.var(target);
                    subst.push((v, g));
                }
                other => panic!("unexpected variable {other} in machine function"),
            }
        }
        manager.vector_compose(f, &subst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Runs the decision on figure 2 with the shifts induced by period τ
    /// (delays in millis: 1.5→1500 etc.).
    fn decide_fig2_at(tau_millis: i64) -> DecisionOutcome {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| {
            // ⌈k/τ⌉ in integer arithmetic.
            if k == 0 {
                1
            } else {
                (k + tau_millis - 1) / tau_millis
            }
        })
        .unwrap();
        ctx.decide(&mut m, &mut tbl, &machine)
    }

    #[test]
    fn figure2_valid_at_4_and_2_5() {
        assert!(decide_fig2_at(4000).is_valid());
        assert!(decide_fig2_at(2500).is_valid());
    }

    #[test]
    fn figure2_invalid_at_2() {
        let outcome = decide_fig2_at(2000);
        assert!(
            !outcome.is_valid(),
            "τ = 2 must be rejected, got {outcome:?}"
        );
    }

    #[test]
    fn figure2_invalid_below_2() {
        assert!(!decide_fig2_at(1800).is_valid());
    }

    #[test]
    fn steady_machine_is_always_valid() {
        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::steady_state(&ex, &mut m, &mut tbl).unwrap();
        assert_eq!(
            ctx.decide(&mut m, &mut tbl, &machine),
            DecisionOutcome::Valid
        );
    }

    #[test]
    fn input_driven_machine_shift_two_invalid() {
        // q' = q XOR a, output q: reading `a` two cycles late changes the
        // visible behaviour, so a shift of 2 on the input path must be
        // rejected while the steady shift of 1 is accepted.
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
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        let ok = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, _| 1).unwrap();
        assert!(ctx.decide(&mut m, &mut tbl, &ok).is_valid());
        let late = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, _| 2).unwrap();
        assert!(!ctx.decide(&mut m, &mut tbl, &late).is_valid());
    }

    #[test]
    fn redundant_logic_tolerates_late_path() {
        // next = q OR (q AND slow-q): the slow conjunct is logically
        // redundant, so sampling it a cycle late is harmless and the
        // decision must accept shift 2 on that path.
        let mut c = Circuit::new("redundant");
        let q = c.add_dff("q", false, Time::ZERO);
        let slow = c.add_gate("slow", GateKind::Buf, &[q], t(5.0));
        let both = c.add_gate("both", GateKind::And, &[q, slow], Time::ZERO);
        let keep = c.add_gate("keep", GateKind::Or, &[q, both], t(1.0));
        c.connect_dff_data("q", keep).unwrap();
        c.set_output(q);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        // τ = 3: path delays 1000 (direct, via keep) → 1; 6000 (slow) → 2.
        let machine =
            DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, |_, k| (k + 2999) / 3000)
                .unwrap();
        assert!(ctx.decide(&mut m, &mut tbl, &machine).is_valid());
    }

    #[test]
    fn restriction_can_save_a_period() {
        // A 3-bit rotator (q0→q1→q2→q0, one-hot init 100) with a trap term
        // on next2 that is sensitized only when q0 ∧ q1 — a non-one-hot
        // condition that is unreachable from the initial state but persists
        // under the full-space image, so only the reachability restriction
        // can discharge it:
        //   next2 = q1 ⊕ (q0 ∧ q1 ∧ slow(q2)).
        let mut c = Circuit::new("restricted");
        let q0 = c.add_dff("q0", true, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let q2 = c.add_dff("q2", false, Time::ZERO);
        let b0 = c.add_gate("b0", GateKind::Buf, &[q2], t(1.0));
        let b1 = c.add_gate("b1", GateKind::Buf, &[q0], t(1.0));
        let slow = c.add_gate("slow", GateKind::Buf, &[q2], t(5.0));
        let trap = c.add_gate("trap", GateKind::And, &[q0, q1, slow], Time::ZERO);
        let q1d = c.add_gate("q1d", GateKind::Buf, &[q1], t(1.0));
        let n2 = c.add_gate("n2", GateKind::Xor, &[q1d, trap], Time::ZERO);
        c.connect_dff_data("q0", b0).unwrap();
        c.connect_dff_data("q1", b1).unwrap();
        c.connect_dff_data("q2", n2).unwrap();
        c.set_output(q2);
        let view = FsmView::new(&c).unwrap();
        let ex = ConeExtractor::new(&view);
        let mut m = BddManager::new();
        let mut tbl = TimedVarTable::new();
        let shift = |_: usize, k: i64| (k + 2999) / 3000; // τ = 3
                                                          // Without restriction: a frontier state with q0 = q2 = 1 drives the
                                                          // trap's late conjunct and the induction fails.
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, shift).unwrap();
        assert!(!ctx.decide(&mut m, &mut tbl, &machine).is_valid());
        // With the reachable set (the three one-hot states) the trap is
        // never sensitized and τ = 3 is certified. The fixpoint collects
        // garbage rooting only its own iterates, so the candidate machine
        // is rebuilt afterwards — the same order the analyzer uses
        // (reachability once up front, machines per candidate).
        let r = mct_tbf::reachable_states(&ex, &mut m, &mut tbl).unwrap();
        let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, shift).unwrap();
        let ctx = DecisionContext::new(&ex, &mut m, &mut tbl)
            .unwrap()
            .with_restriction(r);
        assert!(ctx.decide(&mut m, &mut tbl, &machine).is_valid());
    }
}
