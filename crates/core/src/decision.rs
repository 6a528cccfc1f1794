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
use std::convert::Infallible;

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
        let init = view.circuit().initial_state();
        Ok(DecisionContext {
            view,
            steady,
            init,
            restriction: None,
        })
    }

    /// Handles that must survive a garbage collection run between sweep
    /// candidates: the steady machine and the frontier restriction. Any
    /// collection while the context lives must root them.
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
    /// the handles held here go stale without this.
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
    /// reference. The sweep decides each cone of influence at the *whole
    /// machine's* depth, so that per-cone outcomes (mismatch cycles in
    /// particular) land on the same cycles an unsliced run reports; it runs
    /// the same walk with per-sink records.
    pub fn decide_with_depth(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        machine: &DiscreteMachine,
        m: i64,
    ) -> DecisionOutcome {
        debug_assert!(m >= machine.max_shift.max(1), "depth below machine shift");
        let mut rows = SteadyRows::default();
        let Ok(outcome) = self.walk(manager, table, &mut rows, &mut MachineSinks(machine), m);
        outcome
    }

    /// Decision Algorithm 6.1 at depth `m`, one sink at a time.
    ///
    /// The checks run in the order of the cycle-by-cycle algorithm — basis
    /// cycles `1..=m`, each over the state bits and then the outputs by
    /// index, then the induction step over the state bits and then the
    /// outputs — and the first failing check is the outcome. Each check
    /// compares one sink (state bit or output) against the steady machine:
    ///
    /// * **Basis, cycle `r`.** The walk reaches cycle `r` only when every
    ///   earlier perturbed state row equalled the steady row as a canonical
    ///   BDD, so the sink's perturbed value at `r` is its function composed
    ///   over the *steady* history. The verdict depends on the sink's
    ///   function and `r` alone.
    /// * **Induction at depth `m`.** Per sink already: the function
    ///   composed over the steady trail above the frontier `x̂(n − m)`,
    ///   compared with the steady value under the frontier restriction.
    ///
    /// No check reads another sink's perturbed function, so `sinks` may
    /// answer a check from what it already knows and supplies a function
    /// only for a check it cannot answer. `rows` holds the steady side,
    /// which depends on neither the shift assignment nor the sink; it may
    /// be kept across walks in the same manager.
    pub(crate) fn walk<S: SinkVerdicts>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        rows: &mut SteadyRows,
        sinks: &mut S,
        m: i64,
    ) -> Result<DecisionOutcome, S::Error> {
        let ns = self.view.num_state_bits();
        let total = ns + self.steady.outputs.len();
        for cycle in 1..=m {
            for s in 0..total {
                if !self.check(manager, table, rows, sinks, s, Check::Basis(cycle))? {
                    return Ok(if s < ns {
                        DecisionOutcome::BasisStateMismatch { cycle, bit: s }
                    } else {
                        DecisionOutcome::BasisOutputMismatch {
                            cycle,
                            output: s - ns,
                        }
                    });
                }
            }
        }
        for s in 0..total {
            if !self.check(manager, table, rows, sinks, s, Check::Induction(m))? {
                return Ok(if s < ns {
                    DecisionOutcome::InductionStateMismatch { bit: s }
                } else {
                    DecisionOutcome::InductionOutputMismatch { output: s - ns }
                });
            }
        }
        Ok(DecisionOutcome::Valid)
    }

    /// One check of the walk on sink `s`: its known verdict, or a fresh
    /// comparison, which `sinks` then records.
    fn check<S: SinkVerdicts>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        rows: &mut SteadyRows,
        sinks: &mut S,
        s: usize,
        check: Check,
    ) -> Result<bool, S::Error> {
        if let Some(equal) = sinks.known(s, check) {
            return Ok(equal);
        }
        let f = sinks.function(manager, table, s)?;
        let equal = match check {
            Check::Basis(r) => {
                let steady = self.basis_row(manager, table, rows, r)[s];
                self.compose_basis(manager, table, f, r, &rows.basis) == steady
            }
            Check::Induction(m) => {
                let frame = self.frame(manager, table, rows, m);
                let perturbed = self.compose_shifted(
                    manager,
                    table,
                    f,
                    |leaf, sh| frame.trail[(m - sh) as usize][leaf],
                    |leaf, sh| TimedVar::Shifted { leaf, shift: sh },
                );
                let steady = frame.steady[s];
                perturbed == steady
                    || frame.restriction.is_some_and(|r| {
                        let diff = manager.xor(perturbed, steady);
                        manager.and(diff, r).is_false()
                    })
            }
        };
        sinks.record(s, check, equal);
        Ok(equal)
    }

    /// The steady value of every sink at basis cycle `r`, extending the
    /// steady rows as far as needed.
    fn basis_row<'r>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        rows: &'r mut SteadyRows,
        r: i64,
    ) -> &'r [Bdd] {
        while rows.basis.len() < r as usize {
            let cycle = rows.basis.len() as i64 + 1;
            // Outputs at `cycle` read state rows before it only, so one
            // pass over the sinks builds the whole row.
            let row = self
                .steady
                .next_state
                .iter()
                .chain(&self.steady.outputs)
                .map(|&f| self.compose_basis(manager, table, f, cycle, &rows.basis))
                .collect();
            rows.basis.push(row);
        }
        &rows.basis[(r - 1) as usize]
    }

    /// The induction frame at depth `m`, built on first use.
    fn frame<'r>(
        &self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        rows: &'r mut SteadyRows,
        m: i64,
    ) -> &'r InductionFrame {
        if let Some(at) = rows.frames.iter().position(|f| f.m == m) {
            return &rows.frames[at];
        }
        let ns = self.view.num_state_bits();
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
            let prev = &trail[(d - 1) as usize];
            let row: Vec<Bdd> = (0..ns)
                .map(|j| {
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
        // x̂(n), then ŷ(n) over x̂(n − 1) and the inputs of cycle n − 1.
        let before = &trail[(m - 1) as usize];
        let mut steady = trail[m as usize].clone();
        steady.extend(self.steady.outputs.iter().map(|&fy| {
            self.compose_shifted(
                manager,
                table,
                fy,
                |leaf, _s| before[leaf],
                |leaf, _s| TimedVar::Shifted { leaf, shift: 1 },
            )
        }));
        // The restriction, renamed onto the frontier variables.
        let restriction = self.restriction.map(|r| {
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
        rows.frames.push(InductionFrame {
            m,
            trail,
            restriction,
            steady,
        });
        rows.frames.last().expect("just pushed")
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

/// One comparison of the sink-by-sink walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Check {
    /// The basis comparison at absolute cycle `r`.
    Basis(i64),
    /// The induction step at depth `m`.
    Induction(i64),
}

/// The per-sink side of [`DecisionContext::walk`]: verdicts it already
/// knows, and sink functions for the checks it does not. Sinks are indexed
/// as the view orders them: state bits, then outputs.
pub(crate) trait SinkVerdicts {
    /// Why a sink function could not be supplied.
    type Error;

    /// The verdict of `check` on sink `s`, when already known.
    fn known(&mut self, _s: usize, _check: Check) -> Option<bool> {
        None
    }

    /// Sink `s`'s function under the walk's shift assignment.
    fn function(
        &mut self,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        s: usize,
    ) -> Result<Bdd, Self::Error>;

    /// A freshly computed verdict of `check` on sink `s`.
    fn record(&mut self, _s: usize, _check: Check, _equal: bool) {}
}

/// The memo-less source of [`DecisionContext::decide_with_depth`]: every
/// check is computed, from the machine's own functions.
struct MachineSinks<'a>(&'a DiscreteMachine);

impl SinkVerdicts for MachineSinks<'_> {
    type Error = Infallible;

    fn function(
        &mut self,
        _manager: &mut BddManager,
        _table: &mut TimedVarTable,
        s: usize,
    ) -> Result<Bdd, Infallible> {
        let ns = self.0.next_state.len();
        Ok(if s < ns {
            self.0.next_state[s]
        } else {
            self.0.outputs[s - ns]
        })
    }
}

/// What the walk has learned about one sink function: every verdict is a
/// property of the function (plus the cycle or depth), never of the rest of
/// the machine. Handle-free, so records outlive collections and
/// compactions of the manager that decided them.
#[derive(Default, Debug)]
pub(crate) struct SinkRecord {
    /// Basis cycles `1..=verified` compare equal.
    verified: i64,
    /// The first basis cycle that compares unequal, once found.
    mismatch: Option<i64>,
    /// Induction verdicts by depth `m`.
    induction: Vec<(i64, bool)>,
}

impl SinkRecord {
    /// The verdict of `check`, when this record holds it.
    pub(crate) fn known(&self, check: Check) -> Option<bool> {
        match check {
            Check::Basis(r) if r <= self.verified => Some(true),
            Check::Basis(r) => (self.mismatch == Some(r)).then_some(false),
            Check::Induction(m) => self
                .induction
                .iter()
                .find(|&&(d, _)| d == m)
                .map(|&(_, equal)| equal),
        }
    }

    /// Adds a verdict. The walk checks a sink's basis cycles in order and
    /// stops at its first mismatch, so a passing cycle `r` means cycles
    /// `1..=r` all pass.
    pub(crate) fn note(&mut self, check: Check, equal: bool) {
        match check {
            Check::Basis(r) if equal => self.verified = self.verified.max(r),
            Check::Basis(r) => self.mismatch = Some(r),
            Check::Induction(m) => {
                if self.known(check).is_none() {
                    self.induction.push((m, equal));
                }
            }
        }
    }
}

/// The steady side of [`DecisionContext::walk`], built on demand: the
/// steady machine unrolled from the initial state, and one induction frame
/// per depth. Nothing here depends on the shift assignment, so one set of
/// rows serves every walk in its manager; a caller that keeps it across a
/// collection roots and rewrites [`handles_mut`](Self::handles_mut).
#[derive(Default)]
pub(crate) struct SteadyRows {
    /// `basis[r − 1][s]` = the steady value of sink `s` at absolute cycle
    /// `r`, over absolute input variables. State bits come first, so a row
    /// is also the state history that basis compositions read.
    basis: Vec<Vec<Bdd>>,
    frames: Vec<InductionFrame>,
}

impl SteadyRows {
    /// Every handle held.
    pub(crate) fn handles_mut(&mut self) -> impl Iterator<Item = &mut Bdd> {
        let frames = self.frames.iter_mut().flat_map(|f| {
            f.trail
                .iter_mut()
                .flatten()
                .chain(f.restriction.iter_mut())
                .chain(f.steady.iter_mut())
        });
        self.basis.iter_mut().flatten().chain(frames)
    }
}

/// The steady machine above the induction frontier at one depth.
struct InductionFrame {
    m: i64,
    /// `trail[d][ℓ]` = `x̂(n − m + d)` over the frontier variables
    /// `(ℓ, m)` and the input variables in between.
    trail: Vec<Vec<Bdd>>,
    /// The frontier restriction, renamed onto the frontier variables.
    restriction: Option<Bdd>,
    /// The steady value of every sink one step above the frontier: `x̂(n)`
    /// per state bit, then `ŷ(n)` per output.
    steady: Vec<Bdd>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{Circuit, GateKind, NetId, Time};
    use mct_prng::SmallRng;
    use std::collections::HashMap;

    /// The cycle-by-cycle Decision Algorithm 6.1: unroll both machines
    /// from the initial state and compare whole rows per basis cycle, then
    /// run the induction step. The reference the sink-by-sink walk is
    /// checked against.
    fn reference(
        ctx: &DecisionContext<'_>,
        manager: &mut BddManager,
        table: &mut TimedVarTable,
        machine: &DiscreteMachine,
        m: i64,
    ) -> DecisionOutcome {
        let ns = ctx.view.num_state_bits();
        let steady = &ctx.steady;

        // ---- Basis: unroll both machines from the initial state. --------
        // value_at[r][j] = BDD of state bit j at absolute cycle r (index
        // r-1), over Absolute input variables.
        let mut xt: Vec<Vec<Bdd>> = Vec::with_capacity(m as usize);
        let mut xs: Vec<Vec<Bdd>> = Vec::with_capacity(m as usize);
        for r in 1..=m {
            let xt_row: Vec<Bdd> = (0..ns)
                .map(|j| ctx.compose_basis(manager, table, machine.next_state[j], r, &xt))
                .collect();
            let xs_row: Vec<Bdd> = (0..ns)
                .map(|j| ctx.compose_basis(manager, table, steady.next_state[j], r, &xs))
                .collect();
            for j in 0..ns {
                if xt_row[j] != xs_row[j] {
                    return DecisionOutcome::BasisStateMismatch { cycle: r, bit: j };
                }
            }
            for (i, (&fy, &fys)) in machine.outputs.iter().zip(&steady.outputs).enumerate() {
                let yt = ctx.compose_basis(manager, table, fy, r, &xt);
                let ys = ctx.compose_basis(manager, table, fys, r, &xs);
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
                    ctx.compose_shifted(
                        manager,
                        table,
                        steady.next_state[j],
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
        let frontier_restriction = ctx.restriction.map(|r| {
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
            let x_tau = ctx.compose_shifted(
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
        for (i, (&fy, &fys)) in machine.outputs.iter().zip(&steady.outputs).enumerate() {
            let y_tau = ctx.compose_shifted(
                manager,
                table,
                fy,
                |leaf, s| trail[(m - s) as usize][leaf],
                |leaf, s| TimedVar::Shifted { leaf, shift: s },
            );
            let y_hat = ctx.compose_shifted(
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

    /// A random machine: 1–4 flip-flops (random initial values), 0–2
    /// inputs, 1–11 gates with 1–4 unit delays, 1–3 outputs tapped from
    /// anywhere in the netlist.
    fn random_fsm(rng: &mut SmallRng) -> Circuit {
        let mut c = Circuit::new("walk");
        let mut nets: Vec<NetId> = Vec::new();
        let inputs = rng.gen_range(0..3usize);
        let dffs = rng.gen_range(1..5usize);
        for i in 0..inputs {
            nets.push(c.add_input(format!("in{i}")));
        }
        for i in 0..dffs {
            nets.push(c.add_dff(format!("q{i}"), rng.gen_bool(), Time::ZERO));
        }
        for g in 0..rng.gen_range(1..12usize) {
            let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
            let a = nets[rng.gen_range(0..nets.len())];
            let pins = if kind.max_inputs() == Some(1) {
                vec![a]
            } else {
                vec![a, nets[rng.gen_range(0..nets.len())]]
            };
            let d = Time::from_millis(1000 * rng.gen_range(1..5i64));
            nets.push(c.add_gate(format!("g{g}"), kind, &pins, d));
        }
        let gates = nets.len() - inputs - dffs;
        for i in 0..dffs {
            // Feed from the gates, so every flip-flop has a timed cone.
            let src = nets[nets.len() - 1 - rng.gen_range(0..gates)];
            c.connect_dff_data(&format!("q{i}"), src).unwrap();
        }
        for _ in 0..rng.gen_range(1..4usize) {
            c.set_output(nets[rng.gen_range(0..nets.len())]);
        }
        c
    }

    /// A random shift per `(leaf, delay)` pair, in `1..=3`: a pure function
    /// of the pair, as the extractor requires.
    fn random_shifts(salt: u64) -> impl Fn(usize, i64) -> i64 {
        move |leaf, k| {
            let h = salt
                .wrapping_add(leaf as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(k as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            1 + (h >> 33) as i64 % 3
        }
    }

    /// Verdicts remembered across walks, keyed by (sink, sink function):
    /// within one manager, equal functions are equal handles.
    #[derive(Default)]
    struct Remembered {
        records: HashMap<(usize, Bdd), SinkRecord>,
        computed: usize,
    }

    struct RememberedSinks<'a> {
        machine: &'a DiscreteMachine,
        memo: &'a mut Remembered,
    }

    impl RememberedSinks<'_> {
        fn key(&self, s: usize) -> (usize, Bdd) {
            let ns = self.machine.next_state.len();
            let f = if s < ns {
                self.machine.next_state[s]
            } else {
                self.machine.outputs[s - ns]
            };
            (s, f)
        }
    }

    impl SinkVerdicts for RememberedSinks<'_> {
        type Error = Infallible;

        fn known(&mut self, s: usize, check: Check) -> Option<bool> {
            self.memo.records.get(&self.key(s))?.known(check)
        }

        fn function(
            &mut self,
            _manager: &mut BddManager,
            _table: &mut TimedVarTable,
            s: usize,
        ) -> Result<Bdd, Infallible> {
            Ok(self.key(s).1)
        }

        fn record(&mut self, s: usize, check: Check, equal: bool) {
            self.memo.computed += 1;
            let key = self.key(s);
            self.memo.records.entry(key).or_default().note(check, equal);
        }
    }

    /// The sink-by-sink walk equals the cycle-by-cycle reference exactly —
    /// variant, cycle and index — on random machines, random shift
    /// assignments and depths `m ≥ max_shift`, with and without the
    /// reachable-set restriction; both memo-less and with verdicts and
    /// steady rows carried across every assignment of a machine.
    #[test]
    fn sink_walk_matches_the_cycle_by_cycle_reference() {
        let mut rng = SmallRng::seed_from_u64(61);
        let (mut outcomes, mut remembered) = (HashMap::new(), 0);
        for _ in 0..150 {
            let c = random_fsm(&mut rng);
            let view = FsmView::new(&c).unwrap();
            let ex = ConeExtractor::new(&view);
            let restrict = rng.gen_bool();
            let mut m = BddManager::new();
            let mut tbl = TimedVarTable::new();
            // Reachability collects garbage rooted only in its iterates, so
            // it runs before anything else is built in this manager.
            let reach = restrict.then(|| mct_tbf::reachable_states(&ex, &mut m, &mut tbl).unwrap());
            let mut ctx = DecisionContext::new(&ex, &mut m, &mut tbl).unwrap();
            if let Some(r) = reach {
                ctx = ctx.with_restriction(r);
            }
            let mut rows = SteadyRows::default();
            let mut memo = Remembered::default();
            for _ in 0..12 {
                let shift = random_shifts(rng.next_u64());
                let machine = DiscreteMachine::with_shift_fn(&ex, &mut m, &mut tbl, shift).unwrap();
                let depth = machine.max_shift + rng.gen_range(0..3i64);
                let want = reference(&ctx, &mut m, &mut tbl, &machine, depth);
                let plain = ctx.decide_with_depth(&mut m, &mut tbl, &machine, depth);
                assert_eq!(plain, want, "{} at depth {depth}", c.name());
                let before = memo.computed;
                let mut sinks = RememberedSinks {
                    machine: &machine,
                    memo: &mut memo,
                };
                let Ok(recalled) = ctx.walk(&mut m, &mut tbl, &mut rows, &mut sinks, depth);
                assert_eq!(recalled, want, "{} at depth {depth}, remembered", c.name());
                if memo.computed == before {
                    remembered += 1;
                }
                *outcomes.entry(want.parts().0).or_insert(0) += 1;
            }
        }
        // The seeded loop covers every outcome variant, and some walks are
        // answered entirely from remembered verdicts.
        for kind in [
            "valid",
            "basis_state",
            "basis_output",
            "induction_state",
            "induction_output",
        ] {
            assert!(outcomes.get(kind).is_some_and(|&n| n > 0), "{outcomes:?}");
        }
        assert!(remembered > 0);
    }

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
