//! Exact minimum cycle times for finite state machines via Timed Boolean
//! Functions — the primary contribution of Lam, Brayton, and
//! Sangiovanni-Vincentelli (DAC 1994).
//!
//! # The problem
//!
//! Combinational delay metrics treat the next-state logic of a clocked FSM
//! as an isolated block: any input vector, a *last* vector, no periodicity.
//! A real machine feeds the logic its own state vector, restricted to the
//! reachable space, with a new vector every `τ` time units — so a clock
//! period below the combinational delay can still be *correct* (long paths
//! that are never sensitized in operation, values that arrive a cycle late
//! but coincide with what a late sample would have read, multi-cycle false
//! paths), and a 2-vector delay can even be *incorrect* as a bound
//! (Theorem 2's condition).
//!
//! # The method
//!
//! The machine's behaviour at period `τ` is captured exactly by
//! discretizing its Timed Boolean Function:
//!
//! ```text
//! y_i(n) = f_i(…, y_j(n − m_ij), …),   m_ij = ⌈k_ij / τ⌉,
//! ```
//!
//! where `k_ij` ranges over the register-to-register path delays. The
//! machine is correct at `τ` iff its sampled behaviour equals the
//! steady-state behaviour `y(n, L)` (every `m = 1`). [`DecisionContext::decide`] implements
//! the paper's Decision Algorithm 6.1: a basis over the first `m` cycles
//! starting from the initial state, then an inductive step that substitutes
//! the steady recurrence until all time arguments align, and compares BDDs
//! — optionally restricting the induction frontier to the reachable state
//! space.
//!
//! [`MctAnalyzer`] sweeps `τ` downward over the exact breakpoints
//! `{k/j}` where some shift changes, answering already-seen shift
//! signatures from its memos. With bounded gate-delay variation (the
//! paper's Section 7, delays in `[0.9·d, d]`), each shift becomes a *set*;
//! the analyzer decides the combinations `σ ∈ Φ(τ)` (each feasible by exact
//! interval arithmetic) until nothing left can change the result, and
//! reports `D̄_s = max_{σ ∈ Ω} τ(σ)` over the failing set
//! `Ω`, optionally coupling each failing σ's τ range through the per-path
//! linear programs via the simplex solver.
//!
//! # Examples
//!
//! The paper's Example 2 end to end — minimum cycle time 2.5 against a
//! floating delay of 4 and an (incorrect) 2-vector delay of 2:
//!
//! ```
//! use mct_netlist::{Circuit, GateKind, Time};
//! use mct_core::{MctAnalyzer, MctOptions};
//!
//! let mut c = Circuit::new("fig2");
//! let f = c.add_dff("f", true, Time::ZERO);
//! let cb = c.add_gate("c", GateKind::Buf, &[f], Time::from_f64(1.5));
//! let d = c.add_gate("d", GateKind::Not, &[f], Time::from_f64(4.0));
//! let e = c.add_gate("e", GateKind::Buf, &[f], Time::from_f64(5.0));
//! let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
//! let b = c.add_gate("b", GateKind::Not, &[f], Time::from_f64(2.0));
//! let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
//! c.connect_dff_data("f", g).unwrap();
//! c.set_output(f);
//!
//! let report = MctAnalyzer::new(&c).unwrap()
//!     .run(&MctOptions::fixed_delays())
//!     .unwrap();
//! assert!((report.mct_upper_bound - 2.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod artifact;
mod breakpoints;
mod decision;
mod error;
mod exact;
mod sigma;
mod skew;
mod sweep;

#[cfg(test)]
mod proptests;

pub use analyzer::{MctAnalyzer, MctOptions, MctReport, ValidityRegion, VarOrder};
pub use artifact::{ArtifactError, ConeCacheEntry, ExactPart};
pub use breakpoints::BreakpointIter;
pub use decision::{DecisionContext, DecisionOutcome};
pub use error::MctError;
pub use exact::{decide_exact, ExactRun};
pub use mct_bdd::BddStats;
pub use sigma::{feasible_tau_range, ShiftRange, SigmaIter};
pub use skew::SkewReport;
pub use sweep::DecomposeArtifacts;
