//! Interval algebra and a dense simplex linear-program solver.
//!
//! Section 7 of the DAC 1994 minimum-cycle-time paper handles manufacturing
//! variation by letting every register-to-register path delay `k_i` range
//! over an interval. Each floor term `⌊−k_i/τ⌋` then becomes a *set* of
//! possible shifts, candidate shift combinations must be checked for
//! *feasibility*, and the final cycle-time upper bound is the optimum of a
//! family of small linear programs
//!
//! ```text
//! τ(σ) = max τ   s.t.   τ·(−σ_i − 1) + ε ≤ k_i ≤ τ·(−σ_i),
//!                        k_i = Σ d_g  (gates on the path),
//!                        d_g ∈ [d_g^min, d_g^max].
//! ```
//!
//! This crate supplies the arithmetic those steps need, independent of any
//! circuit representation:
//!
//! * [`Rat`] — exact `i64` rationals for breakpoints `τ = k / j` and the
//!   floor terms `⌈k/τ⌉` (float arithmetic is unreliable exactly at the
//!   breakpoints the sweep must examine);
//! * [`Interval`] — closed integer intervals for delay bounds;
//! * [`Simplex`] — a two-phase dense simplex solver over `f64` for the
//!   path-coupled feasibility programs.
//!
//! # Examples
//!
//! ```
//! use mct_lp::{LpOutcome, Simplex};
//!
//! // max x0 + x1  s.t.  x0 + 2 x1 ≤ 4,  3 x0 + x1 ≤ 6,  x ≥ 0.
//! let mut lp = Simplex::new(2);
//! lp.set_objective(&[1.0, 1.0]);
//! lp.add_le(&[1.0, 2.0], 4.0);
//! lp.add_le(&[3.0, 1.0], 6.0);
//! match lp.solve() {
//!     LpOutcome::Optimal { value, solution } => {
//!         assert!((value - 2.8).abs() < 1e-9);
//!         assert!((solution[0] - 1.6).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod rat;
mod simplex;

pub use interval::Interval;
pub use rat::Rat;
pub use simplex::{LpOutcome, Simplex, MAX_PIVOTS};
