//! Differential fuzzing for the minimum-cycle-time engine.
//!
//! The hardest property of the DAC 1994 reproduction to test statically is
//! the one that matters most: the certified minimum cycle time must be
//! *sound* — at any period at or above the bound, the real (event-driven,
//! delay-varied) machine behaves exactly like the zero-delay functional
//! machine. This crate turns that property, and a family of metamorphic
//! invariants around it, into a deterministic fuzzing loop:
//!
//! 1. [`generate`] builds random well-formed sequential circuits directly
//!    on the netlist API (and mutates suite/corpus circuits), with delays
//!    drawn from a rational grid that stresses the sweep's breakpoint
//!    arithmetic;
//! 2. [`oracle`] checks each candidate — differential against the
//!    simulator, metamorphic (rename / permutation / delay scaling /
//!    variable-order determinism / cache replay), and robustness
//!    (serialization round-trips, no panics);
//! 3. [`shrink`] delta-debugs any failure down to a minimal repro;
//! 4. [`corpus`] persists repros as timed `.bench` files with JSON
//!    provenance, which future runs replay and mutate.
//!
//! Everything is seeded and wall-clock-free (except the explicit time
//! budget and the one opt-in `wall_ms` stat), so a run is reproducible
//! bit-for-bit from its seed.
//!
//! # Examples
//!
//! ```
//! use mct_fuzz::{FuzzConfig, GenConfig, run};
//!
//! let cfg = FuzzConfig {
//!     iters: 2,
//!     // Tiny circuits keep the example fast; real runs use the defaults.
//!     gen: GenConfig { max_inputs: 2, max_dffs: 3, max_gates: 8, ..GenConfig::default() },
//!     ..FuzzConfig::default()
//! };
//! let stats = run(&cfg);
//! assert_eq!(stats.iters_run, 2);
//! assert!(stats.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod edit;
pub mod generate;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use corpus::{load_corpus, parse_timed_bench, save_repro, write_timed_bench, Provenance};
pub use edit::{apply_plan, permute_registers, rename_signals, scale_delays, EditPlan};
pub use generate::{mutate_circuit, perturb_delays, random_circuit, GenConfig};
pub use oracle::{
    check_circuit, lp_coupling_violation, Failure, OracleCtx, OracleOptions, OracleSelect,
    OracleStats,
};
pub use runner::{run, run_with_oracle, CustomOracle, FailureRecord, FuzzConfig, FuzzStats};
pub use shrink::{shrink, ShrinkOutcome};
