//! Regression tests for the fuzzing loop itself: determinism of the stats,
//! and the planted-bug drill — inject a known off-by-one into a copy of the
//! breakpoint enumerator and check the fuzzer both catches it and shrinks
//! the witness to a small circuit.

use mct_core::BreakpointIter;
use mct_fuzz::{run, run_with_oracle, CustomOracle, FuzzConfig, GenConfig};
use mct_lp::Rat;
use mct_netlist::{Circuit, Node};

/// Small generator limits so the full-stack tests stay affordable in debug
/// builds (the CI smoke job runs the real sizes in release).
fn small_gen() -> GenConfig {
    GenConfig {
        max_inputs: 2,
        max_dffs: 4,
        max_gates: 10,
        max_fanin: 3,
        wide_delays: false,
    }
}

/// Two runs with the same configuration must agree byte-for-byte on the
/// deterministic JSON encoding (`wall_ms` omitted).
#[test]
fn same_seed_is_bit_identical() {
    let cfg = FuzzConfig {
        seed: 42,
        iters: 4,
        gen: small_gen(),
        ..FuzzConfig::default()
    };
    let a = run(&cfg).to_json(None).to_pretty();
    let b = run(&cfg).to_json(None).to_pretty();
    assert_eq!(a, b, "stats diverged between identical runs");
}

/// The default oracle stack finds nothing wrong with the current engine.
#[test]
fn default_stack_smoke() {
    let cfg = FuzzConfig {
        seed: 1,
        iters: 4,
        gen: small_gen(),
        ..FuzzConfig::default()
    };
    let stats = run(&cfg);
    assert_eq!(stats.iters_run, 4);
    assert!(
        stats.failures.is_empty(),
        "unexpected failures: {:?}",
        stats.failures.iter().map(|f| &f.detail).collect::<Vec<_>>()
    );
}

/// The sigma oracle (LP-coupled run against the closed-form run) under the
/// same knobs the CLI applies for `--oracle sigma`: wide delay bias and
/// path-coupled LPs with a 75–100% variation interval, so classes have
/// several shifts and the LP runs on failing combinations.
#[test]
fn sigma_oracle_smoke() {
    let mut cfg = FuzzConfig {
        seed: 7,
        iters: 4,
        select: mct_fuzz::OracleSelect::Sigma,
        gen: GenConfig {
            wide_delays: true,
            ..small_gen()
        },
        ..FuzzConfig::default()
    };
    cfg.oracle.analysis.delay_variation = Some((3, 4));
    cfg.oracle.analysis.path_coupled_lp = true;
    let stats = run(&cfg);
    assert_eq!(stats.iters_run, 4);
    assert!(
        stats.failures.is_empty(),
        "unexpected failures: {:?}",
        stats.failures.iter().map(|f| &f.detail).collect::<Vec<_>>()
    );
    assert!(
        stats.oracle.sigma_checks + stats.oracle.analysis_errors + stats.oracle.analysis_timeouts
            > 0,
        "sigma oracle never engaged"
    );
}

/// Every delay that occurs anywhere in the circuit, in milli-units.
fn circuit_delays(c: &Circuit) -> Vec<i64> {
    let mut out = Vec::new();
    for id in c.gates() {
        if let Node::Gate { pin_delays, .. } = c.node(id) {
            for d in pin_delays {
                out.push(d.rise.millis());
                out.push(d.fall.millis());
            }
        }
    }
    for id in c.dffs() {
        if let Node::Dff { clock_to_q, .. } = c.node(id) {
            out.push(clock_to_q.millis());
        }
    }
    out
}

/// A deliberately broken re-implementation of [`BreakpointIter`]: it treats
/// the floor as *exclusive*, silently dropping a breakpoint that lands
/// exactly on it. This is precisely the kind of interval-endpoint bug the
/// grid delays (multiples of 1000 milli-units) are chosen to expose.
fn buggy_breakpoints(delays_millis: &[i64], floor: Rat) -> Vec<Rat> {
    use std::collections::{BinaryHeap, HashSet};
    let mut heap = BinaryHeap::new();
    let mut seen = HashSet::new();
    for &k in delays_millis {
        if k > 0 && seen.insert(k) {
            heap.push((Rat::new(k, 1), k, 1));
        }
    }
    let mut out: Vec<Rat> = Vec::new();
    while let Some((value, k, j)) = heap.pop() {
        if value <= floor {
            // BUG: `<=` where the specification says `<` — a breakpoint
            // equal to the floor must be yielded.
            continue;
        }
        let next = Rat::new(k, j + 1);
        if next > floor {
            heap.push((next, k, j + 1));
        }
        if out.last() != Some(&value) {
            out.push(value);
        }
    }
    out
}

/// Plant the off-by-one and verify the fuzzer catches it quickly and the
/// shrinker reduces the witness to a handful of gates.
#[test]
fn planted_breakpoint_bug_is_caught_and_shrunk() {
    let floor = Rat::new(1000, 1);
    let check = |c: &Circuit| -> Option<String> {
        let delays = circuit_delays(c);
        let good: Vec<Rat> = BreakpointIter::new(&delays, floor).collect();
        let bad = buggy_breakpoints(&delays, floor);
        if good == bad {
            None
        } else {
            Some(format!(
                "breakpoint enumeration mismatch: {} exact vs {} buggy",
                good.len(),
                bad.len()
            ))
        }
    };
    let oracle = CustomOracle {
        name: "differential",
        check: &check,
    };
    let cfg = FuzzConfig {
        seed: 7,
        iters: 20,
        write_repros: false,
        ..FuzzConfig::default()
    };
    let stats = run_with_oracle(&cfg, Some(&oracle));
    assert!(
        !stats.failures.is_empty(),
        "planted bug went undetected in {} iterations",
        stats.iters_run
    );
    let f = &stats.failures[0];
    assert!(
        f.gates_after <= 8,
        "shrinker left {} gates (from {})",
        f.gates_after,
        f.gates_before
    );
    // The shrunk circuit must itself still witness the bug.
    assert!(check(&f.circuit).is_some(), "shrunk repro no longer fails");
}

/// A failure whose predicate is slow must not hold the run past its time
/// budget: the shrinker stops within about one predicate run of the
/// deadline, keeps the smallest failing circuit found by then, and the run
/// still reports the failure.
#[test]
fn shrinking_stops_at_the_time_budget() {
    use std::time::{Duration, Instant};
    let slow = Duration::from_millis(50);
    let check = |_: &Circuit| -> Option<String> {
        std::thread::sleep(slow);
        Some("always fails".into())
    };
    let oracle = CustomOracle {
        name: "differential",
        check: &check,
    };
    let budget = Duration::from_millis(300);
    let cfg = FuzzConfig {
        seed: 3,
        iters: 1_000,
        time_budget_ms: Some(budget.as_millis() as u64),
        write_repros: false,
        ..FuzzConfig::default()
    };
    let started = Instant::now();
    let stats = run_with_oracle(&cfg, Some(&oracle));
    let elapsed = started.elapsed();
    assert!(elapsed < budget + 4 * slow, "ran {elapsed:?}");
    assert!(stats.budget_exhausted);
    assert_eq!(stats.failures.len(), 1, "{:?}", stats.failures);
    let f = &stats.failures[0];
    assert!(f.shrink_cut_short);
    assert!(f.gates_after <= f.gates_before);
    assert!(stats
        .to_json(None)
        .to_compact()
        .contains("\"shrink_cut_short\":true"));
}
