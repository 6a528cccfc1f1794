//! Ablations of the design choices called out in `DESIGN.md`: the
//! reachability restriction, the path-coupled linear programs, delay
//! variation, and the Φ-signature cache.

use mct_suite::core::{MctAnalyzer, MctOptions};
use mct_suite::gen::{families, paper_figure2, standard_suite};
use mct_suite::netlist::Time;

fn t(v: f64) -> Time {
    Time::from_f64(v)
}

const EPS: f64 = 1e-9;

/// Reachability can only help (the restricted check passes whenever the
/// unrestricted one does), so the bound with reachability is never worse.
#[test]
fn reachability_never_hurts_and_helps_on_planted_rows() {
    for entry in standard_suite() {
        let with = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions {
                use_reachability: true,
                ..MctOptions::paper()
            })
            .unwrap();
        let without = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions {
                use_reachability: false,
                ..MctOptions::paper()
            })
            .unwrap();
        assert!(
            with.mct_upper_bound <= without.mct_upper_bound + EPS,
            "{}: reachability worsened the bound ({} vs {})",
            entry.circuit.name(),
            with.mct_upper_bound,
            without.mct_upper_bound
        );
    }
    // On the unreachable-slack family the restriction is the whole story.
    let c = families::unreachable_slack(4, t(6.0), t(8.0));
    let with = MctAnalyzer::new(&c)
        .unwrap()
        .run(&MctOptions::paper())
        .unwrap();
    let without = MctAnalyzer::new(&c)
        .unwrap()
        .run(&MctOptions {
            use_reachability: false,
            ..MctOptions::paper()
        })
        .unwrap();
    assert!(
        with.mct_upper_bound < without.mct_upper_bound - EPS,
        "reachability should strictly tighten the unreachable-slack bound \
         ({} vs {})",
        with.mct_upper_bound,
        without.mct_upper_bound
    );
}

/// LP path coupling only drops failing shift combinations from Ω and
/// tightens the sup of the ones it keeps, while both modes count every σ
/// of Φ(τ). So on every Table-1 row the LP run examines the same σ over
/// the same candidates, keeps every closed-form-valid region valid, and
/// bounds no higher ([`lp_coupling_violation`] checks all three).
///
/// [`lp_coupling_violation`]: mct_suite::fuzz::lp_coupling_violation
#[test]
fn lp_mode_consistent_with_closed_form() {
    for entry in standard_suite() {
        let run = |path_coupled_lp| {
            MctAnalyzer::new(&entry.circuit)
                .unwrap()
                .run(&MctOptions {
                    path_coupled_lp,
                    ..MctOptions::paper()
                })
                .unwrap()
        };
        let (closed, lp) = (run(false), run(true));
        if let Some(v) = mct_suite::fuzz::lp_coupling_violation(&closed, &lp) {
            panic!("{v}");
        }
    }
}

/// Widening the delay intervals (more variation) can only add feasible
/// shift combinations, so the bound is monotone in the variation.
#[test]
fn bound_monotone_in_delay_variation() {
    for entry in standard_suite().into_iter().take(12) {
        let fixed = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        let varied = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions {
                delay_variation: Some((9, 10)),
                ..MctOptions::paper()
            })
            .unwrap();
        // 70% variation multiplies the shift sets; skip circuits whose Φ
        // product genuinely explodes (that is the documented behaviour).
        let wide = match MctAnalyzer::new(&entry.circuit).unwrap().run(&MctOptions {
            delay_variation: Some((7, 10)),
            ..MctOptions::paper()
        }) {
            Ok(r) => r,
            Err(mct_suite::core::MctError::SigmaExplosion { .. }) => continue,
            Err(e) => panic!("{}: {e}", entry.circuit.name()),
        };
        assert!(
            fixed.mct_upper_bound <= varied.mct_upper_bound + EPS,
            "{}: fixed {} > varied {}",
            entry.circuit.name(),
            fixed.mct_upper_bound,
            varied.mct_upper_bound
        );
        assert!(
            varied.mct_upper_bound <= wide.mct_upper_bound + EPS,
            "{}: 90% {} > 70% {}",
            entry.circuit.name(),
            varied.mct_upper_bound,
            wide.mct_upper_bound
        );
    }
}

/// The Φ-signature cache (the paper's suggested speed-up) answers repeat
/// combinations without re-running the decision algorithm.
#[test]
fn sigma_cache_fires_on_exhaustive_sweeps() {
    let c = paper_figure2();
    let report = MctAnalyzer::new(&c)
        .unwrap()
        .run(&MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::paper()
        })
        .unwrap();
    assert!(report.sigma_cache_hits > 0);
    assert!(report.sigma_checked > report.sigma_cache_hits);
}

/// Exhaustive sweeps agree with first-failure sweeps on the reported bound.
#[test]
fn exhaustive_and_first_failure_agree() {
    for entry in standard_suite().into_iter().take(10) {
        let fast = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions::paper())
            .unwrap();
        if fast.exhausted {
            continue;
        }
        let floor = (fast.mct_upper_bound * 0.5).max(0.1);
        let full = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions {
                exhaustive_floor: Some(floor),
                ..MctOptions::paper()
            })
            .unwrap();
        assert!(
            (fast.mct_upper_bound - full.mct_upper_bound).abs() < EPS,
            "{}: bounds disagree ({} vs {})",
            entry.circuit.name(),
            fast.mct_upper_bound,
            full.mct_upper_bound
        );
    }
}

/// The exact product-machine check accepts everything the sufficient
/// condition accepts (its bound is never larger), and strictly more when
/// divergent state is unobservable.
#[test]
fn exact_check_never_worse_and_sometimes_strictly_better() {
    use mct_suite::netlist::{Circuit, GateKind};
    for entry in standard_suite().into_iter().take(8) {
        if entry.circuit.num_dffs() > 6 {
            // The expanded product state grows as ns·m; with the naive
            // variable order the monolithic relation gets expensive past a
            // handful of registers. Documented cost of the exact mode.
            continue;
        }
        let cx = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        let exact = MctAnalyzer::new(&entry.circuit)
            .unwrap()
            .run(&MctOptions {
                exact_check: true,
                ..MctOptions::fixed_delays()
            })
            .unwrap();
        assert!(
            exact.mct_upper_bound <= cx.mct_upper_bound + EPS,
            "{}: exact bound {} above C_x bound {}",
            entry.circuit.name(),
            exact.mct_upper_bound,
            cx.mct_upper_bound
        );
    }
    // A shadow register that no output observes: C_x rejects lateness on
    // it, the exact check does not.
    let mut c = Circuit::new("shadow");
    let q0 = c.add_dff("q0", false, Time::ZERO);
    c.add_dff("q1", false, Time::ZERO);
    let nq = c.add_gate("nq", GateKind::Not, &[q0], t(1.0));
    let slow = c.add_gate("slow", GateKind::Buf, &[q0], t(5.0));
    c.connect_dff_data("q0", nq).unwrap();
    c.connect_dff_data("q1", slow).unwrap();
    c.set_output(q0);
    let cx = MctAnalyzer::new(&c)
        .unwrap()
        .run(&MctOptions::fixed_delays())
        .unwrap();
    let exact = MctAnalyzer::new(&c)
        .unwrap()
        .run(&MctOptions {
            exact_check: true,
            ..MctOptions::fixed_delays()
        })
        .unwrap();
    assert!(
        exact.mct_upper_bound < cx.mct_upper_bound - EPS,
        "exact {} should beat C_x {} on the shadow machine",
        exact.mct_upper_bound,
        cx.mct_upper_bound
    );
}
