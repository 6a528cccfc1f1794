//! Order invariance: the serialized analysis report is byte-identical
//! under both variable-ordering policies — allocation order (the reference
//! the golden reports were captured under) and the structural static order
//! every analysis runs in production — and through the unsliced reference
//! and the seeded (warm-start) path.
//!
//! This is the hard correctness bar of the ordering subsystem: variable
//! order may change node counts and wall time, never results. The analyses
//! earn this by comparing canonical function handles only.

use mct_serve::report::report_to_json;
use mct_suite::core::{MctAnalyzer, MctOptions, VarOrder};
use mct_suite::gen::{families, paper_figure2, s27};
use mct_suite::netlist::{Circuit, DelayModel, Time};

/// The invariance corpus: the paper's Figure 2, the ISCAS'89 s27, and
/// twenty seeded random FSMs (same family parameters as the golden-replay
/// corpus).
fn corpus() -> Vec<(String, Circuit, MctOptions)> {
    let mut out = vec![
        ("fig2".into(), paper_figure2(), MctOptions::paper()),
        ("s27".into(), s27(&DelayModel::Mapped), MctOptions::paper()),
    ];
    for seed in 0..20u64 {
        let c = families::random_fsm(seed, 3 + (seed as usize % 3), seed as usize % 2, 10);
        out.push((format!("random_fsm/{seed}"), c, MctOptions::fixed_delays()));
    }
    out
}

fn serialized(circuit: &Circuit, opts: &MctOptions) -> String {
    match MctAnalyzer::new(circuit).expect("analyzable").run(opts) {
        Ok(report) => report_to_json(&report).to_compact(),
        Err(e) => format!("error: {e}"),
    }
}

/// One allocation-order vs static-order comparison per circuit.
fn check_alloc_matches_static(circuits: &[(String, Circuit, MctOptions)]) {
    for (name, circuit, opts) in circuits {
        let alloc = MctOptions {
            ordering: VarOrder::Alloc,
            ..opts.clone()
        };
        let fixed = MctOptions {
            ordering: VarOrder::Static,
            ..opts.clone()
        };
        assert_eq!(
            serialized(circuit, &alloc),
            serialized(circuit, &fixed),
            "{name}: static-order report differs from the alloc-order run"
        );
    }
}

#[test]
fn reports_identical_across_ordering_policies() {
    check_alloc_matches_static(&corpus());
}

/// Skew mode runs the optimization tier — the LP binary search, the exact
/// Bellman–Ford certification, and up to two exact sub-sweeps (the zeroed
/// baseline and the witness machine) — and all of it must be just as
/// order-invariant as the base sweep. The corpus includes the `skew/*`
/// families, where the tier genuinely improves the bound and a
/// non-trivial witness participates in the serialized report.
#[test]
fn skew_mode_reports_identical_across_ordering_policies() {
    let mut circuits: Vec<_> = corpus().into_iter().take(10).collect();
    circuits.push((
        "skew_ring".into(),
        families::skew_ring(Time::from_f64(5.0), Time::from_f64(1.0)),
        MctOptions::fixed_delays(),
    ));
    circuits.push((
        "skew_pipeline".into(),
        families::skew_pipeline(&[
            Time::from_f64(6.0),
            Time::from_f64(2.0),
            Time::from_f64(1.0),
        ]),
        MctOptions::fixed_delays(),
    ));
    let skewed: Vec<_> = circuits
        .into_iter()
        .map(|(name, c, opts)| (name, c, MctOptions { skew: true, ..opts }))
        .collect();
    check_alloc_matches_static(&skewed);
}

/// The cone-sliced production path must agree byte for byte with the
/// unsliced reference (the whole circuit as one cone) — including on a
/// genuinely multi-cone machine (the
/// three-component composite), where slicing actually splits the analysis.
/// (The random machines of the corpus get the same check against the
/// golden capture in `golden_replay.rs`.)
#[test]
fn decomposed_reports_match_monolithic_reference() {
    let circuits = [
        ("s27", s27(&DelayModel::Mapped), MctOptions::paper()),
        (
            "composite",
            families::composite(4, 3, 3, Time::from_f64(6.0), Time::from_f64(8.0)),
            MctOptions::paper(),
        ),
    ];
    for (name, circuit, base) in &circuits {
        let reference = serialized(
            circuit,
            &MctOptions {
                decompose: false,
                ..base.clone()
            },
        );
        assert_eq!(
            reference,
            serialized(circuit, base),
            "{name}: sliced report differs from the unsliced run"
        );
    }
}

/// Seeded runs must reproduce the cold report under both policies — the
/// harvested cone entries carry their own variable order, and importing
/// them into a differently ordered manager must not perturb any answer.
#[test]
fn warm_start_is_order_invariant() {
    let circuits = [
        paper_figure2(),
        families::composite(4, 3, 3, Time::from_f64(6.0), Time::from_f64(8.0)),
    ];
    for c in &circuits {
        for ordering in [VarOrder::Alloc, VarOrder::Static] {
            let opts = MctOptions {
                ordering,
                ..MctOptions::paper()
            };
            let (cold, harvest) = MctAnalyzer::new(c)
                .unwrap()
                .run_decomposed(&opts, &[])
                .unwrap();
            // Replay under the *other* policy too: entries are functions,
            // not orders.
            for replay in [VarOrder::Alloc, VarOrder::Static] {
                let seeds: Vec<_> = harvest.entries.iter().map(Option::as_ref).collect();
                let (warm, artifacts) = MctAnalyzer::new(c)
                    .unwrap()
                    .run_decomposed(
                        &MctOptions {
                            ordering: replay,
                            ..opts.clone()
                        },
                        &seeds,
                    )
                    .unwrap();
                assert_eq!(artifacts.cones_replayed, artifacts.cones_total);
                assert_eq!(
                    report_to_json(&cold).to_compact(),
                    report_to_json(&warm).to_compact(),
                    "{}: {ordering:?} entries replayed under {replay:?} differ from cold",
                    c.name()
                );
            }
        }
    }
}
