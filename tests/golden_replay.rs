//! Golden replay: the analysis reports produced by the suite must stay
//! byte-identical across kernel rewrites. The golden file was captured on
//! the pre-complement-edge BDD kernel; any change to report *content*
//! (as opposed to internal handle values) is a regression.
//!
//! Regenerate with `MCT_BLESS=1 cargo test --test golden_replay` — but only
//! when a report change is intentional and called out in CHANGES.md.

use mct_serve::report::report_to_json;
use mct_suite::core::{MctAnalyzer, MctOptions};
use mct_suite::gen::families;
use mct_suite::netlist::{parse_bench, Circuit, DelayModel};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/data/golden_reports.tsv";
const SKEW_GOLDEN_PATH: &str = "tests/data/golden_skew_reports.tsv";
const EXACT_GOLDEN_PATH: &str = "tests/data/golden_exact_reports.tsv";
const LP_GOLDEN_PATH: &str = "tests/data/golden_lp_reports.tsv";

fn golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

fn skew_golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SKEW_GOLDEN_PATH)
}

fn exact_golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(EXACT_GOLDEN_PATH)
}

fn lp_golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(LP_GOLDEN_PATH)
}

/// Every circuit in the golden corpus: each `examples/*.bench` netlist plus
/// twenty seeded machines from the random family.
fn corpus() -> Vec<(String, Circuit, MctOptions)> {
    let mut out = Vec::new();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut benches: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bench"))
        .collect();
    benches.sort();
    for path in benches {
        let text = std::fs::read_to_string(&path).expect("read bench file");
        let circuit = parse_bench(&text, &DelayModel::Mapped).expect("parse bench file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, circuit, MctOptions::paper()));
    }
    // Exact delays keep the σ enumeration small enough that every seed
    // completes.
    for seed in 0..20u64 {
        let c = families::random_fsm(seed, 3 + (seed as usize % 3), seed as usize % 2, 10);
        out.push((format!("random_fsm/{seed}"), c, MctOptions::fixed_delays()));
    }
    out
}

/// A run that errors (budget caps) must error identically on every kernel,
/// so error text participates in the golden capture too.
fn report_line(circuit: &Circuit, opts: &MctOptions) -> String {
    let outcome = MctAnalyzer::new(circuit)
        .expect("analyzable circuit")
        .run(opts);
    match outcome {
        Ok(report) => report_to_json(&report).to_compact(),
        Err(e) => format!("error: {e}"),
    }
}

/// Renders the corpus with each circuit's options passed through
/// `mode_opts`.
fn render(mode_opts: impl Fn(MctOptions) -> MctOptions) -> String {
    let mut rendered = String::new();
    for (name, circuit, opts) in corpus() {
        let line = report_line(&circuit, &mode_opts(opts));
        writeln!(rendered, "{name}\t{line}").unwrap();
    }
    rendered
}

/// Compares `rendered` against the capture at `path`, or rewrites the
/// capture under `MCT_BLESS`.
fn replay_or_bless(path: &std::path::Path, rendered: &str) {
    if std::env::var_os("MCT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; run with MCT_BLESS=1 to capture");
    for (want, got) in golden.lines().zip(rendered.lines()) {
        let name = want.split('\t').next().unwrap_or("?");
        assert_eq!(
            want,
            got,
            "{}: golden replay mismatch for {name}",
            path.display()
        );
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden corpus size changed"
    );
}

/// Reports of the production path (sliced into cones of influence) must
/// match the golden capture from the previous kernel byte for byte. (The capture was taken
/// under allocation order on the unsliced engine; `order_invariance.rs`
/// checks that the production static order reproduces it.)
#[test]
fn reports_replay_byte_identical() {
    let rendered = render(|opts| opts);
    replay_or_bless(&golden_file(), &rendered);
}

/// The unsliced reference (`decompose: false`: the whole circuit as one
/// cone) must reproduce the same capture, so a recombination bug in the sliced path can never be blessed away
/// unnoticed: the two would disagree here first.
#[test]
fn unsliced_reference_replays_byte_identical() {
    let golden = std::fs::read_to_string(golden_file())
        .expect("golden file missing; run reports_replay_byte_identical with MCT_BLESS=1 first");
    let golden: std::collections::HashMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once('\t')).collect();
    for (name, circuit, opts) in corpus() {
        let want = *golden
            .get(name.as_str())
            .expect("circuit missing from golden file");
        let reference = MctOptions {
            decompose: false,
            ..opts
        };
        assert_eq!(
            want,
            report_line(&circuit, &reference),
            "{name}: unsliced report differs from the golden capture"
        );
    }
}

/// Skew mode (`MctOptions::skew`) has its own golden capture — the skew
/// tier is a *semantic* extension (the report gains a `skew` section and
/// the cache fingerprint changes), so it gets its own file rather than a
/// re-bless of the base goldens, which must stay byte-identical to their
/// pre-skew capture.
///
/// Regenerate with `MCT_BLESS=1 cargo test --test golden_replay`.
#[test]
fn skew_mode_reports_replay_byte_identical() {
    let rendered = render(|opts| MctOptions { skew: true, ..opts });
    replay_or_bless(&skew_golden_file(), &rendered);
}

/// Exact mode (`MctOptions::exact_check`) decides each shift combination
/// by product-machine reachability instead of the sufficient condition
/// `C_x`, and recombines per-cone verdicts by fixpoint iteration and bit
/// budget rather than by mismatch position — a merge no other golden
/// covers. Its capture pins those reports. A 16-bit
/// product budget keeps the capture cheap and splits the corpus between
/// certified bounds and `ProductTooLarge` errors, so both the verdict merge
/// and the budget merge are pinned.
///
/// Regenerate with `MCT_BLESS=1 cargo test --test golden_replay`.
#[test]
fn exact_mode_reports_replay_byte_identical() {
    let rendered = render(|opts| MctOptions {
        exact_check: true,
        max_product_bits: 16,
        ..opts
    });
    replay_or_bless(&exact_golden_file(), &rendered);
}

/// LP mode (`MctOptions::path_coupled_lp`) couples each delay class to a
/// representative gate path with the Section-7 linear program, so it drops
/// shift combinations no delay assignment realizes and tightens the sup of
/// the ones it keeps: a bound, region and failure path no other golden
/// covers. Its capture holds the golden corpus under LP coupling, plus the
/// variable-delay sweeps where LP coupling does the most work: the
/// shared-trunk `sigma_star(2)` and `sigma_star(3)` under a 50–100%
/// variation interval, and the two example netlists swept to 0.5.
///
/// Regenerate with `MCT_BLESS=1 cargo test --test golden_replay`.
#[test]
fn lp_mode_reports_replay_byte_identical() {
    let lp = |opts| MctOptions {
        path_coupled_lp: true,
        ..opts
    };
    let mut rendered = render(lp);
    let wide = MctOptions {
        delay_variation: Some((1, 2)),
        exhaustive_floor: Some(0.5),
        max_sigma_combos: 1 << 22,
        ..MctOptions::paper()
    };
    for branches in [2, 3] {
        let line = report_line(&families::sigma_star(branches), &lp(wide.clone()));
        writeln!(rendered, "sigma_star({branches})/wide/floor0.5\t{line}").unwrap();
    }
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for name in ["fig2.bench", "skew_ring.bench"] {
        let text = std::fs::read_to_string(examples.join(name)).expect("read bench file");
        let circuit = parse_bench(&text, &DelayModel::Mapped).expect("parse bench file");
        let opts = MctOptions {
            exhaustive_floor: Some(0.5),
            ..MctOptions::paper()
        };
        let line = report_line(&circuit, &lp(opts));
        writeln!(rendered, "{name}/floor0.5\t{line}").unwrap();
    }
    replay_or_bless(&lp_golden_file(), &rendered);
}
