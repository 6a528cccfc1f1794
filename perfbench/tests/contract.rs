//! The benchmark's own checks: one short pass of each workload passes its
//! correctness gate, every per-layer count repeats exactly between two
//! traced passes, and every metric the benchmark prints is declared in
//! `BENCHMARK.json` with the same unit. The ungated `ladder` workload is
//! checked as well.

use std::path::PathBuf;
use std::time::Duration;

use mct_perfbench::trace::Tracer;
use mct_perfbench::{end_to_end, make_workload, measure, Metric, EXTRA_WORKLOADS, WORKLOADS};
use mct_serve::Json;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.into_iter().chain(EXTRA_WORKLOADS)
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_declared(workload: &str, section: &str, metrics: &[Metric]) {
    let declared = declared(section);
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(
        printed, declared,
        "{workload}: printed {section} metrics differ from BENCHMARK.json"
    );
}

#[test]
fn benchmark_json_lists_the_gated_workloads() {
    let listed: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn one_short_pass_of_each_workload_is_correct() {
    for w in all_workloads() {
        let mut workload = make_workload(w, 1, scratch(&format!("gate-{w}"))).unwrap();
        let m = measure(workload.as_mut(), Duration::ZERO, 1).unwrap();
        assert_eq!(m.failed(), 0, "{w}: {:?}", m.failures);
        let metrics = end_to_end(&m);
        let ok = metrics.iter().find(|m| m.name == "ok_frac").unwrap();
        assert_eq!(ok.value, 1.0, "{w}");
        assert_declared(w, "end_to_end", &metrics);
    }
}

#[test]
fn per_layer_counts_repeat_exactly_across_passes() {
    for w in all_workloads() {
        let mut workload = make_workload(w, 1, scratch(&format!("trace-{w}"))).unwrap();
        let mut counts = || {
            let mut tracer = Tracer::default();
            tracer.begin_pass();
            workload.trace_pass(&mut tracer).unwrap();
            let metrics = tracer.per_layer(1.0);
            assert_declared(w, "per_layer", &metrics);
            metrics
                .into_iter()
                .filter(|m| m.unit == "count")
                .map(|m| (m.name, m.value))
                .collect::<Vec<_>>()
        };
        let first = counts();
        assert_eq!(
            first,
            counts(),
            "{w}: per-layer counts differ between passes"
        );
        let errors = |name| first.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(errors("core.errors"), 0.0, "{w}");
        assert_eq!(errors("serve.errors"), 0.0, "{w}");
    }
}
