//! The traced run: per-layer times and work counts.
//!
//! A traced pass calls the public entry points of each layer one by one
//! from this crate — `netlist` (parse, canonical digest, FSM view), `delay`
//! (floating and transition delays), `tbf` (delay-class extraction, static
//! order, reachability), `core` (steady machine, full analysis), and
//! `serve`/`store` through a daemon round — timing every call. Passes
//! repeat until the run's time is spent and each call's time is its fastest
//! repetition, because a single sample on this host can read up to twice
//! its quiet value. Counts come from public return values and repeat exactly.
//! The spans of the last pass are exported as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mct_bdd::BddManager;
use mct_core::{DecisionContext, MctAnalyzer, MctOptions, VarOrder};
use mct_lp::Rat;
use mct_netlist::{circuit_digests, parse_bench, write_bench, Circuit, DelayModel, FsmView};
use mct_serve::Json;
use mct_tbf::{count_states, reachable_states, ConeExtractor, StaticOrder, TimedVarTable};

use crate::Metric;

struct Span {
    call: &'static str,
    op: String,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, f64)>,
}

/// Collects timed calls and counts over the passes of a traced run.
pub struct Tracer {
    epoch: Instant,
    samples: BTreeMap<(&'static str, String), Vec<f64>>,
    counts: BTreeMap<(&'static str, String), f64>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Starts a pass; only the last pass's spans are exported.
    pub fn begin_pass(&mut self) {
        self.spans.clear();
    }

    /// Times one public call made for operation `op`.
    pub fn time<R>(&mut self, call: &'static str, op: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.span(call, op, t0, secs);
        out
    }

    /// Records a duration measured elsewhere (the daemon's own time).
    pub fn record(&mut self, call: &'static str, op: &str, secs: f64) {
        self.samples
            .entry((call, op.to_owned()))
            .or_default()
            .push(secs);
    }

    /// Records a call that started at `t0` and took `secs`.
    pub fn span(&mut self, call: &'static str, op: &str, t0: Instant, secs: f64) {
        self.record(call, op, secs);
        self.spans.push(Span {
            call,
            op: op.to_owned(),
            start_us: t0.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: secs * 1e6,
            args: Vec::new(),
        });
    }

    /// Records a work count for `op` and attaches it to the span just
    /// recorded.
    pub fn count(&mut self, name: &'static str, op: &str, value: f64) {
        self.counts.insert((name, op.to_owned()), value);
        if let Some(span) = self.spans.last_mut() {
            span.args.push((name, value));
        }
    }

    /// Σ over operations of each operation's fastest call, in ms.
    pub fn sum_ms(&self, call: &str) -> f64 {
        self.fastest(call).iter().sum::<f64>() * 1e3
    }

    /// Mean over operations of each operation's fastest call, in ms.
    pub fn mean_ms(&self, call: &str) -> f64 {
        let v = self.fastest(call);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() * 1e3 / v.len() as f64
        }
    }

    fn fastest(&self, call: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|((c, _), _)| *c == call)
            .map(|(_, s)| crate::min(s))
            .collect()
    }

    /// The sum of a count over operations.
    pub fn total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The largest value of a count over operations.
    pub fn peak(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }

    /// Repetitions per call (the smallest over calls).
    pub fn passes(&self) -> usize {
        self.samples.values().map(Vec::len).min().unwrap_or(0)
    }

    /// The last pass as Chrome trace-event JSON (Perfetto opens it).
    pub fn chrome_json(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("op".to_owned(), Json::Str(s.op.clone()))];
                args.extend(
                    s.args
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Float(*v))),
                );
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.call.into())),
                    (
                        "cat".into(),
                        Json::Str(s.call.split('.').next().unwrap_or("").into()),
                    ),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Float(s.start_us)),
                    ("dur".into(), Json::Float(s.dur_us)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(1)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            (
                "otherData".into(),
                Json::Obj(vec![("workload".into(), Json::Str(workload.into()))]),
            ),
        ])
        .to_compact()
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn per_layer(&self, contention: f64) -> Vec<Metric> {
        let ms = |name, call| Metric {
            name,
            value: self.sum_ms(call),
            unit: "ms",
        };
        let count = |name: &'static str| Metric {
            name,
            value: self.total(name),
            unit: "count",
        };
        let self_ms = self.sum_ms("core.run")
            - ["tbf.extract", "tbf.order", "core.steady", "tbf.reach"]
                .iter()
                .map(|c| self.sum_ms(c))
                .sum::<f64>();
        let lookups = self.total("bdd.ite_lookups");
        vec![
            ms("core.run_ms", "core.run"),
            Metric {
                name: "core.sweep_self_ms",
                value: self_ms,
                unit: "ms",
            },
            count("core.sigma_checked"),
            count("core.candidates"),
            count("core.sigma_cache_hits"),
            count("core.sigma_pruned"),
            count("core.sigma_reused"),
            count("core.errors"),
            ms("core.steady_ms", "core.steady"),
            ms("tbf.extract_ms", "tbf.extract"),
            ms("tbf.order_ms", "tbf.order"),
            ms("tbf.reach_ms", "tbf.reach"),
            count("tbf.reach_states"),
            count("tbf.delay_classes"),
            count("bdd.ite_lookups"),
            Metric {
                name: "bdd.cache_hit_ratio",
                value: if lookups > 0.0 {
                    self.total("bdd.ite_hits") / lookups
                } else {
                    0.0
                },
                unit: "ratio",
            },
            count("bdd.gc_runs"),
            count("bdd.nodes_freed"),
            Metric {
                name: "bdd.peak_nodes",
                value: self.peak("bdd.peak_nodes"),
                unit: "count",
            },
            count("bdd.compactions"),
            ms("delay.floating_ms", "delay.floating"),
            ms("delay.transition_ms", "delay.transition"),
            ms("netlist.parse_ms", "netlist.parse"),
            ms("netlist.canon_ms", "netlist.canon"),
            ms("netlist.view_ms", "netlist.view"),
            Metric {
                name: "serve.rtt_miss_ms",
                value: self.mean_ms("serve.rtt_miss"),
                unit: "ms",
            },
            Metric {
                name: "serve.rtt_hit_ms",
                value: self.mean_ms("serve.rtt_hit"),
                unit: "ms",
            },
            Metric {
                name: "serve.rtt_warm_ms",
                value: self.mean_ms("serve.rtt_warm"),
                unit: "ms",
            },
            Metric {
                name: "serve.rtt_disk_ms",
                value: self.mean_ms("serve.rtt_disk"),
                unit: "ms",
            },
            ms("serve.server_ms", "serve.server"),
            ms("serve.wait_ms", "serve.wait"),
            count("serve.errors"),
            count("serve.report_hits"),
            count("serve.report_misses"),
            count("serve.cones_total"),
            count("serve.cones_replayed"),
            ms("store.restart_ms", "store.restart"),
            count("store.disk_bytes"),
            count("store.disk_files"),
            count("lp.skew_iterations"),
            count("lp.skew_cuts"),
            Metric {
                name: "host.contention",
                value: contention,
                unit: "ratio",
            },
            Metric {
                name: "host.nproc",
                value: crate::host::nproc() as f64,
                unit: "count",
            },
        ]
    }
}

/// Times the layer entry points behind one analysis of `circuit` under
/// `opts`, then the full analysis, and attaches its work counts; a failure
/// is counted in `core.errors` instead of ending the pass.
///
/// `text` is the netlist as a user would submit it (generated circuits are
/// rendered with `write_bench`). After the netlist calls and the floating
/// and transition delays that a Table-1 row computes, the steps follow the
/// monolithic path of `MctAnalyzer::run_warm`: the delay classes, the
/// static variable order, the steady machine, and the reachability
/// fixpoint, each in the state the previous step left. What `core.run`
/// spends beyond those steps is the sweep's own time
/// (`core.sweep_self_ms`).
pub fn analysis(
    tr: &mut Tracer,
    op: &str,
    circuit: &Circuit,
    text: Option<&str>,
    opts: &MctOptions,
) {
    let failed = layers(tr, op, circuit, text, opts).is_err();
    tr.count("core.errors", op, f64::from(u8::from(failed)));
}

fn layers(
    tr: &mut Tracer,
    op: &str,
    circuit: &Circuit,
    text: Option<&str>,
    opts: &MctOptions,
) -> Result<(), String> {
    let rendered;
    let text = match text {
        Some(t) => t,
        None => {
            rendered = write_bench(circuit);
            &rendered
        }
    };
    let parsed = tr.time("netlist.parse", op, || {
        parse_bench(text, &DelayModel::Mapped)
    });
    parsed.map_err(|e| e.to_string())?;
    tr.time("netlist.canon", op, || circuit_digests(circuit));
    let view = tr
        .time("netlist.view", op, || FsmView::new(circuit))
        .map_err(|e| e.to_string())?;

    let mut manager = BddManager::new();
    let mut table = TimedVarTable::new();
    tr.time("delay.floating", op, || {
        mct_delay::floating_delay(&view, &mut manager, &mut table)
    })
    .map_err(|e| e.to_string())?;
    tr.time("delay.transition", op, || {
        mct_delay::transition_delay(&view, &mut manager, &mut table)
    })
    .map_err(|e| e.to_string())?;

    let extractor = ConeExtractor::new(&view).with_node_limit(opts.cone_node_limit);
    let classes = tr
        .time("tbf.extract", op, || {
            extractor.delay_classes_at(&view.sink_starts())
        })
        .map_err(|e| e.to_string())?;
    tr.count("tbf.delay_classes", op, classes.len() as f64);
    let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);
    if l_millis > 0 {
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        if opts.ordering != VarOrder::Alloc {
            let floor = match opts.exhaustive_floor {
                Some(tau) => Rat::new((tau * 1000.0).round() as i64, 1),
                None => Rat::new(l_millis, opts.floor_divisor.max(1)),
            };
            let floor_millis = floor.as_f64();
            let max_shift = if floor_millis > 0.0 {
                (l_millis as f64 / floor_millis).ceil() as i64 + 1
            } else {
                64
            }
            .clamp(1, 128);
            tr.time("tbf.order", op, || {
                StaticOrder::compute(&view, max_shift).apply(&mut table)
            });
        }
        let ctx = tr
            .time("core.steady", op, || {
                DecisionContext::new(&extractor, &mut manager, &mut table)
            })
            .map_err(|e| e.to_string())?;
        if opts.use_reachability && view.num_state_bits() > 0 {
            let states = tr
                .time("tbf.reach", op, || {
                    reachable_states(&extractor, &mut manager, &mut table)
                        .map(|r| count_states(&manager, r, view.num_state_bits()))
                })
                .map_err(|e| e.to_string())?;
            tr.count("tbf.reach_states", op, states);
        }
        drop(ctx);
    }

    let mut analyzer = MctAnalyzer::new(circuit).map_err(|e| e.to_string())?;
    let report = tr
        .time("core.run", op, || analyzer.run(opts))
        .map_err(|e| e.to_string())?;
    let k = &report.kernel;
    for (name, value) in [
        ("core.sigma_checked", report.sigma_checked as f64),
        ("core.candidates", report.candidates_checked as f64),
        ("core.sigma_cache_hits", report.sigma_cache_hits as f64),
        ("core.sigma_pruned", k.sigma_pruned as f64),
        ("core.sigma_reused", k.sigma_reused as f64),
        ("bdd.ite_lookups", k.ops_cache_lookups as f64),
        ("bdd.ite_hits", k.ops_cache_hits as f64),
        ("bdd.gc_runs", k.gc_runs as f64),
        ("bdd.nodes_freed", k.nodes_freed as f64),
        ("bdd.peak_nodes", k.peak_nodes as f64),
        ("bdd.compactions", k.compactions as f64),
        ("lp.skew_iterations", k.skew_lp_iterations as f64),
        ("lp.skew_cuts", k.skew_lp_cuts as f64),
    ] {
        tr.count(name, op, value);
    }
    Ok(())
}

/// The per-layer table a traced run prints, one metric per line.
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
    out
}
