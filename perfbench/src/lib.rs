//! Fastest-of-N benchmark for the `mct` workspace.
//!
//! Three workloads drive the public API the way users do:
//!
//! * `table1` — [`mct_bench::compute_row`] over the 31-row standard suite
//!   (the paper's Table 1);
//! * `ladder` — monolithic one-thread analyses of generated rungs whose cost
//!   is dominated by the reachability fixpoint;
//! * `serve` — a closed loop of one [`mct_serve::Client`] against an
//!   in-process daemon replaying a fixed request script.
//!
//! `BENCHMARK.json` gates `table1` and `serve` ([`WORKLOADS`]). `ladder`
//! runs the same way on request ([`EXTRA_WORKLOADS`]) but is not gated: its
//! timings follow the host's slow phases too closely to stay within the
//! largest regression bound the benchmark format allows.
//!
//! The host this runs on has slow phases lasting seconds to minutes, in
//! which the same analysis takes up to twice as long, so no metric is a
//! median or a percentile of raw latencies. A run repeats every operation round-robin
//! until its time is spent; each operation's time is its fastest repetition,
//! and the end-to-end metrics combine those per-operation times. Per-layer
//! times come from a separate traced run ([`trace`]), and the per-layer work
//! counts come from public return values, which repeat exactly.

#![deny(unsafe_code)] // allowed only for the affinity call in `host`

pub mod check;
pub mod host;
pub mod ladder;
pub mod serve;
pub mod table1;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mct_core::MctReport;
use mct_serve::Json;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["table1", "serve"];

/// Workloads the command also runs that `BENCHMARK.json` does not list.
pub const EXTRA_WORKLOADS: [&str; 1] = ["ladder"];

/// Every measured run repeats each operation at least this often, even when
/// `--seconds` is shorter than that many passes.
pub const MIN_PASSES: usize = 3;

/// The value one timed operation hands to its correctness gate.
pub enum Raw {
    /// A regenerated Table-1 row.
    Row(mct_bench::TableRow),
    /// An analysis report.
    Report(Box<MctReport>),
    /// A daemon reply.
    Reply(Json),
    /// A daemon (re)start that answered its first `ping`.
    Ready,
}

/// One workload: a fixed list of operations that a pass runs in order.
pub trait Workload {
    /// Operation labels, in pass order.
    fn op_names(&self) -> Vec<String>;
    /// Starts a pass: regenerates the inputs (and for `serve` binds a fresh
    /// daemon). Timed as the set-up sample of the pass.
    ///
    /// # Errors
    ///
    /// A set-up failure ends the run.
    fn begin_pass(&mut self) -> Result<(), String>;
    /// Untimed preparation right before operation `i`.
    fn prepare_op(&mut self, _i: usize) {}
    /// Runs operation `i`. This call is the timed region.
    ///
    /// # Errors
    ///
    /// The operation failed; it counts against `ok_frac`.
    fn run_op(&mut self, i: usize) -> Result<Raw, String>;
    /// The correctness gate for one result of operation `i` (untimed).
    ///
    /// # Errors
    ///
    /// Why the result is wrong.
    fn check_op(&mut self, i: usize, raw: Raw) -> Result<(), String>;
    /// Untimed tear-down after the last operation of a pass.
    fn end_pass(&mut self) {}
    /// Replays every distinct verdict seen during the run through the event
    /// simulator; returns the operations whose verdict diverged.
    fn replay(&mut self) -> Vec<(usize, String)>;
    /// One traced pass: times the public entry points of every layer for
    /// each operation and attaches the work counts.
    ///
    /// # Errors
    ///
    /// A failure that prevents the traced pass from completing.
    fn trace_pass(&mut self, tracer: &mut trace::Tracer) -> Result<(), String>;
    /// Whether passes alternate between cores (see [`Cores`]). The `serve`
    /// daemon's threads inherit the affinity of the thread that starts
    /// them, so that workload stays unpinned.
    fn alternate_cores(&self) -> bool {
        true
    }
}

/// Runs successive passes on alternating cores.
///
/// On this host a neighbour can slow one vCPU by 1.7× for many seconds
/// while the other stays quiet, and a single-threaded run left to the
/// scheduler stays on whichever core it started on. Pinning pass *p* to
/// core *p* mod *n* gives every operation repetitions on every core, so its
/// fastest repetition is not hostage to one core's neighbour. Dropping the
/// value restores the full mask.
pub struct Cores {
    cpus: Vec<usize>,
    enabled: bool,
}

impl Cores {
    /// Alternates over the allowed cores when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Cores {
            cpus: host::allowed_cpus(),
            enabled,
        }
    }

    /// Pins the calling thread for pass number `pass`.
    pub fn pin(&self, pass: usize) {
        if self.enabled && self.cpus.len() > 1 {
            host::pin_thread(&[self.cpus[pass % self.cpus.len()]]);
        }
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        if self.enabled {
            host::pin_thread(&self.cpus);
        }
    }
}

/// Builds a workload by name.
///
/// # Errors
///
/// Unknown workload names.
pub fn make_workload(name: &str, seed: u64, scratch: PathBuf) -> Result<Box<dyn Workload>, String> {
    match name {
        "table1" => Ok(Box::new(table1::Table1::new(scratch))),
        "ladder" => Ok(Box::new(ladder::Ladder::new(seed, scratch))),
        "serve" => Ok(Box::new(serve::Serve::new(seed, scratch))),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {}, {})",
            WORKLOADS.join(", "),
            EXTRA_WORKLOADS.join(", ")
        )),
    }
}

/// Raw timings and gate outcomes of one measured run.
pub struct Measured {
    /// Operation labels.
    pub names: Vec<String>,
    /// Seconds per repetition, per operation.
    pub samples: Vec<Vec<f64>>,
    /// Gate outcome per repetition, per operation.
    pub ok: Vec<Vec<bool>>,
    /// Seconds per set-up sample (one per pass).
    pub setup: Vec<f64>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Measured {
    /// Completed passes (= repetitions per operation).
    pub fn passes(&self) -> usize {
        self.setup.len()
    }

    /// Operation executions attempted.
    pub fn attempted(&self) -> usize {
        self.ok.iter().map(Vec::len).sum()
    }

    /// Operation executions that failed the gate.
    pub fn failed(&self) -> usize {
        self.ok.iter().flatten().filter(|ok| !**ok).count()
    }

    /// Each operation's fastest repetition, in seconds.
    pub fn fastest(&self) -> Vec<f64> {
        self.samples.iter().map(|s| min(s)).collect()
    }

    /// The sum of per-operation medians over the sum of per-operation
    /// fastest times: 1.0 on a quiet host, higher when the run sat in a slow
    /// phase.
    pub fn contention(&self) -> f64 {
        let medians: f64 = self.samples.iter().map(|s| median(s)).sum();
        medians / self.fastest().iter().sum::<f64>()
    }

    fn fail(&mut self, op: usize, rep: usize, message: String) {
        self.ok[op][rep] = false;
        if self.failures.len() < 8 {
            self.failures
                .push(format!("{} (pass {rep}): {message}", self.names[op]));
        }
    }
}

/// Runs passes until `budget` is spent (and at least `min_passes` ran),
/// then replays the distinct verdicts through the simulator.
pub fn measure(
    w: &mut dyn Workload,
    budget: Duration,
    min_passes: usize,
) -> Result<Measured, String> {
    let names = w.op_names();
    let n = names.len();
    let mut m = Measured {
        names,
        samples: vec![Vec::new(); n],
        ok: vec![Vec::new(); n],
        setup: Vec::new(),
        failures: Vec::new(),
    };
    let cores = Cores::new(w.alternate_cores());
    let start = Instant::now();
    while m.passes() < min_passes || start.elapsed() < budget {
        cores.pin(m.passes());
        let t0 = Instant::now();
        w.begin_pass()?;
        m.setup.push(t0.elapsed().as_secs_f64());
        let rep = m.passes() - 1;
        for i in 0..n {
            w.prepare_op(i);
            let t0 = Instant::now();
            let raw = catch_unwind(AssertUnwindSafe(|| w.run_op(i)));
            m.samples[i].push(t0.elapsed().as_secs_f64());
            m.ok[i].push(true);
            let verdict = match raw {
                Ok(Ok(raw)) => catch_unwind(AssertUnwindSafe(|| w.check_op(i, raw)))
                    .unwrap_or_else(|_| Err("the correctness gate panicked".into())),
                Ok(Err(e)) => Err(e),
                Err(_) => Err("the operation panicked".into()),
            };
            if let Err(e) = verdict {
                m.fail(i, rep, e);
            }
        }
        w.end_pass();
    }
    drop(cores);
    for (op, message) in w.replay() {
        for rep in 0..m.passes() {
            m.fail(op, rep, message.clone());
        }
    }
    Ok(m)
}

/// One named metric value.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics of a measured run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let fastest = m.fastest();
    let ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
    let geomean = (ms.iter().map(|v| v.ln()).sum::<f64>() / ms.len() as f64).exp();
    vec![
        Metric {
            name: "setup_s",
            value: min(&m.setup),
            unit: "s",
        },
        Metric {
            name: "pass_s",
            value: fastest.iter().sum(),
            unit: "s",
        },
        Metric {
            name: "op_geomean_ms",
            value: geomean,
            unit: "ms",
        },
        Metric {
            name: "op_max_ms",
            value: ms.iter().copied().fold(0.0, f64::max),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: host::peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "ok_frac",
            value: (m.attempted() - m.failed()) as f64 / m.attempted() as f64,
            unit: "ratio",
        },
    ]
}

/// The smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}

/// The result line printed last: `correct`, `attempted`, `failed` and
/// the metrics by name with their units.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mct_prng::SmallRng`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = mct_prng::SmallRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}
