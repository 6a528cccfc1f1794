//! The correctness gate: reference reports recorded with the benchmark, and
//! the event-simulator replay of every distinct verdict.

use std::collections::{BTreeMap, HashMap};

use mct_bench::TableRow;
use mct_core::MctReport;
use mct_netlist::{Circuit, Time};
use mct_serve::report::report_to_json;
use mct_serve::Json;
use mct_sim::{functional_trace, DelayMode, SimConfig, Simulator};

/// Reference results recorded at the commit that introduced the benchmark:
/// one `workload<TAB>operation<TAB>canonical result` line each.
const REFS: &str = include_str!("../data/refs.tsv");

/// The recorded references of one workload, keyed by operation label.
pub fn references(workload: &str) -> HashMap<String, String> {
    REFS.lines()
        .filter_map(|line| {
            let mut parts = line.splitn(3, '\t');
            let (w, key, text) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload).then(|| (key.to_owned(), text.to_owned()))
        })
        .collect()
}

/// A Table-1 row without its CPU columns, in a fixed JSON form.
pub fn row_text(row: &TableRow) -> String {
    Json::Obj(vec![
        ("circuit".into(), Json::Str(row.circuit.clone())),
        ("gates".into(), Json::Int(row.gates as i64)),
        ("dffs".into(), Json::Int(row.dffs as i64)),
        ("topological".into(), Json::Float(row.topological)),
        ("floating".into(), Json::Float(row.floating)),
        ("transition".into(), Json::Float(row.transition)),
        ("mct".into(), Json::Float(row.mct)),
        ("markers".into(), Json::Str(row.markers())),
    ])
    .to_compact()
}

/// A report in canonical `report_to_json` form (which leaves out `kernel`).
pub fn report_text(report: &MctReport) -> String {
    report_to_json(report).to_compact()
}

/// Checks an analysis report against its reference. A run stopped by its
/// time budget may instead return a `timed_out` report whose bound is not
/// below the reference bound (a partial result is still sound).
pub fn check_report(report: &MctReport, reference: Option<&String>) -> Result<(), String> {
    let reference = reference.ok_or("no reference report recorded")?;
    let text = report_text(report);
    if &text == reference {
        return Ok(());
    }
    if report.timed_out {
        let ref_bound = Json::parse(reference)
            .ok()
            .and_then(|r| r.get("mct_upper_bound").and_then(Json::as_f64))
            .ok_or("reference report has no bound")?;
        if report.mct_upper_bound >= ref_bound {
            return Ok(());
        }
    }
    Err(format!(
        "report differs from reference:\n  got  {text}\n  want {reference}"
    ))
}

/// The distinct verdicts (circuit, certified bound) a run produced, with
/// the operations that produced each.
#[derive(Default)]
pub struct Verdicts {
    seen: BTreeMap<(String, i64), (Circuit, Vec<usize>)>,
}

impl Verdicts {
    /// Records that operation `op` certified `bound` (time units) for
    /// `circuit`, identified by `key`.
    pub fn note(&mut self, key: &str, circuit: &Circuit, bound: f64, op: usize) {
        let millis = (bound * 1000.0).round() as i64;
        let entry = self
            .seen
            .entry((key.to_owned(), millis))
            .or_insert_with(|| (circuit.clone(), Vec::new()));
        if !entry.1.contains(&op) {
            entry.1.push(op);
        }
    }

    /// Simulates each verdict's circuit one milli-unit above its bound, with
    /// every gate at its maximum delay and with delays drawn from 90–100%,
    /// and compares against the zero-delay functional model. Returns the
    /// operations whose verdict diverged.
    pub fn replay(&self) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        for ((key, millis), (circuit, ops)) in &self.seen {
            if let Err(e) = replay_one(circuit, *millis + 1) {
                let message = format!("{key}: simulation at bound + 1 milli: {e}");
                failures.extend(ops.iter().map(|&op| (op, message.clone())));
            }
        }
        failures
    }
}

const REPLAY_CYCLES: usize = 40;

fn replay_one(circuit: &Circuit, period_millis: i64) -> Result<(), String> {
    if period_millis <= 1 {
        // A bound of 0: the machine has no register-to-register path.
        return Ok(());
    }
    let sim = Simulator::new(circuit).map_err(|e| e.to_string())?;
    let period = Time::from_millis(period_millis);
    let modes = [
        DelayMode::Max,
        DelayMode::RandomUniform {
            min_factor_percent: 90,
            seed: 1,
        },
        DelayMode::RandomUniform {
            min_factor_percent: 90,
            seed: 2,
        },
    ];
    for mode in modes {
        let config = SimConfig::at_period(period)
            .with_cycles(REPLAY_CYCLES)
            .with_delay_mode(mode);
        let inputs = |cycle: usize, i: usize| (cycle * 13 + i * 5) % 7 < 3;
        let trace = sim.run(&config, inputs);
        let (states, outputs) = functional_trace(circuit, REPLAY_CYCLES, inputs);
        if !trace.matches(&states, &outputs) {
            return Err(format!(
                "{mode:?} diverges from the functional trace at cycle {:?}",
                trace.first_divergence(&states)
            ));
        }
    }
    Ok(())
}
