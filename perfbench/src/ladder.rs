//! `ladder`: generated rungs analyzed on the `mct analyze` default path
//! (monolithic, one thread, `MctOptions::paper()`).
//!
//! Reachability is ~95% of each composite and counter rung and the only
//! place garbage collection runs, so this workload isolates the fixpoint
//! and the BDD kernel; the wide random machines add extraction cost and
//! node pressure. Rungs stop where a monolithic run takes ~0.3 s on a quiet
//! host, so a pass takes under a second. A slow host phase moves every
//! operation alike, and only many repetitions per run find its quiet
//! moments: with 1-s rungs a 36-s run got ~12 repetitions of each, and the
//! slowest rung's fastest time spread by up to 0.28 over ten runs.

use std::collections::HashMap;

use mct_core::MctOptions;
use mct_gen::families::{binary_counter, composite, random_fsm};
use mct_netlist::{Circuit, Time};

use crate::check::{check_report, report_text, Verdicts};
use crate::trace::{self, Tracer};
use crate::{Raw, Workload};

/// `random_fsm(seed, 16, 4, 256)` generator seeds whose analyses all take
/// 65–80 ms on a quiet host, with 118k–176k peak nodes. Random machines of this size vary
/// 180× in cost across generator seeds, so the workload seed picks among
/// these vetted ones only.
pub const RANDOM_POOL: [u64; 4] = [9, 11, 79, 93];

/// How many pool machines one run analyzes.
const RANDOM_RUNGS: usize = 2;

/// One rung: a generated circuit and the options it is analyzed under.
pub struct Rung {
    /// Label (generator and parameters).
    pub name: String,
    /// The circuit.
    pub circuit: Circuit,
    /// Analysis options.
    pub opts: MctOptions,
}

fn t(v: f64) -> Time {
    Time::from_f64(v)
}

fn rung(name: String, circuit: Circuit, budget_ms: Option<u64>) -> Rung {
    Rung {
        name,
        circuit,
        opts: MctOptions {
            time_budget_ms: budget_ms,
            ..MctOptions::paper()
        },
    }
}

/// The fixed rungs plus the given `random_fsm` generator seeds.
pub fn rungs(random_seeds: &[u64]) -> Vec<Rung> {
    let mut v = vec![
        rung(
            "composite(10,6,4)".into(),
            composite(10, 6, 4, t(7.2), t(8.0)),
            None,
        ),
        rung(
            "composite(8,6,5)".into(),
            composite(8, 6, 5, t(6.0), t(8.0)),
            None,
        ),
        rung(
            "binary_counter(14)".into(),
            binary_counter(14, t(0.6)),
            None,
        ),
        // Under a 100 ms budget; the deadline is armed only after the
        // reachability fixpoint, so this rung runs to completion.
        rung(
            "binary_counter(15)@100ms".into(),
            binary_counter(15, t(0.6)),
            Some(100),
        ),
    ];
    for &s in random_seeds {
        v.push(rung(
            format!("random_fsm({s},16,4,256)"),
            random_fsm(s, 16, 4, 256),
            None,
        ));
    }
    v
}

/// The `ladder` workload.
pub struct Ladder {
    random_seeds: Vec<u64>,
    rungs: Vec<Rung>,
    refs: HashMap<String, String>,
    verdicts: Verdicts,
    scratch: std::path::PathBuf,
}

impl Ladder {
    /// `seed` picks the random machines.
    pub fn new(seed: u64, scratch: std::path::PathBuf) -> Self {
        let mut random_seeds: Vec<u64> = crate::permutation(RANDOM_POOL.len(), seed)
            [..RANDOM_RUNGS]
            .iter()
            .map(|&k| RANDOM_POOL[k])
            .collect();
        random_seeds.sort_unstable();
        Ladder {
            rungs: rungs(&random_seeds),
            random_seeds,
            refs: crate::check::references("ladder"),
            verdicts: Verdicts::default(),
            scratch,
        }
    }

    /// Reference reports for `data/refs.tsv`: every fixed rung and every
    /// pool machine.
    pub fn record() -> Vec<(String, String)> {
        rungs(&RANDOM_POOL)
            .iter()
            .map(|r| {
                let report = mct_core::MctAnalyzer::new(&r.circuit)
                    .and_then(|mut a| a.run(&r.opts))
                    .expect("ladder rungs analyze");
                (r.name.clone(), report_text(&report))
            })
            .collect()
    }
}

impl Workload for Ladder {
    fn op_names(&self) -> Vec<String> {
        self.rungs.iter().map(|r| r.name.clone()).collect()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.rungs = std::hint::black_box(rungs(&self.random_seeds));
        Ok(())
    }

    fn run_op(&mut self, i: usize) -> Result<Raw, String> {
        let r = &self.rungs[i];
        mct_core::MctAnalyzer::new(&r.circuit)
            .and_then(|mut a| a.run(&r.opts))
            .map(|report| Raw::Report(Box::new(report)))
            .map_err(|e| e.to_string())
    }

    fn check_op(&mut self, i: usize, raw: Raw) -> Result<(), String> {
        let Raw::Report(report) = raw else {
            return Err("expected a report".into());
        };
        let r = &self.rungs[i];
        check_report(&report, self.refs.get(&r.name))?;
        self.verdicts
            .note(&r.name, &r.circuit, report.mct_upper_bound, i);
        Ok(())
    }

    fn replay(&mut self) -> Vec<(usize, String)> {
        self.verdicts.replay()
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for r in &self.rungs {
            trace::analysis(tr, &r.name, &r.circuit, None, &r.opts);
        }
        let circuits: Vec<_> = self.rungs.iter().map(|r| r.circuit.clone()).collect();
        crate::serve::leg(tr, &circuits, &self.scratch)
    }
}
