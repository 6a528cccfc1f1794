//! `table1`: the paper's Table 1, one operation per suite row.
//!
//! About half of a pass is the Φ sweep of three 12-flip-flop rows and about
//! a third is reachability (the 1,023-step LFSR fixpoint and the two
//! composite rows), so this workload moves with the sweep first and the
//! reachability fixpoint second.

use std::collections::HashMap;

use mct_core::MctOptions;
use mct_gen::{standard_suite, SuiteEntry};

use crate::check::{row_text, Verdicts};
use crate::trace::{self, Tracer};
use crate::{Raw, Workload};

/// The `table1` workload.
pub struct Table1 {
    suite: Vec<SuiteEntry>,
    opts: MctOptions,
    refs: HashMap<String, String>,
    verdicts: Verdicts,
    scratch: std::path::PathBuf,
}

impl Table1 {
    /// The suite is fixed, so the workload seed changes nothing here.
    pub fn new(scratch: std::path::PathBuf) -> Self {
        Table1 {
            suite: standard_suite(),
            opts: MctOptions::paper(),
            refs: crate::check::references("table1"),
            verdicts: Verdicts::default(),
            scratch,
        }
    }

    /// Reference rows for `data/refs.tsv`.
    pub fn record(&self) -> Vec<(String, String)> {
        self.suite
            .iter()
            .map(|e| {
                let row = mct_bench::compute_row(e, &self.opts).expect("suite rows analyze");
                (e.circuit.name().to_owned(), row_text(&row))
            })
            .collect()
    }
}

impl Workload for Table1 {
    fn op_names(&self) -> Vec<String> {
        self.suite
            .iter()
            .map(|e| e.circuit.name().to_owned())
            .collect()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.suite = std::hint::black_box(standard_suite());
        Ok(())
    }

    fn run_op(&mut self, i: usize) -> Result<Raw, String> {
        mct_bench::compute_row(&self.suite[i], &self.opts)
            .map(Raw::Row)
            .map_err(|e| e.to_string())
    }

    fn check_op(&mut self, i: usize, raw: Raw) -> Result<(), String> {
        let Raw::Row(row) = raw else {
            return Err("expected a table row".into());
        };
        let entry = &self.suite[i];
        let name = entry.circuit.name();
        // Planted markers must survive; a neutral random machine may still
        // earn one.
        if (entry.expect_tighter_mct && !row.tighter_mct)
            || (entry.expect_comb_false_path && !row.comb_false_path)
        {
            return Err(format!("planted markers lost: got `{}`", row.markers()));
        }
        let text = row_text(&row);
        if self.refs.get(name) != Some(&text) {
            return Err(format!(
                "row differs from reference:\n  got  {text}\n  want {:?}",
                self.refs.get(name)
            ));
        }
        self.verdicts.note(name, &entry.circuit, row.mct, i);
        Ok(())
    }

    fn replay(&mut self) -> Vec<(usize, String)> {
        self.verdicts.replay()
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for entry in &self.suite {
            let opts = MctOptions {
                use_reachability: self.opts.use_reachability && entry.use_reachability,
                ..self.opts.clone()
            };
            trace::analysis(tr, entry.circuit.name(), &entry.circuit, None, &opts);
        }
        let circuits: Vec<_> = self.suite.iter().map(|e| e.circuit.clone()).collect();
        crate::serve::leg(tr, &circuits, &self.scratch)
    }
}
