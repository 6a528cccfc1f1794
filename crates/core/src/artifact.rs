//! Plain-data forms of the hot analysis artifacts, for on-disk persistence
//! and cross-replica transport.
//!
//! The two symbolic artifact classes the service caches in memory —
//! [`ReachSnapshot`]s and per-cone [`ConeCacheEntry`] replay seeds — each
//! get a fully plain-data mirror here (`ReachData`, `ConeData`) built from
//! [`mct_bdd::BddSnapshot`] plus [`TimedVar`] vectors. The mirrors contain
//! no handles, no managers and no maps with nondeterministic iteration
//! order, so a byte codec (the `mct-store` crate) can serialize them
//! without reaching into symbolic state.
//!
//! Import is paranoid by design: these structs come from disk, possibly
//! from another replica, possibly stale, possibly corrupted. Every import
//! validates shape before any symbolic reconstruction happens and returns
//! a structured [`ArtifactError`] instead of panicking — a bad artifact is
//! a cache miss, never a crash, and never corrupts a live manager.

use crate::analyzer::ReachSnapshot;
use crate::decision::DecisionOutcome;
use crate::decompose::{ConeCacheEntry, ExactPart};
use crate::exact::ExactRun;
use mct_bdd::{validate_order, Bdd, BddImportError, BddManager, BddSnapshot, Var};
use mct_tbf::{TimedVar, TimedVarTable};
use std::collections::HashSet;
use std::fmt;

/// Why a plain-data artifact failed to import.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The embedded BDD snapshot was malformed.
    Bdd(BddImportError),
    /// The timed-variable vector cannot cover the snapshot's variables.
    VarCount {
        /// Variables the snapshot declares.
        expected: usize,
        /// Timed variables actually provided.
        got: usize,
    },
    /// The same timed variable appears twice (indices would collide).
    DuplicateTimedVar {
        /// Display form of the duplicated variable.
        var: String,
    },
    /// The snapshot carries the wrong number of roots for the artifact.
    RootCount {
        /// Roots the artifact shape requires.
        expected: usize,
        /// Roots the snapshot carries.
        got: usize,
    },
    /// The ρ-shape (tail, period) does not fit the stored layer list.
    BadRho {
        /// Stored tail length.
        tail: u64,
        /// Stored period.
        period: u64,
        /// Stored layer count.
        layers: usize,
    },
    /// An outcome record decodes to no known [`DecisionOutcome`].
    BadOutcome {
        /// The unrecognized kind tag.
        kind: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Bdd(e) => write!(f, "bdd snapshot rejected: {e}"),
            ArtifactError::VarCount { expected, got } => {
                write!(
                    f,
                    "artifact names {got} timed variables, snapshot needs {expected}"
                )
            }
            ArtifactError::DuplicateTimedVar { var } => {
                write!(f, "timed variable {var} appears twice")
            }
            ArtifactError::RootCount { expected, got } => {
                write!(
                    f,
                    "snapshot carries {got} roots, artifact shape needs {expected}"
                )
            }
            ArtifactError::BadRho {
                tail,
                period,
                layers,
            } => write!(
                f,
                "rho shape (tail {tail}, period {period}) does not fit {layers} layers"
            ),
            ArtifactError::BadOutcome { kind } => {
                write!(f, "unknown decision-outcome kind {kind:?}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<BddImportError> for ArtifactError {
    fn from(e: BddImportError) -> Self {
        ArtifactError::Bdd(e)
    }
}

/// A decoded decision outcome in the stable `parts()` encoding.
#[derive(Clone, PartialEq, Debug)]
pub struct OutcomeData {
    /// Kind tag (`"valid"`, `"basis_state"`, …).
    pub kind: String,
    /// Absolute cycle, for the basis mismatches.
    pub cycle: Option<i64>,
    /// Bit or output index, for the mismatches.
    pub index: Option<usize>,
}

impl OutcomeData {
    fn from_outcome(o: DecisionOutcome) -> Self {
        let (kind, cycle, index) = o.parts();
        OutcomeData {
            kind: kind.to_owned(),
            cycle,
            index,
        }
    }

    fn to_outcome(&self) -> Result<DecisionOutcome, ArtifactError> {
        DecisionOutcome::from_parts(&self.kind, self.cycle, self.index).ok_or_else(|| {
            ArtifactError::BadOutcome {
                kind: self.kind.clone(),
            }
        })
    }
}

/// Plain-data mirror of one exact-check part (see `decompose::ExactPart`).
#[derive(Clone, PartialEq, Debug)]
pub struct ExactPartData {
    /// State history depth entering the global bit budget.
    pub m_state: i64,
    /// Input history depth entering the global bit budget.
    pub m_input: i64,
    /// Local verdict and divergence iteration; `None` when the local
    /// product already blew the bit budget.
    pub fix: Option<(OutcomeData, Option<u64>)>,
}

/// Plain-data mirror of a [`ReachSnapshot`].
#[derive(Clone, PartialEq, Debug)]
pub struct ReachData {
    /// Timed variables in snapshot-table allocation order: index `i` is
    /// BDD variable `i` of the embedded snapshot.
    pub vars: Vec<TimedVar>,
    /// The reachable set, as a single-root snapshot.
    pub snapshot: BddSnapshot,
    /// Reachable-state count carried alongside the set.
    pub states: f64,
}

/// Plain-data mirror of a [`ConeCacheEntry`].
#[derive(Clone, PartialEq, Debug)]
pub struct ConeData {
    /// Timed variables in entry-table allocation order.
    pub vars: Vec<TimedVar>,
    /// All layer sets, then (when `has_reach`) the union reach set, as the
    /// snapshot's roots in that order.
    pub snapshot: BddSnapshot,
    /// ρ tail length.
    pub tail: u64,
    /// ρ period (0 means "no replayable layers").
    pub period: u64,
    /// Whether the last snapshot root is the union reach set.
    pub has_reach: bool,
    /// `C_x` verdicts, sorted by key for deterministic bytes.
    pub outcomes_cx: Vec<(Vec<i64>, i64, OutcomeData)>,
    /// Exact-check parts, sorted by key for deterministic bytes.
    pub outcomes_exact: Vec<(Vec<i64>, ExactPartData)>,
}

/// Validates a timed-variable vector against a snapshot: enough entries to
/// cover every snapshot variable, no duplicates. Returns the vector as a
/// set for follow-up checks.
fn check_vars(vars: &[TimedVar], snapshot: &BddSnapshot) -> Result<(), ArtifactError> {
    if vars.len() < snapshot.num_vars as usize {
        return Err(ArtifactError::VarCount {
            expected: snapshot.num_vars as usize,
            got: vars.len(),
        });
    }
    let mut seen = HashSet::with_capacity(vars.len());
    for tv in vars {
        if !seen.insert(*tv) {
            return Err(ArtifactError::DuplicateTimedVar {
                var: tv.to_string(),
            });
        }
    }
    Ok(())
}

/// Rebuilds a manager + table from a validated `(vars, snapshot)` pair:
/// the table is preregistered in the snapshot's level order (the identity
/// for current exports; a permuted order from an older artifact imports
/// just as correctly), trailing variables the snapshot never touched keep
/// their relative position, and the snapshot's roots are imported
/// bottom-up.
fn rebuild(
    vars: &[TimedVar],
    snapshot: &BddSnapshot,
) -> Result<(BddManager, TimedVarTable, Vec<Bdd>), ArtifactError> {
    validate_order(&snapshot.order, snapshot.num_vars)?;
    check_vars(vars, snapshot)?;
    let mut table = TimedVarTable::new();
    table.preregister(snapshot.order.iter().map(|&lvl_var| vars[lvl_var as usize]));
    table.preregister(vars[snapshot.num_vars as usize..].iter().copied());
    let var_map: Vec<Var> = vars[..snapshot.num_vars as usize]
        .iter()
        .map(|&tv| table.lookup(tv).expect("preregistered"))
        .collect();
    let mut manager = BddManager::new();
    let roots = manager.import_bdd(snapshot, &var_map)?;
    Ok((manager, table, roots))
}

/// Approximate in-memory bytes of a manager + table pair (arena nodes plus
/// table entries; map overhead is modelled with a flat per-entry cost).
fn approx_symbolic_bytes(manager: &BddManager, table: &TimedVarTable) -> u64 {
    manager.num_nodes() as u64 * 24 + table.len() as u64 * 48
}

impl ReachSnapshot {
    /// Exports the snapshot to its plain-data mirror.
    pub fn export_data(&self) -> ReachData {
        ReachData {
            vars: self.table.iter().map(|(tv, _)| tv).collect(),
            snapshot: self.manager.export_bdd(&[self.set]),
            states: self.states,
        }
    }

    /// Rebuilds a snapshot from its plain-data mirror, validating
    /// everything first.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any malformed shape; the error never leaves a
    /// partially-built snapshot behind.
    pub fn import_data(data: &ReachData) -> Result<ReachSnapshot, ArtifactError> {
        let (manager, table, roots) = rebuild(&data.vars, &data.snapshot)?;
        if roots.len() != 1 {
            return Err(ArtifactError::RootCount {
                expected: 1,
                got: roots.len(),
            });
        }
        Ok(ReachSnapshot {
            manager,
            table,
            set: roots[0],
            states: data.states,
        })
    }

    /// Approximate in-memory footprint, for byte-accounted cache admission.
    pub fn approx_bytes(&self) -> u64 {
        approx_symbolic_bytes(&self.manager, &self.table)
    }
}

impl ConeCacheEntry {
    /// Exports the entry to its plain-data mirror. Outcome maps are sorted
    /// by key so identical entries export identical data.
    pub fn export_data(&self) -> ConeData {
        let mut roots: Vec<Bdd> = self.layers.clone();
        if let Some(r) = self.reach {
            roots.push(r);
        }
        let mut outcomes_cx: Vec<(Vec<i64>, i64, OutcomeData)> = self
            .outcomes_cx
            .iter()
            .map(|((sub, m), &o)| (sub.clone(), *m, OutcomeData::from_outcome(o)))
            .collect();
        outcomes_cx.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let mut outcomes_exact: Vec<(Vec<i64>, ExactPartData)> = self
            .outcomes_exact
            .iter()
            .map(|(sub, part)| {
                (
                    sub.clone(),
                    ExactPartData {
                        m_state: part.m_state,
                        m_input: part.m_input,
                        fix: part
                            .fix
                            .map(|run| (OutcomeData::from_outcome(run.outcome), run.bad_iteration)),
                    },
                )
            })
            .collect();
        outcomes_exact.sort_by(|a, b| a.0.cmp(&b.0));
        ConeData {
            vars: self.table.iter().map(|(tv, _)| tv).collect(),
            snapshot: self.manager.export_bdd(&roots),
            tail: self.tail as u64,
            period: self.period as u64,
            has_reach: self.reach.is_some(),
            outcomes_cx,
            outcomes_exact,
        }
    }

    /// Rebuilds an entry from its plain-data mirror, validating everything
    /// (including the ρ tail/period shape, which indexes the layer list at
    /// replay time) first.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any malformed shape.
    pub fn import_data(data: &ConeData) -> Result<ConeCacheEntry, ArtifactError> {
        let reach_roots = data.has_reach as usize;
        let total = data.snapshot.roots.len();
        if total < reach_roots {
            return Err(ArtifactError::RootCount {
                expected: reach_roots,
                got: total,
            });
        }
        let num_layers = total - reach_roots;
        let bad_rho = ArtifactError::BadRho {
            tail: data.tail,
            period: data.period,
            layers: num_layers,
        };
        let tail = usize::try_from(data.tail).map_err(|_| bad_rho.clone())?;
        let period = usize::try_from(data.period).map_err(|_| bad_rho.clone())?;
        // `layer(k)` indexes `layers[tail + (k - tail) % period]`; a stale
        // or hostile shape must fail here, not at replay time.
        let replayable = period > 0 && num_layers > 0;
        if replayable {
            match tail.checked_add(period) {
                Some(end) if end <= num_layers => {}
                _ => return Err(bad_rho),
            }
        }
        let (manager, table, mut roots) = rebuild(&data.vars, &data.snapshot)?;
        let reach = if data.has_reach { roots.pop() } else { None };
        let mut entry = ConeCacheEntry::empty();
        entry.manager = manager;
        entry.table = table;
        entry.layers = roots;
        entry.tail = tail;
        entry.period = if replayable { period } else { 0 };
        entry.reach = reach;
        for (sub, m, o) in &data.outcomes_cx {
            entry.outcomes_cx.insert((sub.clone(), *m), o.to_outcome()?);
        }
        for (sub, part) in &data.outcomes_exact {
            let fix = match &part.fix {
                Some((o, bad_iteration)) => Some(ExactRun {
                    outcome: o.to_outcome()?,
                    bad_iteration: *bad_iteration,
                }),
                None => None,
            };
            entry.outcomes_exact.insert(
                sub.clone(),
                ExactPart {
                    m_state: part.m_state,
                    m_input: part.m_input,
                    fix,
                },
            );
        }
        Ok(entry)
    }

    /// Approximate in-memory footprint, for byte-accounted cache admission.
    pub fn approx_bytes(&self) -> u64 {
        let outcome_bytes = self
            .outcomes_cx
            .keys()
            .map(|(sub, _)| sub.len() as u64 * 8 + 64)
            .sum::<u64>()
            + self
                .outcomes_exact
                .keys()
                .map(|sub| sub.len() as u64 * 8 + 96)
                .sum::<u64>();
        approx_symbolic_bytes(&self.manager, &self.table) + outcome_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{MctAnalyzer, MctOptions};
    use mct_netlist::{Circuit, GateKind, Time};

    fn counter_circuit() -> Circuit {
        let mut c = Circuit::new("counter");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], Time::UNIT);
        let x1 = c.add_gate("x1", GateKind::Xor, &[q0, q1], Time::UNIT);
        c.connect_dff_data("q0", n0).unwrap();
        c.connect_dff_data("q1", x1).unwrap();
        c.set_output(q1);
        c
    }

    fn snapshot_of(c: &Circuit) -> (crate::analyzer::MctReport, ReachSnapshot) {
        let opts = MctOptions::default();
        let (report, snap) = MctAnalyzer::new(c).unwrap().run_warm(&opts, None).unwrap();
        (report, snap.expect("reachability enabled"))
    }

    #[test]
    fn reach_data_round_trip_warm_starts_identically() {
        let c = counter_circuit();
        let (cold, snap) = snapshot_of(&c);
        let data = snap.export_data();
        let back = ReachSnapshot::import_data(&data).unwrap();
        assert_eq!(back.num_states(), snap.num_states());
        let opts = MctOptions::default();
        let (mut warm, _) = MctAnalyzer::new(&c)
            .unwrap()
            .run_warm(&opts, Some(&back))
            .unwrap();
        // Kernel stats are diagnostics excluded from serialized reports; a
        // warm start legitimately does less symbolic work.
        let mut cold = cold;
        cold.kernel = Default::default();
        warm.kernel = Default::default();
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    }

    #[test]
    fn reach_data_rejects_malformed() {
        let c = counter_circuit();
        let (_, snap) = snapshot_of(&c);
        let good = snap.export_data();

        let mut bad = good.clone();
        bad.vars.truncate(1.min(bad.vars.len()));
        if (bad.vars.len() as u32) < bad.snapshot.num_vars {
            assert!(matches!(
                ReachSnapshot::import_data(&bad),
                Err(ArtifactError::VarCount { .. })
            ));
        }

        let mut bad = good.clone();
        if bad.vars.len() >= 2 {
            bad.vars[1] = bad.vars[0];
            assert!(matches!(
                ReachSnapshot::import_data(&bad),
                Err(ArtifactError::DuplicateTimedVar { .. })
            ));
        }

        let mut bad = good.clone();
        bad.snapshot.roots.push(1);
        assert!(matches!(
            ReachSnapshot::import_data(&bad),
            Err(ArtifactError::RootCount { .. })
        ));

        let mut bad = good.clone();
        if !bad.snapshot.order.is_empty() {
            bad.snapshot.order[0] = u32::MAX;
            assert!(matches!(
                ReachSnapshot::import_data(&bad),
                Err(ArtifactError::Bdd(_))
            ));
        }
    }

    /// Three independent cones (two togglers and a stateless buffer), the
    /// same shape as the decompose fixtures.
    fn tri_circuit() -> Circuit {
        let t = Time::from_f64;
        let mut c = Circuit::new("tri");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", true, Time::UNIT);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        let a = c.add_input("a");
        let ab = c.add_gate("ab", GateKind::Buf, &[a], t(3.0));
        c.set_output(q0);
        c.set_output(q1);
        c.set_output(ab);
        c
    }

    #[test]
    fn cone_data_round_trip() {
        let c = tri_circuit();
        let opts = MctOptions {
            decompose: true,
            ..MctOptions::default()
        };
        let mut analyzer = MctAnalyzer::new(&c).unwrap();
        let (report, artifacts) = analyzer.run_decomposed(&opts, &[]).unwrap();
        assert!(artifacts.cones_total > 1, "counter should decompose");
        let seeds: Vec<ConeCacheEntry> = artifacts
            .entries
            .iter()
            .map(|e| {
                let entry = e.as_ref().expect("fresh run fills every slot");
                ConeCacheEntry::import_data(&entry.export_data()).unwrap()
            })
            .collect();
        let seed_refs: Vec<Option<&ConeCacheEntry>> = seeds.iter().map(Some).collect();
        let mut analyzer2 = MctAnalyzer::new(&c).unwrap();
        let (mut replayed, arts2) = analyzer2.run_decomposed(&opts, &seed_refs).unwrap();
        let mut report = report;
        report.kernel = Default::default();
        replayed.kernel = Default::default();
        assert_eq!(format!("{report:?}"), format!("{replayed:?}"));
        assert_eq!(
            arts2.cones_replayed, arts2.cones_total,
            "imported seeds must replay every cone"
        );
    }

    #[test]
    fn cone_data_rejects_bad_rho() {
        let c = tri_circuit();
        let opts = MctOptions {
            decompose: true,
            ..MctOptions::default()
        };
        let mut analyzer = MctAnalyzer::new(&c).unwrap();
        let (_, artifacts) = analyzer.run_decomposed(&opts, &[]).unwrap();
        let good = artifacts.entries[0].as_ref().unwrap().export_data();
        let mut bad = good.clone();
        bad.period = 10_000;
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::BadRho { .. })
        ));
        let mut bad = good.clone();
        bad.tail = u64::MAX;
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::BadRho { .. })
        ));
        let mut bad = good;
        if let Some((_, _, o)) = bad.outcomes_cx.first_mut() {
            o.kind = "mystery".into();
            assert!(matches!(
                ConeCacheEntry::import_data(&bad),
                Err(ArtifactError::BadOutcome { .. })
            ));
        }
    }
}
