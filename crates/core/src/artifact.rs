//! The one persisted analysis artifact — the per-cone replay seed
//! [`ConeCacheEntry`] — and its plain-data form, for on-disk persistence
//! and cross-replica transport.
//!
//! The mirror ([`ConeData`]) is built from [`mct_bdd::BddSnapshot`] plus
//! [`TimedVar`] vectors. It contains no handles, no managers and no maps
//! with nondeterministic iteration order, so a byte codec (the `mct-store`
//! crate) can serialize it without reaching into symbolic state.
//!
//! Import is paranoid by design: the data comes from disk, possibly from
//! another replica, possibly stale, possibly corrupted. Every import
//! validates shape before any symbolic reconstruction happens and returns
//! a structured [`ArtifactError`] instead of panicking — a bad artifact is
//! a cache miss, never a crash, and never corrupts a live manager.

use crate::analyzer::MctOptions;
use crate::decision::DecisionOutcome;
use crate::error::MctError;
use crate::exact::ExactRun;
use mct_bdd::{validate_order, Bdd, BddImportError, BddManager, BddSnapshot, Var};
use mct_tbf::{transfer_bdd, TimedVar, TimedVarTable};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Cached per-cone analysis results, replayable into a later seeded run
/// ([`crate::MctAnalyzer::run_decomposed`]) of a cone with identical
/// content under options with the same [`key`](Self::key).
///
/// Everything is stored in the cone's *local* coordinate system (leaf
/// indices of the sliced circuit, σ projected to the cone's delay-class
/// positions), so an entry stays valid when *other* cones of the parent
/// change — only the owning cone's content and the key select it. A
/// one-cone circuit's entry carries the whole machine's reachable set.
pub struct ConeCacheEntry {
    /// Private manager holding the layer and reach BDDs.
    pub(crate) manager: BddManager,
    pub(crate) table: TimedVarTable,
    /// Exactly-`k`-step reachable layers over local
    /// `TimedVar::Shifted { leaf, shift: 0 }` state variables, for
    /// `k < tail + period`; deeper layers repeat with period `period` from
    /// `tail` (the ρ shape of a deterministic set recurrence).
    pub(crate) layers: Vec<Bdd>,
    pub(crate) tail: usize,
    pub(crate) period: usize,
    /// Union of all layers — the cone's full reachable set.
    pub(crate) reach: Option<Bdd>,
    /// `C_x` verdicts keyed by (local σ projection, global induction depth).
    pub(crate) outcomes_cx: HashMap<(Vec<i64>, i64), DecisionOutcome>,
    /// Exact-check parts keyed by local σ projection.
    pub(crate) outcomes_exact: HashMap<Vec<i64>, ExactPart>,
}

/// One cone's contribution to the exact check at one σ: the history depths
/// that enter the global bit budget, and the local verdict when the *local*
/// product fit the budget.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExactPart {
    pub(crate) m_state: i64,
    pub(crate) m_input: i64,
    /// `None` iff the cone's own product already exceeded the budget (then
    /// the global product certainly does, and the merge reports the
    /// whole-machine error without any cone running a fixpoint).
    pub(crate) fix: Option<ExactRun>,
}

impl ConeCacheEntry {
    pub(crate) fn empty() -> Self {
        ConeCacheEntry {
            manager: BddManager::new(),
            table: TimedVarTable::new(),
            layers: Vec::new(),
            tail: 0,
            period: 0,
            reach: None,
            outcomes_cx: HashMap::new(),
            outcomes_exact: HashMap::new(),
        }
    }

    /// The cache key of entries produced under `opts`: it covers exactly
    /// what an entry's content depends on. `use_reachability` sets the
    /// restriction behind every `C_x` verdict, and `max_product_bits`
    /// decides which exact-check parts are `None`. Delay variation, LP
    /// coupling, floors, and budgets only change *which* σ a run visits,
    /// so entries warm-start runs under any of them.
    pub fn key(opts: &MctOptions) -> u64 {
        let mut h: u64 = 0x6d63_745f_636f_6e65; // "mct_cone"
        for v in [opts.use_reachability as u64, opts.max_product_bits as u64] {
            h = mix64(h ^ mix64(v));
        }
        h
    }

    /// Whether the entry carries a replayable layer sequence.
    pub(crate) fn has_layers(&self) -> bool {
        self.period > 0 && !self.layers.is_empty()
    }

    /// A fresh entry carrying this one's layers and reach set (no
    /// outcomes).
    pub(crate) fn copy_layers(&self) -> Result<ConeCacheEntry, MctError> {
        let mut entry = ConeCacheEntry::empty();
        let copy = |b: Bdd, entry: &mut ConeCacheEntry| {
            transfer_bdd(
                &self.manager,
                &self.table,
                b,
                &mut entry.manager,
                &mut entry.table,
            )
        };
        for &l in &self.layers {
            let t = copy(l, &mut entry)?;
            entry.layers.push(t);
        }
        entry.tail = self.tail;
        entry.period = self.period;
        entry.reach = match self.reach {
            Some(r) => Some(copy(r, &mut entry)?),
            None => None,
        };
        Ok(entry)
    }
}

/// `splitmix64` finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

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

/// Plain-data mirror of one exact-check part.
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
    use crate::analyzer::MctAnalyzer;
    use mct_netlist::{Circuit, GateKind, Time};

    /// Three independent cones: two togglers and a stateless buffer.
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

    /// A 2-bit counter: one stateful cone whose entry carries the whole
    /// machine's reachable set.
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

    fn strip(mut r: crate::analyzer::MctReport) -> String {
        r.kernel = Default::default();
        format!("{r:?}")
    }

    #[test]
    fn cone_data_round_trip() {
        for c in [tri_circuit(), counter_circuit()] {
            let opts = MctOptions::default();
            let (report, artifacts) = MctAnalyzer::new(&c)
                .unwrap()
                .run_decomposed(&opts, &[])
                .unwrap();
            let seeds: Vec<ConeCacheEntry> = artifacts
                .entries
                .iter()
                .map(|e| {
                    let entry = e.as_ref().expect("fresh run fills every slot");
                    ConeCacheEntry::import_data(&entry.export_data()).unwrap()
                })
                .collect();
            let seed_refs: Vec<Option<&ConeCacheEntry>> = seeds.iter().map(Some).collect();
            let (replayed, arts2) = MctAnalyzer::new(&c)
                .unwrap()
                .run_decomposed(&opts, &seed_refs)
                .unwrap();
            assert_eq!(strip(report), strip(replayed), "{}", c.name());
            assert_eq!(
                arts2.cones_replayed, arts2.cones_total,
                "imported seeds must replay every cone"
            );
        }
    }

    #[test]
    fn cone_data_rejects_malformed() {
        let c = counter_circuit();
        let (_, artifacts) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&MctOptions::default(), &[])
            .unwrap();
        let good = artifacts.entries[0].as_ref().unwrap().export_data();
        assert!(good.has_reach && good.period > 0, "{good:?}");

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
        let mut bad = good.clone();
        bad.vars.truncate(1);
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::VarCount { .. })
        ));
        let mut bad = good.clone();
        bad.vars[1] = bad.vars[0];
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::DuplicateTimedVar { .. })
        ));
        let mut bad = good.clone();
        bad.snapshot.roots.clear();
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::RootCount { .. })
        ));
        let mut bad = good.clone();
        bad.snapshot.order[0] = u32::MAX;
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::Bdd(_))
        ));
        let mut bad = good;
        bad.outcomes_cx[0].2.kind = "mystery".into();
        assert!(matches!(
            ConeCacheEntry::import_data(&bad),
            Err(ArtifactError::BadOutcome { .. })
        ));
    }

    #[test]
    fn key_covers_only_what_entries_depend_on() {
        let base = MctOptions::default();
        let same = [
            MctOptions::fixed_delays(),
            MctOptions {
                path_coupled_lp: true,
                exhaustive_floor: Some(0.5),
                exact_check: true,
                time_budget_ms: Some(7),
                ..base.clone()
            },
        ];
        for opts in &same {
            assert_eq!(ConeCacheEntry::key(&base), ConeCacheEntry::key(opts));
        }
        let split = [
            MctOptions {
                use_reachability: false,
                ..base.clone()
            },
            MctOptions {
                max_product_bits: 12,
                ..base.clone()
            },
        ];
        for opts in &split {
            assert_ne!(ConeCacheEntry::key(&base), ConeCacheEntry::key(opts));
        }
    }
}
