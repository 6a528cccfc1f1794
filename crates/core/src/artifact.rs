//! The one persisted analysis artifact: the per-cone replay seed
//! [`ConeCacheEntry`].
//!
//! An entry is plain data. Its layers and reach set are one
//! [`BddSnapshot`] over the entry's own [`TimedVar`] list, imported into a
//! manager only where a run needs them, so a byte codec (the `mct-store`
//! crate) writes an entry as it is.
//!
//! Entries come from a harvest or from [`ConeCacheEntry::new`], which
//! validates data read from disk — possibly from another replica, possibly
//! stale, possibly corrupted — before it can reach a manager, and returns a
//! structured [`ArtifactError`] instead of panicking: a bad artifact is a
//! cache miss, never a crash, and never corrupts a live manager.

use crate::analyzer::MctOptions;
use crate::decision::DecisionOutcome;
use crate::exact::ExactRun;
use mct_bdd::{Bdd, BddImportError, BddManager, BddSnapshot, FxHashMap, Var};
use mct_tbf::{count_states, TimedVar, TimedVarTable};
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

/// Cached per-cone analysis results, replayable into a later seeded run
/// ([`crate::MctAnalyzer::run_decomposed`]) of a cone with identical
/// content under options with the same [`key`](Self::key).
///
/// Everything is stored in the cone's *local* coordinate system (leaf
/// indices of the sliced circuit, σ projected to the cone's delay-class
/// positions), so an entry stays valid when *other* cones of the parent
/// change — only the owning cone's content and the key select it. A
/// one-cone circuit's entry carries the whole machine's reachable set.
#[derive(Clone, PartialEq, Debug)]
pub struct ConeCacheEntry {
    /// The timed variable of each snapshot variable index.
    pub(crate) vars: Vec<TimedVar>,
    /// The exactly-`k`-step reachable layers over local
    /// `TimedVar::Shifted { leaf, shift: 0 }` state variables, for
    /// `k < tail + period`, then (when `has_reach`) their union — the
    /// cone's full reachable set — as the snapshot's roots in that order.
    /// Deeper layers repeat with period `period` from `tail` (the ρ shape
    /// of a deterministic set recurrence).
    pub(crate) snapshot: BddSnapshot,
    pub(crate) tail: usize,
    /// 0 means "no replayable layers".
    pub(crate) period: usize,
    pub(crate) has_reach: bool,
    /// `C_x` verdicts keyed by (local σ projection, global induction depth).
    pub(crate) outcomes_cx: FxHashMap<(Vec<i64>, i64), DecisionOutcome>,
    /// Exact-check parts keyed by local σ projection.
    pub(crate) outcomes_exact: FxHashMap<Vec<i64>, ExactPart>,
}

/// One cone's contribution to the exact check at one σ: the history depths
/// that enter the global bit budget, and the local verdict when the *local*
/// product fit the budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExactPart {
    /// State history depth entering the global bit budget.
    pub m_state: i64,
    /// Input history depth entering the global bit budget.
    pub m_input: i64,
    /// `None` iff the cone's own product already exceeded the budget (then
    /// the global product certainly does, and the merge reports the
    /// whole-machine error without any cone running a fixpoint).
    pub fix: Option<ExactRun>,
}

impl ConeCacheEntry {
    pub(crate) fn empty() -> Self {
        ConeCacheEntry {
            vars: Vec::new(),
            snapshot: BddSnapshot::default(),
            tail: 0,
            period: 0,
            has_reach: false,
            outcomes_cx: FxHashMap::default(),
            outcomes_exact: FxHashMap::default(),
        }
    }

    /// An entry with the given layers and reach set and no outcomes, after
    /// validating everything a replay relies on: the snapshot's shape, a
    /// timed variable for each snapshot variable with none named twice,
    /// a reach root when `has_reach` is set, and a ρ shape (`tail`,
    /// `period`) that fits the layer roots. A `period` of 0, or no layer
    /// roots, means the entry has no replayable layers.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any malformed shape.
    pub fn new(
        vars: Vec<TimedVar>,
        snapshot: BddSnapshot,
        tail: u64,
        period: u64,
        has_reach: bool,
    ) -> Result<Self, ArtifactError> {
        snapshot.validate()?;
        if vars.len() < snapshot.num_vars as usize {
            return Err(ArtifactError::VarCount {
                expected: snapshot.num_vars as usize,
                got: vars.len(),
            });
        }
        let mut seen = HashSet::with_capacity(vars.len());
        for tv in &vars {
            if !seen.insert(*tv) {
                return Err(ArtifactError::DuplicateTimedVar {
                    var: tv.to_string(),
                });
            }
        }
        let reach_roots = has_reach as usize;
        let total = snapshot.roots.len();
        if total < reach_roots {
            return Err(ArtifactError::RootCount {
                expected: reach_roots,
                got: total,
            });
        }
        let num_layers = total - reach_roots;
        let bad_rho = || ArtifactError::BadRho {
            tail,
            period,
            layers: num_layers,
        };
        let tail = usize::try_from(tail).map_err(|_| bad_rho())?;
        let period = usize::try_from(period).map_err(|_| bad_rho())?;
        // A replay reads `layers[tail + (k - tail) % period]`; a stale or
        // hostile shape must fail here, not at replay time.
        let replayable = period > 0 && num_layers > 0;
        if replayable && tail.checked_add(period).is_none_or(|end| end > num_layers) {
            return Err(bad_rho());
        }
        Ok(ConeCacheEntry {
            vars,
            snapshot,
            tail,
            period: if replayable { period } else { 0 },
            has_reach,
            ..ConeCacheEntry::empty()
        })
    }

    /// The cache key of entries produced under `opts`: it covers exactly
    /// what an entry's content depends on. `use_reachability` sets the
    /// restriction behind every `C_x` verdict, and `max_product_bits`
    /// decides which exact-check parts are `None`. Delay variation, floors,
    /// and budgets only change *which* σ a run visits, and LP coupling
    /// only which failing σ count toward the bound (every mode decides
    /// every σ it visits), so entries warm-start runs under any of them.
    pub fn key(opts: &MctOptions) -> u64 {
        let mut h: u64 = 0x6d63_745f_636f_6e65; // "mct_cone"
        for v in [opts.use_reachability as u64, opts.max_product_bits as u64] {
            h = mix64(h ^ mix64(v));
        }
        h
    }

    /// The timed variable of each snapshot variable index.
    pub fn vars(&self) -> &[TimedVar] {
        &self.vars
    }

    /// The layer sets, then (when [`has_reach`](Self::has_reach)) their
    /// union, as one snapshot.
    pub fn snapshot(&self) -> &BddSnapshot {
        &self.snapshot
    }

    /// The ρ shape `(tail, period)` of the layer sequence; a period of 0
    /// means the entry has no replayable layers.
    pub fn rho(&self) -> (usize, usize) {
        (self.tail, self.period)
    }

    /// Whether the last snapshot root is the cone's reachable set.
    pub fn has_reach(&self) -> bool {
        self.has_reach
    }

    /// The `C_x` verdicts as (local σ projection, global induction depth,
    /// verdict), in no particular order.
    pub fn outcomes_cx(&self) -> impl Iterator<Item = (&[i64], i64, DecisionOutcome)> {
        self.outcomes_cx
            .iter()
            .map(|((sub, m), &o)| (sub.as_slice(), *m, o))
    }

    /// The exact-check parts by local σ projection, in no particular order.
    pub fn outcomes_exact(&self) -> impl Iterator<Item = (&[i64], ExactPart)> {
        self.outcomes_exact
            .iter()
            .map(|(sub, &part)| (sub.as_slice(), part))
    }

    /// Records the `C_x` verdict at local σ projection `sub` and global
    /// induction depth `m`.
    pub fn insert_cx(&mut self, sub: Vec<i64>, m: i64, outcome: DecisionOutcome) {
        self.outcomes_cx.insert((sub, m), outcome);
    }

    /// Records the exact-check part at local σ projection `sub`.
    pub fn insert_exact(&mut self, sub: Vec<i64>, part: ExactPart) {
        self.outcomes_exact.insert(sub, part);
    }

    /// Whether the entry carries a replayable layer sequence.
    pub(crate) fn has_layers(&self) -> bool {
        self.period > 0
    }

    /// The snapshot roots of the layers.
    pub(crate) fn layer_roots(&self) -> Range<usize> {
        0..self.snapshot.roots.len() - self.has_reach as usize
    }

    /// The snapshot root of the reachable set, when the entry has one.
    pub(crate) fn reach_root(&self) -> Option<Range<usize>> {
        let n = self.snapshot.roots.len();
        self.has_reach.then(|| n - 1..n)
    }

    /// Rebuilds the snapshot roots `roots` in `manager`, naming each entry
    /// variable through `var`; only the nodes those roots reach are built.
    pub(crate) fn import(
        &self,
        manager: &mut BddManager,
        roots: Range<usize>,
        var: impl FnMut(&TimedVar) -> Var,
    ) -> Vec<Bdd> {
        let map: Vec<Var> = self.vars.iter().map(var).collect();
        manager
            .import_bdd(&self.snapshot, roots, &map)
            .expect("entries are validated when built")
    }

    /// The number of states in the reachable set, over `num_state` state
    /// bits, counted in a scratch manager under the entry's own order.
    pub(crate) fn reach_states(&self, num_state: usize) -> f64 {
        let root = self
            .reach_root()
            .expect("restricting seeds carry a reach set");
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        let reach = self.import(&mut manager, root, |&tv| table.var(tv))[0];
        count_states(&manager, reach, num_state)
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
        self.snapshot.approx_bytes()
            + self.vars.len() as u64 * std::mem::size_of::<TimedVar>() as u64
            + outcome_bytes
    }
}

/// `splitmix64` finalizer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Why [`ConeCacheEntry::new`] rejected an artifact.
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
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<BddImportError> for ArtifactError {
    fn from(e: BddImportError) -> Self {
        ArtifactError::Bdd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::MctAnalyzer;
    use mct_netlist::{Circuit, GateKind, Time};

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

    /// The counter's harvested entry, taken apart for [`ConeCacheEntry::new`].
    fn counter_parts() -> (Vec<TimedVar>, BddSnapshot, u64, u64, bool) {
        let (_, artifacts) = MctAnalyzer::new(&counter_circuit())
            .unwrap()
            .run_decomposed(&MctOptions::default(), &[])
            .unwrap();
        let e = artifacts.entries[0].as_ref().unwrap();
        assert!(e.has_reach && e.period > 0, "{e:?}");
        (
            e.vars.clone(),
            e.snapshot.clone(),
            e.tail as u64,
            e.period as u64,
            e.has_reach,
        )
    }

    #[test]
    fn new_accepts_a_harvested_shape() {
        let (vars, snapshot, tail, period, has_reach) = counter_parts();
        let entry = ConeCacheEntry::new(vars, snapshot, tail, period, has_reach).unwrap();
        assert_eq!(entry.rho(), (tail as usize, period as usize));
        assert_eq!(entry.reach_states(2), 4.0);
    }

    #[test]
    fn new_rejects_malformed() {
        let (vars, snapshot, tail, period, has_reach) = counter_parts();
        let new = ConeCacheEntry::new;
        assert!(matches!(
            new(vars.clone(), snapshot.clone(), tail, 10_000, has_reach),
            Err(ArtifactError::BadRho { .. })
        ));
        assert!(matches!(
            new(vars.clone(), snapshot.clone(), u64::MAX, period, has_reach),
            Err(ArtifactError::BadRho { .. })
        ));
        assert!(matches!(
            new(
                vars[..1].to_vec(),
                snapshot.clone(),
                tail,
                period,
                has_reach
            ),
            Err(ArtifactError::VarCount { .. })
        ));
        let mut dup = vars.clone();
        dup[1] = dup[0];
        assert!(matches!(
            new(dup, snapshot.clone(), tail, period, has_reach),
            Err(ArtifactError::DuplicateTimedVar { .. })
        ));
        let mut bad = snapshot.clone();
        bad.roots.clear();
        assert!(matches!(
            new(vars.clone(), bad, tail, period, has_reach),
            Err(ArtifactError::RootCount { .. })
        ));
        let mut bad = snapshot;
        bad.order[0] = u32::MAX;
        assert!(matches!(
            new(vars, bad, tail, period, has_reach),
            Err(ArtifactError::Bdd(_))
        ));
    }

    /// A harvest names only the variables its nodes decide on: the
    /// counter's two state bits, not the reachability manager's
    /// preregistered static-order copies.
    #[test]
    fn harvested_entry_names_only_decided_variables() {
        let (vars, snapshot, ..) = counter_parts();
        assert_eq!(
            vars,
            [0, 1].map(|leaf| TimedVar::Shifted { leaf, shift: 0 })
        );
        assert_eq!(snapshot.num_vars, 2);
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
