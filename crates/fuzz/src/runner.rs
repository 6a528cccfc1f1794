//! The fuzzing loop: generate or mutate, check, shrink, record.
//!
//! Determinism contract: everything in [`FuzzStats`] is a pure function of
//! the configuration (seed, iteration count, oracle selection, corpus
//! contents). Each iteration derives its own RNG from the master stream, so
//! a time-budget cutoff truncates the run without shifting any iteration's
//! randomness. Wall-clock time never enters the stats — the CLI reports it
//! separately on stderr (and as the single documented `wall_ms` JSON
//! field, when explicitly requested).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mct_gen::standard_suite;
use mct_netlist::Circuit;
use mct_prng::SmallRng;
use mct_serve::Json;

use crate::corpus::{load_corpus, save_repro, Provenance};
use crate::generate::{mutate_circuit, random_circuit, GenConfig};
use crate::oracle::{check_circuit, Failure, OracleCtx, OracleOptions, OracleSelect, OracleStats};
use crate::shrink::shrink;

/// Configuration of one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Iterations to attempt.
    pub iters: u64,
    /// Optional wall-clock budget; the loop stops (deterministically per
    /// iteration boundary, nondeterministically in *which* boundary) once
    /// it is exceeded, and a shrink in progress keeps the smallest failing
    /// circuit it has found by then.
    pub time_budget_ms: Option<u64>,
    /// Corpus directory: existing `*.bench` entries join the mutation pool,
    /// and new shrunk repros are written here (when [`Self::write_repros`]).
    pub corpus_dir: Option<PathBuf>,
    /// Which oracles run.
    pub select: OracleSelect,
    /// Oracle tuning.
    pub oracle: OracleOptions,
    /// Generator size limits.
    pub gen: GenConfig,
    /// Predicate-evaluation budget per shrink.
    pub shrink_evals: usize,
    /// Every `mutate_every`-th iteration mutates a pool circuit instead of
    /// generating a fresh one (0 disables mutation).
    pub mutate_every: u64,
    /// Whether shrunk failures are persisted into [`Self::corpus_dir`].
    pub write_repros: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            time_budget_ms: None,
            corpus_dir: None,
            select: OracleSelect::All,
            oracle: OracleOptions::default(),
            gen: GenConfig::default(),
            shrink_evals: 300,
            mutate_every: 4,
            write_repros: true,
        }
    }
}

/// An external failure predicate injected in place of the built-in stack —
/// used by regression tests to plant a known bug and verify the fuzzer
/// catches and shrinks it.
pub struct CustomOracle<'a> {
    /// Oracle name recorded in failures and provenance.
    pub name: &'static str,
    /// Returns a failure description, or `None` if the circuit passes.
    pub check: &'a (dyn Fn(&Circuit) -> Option<String> + 'a),
}

/// One recorded failure.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Iteration that produced the failing circuit.
    pub iteration: u64,
    /// Oracle that rejected it.
    pub oracle: String,
    /// Failure description.
    pub detail: String,
    /// Gate count before shrinking.
    pub gates_before: usize,
    /// Gate count after shrinking.
    pub gates_after: usize,
    /// Flip-flop count after shrinking.
    pub dffs_after: usize,
    /// The time budget ran out before the shrinker finished: the circuit
    /// is the smallest failing one found by then.
    pub shrink_cut_short: bool,
    /// File stem of the persisted repro, if one was written.
    pub repro: Option<String>,
    /// The shrunk circuit itself.
    pub circuit: Circuit,
}

/// Deterministic result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzStats {
    /// Master seed of the run.
    pub seed: u64,
    /// Iterations actually executed.
    pub iters_run: u64,
    /// Candidates built by the generator.
    pub generated: u64,
    /// Candidates built by mutating a pool circuit.
    pub mutated: u64,
    /// Corpus entries that joined the mutation pool.
    pub corpus_loaded: usize,
    /// Oracle-side counters.
    pub oracle: OracleStats,
    /// Predicate evaluations spent shrinking.
    pub shrink_evals: u64,
    /// Whether the wall-clock budget cut the run short.
    pub budget_exhausted: bool,
    /// Every failure found, in iteration order.
    pub failures: Vec<FailureRecord>,
}

impl FuzzStats {
    /// Encodes the stats. `wall_ms` is the one nondeterministic field;
    /// pass `None` for byte-reproducible output.
    pub fn to_json(&self, wall_ms: Option<u64>) -> Json {
        let failures = self
            .failures
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("iteration".into(), Json::Int(f.iteration as i64)),
                    ("oracle".into(), Json::Str(f.oracle.clone())),
                    ("detail".into(), Json::Str(f.detail.clone())),
                    ("gates_before".into(), Json::Int(f.gates_before as i64)),
                    ("gates_after".into(), Json::Int(f.gates_after as i64)),
                    ("dffs_after".into(), Json::Int(f.dffs_after as i64)),
                    ("shrink_cut_short".into(), Json::Bool(f.shrink_cut_short)),
                    (
                        "repro".into(),
                        match &f.repro {
                            Some(s) => Json::Str(s.clone()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("seed".into(), Json::Int(self.seed as i64)),
            ("iters_run".into(), Json::Int(self.iters_run as i64)),
            ("generated".into(), Json::Int(self.generated as i64)),
            ("mutated".into(), Json::Int(self.mutated as i64)),
            ("corpus_loaded".into(), Json::Int(self.corpus_loaded as i64)),
            ("analyses".into(), Json::Int(self.oracle.analyses as i64)),
            ("sims".into(), Json::Int(self.oracle.sims as i64)),
            (
                "analysis_errors".into(),
                Json::Int(self.oracle.analysis_errors as i64),
            ),
            (
                "analysis_timeouts".into(),
                Json::Int(self.oracle.analysis_timeouts as i64),
            ),
            (
                "sweeps_capped".into(),
                Json::Int(self.oracle.sweeps_capped as i64),
            ),
            (
                "sharp_probes".into(),
                Json::Int(self.oracle.sharp_probes as i64),
            ),
            (
                "sharp_confirmed".into(),
                Json::Int(self.oracle.sharp_confirmed as i64),
            ),
            (
                "cache_replays".into(),
                Json::Int(self.oracle.cache_replays as i64),
            ),
            (
                "snapshot_roundtrips".into(),
                Json::Int(self.oracle.snapshot_roundtrips as i64),
            ),
            (
                "decompose_checks".into(),
                Json::Int(self.oracle.decompose_checks as i64),
            ),
            (
                "sigma_checks".into(),
                Json::Int(self.oracle.sigma_checks as i64),
            ),
            (
                "skew_checks".into(),
                Json::Int(self.oracle.skew_checks as i64),
            ),
            ("shrink_evals".into(), Json::Int(self.shrink_evals as i64)),
            ("budget_exhausted".into(), Json::Bool(self.budget_exhausted)),
            ("failures".into(), Json::Arr(failures)),
        ];
        if let Some(ms) = wall_ms {
            fields.push(("wall_ms".into(), Json::Int(ms as i64)));
        }
        Json::Obj(fields)
    }

    /// Renders the human-readable stats table (deterministic).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fuzz seed {}\n", self.seed));
        out.push_str(&format!(
            "  iterations      {:>8}   (generated {}, mutated {})\n",
            self.iters_run, self.generated, self.mutated
        ));
        out.push_str(&format!("  corpus loaded   {:>8}\n", self.corpus_loaded));
        out.push_str(&format!(
            "  analyses        {:>8}   (errors {}, timeouts {}, capped sweeps {})\n",
            self.oracle.analyses,
            self.oracle.analysis_errors,
            self.oracle.analysis_timeouts,
            self.oracle.sweeps_capped
        ));
        out.push_str(&format!("  simulations     {:>8}\n", self.oracle.sims));
        out.push_str(&format!(
            "  sharpness       {:>8} confirmed / {} probed\n",
            self.oracle.sharp_confirmed, self.oracle.sharp_probes
        ));
        out.push_str(&format!(
            "  cache replays   {:>8}\n",
            self.oracle.cache_replays
        ));
        out.push_str(&format!(
            "  snapshot rtrips {:>8}\n",
            self.oracle.snapshot_roundtrips
        ));
        out.push_str(&format!(
            "  decompose checks{:>8}\n",
            self.oracle.decompose_checks
        ));
        out.push_str(&format!(
            "  sigma checks    {:>8}\n",
            self.oracle.sigma_checks
        ));
        out.push_str(&format!(
            "  skew checks     {:>8}\n",
            self.oracle.skew_checks
        ));
        if self.budget_exhausted {
            out.push_str("  time budget exhausted\n");
        }
        out.push_str(&format!("  failures        {:>8}\n", self.failures.len()));
        for f in &self.failures {
            out.push_str(&format!(
                "    iter {:>5} [{}] {} gates -> {} gates, {} dffs{}{}\n",
                f.iteration,
                f.oracle,
                f.gates_before,
                f.gates_after,
                f.dffs_after,
                if f.shrink_cut_short {
                    " (shrink cut short)"
                } else {
                    ""
                },
                match &f.repro {
                    Some(s) => format!("  ({s}.bench)"),
                    None => String::new(),
                }
            ));
            let first = f.detail.lines().next().unwrap_or("");
            out.push_str(&format!("      {first}\n"));
        }
        out
    }
}

fn pool_filter(c: &Circuit) -> bool {
    c.num_dffs() <= 8 && c.num_gates() <= 60 && c.num_inputs() <= 6
}

/// Runs the built-in oracle stack.
pub fn run(cfg: &FuzzConfig) -> FuzzStats {
    run_with_oracle(cfg, None)
}

/// Runs the fuzzing loop, with `custom` replacing the built-in stack when
/// provided.
pub fn run_with_oracle(cfg: &FuzzConfig, custom: Option<&CustomOracle<'_>>) -> FuzzStats {
    let mut stats = FuzzStats {
        seed: cfg.seed,
        ..FuzzStats::default()
    };
    let mut ctx = OracleCtx::new(cfg.select, cfg.oracle.clone());

    // Mutation pool: small standard-suite circuits plus the corpus.
    let mut pool: Vec<Circuit> = standard_suite()
        .into_iter()
        .map(|e| e.circuit)
        .filter(pool_filter)
        .collect();
    if let Some(dir) = &cfg.corpus_dir {
        for (_, c, _) in load_corpus(dir) {
            if pool_filter(&c) {
                stats.corpus_loaded += 1;
                pool.push(c);
            }
        }
    }

    let deadline = cfg
        .time_budget_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut master = SmallRng::seed_from_u64(cfg.seed);
    for i in 0..cfg.iters {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stats.budget_exhausted = true;
            break;
        }
        let iter_seed = master.next_u64();
        let mut rng = SmallRng::seed_from_u64(iter_seed);
        let mutate = cfg.mutate_every > 0 && !pool.is_empty() && (i + 1) % cfg.mutate_every == 0;
        let candidate = if mutate {
            stats.mutated += 1;
            let base = &pool[rng.gen_range(0..pool.len())];
            mutate_circuit(base, &mut rng, i)
        } else {
            stats.generated += 1;
            random_circuit(&mut rng, &cfg.gen, i)
        };
        stats.iters_run = i + 1;

        let failure = check_candidate(&mut ctx, custom, &candidate, iter_seed);
        let Some(failure) = failure else {
            continue;
        };

        // Shrink under "the same oracle still rejects (or the stack still
        // panics)". Scratch contexts keep the main counters comparable
        // across runs that find failures at different sizes.
        let shrink_select = OracleSelect::parse(failure.oracle).unwrap_or(cfg.select);
        let shrink_opts = cfg.oracle.clone();
        let predicate = |c: &Circuit| -> bool {
            let mut scratch = OracleCtx::new(shrink_select, shrink_opts.clone());
            // A panic is still the failure, hence unwrap_or(true).
            catch_unwind(AssertUnwindSafe(|| match custom {
                Some(co) => (co.check)(c).is_some(),
                None => check_circuit(&mut scratch, c, iter_seed).is_some(),
            }))
            .unwrap_or(true)
        };
        let reduced = shrink(&candidate, predicate, cfg.shrink_evals, deadline);
        stats.shrink_evals += reduced.evals as u64;
        stats.budget_exhausted |= reduced.cut_short;

        let mut record = FailureRecord {
            iteration: i,
            oracle: failure.oracle.to_string(),
            detail: failure.detail.clone(),
            gates_before: candidate.num_gates(),
            gates_after: reduced.circuit.num_gates(),
            dffs_after: reduced.circuit.num_dffs(),
            shrink_cut_short: reduced.cut_short,
            repro: None,
            circuit: reduced.circuit.clone(),
        };
        if cfg.write_repros {
            if let Some(dir) = &cfg.corpus_dir {
                let stem = format!("shrunk-s{}-i{:05}", cfg.seed, i);
                let mut repro = reduced.circuit;
                repro.set_name(stem.clone());
                let prov = Provenance {
                    seed: cfg.seed,
                    iteration: i,
                    oracle: failure.oracle.to_string(),
                    detail: failure.detail.clone(),
                };
                if save_repro(dir, &stem, &repro, &prov).is_ok() {
                    record.repro = Some(stem);
                }
            }
        }
        stats.failures.push(record);
    }
    stats.oracle = ctx.stats;
    stats
}

fn check_candidate(
    ctx: &mut OracleCtx,
    custom: Option<&CustomOracle<'_>>,
    candidate: &Circuit,
    iter_seed: u64,
) -> Option<Failure> {
    let result = catch_unwind(AssertUnwindSafe(|| match custom {
        Some(co) => (co.check)(candidate).map(|detail| Failure {
            oracle: co.name,
            detail,
        }),
        None => check_circuit(ctx, candidate, iter_seed),
    }));
    match result {
        Ok(f) => f,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            Some(Failure {
                oracle: "robustness",
                detail: format!("panic in oracle stack: {msg}"),
            })
        }
    }
}
