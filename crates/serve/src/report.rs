//! JSON encoding for [`MctReport`] and [`MctOptions`], and the options
//! fingerprint used in the cache key.
//!
//! The report encoding is *lossless*: `report_from_json(report_to_json(r))`
//! reproduces every field bit-for-bit, including the exact rational bound
//! (carried as a `[num, den]` pair in milli-units, not as a float) and the
//! failure diagnostics. That is what lets a cache hit answer with a report
//! indistinguishable from re-running the analysis. The one deliberate
//! exception is [`MctReport::kernel`] — per-run BDD-kernel diagnostics
//! depend on GC thresholds and on what a cache replays, and are explicitly
//! outside the deterministic contract,
//! so they are not serialized (a decoded report carries zeroed stats) and
//! are reported per-request in the server log instead.
//!
//! The options encoding is a *partial overlay*: a request carries only the
//! fields it wants to change, applied over [`MctOptions::default()`].
//! Requests always run the production variable order and slicing on one
//! sweep thread; the retired `ordering`, `sigma`, `reorder_schedule`,
//! `decompose` and `num_threads` keys that older clients send are accepted
//! and ignored. The fingerprint folds in every
//! semantic field but deliberately skips `time_budget_ms` — a longer
//! budget can only produce the same (or a more complete) report, so it
//! should not split the cache.

use mct_core::{DecisionOutcome, MctOptions, MctReport, SkewReport, ValidityRegion};
use mct_lp::Rat;

use crate::json::Json;

/// Encodes a report. Infinite `tau_hi` interval ends become `null`.
pub fn report_to_json(report: &MctReport) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("circuit".into(), Json::Str(report.circuit.clone())),
        ("steady_delay".into(), Json::Float(report.steady_delay)),
        (
            "mct_upper_bound".into(),
            Json::Float(report.mct_upper_bound),
        ),
        (
            "bound_exact".into(),
            Json::Arr(vec![
                Json::Int(report.bound_exact.num()),
                Json::Int(report.bound_exact.den()),
            ]),
        ),
        (
            "first_failing_tau".into(),
            opt_float(report.first_failing_tau),
        ),
        ("failure".into(), outcome_to_json(report.failure)),
        (
            "candidates_checked".into(),
            Json::Int(report.candidates_checked as i64),
        ),
        (
            "sigma_checked".into(),
            Json::Int(report.sigma_checked as i64),
        ),
        (
            "sigma_cache_hits".into(),
            Json::Int(report.sigma_cache_hits as i64),
        ),
        (
            "used_reachability".into(),
            Json::Bool(report.used_reachability),
        ),
        (
            "reachable_states".into(),
            opt_float(report.reachable_states),
        ),
        ("exhausted".into(), Json::Bool(report.exhausted)),
        ("timed_out".into(), Json::Bool(report.timed_out)),
    ];
    let regions = report
        .regions
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("tau_lo".into(), Json::Float(r.tau_lo)),
                (
                    "tau_hi".into(),
                    if r.tau_hi.is_finite() {
                        Json::Float(r.tau_hi)
                    } else {
                        Json::Null
                    },
                ),
                ("valid".into(), Json::Bool(r.valid)),
            ])
        })
        .collect();
    fields.push(("regions".into(), Json::Arr(regions)));
    // The skew tier's attachment is emitted only when the tier ran, so
    // skew-free reports stay byte-identical to their pre-skew encodings.
    if let Some(s) = &report.skew {
        fields.push((
            "skew".into(),
            Json::Obj(vec![
                (
                    "zero_skew_bound".into(),
                    Json::Arr(vec![
                        Json::Int(s.zero_skew_bound.num()),
                        Json::Int(s.zero_skew_bound.den()),
                    ]),
                ),
                (
                    "optimal_bound".into(),
                    Json::Arr(vec![
                        Json::Int(s.optimal_bound.num()),
                        Json::Int(s.optimal_bound.den()),
                    ]),
                ),
                ("lp_period_millis".into(), Json::Int(s.lp_period_millis)),
                (
                    "witness_millis".into(),
                    Json::Arr(s.witness_millis.iter().map(|&w| Json::Int(w)).collect()),
                ),
                ("improved".into(), Json::Bool(s.improved)),
                ("skew_bound_millis".into(), Json::Int(s.skew_bound_millis)),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn skew_from_json(value: &Json) -> Option<SkewReport> {
    let [zn, zd] = value.get("zero_skew_bound")?.as_arr()? else {
        return None;
    };
    let [on, od] = value.get("optimal_bound")?.as_arr()? else {
        return None;
    };
    let mut witness = Vec::new();
    for w in value.get("witness_millis")?.as_arr()? {
        witness.push(w.as_i64()?);
    }
    Some(SkewReport {
        zero_skew_bound: Rat::new(zn.as_i64()?, zd.as_i64()?),
        optimal_bound: Rat::new(on.as_i64()?, od.as_i64()?),
        lp_period_millis: value.get("lp_period_millis")?.as_i64()?,
        witness_millis: witness,
        improved: value.get("improved")?.as_bool()?,
        skew_bound_millis: value.get("skew_bound_millis")?.as_i64()?,
    })
}

/// Decodes a report previously encoded by [`report_to_json`].
/// Returns `None` on any missing or ill-typed field.
pub fn report_from_json(value: &Json) -> Option<MctReport> {
    let failure = match value.get("failure")? {
        Json::Null => None,
        v => Some(outcome_from_json(v)?),
    };
    let bound = value.get("bound_exact")?.as_arr()?;
    let [num, den] = bound else { return None };
    let mut regions = Vec::new();
    for r in value.get("regions")?.as_arr()? {
        regions.push(ValidityRegion {
            tau_lo: r.get("tau_lo")?.as_f64()?,
            tau_hi: match r.get("tau_hi")? {
                Json::Null => f64::INFINITY,
                v => v.as_f64()?,
            },
            valid: r.get("valid")?.as_bool()?,
        });
    }
    Some(MctReport {
        circuit: value.get("circuit")?.as_str()?.to_owned(),
        steady_delay: value.get("steady_delay")?.as_f64()?,
        mct_upper_bound: value.get("mct_upper_bound")?.as_f64()?,
        bound_exact: Rat::new(num.as_i64()?, den.as_i64()?),
        first_failing_tau: opt_f64(value.get("first_failing_tau")?)?,
        failure,
        candidates_checked: value.get("candidates_checked")?.as_i64()? as usize,
        sigma_checked: value.get("sigma_checked")?.as_i64()? as usize,
        sigma_cache_hits: value.get("sigma_cache_hits")?.as_i64()? as usize,
        used_reachability: value.get("used_reachability")?.as_bool()?,
        reachable_states: opt_f64(value.get("reachable_states")?)?,
        exhausted: value.get("exhausted")?.as_bool()?,
        timed_out: value.get("timed_out")?.as_bool()?,
        regions,
        skew: match value.get("skew") {
            None | Some(Json::Null) => None,
            Some(v) => Some(skew_from_json(v)?),
        },
        // Kernel diagnostics are per-run and not serialized.
        kernel: Default::default(),
    })
}

fn outcome_to_json(outcome: Option<DecisionOutcome>) -> Json {
    match outcome {
        None => Json::Null,
        Some(o) => {
            let (kind, cycle, index) = o.parts();
            let mut fields = vec![("kind".into(), Json::Str(kind.into()))];
            if let Some(c) = cycle {
                fields.push(("cycle".into(), Json::Int(c)));
            }
            if let Some(i) = index {
                fields.push(("index".into(), Json::Int(i as i64)));
            }
            Json::Obj(fields)
        }
    }
}

fn outcome_from_json(value: &Json) -> Option<DecisionOutcome> {
    let kind = value.get("kind")?.as_str()?;
    let cycle = value.get("cycle").and_then(Json::as_i64);
    let index = value
        .get("index")
        .and_then(Json::as_i64)
        .map(|i| i as usize);
    DecisionOutcome::from_parts(kind, cycle, index)
}

fn opt_float(v: Option<f64>) -> Json {
    match v {
        Some(f) => Json::Float(f),
        None => Json::Null,
    }
}

fn opt_f64(v: &Json) -> Option<Option<f64>> {
    match v {
        Json::Null => Some(None),
        other => Some(Some(other.as_f64()?)),
    }
}

/// Encodes the full options set (all fields, so clients can inspect the
/// server's effective defaults).
pub fn options_to_json(opts: &MctOptions) -> Json {
    let variation = match opts.delay_variation {
        Some((num, den)) => Json::Arr(vec![Json::Int(num), Json::Int(den)]),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("delay_variation".into(), variation),
        ("use_reachability".into(), Json::Bool(opts.use_reachability)),
        ("path_coupled_lp".into(), Json::Bool(opts.path_coupled_lp)),
        ("exhaustive_floor".into(), opt_float(opts.exhaustive_floor)),
        (
            "max_sigma_combos".into(),
            Json::Int(opts.max_sigma_combos as i64),
        ),
        (
            "max_candidates".into(),
            Json::Int(opts.max_candidates as i64),
        ),
        ("floor_divisor".into(), Json::Int(opts.floor_divisor)),
        (
            "cone_node_limit".into(),
            Json::Int(opts.cone_node_limit as i64),
        ),
        ("exact_check".into(), Json::Bool(opts.exact_check)),
        (
            "max_product_bits".into(),
            Json::Int(opts.max_product_bits as i64),
        ),
        (
            "time_budget_ms".into(),
            match opts.time_budget_ms {
                Some(ms) => Json::Int(ms as i64),
                None => Json::Null,
            },
        ),
        ("skew".into(), Json::Bool(opts.skew)),
        ("skew_bound".into(), opt_float(opts.skew_bound)),
    ])
}

/// Applies a partial options object over `base`. Unknown keys are
/// rejected (typos should not silently fall back to defaults); `null`
/// resets an optional field. The retired lever keys `ordering`, `sigma`,
/// `reorder_schedule`, `decompose` and `num_threads` are accepted with any
/// value and ignored, so clients that still send them keep working (every
/// analysis runs sliced into cones on one sweep thread, and walks every σ
/// of Φ; no option selects the unsliced reference).
///
/// # Errors
///
/// A human-readable message naming the offending key.
pub fn options_overlay(base: &MctOptions, value: &Json) -> Result<MctOptions, String> {
    let mut opts = base.clone();
    let Some(fields) = value.as_obj() else {
        return Err("options must be an object".into());
    };
    for (key, v) in fields {
        match key.as_str() {
            "delay_variation" => {
                opts.delay_variation = match v {
                    Json::Null => None,
                    other => {
                        let pair = other
                            .as_arr()
                            .filter(|a| a.len() == 2)
                            .ok_or("delay_variation must be null or [num, den]")?;
                        let num = pair[0].as_i64().ok_or("delay_variation: bad numerator")?;
                        let den = pair[1].as_i64().ok_or("delay_variation: bad denominator")?;
                        Some((num, den))
                    }
                };
            }
            "use_reachability" => {
                opts.use_reachability = v.as_bool().ok_or("use_reachability must be a bool")?;
            }
            "path_coupled_lp" => {
                opts.path_coupled_lp = v.as_bool().ok_or("path_coupled_lp must be a bool")?;
            }
            "exhaustive_floor" => {
                opts.exhaustive_floor = match v {
                    Json::Null => None,
                    other => Some(other.as_f64().ok_or("exhaustive_floor must be a number")?),
                };
            }
            "max_sigma_combos" => {
                opts.max_sigma_combos = usize_field(v, "max_sigma_combos")?;
            }
            "max_candidates" => {
                opts.max_candidates = usize_field(v, "max_candidates")?;
            }
            "floor_divisor" => {
                opts.floor_divisor = v.as_i64().ok_or("floor_divisor must be an integer")?;
            }
            "cone_node_limit" => {
                opts.cone_node_limit = usize_field(v, "cone_node_limit")?;
            }
            "exact_check" => {
                opts.exact_check = v.as_bool().ok_or("exact_check must be a bool")?;
            }
            "max_product_bits" => {
                opts.max_product_bits = usize_field(v, "max_product_bits")?;
            }
            "time_budget_ms" => {
                opts.time_budget_ms = match v {
                    Json::Null => None,
                    other => Some(
                        other
                            .as_i64()
                            .filter(|&ms| ms >= 0)
                            .ok_or("time_budget_ms must be a non-negative integer")?
                            as u64,
                    ),
                };
            }
            "skew" => {
                opts.skew = v.as_bool().ok_or("skew must be a bool")?;
            }
            "skew_bound" => {
                opts.skew_bound = match v {
                    Json::Null => None,
                    other => Some(other.as_f64().ok_or("skew_bound must be a number")?),
                };
            }
            "ordering" | "sigma" | "reorder_schedule" | "decompose" | "num_threads" => {}
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn usize_field(v: &Json, name: &str) -> Result<usize, String> {
    v.as_i64()
        .filter(|&n| n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| format!("{name} must be a non-negative integer"))
}

/// Fingerprints the semantically relevant option fields for the cache key.
///
/// Deliberately excluded: `time_budget_ms` (timed-out reports are never cached, and among
/// non-timed-out runs the budget does not affect the result), `ordering`
/// (variable order changes node counts and wall time, never the report —
/// see [`mct_core::VarOrder`]), and `decompose` (the cone-sliced report is
/// bit-identical to the unsliced one).
///
/// Deliberately *included*, unlike the knobs above: `skew` and
/// `skew_bound`. The skew-optimization tier appends a `skew` object to
/// the report, so runs with and without it (or with different magnitude
/// caps) are semantically different results and must not share a cache
/// slot.
pub fn options_fingerprint(opts: &MctOptions) -> u64 {
    let mut h: u64 = 0x6d63_745f_6f70_7473; // "mct_opts"
    let mut fold = |v: u64| h = mix64(h ^ mix64(v));
    match opts.delay_variation {
        None => fold(0),
        Some((num, den)) => {
            fold(1);
            fold(num as u64);
            fold(den as u64);
        }
    }
    fold(opts.use_reachability as u64);
    fold(opts.path_coupled_lp as u64);
    match opts.exhaustive_floor {
        None => fold(0),
        Some(f) => {
            fold(1);
            fold(f.to_bits());
        }
    }
    fold(opts.max_sigma_combos as u64);
    fold(opts.max_candidates as u64);
    fold(opts.floor_divisor as u64);
    fold(opts.cone_node_limit as u64);
    fold(opts.exact_check as u64);
    fold(opts.max_product_bits as u64);
    fold(opts.skew as u64);
    match opts.skew_bound {
        None => fold(0),
        Some(b) => {
            fold(1);
            fold(b.to_bits());
        }
    }
    h
}

/// `splitmix64` finalizer (same mixer as the netlist canonical hash).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MctReport {
        MctReport {
            circuit: "fig2".into(),
            steady_delay: 4.0,
            mct_upper_bound: 2.5,
            bound_exact: Rat::new(5, 2),
            first_failing_tau: Some(2.5),
            failure: Some(DecisionOutcome::BasisStateMismatch { cycle: 2, bit: 0 }),
            candidates_checked: 7,
            sigma_checked: 9,
            sigma_cache_hits: 3,
            used_reachability: true,
            reachable_states: Some(2.0),
            exhausted: false,
            timed_out: false,
            regions: vec![
                ValidityRegion {
                    tau_lo: 4.0,
                    tau_hi: f64::INFINITY,
                    valid: true,
                },
                ValidityRegion {
                    tau_lo: 2.5,
                    tau_hi: 4.0,
                    valid: false,
                },
            ],
            skew: None,
            kernel: Default::default(),
        }
    }

    #[test]
    fn report_roundtrips_losslessly() {
        let report = sample_report();
        let json = report_to_json(&report);
        let text = json.to_compact();
        let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        // A second emit is byte-identical — the bit-identical replay path.
        assert_eq!(report_to_json(&back).to_compact(), text);
    }

    #[test]
    fn skewed_report_roundtrips_and_skew_free_encoding_is_unchanged() {
        let mut report = sample_report();
        let baseline = report_to_json(&report).to_compact();
        // A skew-free report must not mention skew at all (pre-skew
        // byte-identity).
        assert!(!baseline.contains("skew"));
        report.skew = Some(SkewReport {
            zero_skew_bound: Rat::new(5000, 1),
            optimal_bound: Rat::new(3000, 1),
            lp_period_millis: 3000,
            witness_millis: vec![0, 2000],
            improved: true,
            skew_bound_millis: 4000,
        });
        let json = report_to_json(&report);
        let text = json.to_compact();
        let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(report_to_json(&back).to_compact(), text);
    }

    #[test]
    fn report_roundtrips_with_absent_optionals() {
        let mut report = sample_report();
        report.first_failing_tau = None;
        report.failure = None;
        report.reachable_states = None;
        report.regions.clear();
        let back = report_from_json(&report_to_json(&report)).unwrap();
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
    }

    #[test]
    fn all_failure_kinds_roundtrip() {
        let outcomes = [
            DecisionOutcome::Valid,
            DecisionOutcome::BasisStateMismatch { cycle: 3, bit: 1 },
            DecisionOutcome::BasisOutputMismatch {
                cycle: 1,
                output: 2,
            },
            DecisionOutcome::InductionStateMismatch { bit: 4 },
            DecisionOutcome::InductionOutputMismatch { output: 0 },
        ];
        for o in outcomes {
            let back = outcome_from_json(&outcome_to_json(Some(o))).unwrap();
            assert_eq!(o, back);
        }
    }

    #[test]
    fn options_overlay_applies_and_rejects() {
        let base = MctOptions::default();
        let patch = Json::parse(r#"{"delay_variation":null}"#).unwrap();
        let opts = options_overlay(&base, &patch).unwrap();
        assert_eq!(opts.delay_variation, None);
        assert_eq!(opts.max_candidates, base.max_candidates);

        let bad = Json::parse(r#"{"dalay_variation":null}"#).unwrap();
        let err = options_overlay(&base, &bad).unwrap_err();
        assert!(err.contains("dalay_variation"), "{err}");

        // Retired lever keys are accepted with any value and ignored.
        let retired = Json::parse(
            r#"{"ordering":"sift","sigma":"flat","reorder_schedule":"growth:1.5","decompose":false,"num_threads":4}"#,
        )
        .unwrap();
        let opts = options_overlay(&base, &retired).unwrap();
        assert_eq!(format!("{opts:?}"), format!("{base:?}"));
        let odd = Json::parse(r#"{"ordering":7,"sigma":null,"decompose":"yes"}"#).unwrap();
        assert!(options_overlay(&base, &odd).is_ok());
    }

    #[test]
    fn options_roundtrip_through_full_encoding() {
        let opts = MctOptions {
            delay_variation: Some((4, 5)),
            exhaustive_floor: Some(1.25),
            time_budget_ms: Some(500),
            skew: true,
            skew_bound: Some(2.5),
            ..MctOptions::default()
        };
        let json = options_to_json(&opts);
        let back = options_overlay(&MctOptions::fixed_delays(), &json).unwrap();
        assert_eq!(format!("{opts:?}"), format!("{back:?}"));
    }

    #[test]
    fn fingerprint_ignores_budget_and_reference_levers() {
        let mut a = MctOptions::default();
        let b = MctOptions {
            time_budget_ms: Some(10),
            ordering: mct_core::VarOrder::Alloc,
            decompose: false,
            ..MctOptions::default()
        };
        assert_eq!(options_fingerprint(&a), options_fingerprint(&b));
        a.delay_variation = None;
        assert_ne!(options_fingerprint(&a), options_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_each_semantic_field() {
        let base = MctOptions::default();
        let variants: Vec<MctOptions> = vec![
            MctOptions {
                delay_variation: Some((8, 10)),
                ..base.clone()
            },
            MctOptions {
                use_reachability: false,
                ..base.clone()
            },
            MctOptions {
                path_coupled_lp: true,
                ..base.clone()
            },
            MctOptions {
                exhaustive_floor: Some(1.0),
                ..base.clone()
            },
            MctOptions {
                max_sigma_combos: 17,
                ..base.clone()
            },
            MctOptions {
                max_candidates: 5,
                ..base.clone()
            },
            MctOptions {
                floor_divisor: 7,
                ..base.clone()
            },
            MctOptions {
                cone_node_limit: 11,
                ..base.clone()
            },
            MctOptions {
                exact_check: true,
                ..base.clone()
            },
            MctOptions {
                max_product_bits: 13,
                ..base.clone()
            },
            MctOptions {
                skew: true,
                ..base.clone()
            },
            MctOptions {
                skew: true,
                skew_bound: Some(1.5),
                ..base.clone()
            },
        ];
        let baseline = options_fingerprint(&base);
        let mut seen = vec![baseline];
        for v in &variants {
            let fp = options_fingerprint(v);
            assert!(!seen.contains(&fp), "collision for {v:?}");
            seen.push(fp);
        }
    }
}
