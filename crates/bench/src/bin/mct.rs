//! Command-line front end for the minimum-cycle-time toolkit.
//!
//! ```text
//! mct analyze  <file> [options] [--json]   full sequential analysis of a netlist
//! mct delays   <file> [options]            combinational delay metrics only
//! mct simulate <file> --period X [--cycles N] [--seed S] [--vcd out.vcd]
//! mct convert  <in> <out>                  translate between .bench and .blif
//! mct serve    [--listen A] [--workers N] [--cache-dir D] …   analysis daemon
//! mct query    <file>… [--connect A] [--shard-map A,B,…] [options] [--json]
//! mct query    --stats|--ping|--shutdown [--connect A|--shard-map A,B,…]
//! mct cache    ls|gc|rm <digest> --cache-dir D [--cache-max-bytes N]
//! mct fuzz     [--seed S] [--iters N] [--time-budget-ms T] [--corpus DIR]
//!              [--oracle all|differential|metamorphic|robustness|decompose|sigma|skew] [--stats-json]
//!
//! options:
//!   --blif            treat <file> as BLIF (default: by extension, else .bench)
//!   --model unit|mapped               delay annotation (default mapped); a
//!                     .bench file with `# .delay`, `# .clock_to_q` or
//!                     `# .init` lines (a fuzz repro) keeps its own delays
//!                     and power-on values instead
//!   --fixed           exact delays instead of 90–100% variation
//!   --no-reachability disable the reachable-state-space restriction
//!   --exact           exact product-machine equivalence check
//!   --lp              Section-7 path-coupled linear programs
//!   --mode M          zero (default) | skew: `skew` additionally runs the
//!                     clock-skew optimization tier — an LP over per-register
//!                     capture offsets plus an exact re-sweep of the witness
//!                     machine — and appends its report (it is part of the
//!                     cache key).
//!                     `# .skew <dff> <millis>` annotations in the input are
//!                     always honored as circuit semantics, in either mode
//!   --skew-bound X    cap |skew| at X time units in the optimization
//!                     (default: the steady-state delay L)
//!
//! serve options:
//!   --listen ADDR        bind address (default 127.0.0.1:7934; port 0 = ephemeral)
//!   --workers N          worker threads (default 2)
//!   --cache-capacity N   in-memory result-cache entries (default 64)
//!   --cache-dir DIR      persist results and cone replay seeds (reach
//!                        layers plus verdicts) across restarts (a
//!                        restarted daemon warm-starts from disk)
//!   --cache-max-bytes N  byte budget, applied to the in-memory cache and
//!                        the disk store each (LRU eviction; artifacts
//!                        larger than the budget bypass admission)
//!   --max-queue N        queued connections before shedding `busy` (default 32)
//!   --request-budget S   per-request analysis budget, seconds
//!   --quiet              suppress per-request log lines
//!
//! query options:
//!   --shard-map A,B,…    a fleet of daemons; each circuit is routed by
//!                        content digest modulo the shard count, so
//!                        identical circuits always land on the same
//!                        replica (--stats/--ping/--shutdown fan out to
//!                        every shard). Several <file> arguments go out
//!                        as one `batch` request per shard.
//!
//! cache actions (offline, against a --cache-dir store):
//!   ls                   list artifacts with class and size (files no
//!                        lookup reads, such as retired `reach-*.mctb` and
//!                        `order-*.mctb` ones, list as `other`)
//!   gc                   drop foreign/corrupt/retired files, then evict LRU
//!                        until under --cache-max-bytes (when given)
//!   rm <digest>          remove every artifact keyed by a layout digest
//!
//! fuzz options:
//!   --seed S             master seed (default 1); stdout is a pure function
//!                        of the flags — wall time goes to stderr only
//!   --iters N            iterations (default 500)
//!   --time-budget-ms T   stop after T ms of wall time
//!   --corpus DIR         replay + mutate DIR/*.bench; write shrunk repros there
//!   --oracle NAME        all | differential | metamorphic | robustness |
//!                        decompose | sigma (flat-vs-pruned Φ identity with
//!                        wide delay intervals and path-coupled LPs) |
//!                        skew (clock-skew tier soundness: monotone bound,
//!                        simulated witness replay, zero-annotation identity)
//!   --stats-json         machine-readable stats (adds the one
//!                        nondeterministic field, `wall_ms`)
//! ```

use mct_core::{MctAnalyzer, MctOptions};
use mct_netlist::{
    circuit_digests, parse_bench, parse_blif, write_bench, write_blif, Circuit, DelayModel,
    FsmView, Time,
};
use mct_serve::json::Json;
use mct_serve::server::{Server, ServerConfig};
use mct_serve::Client;
use mct_sim::{functional_trace, DelayMode, SimConfig, Simulator};
use mct_tbf::TimedVarTable;
use std::process::ExitCode;

struct Flags {
    blif: Option<bool>,
    model: DelayModel,
    fixed: bool,
    no_reachability: bool,
    exact: bool,
    lp: bool,
    skew: bool,
    skew_bound: Option<f64>,
    period: Option<f64>,
    cycles: usize,
    seed: u64,
    vcd: Option<String>,
    json: bool,
    listen: String,
    connect: String,
    workers: usize,
    cache_capacity: usize,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    shard_map: Option<Vec<String>>,
    max_queue: usize,
    request_budget_secs: Option<u64>,
    quiet: bool,
    name: Option<String>,
    stats: bool,
    ping: bool,
    shutdown: bool,
    iters: u64,
    time_budget_ms: Option<u64>,
    corpus: Option<String>,
    oracle: mct_fuzz::OracleSelect,
    stats_json: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        blif: None,
        model: DelayModel::Mapped,
        fixed: false,
        no_reachability: false,
        exact: false,
        lp: false,
        skew: false,
        skew_bound: None,
        period: None,
        cycles: 64,
        seed: 1,
        vcd: None,
        json: false,
        listen: "127.0.0.1:7934".into(),
        connect: "127.0.0.1:7934".into(),
        workers: 2,
        cache_capacity: 64,
        cache_dir: None,
        cache_max_bytes: None,
        shard_map: None,
        max_queue: 32,
        request_budget_secs: None,
        quiet: false,
        name: None,
        stats: false,
        ping: false,
        shutdown: false,
        iters: 500,
        time_budget_ms: None,
        corpus: None,
        oracle: mct_fuzz::OracleSelect::All,
        stats_json: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--blif" => f.blif = Some(true),
            "--bench" => f.blif = Some(false),
            "--fixed" => f.fixed = true,
            "--no-reachability" => f.no_reachability = true,
            "--exact" => f.exact = true,
            "--lp" => f.lp = true,
            "--mode" => match it.next().map(String::as_str) {
                Some("zero") => f.skew = false,
                Some("skew") => f.skew = true,
                other => return Err(format!("--mode needs zero|skew, got {other:?}")),
            },
            "--skew-bound" => {
                let bound: f64 = it
                    .next()
                    .ok_or("--skew-bound needs a magnitude in time units")?
                    .parse()
                    .map_err(|e| format!("bad skew bound: {e}"))?;
                if !bound.is_finite() || bound < 0.0 {
                    return Err(format!(
                        "--skew-bound needs a finite non-negative value, got {bound}"
                    ));
                }
                f.skew_bound = Some(bound);
            }
            "--model" => match it.next().map(String::as_str) {
                Some("unit") => f.model = DelayModel::Unit,
                Some("mapped") => f.model = DelayModel::Mapped,
                other => return Err(format!("--model needs unit|mapped, got {other:?}")),
            },
            "--period" => {
                f.period = Some(
                    it.next()
                        .ok_or("--period needs a value")?
                        .parse()
                        .map_err(|e| format!("bad period: {e}"))?,
                )
            }
            "--cycles" => {
                f.cycles = it
                    .next()
                    .ok_or("--cycles needs a value")?
                    .parse()
                    .map_err(|e| format!("bad cycle count: {e}"))?
            }
            "--vcd" => f.vcd = Some(it.next().ok_or("--vcd needs a path")?.clone()),
            "--json" => f.json = true,
            "--listen" => f.listen = it.next().ok_or("--listen needs an address")?.clone(),
            "--connect" => f.connect = it.next().ok_or("--connect needs an address")?.clone(),
            "--workers" => {
                f.workers = it
                    .next()
                    .ok_or("--workers needs a count")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?
            }
            "--cache-capacity" => {
                f.cache_capacity = it
                    .next()
                    .ok_or("--cache-capacity needs a count")?
                    .parse()
                    .map_err(|e| format!("bad cache capacity: {e}"))?
            }
            "--cache-dir" => {
                f.cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone())
            }
            "--cache-max-bytes" => {
                f.cache_max_bytes = Some(
                    it.next()
                        .ok_or("--cache-max-bytes needs a byte count")?
                        .parse()
                        .map_err(|e| format!("bad byte budget: {e}"))?,
                )
            }
            "--shard-map" => {
                let list: Vec<String> = it
                    .next()
                    .ok_or("--shard-map needs a comma-separated address list")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if list.is_empty() {
                    return Err("--shard-map needs at least one address".into());
                }
                f.shard_map = Some(list);
            }
            "--max-queue" => {
                f.max_queue = it
                    .next()
                    .ok_or("--max-queue needs a count")?
                    .parse()
                    .map_err(|e| format!("bad queue bound: {e}"))?
            }
            "--request-budget" => {
                f.request_budget_secs = Some(
                    it.next()
                        .ok_or("--request-budget needs seconds")?
                        .parse()
                        .map_err(|e| format!("bad budget: {e}"))?,
                )
            }
            "--quiet" => f.quiet = true,
            "--name" => f.name = Some(it.next().ok_or("--name needs a value")?.clone()),
            "--stats" => f.stats = true,
            "--ping" => f.ping = true,
            "--shutdown" => f.shutdown = true,
            "--seed" => {
                f.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--iters" => {
                f.iters = it
                    .next()
                    .ok_or("--iters needs a count")?
                    .parse()
                    .map_err(|e| format!("bad iteration count: {e}"))?
            }
            "--time-budget-ms" => {
                f.time_budget_ms = Some(
                    it.next()
                        .ok_or("--time-budget-ms needs milliseconds")?
                        .parse()
                        .map_err(|e| format!("bad time budget: {e}"))?,
                )
            }
            "--corpus" => f.corpus = Some(it.next().ok_or("--corpus needs a path")?.clone()),
            "--oracle" => {
                let name = it.next().ok_or("--oracle needs a name")?;
                f.oracle = mct_fuzz::OracleSelect::parse(name).ok_or(format!(
                    "--oracle needs all|differential|metamorphic|robustness|decompose|sigma|skew, \
                     got `{name}`"
                ))?
            }
            "--stats-json" => f.stats_json = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => f.positional.push(other.to_owned()),
        }
    }
    Ok(f)
}

fn load(path: &str, flags: &Flags) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let as_blif = flags.blif.unwrap_or_else(|| path.ends_with(".blif"));
    let circuit = if as_blif {
        parse_blif(&text, &flags.model)
    } else if has_timing_annotations(&text) {
        mct_fuzz::parse_timed_bench(&text)
    } else {
        parse_bench(&text, &flags.model)
    }
    .map_err(|e| format!("{path}: {e}"))?;
    Ok(circuit)
}

/// Whether `.bench` text carries the annotations a fuzz repro is written
/// with: `# .delay`, `# .clock_to_q` or `# .init` lines.
fn has_timing_annotations(text: &str) -> bool {
    text.lines().any(|line| {
        line.trim()
            .strip_prefix("# .")
            .and_then(|body| body.split_whitespace().next())
            .is_some_and(|word| matches!(word, "delay" | "clock_to_q" | "init"))
    })
}

fn mct_options(flags: &Flags) -> MctOptions {
    MctOptions {
        delay_variation: if flags.fixed { None } else { Some((9, 10)) },
        use_reachability: !flags.no_reachability,
        path_coupled_lp: flags.lp,
        exact_check: flags.exact,
        skew: flags.skew,
        skew_bound: flags.skew_bound,
        ..MctOptions::paper()
    }
}

fn cmd_delays(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("delays needs a netlist file")?;
    let circuit = load(path, flags)?;
    let view = FsmView::new(&circuit).map_err(|e| e.to_string())?;
    let mut manager = mct_bdd::BddManager::new();
    let mut table = TimedVarTable::new();
    let m = mct_delay::compute_all(&view, &mut manager, &mut table).map_err(|e| e.to_string())?;
    println!("{}: {}", circuit.name(), circuit.stats());
    println!("  topological  {}", m.topological);
    println!("  shortest     {}", m.shortest);
    println!("  floating     {}", m.floating);
    println!("  transition   {}", m.transition);
    if !mct_delay::theorem2_applicable(m.transition, m.topological) {
        println!("  note: transition < topological/2 — not a certified bound (Theorem 2)");
    }
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("analyze needs a netlist file")?;
    let circuit = load(path, flags)?;
    let opts = mct_options(flags);
    let report = MctAnalyzer::new(&circuit)
        .map_err(|e| e.to_string())?
        .run(&opts)
        .map_err(|e| e.to_string())?;
    if flags.json {
        // The canonical report encoding deliberately omits the kernel
        // diagnostics (they vary with GC thresholds and cache state); the
        // CLI appends them as an extra top-level field for local inspection.
        let mut json = mct_serve::report::report_to_json(&report);
        if let Json::Obj(fields) = &mut json {
            let kernel = report.kernel.counters();
            let kernel = kernel.map(|(c, v)| (c.name.into(), Json::Int(v as i64)));
            fields.push(("kernel".into(), Json::Obj(kernel.collect())));
        }
        println!("{}", json.to_pretty());
        return Ok(());
    }
    println!("{}: {}", circuit.name(), circuit.stats());
    println!("  steady-state delay L   {:.3}", report.steady_delay);
    println!("  MCT upper bound        {:.3}", report.mct_upper_bound);
    match report.first_failing_tau {
        Some(t) => println!("  first failing period   {t:.3}"),
        None => println!("  no failing period found (exhausted at the floor)"),
    }
    if let Some(outcome) = report.failure {
        println!("  failure diagnosis      {outcome:?}");
    }
    println!(
        "  candidates {} / combinations {} ({} cache hits)",
        report.candidates_checked, report.sigma_checked, report.sigma_cache_hits
    );
    if let Some(states) = report.reachable_states {
        println!(
            "  reachable states       {} of {}",
            states,
            1u64 << circuit.num_dffs().min(63)
        );
    }
    if let Some(skew) = &report.skew {
        let units = |r: &mct_lp::Rat| r.num() as f64 / (r.den() as f64 * 1000.0);
        println!("  clock-skew optimization:");
        println!(
            "    zero-skew MCT        {:.3}",
            units(&skew.zero_skew_bound)
        );
        println!("    skew-optimal MCT     {:.3}", units(&skew.optimal_bound));
        println!(
            "    structural LP period {:.3}   (|skew| <= {:.3})",
            skew.lp_period_millis as f64 / 1000.0,
            skew.skew_bound_millis as f64 / 1000.0
        );
        if skew.improved {
            let margin = skew.zero_skew_bound - skew.optimal_bound;
            println!("    improvement          {:.3}", units(&margin));
            for (q, s) in circuit.dffs().into_iter().zip(&skew.witness_millis) {
                println!(
                    "    skew {:<16} {:.3}",
                    circuit.net_name(q),
                    *s as f64 / 1000.0
                );
            }
        } else {
            println!("    no skew assignment beats zero skew");
        }
    }
    println!("  bdd kernel             {}", report.kernel);
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let path = flags
        .positional
        .first()
        .ok_or("simulate needs a netlist file")?;
    let period = flags.period.ok_or("simulate needs --period")?;
    let circuit = load(path, flags)?;
    let sim = Simulator::new(&circuit).map_err(|e| e.to_string())?;
    let config = SimConfig::at_period(Time::from_f64(period))
        .with_cycles(flags.cycles)
        .with_delay_mode(DelayMode::RandomUniform {
            min_factor_percent: if flags.fixed { 100 } else { 90 },
            seed: flags.seed,
        });
    let seed = flags.seed as usize;
    let ins = move |cycle: usize, i: usize| (cycle * 13 + i * 5 + seed) % 7 < 3;
    let (trace, waves) = sim.run_recording(&config, ins);
    if let Some(path) = &flags.vcd {
        let vcd = mct_sim::write_vcd(circuit.name(), &waves);
        std::fs::write(path, vcd).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let (states, outputs) = functional_trace(&circuit, flags.cycles, ins);
    println!(
        "{}: τ = {period}, {} cycles, {} events",
        circuit.name(),
        flags.cycles,
        trace.events_processed
    );
    match trace.first_divergence(&states) {
        None if trace.matches(&states, &outputs) => {
            println!("  sampled behaviour matches the functional model ✓")
        }
        None => println!("  states match but outputs diverge ✗"),
        Some(cycle) => println!("  DIVERGES from the functional model at cycle {cycle} ✗"),
    }
    for v in trace.violations.iter().take(5) {
        println!("  {v}");
    }
    Ok(())
}

fn cmd_convert(flags: &Flags) -> Result<(), String> {
    let [input, output] = flags.positional.as_slice() else {
        return Err("convert needs <in> <out>".into());
    };
    let circuit = load(input, flags)?;
    let text = if output.ends_with(".blif") {
        write_blif(&circuit)
    } else {
        write_bench(&circuit)
    };
    std::fs::write(output, text).map_err(|e| format!("{output}: {e}"))?;
    println!("wrote {output}");
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let cfg = ServerConfig {
        listen: flags.listen.clone(),
        workers: flags.workers,
        cache_capacity: flags.cache_capacity,
        cache_dir: flags.cache_dir.clone().map(Into::into),
        cache_max_bytes: flags.cache_max_bytes,
        max_queue: flags.max_queue,
        default_time_budget_ms: flags.request_budget_secs.map(|s| s * 1000),
        log: !flags.quiet,
        install_signal_handlers: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("{}: {e}", flags.listen))?;
    // This line is the startup contract: scripts (and the CI smoke test)
    // parse the bound address from it, so port 0 is usable.
    println!("listening on {}", server.local_addr());
    server.run().map_err(|e| e.to_string())
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    // One shard by default; with --shard-map, every control request fans
    // out and every analyze routes by content digest (below).
    let shards: Vec<String> = match &flags.shard_map {
        Some(list) => list.clone(),
        None => vec![flags.connect.clone()],
    };
    let connect =
        |addr: &str, what: &str| Client::connect(addr).map_err(|e| format!("{addr} ({what}): {e}"));
    if flags.shutdown {
        for addr in &shards {
            let response = connect(addr, "shutdown")?
                .shutdown()
                .map_err(|e| e.to_string())?;
            expect_type(&response, "bye")?;
            println!("server at {addr} shutting down");
        }
        return Ok(());
    }
    if flags.ping {
        for addr in &shards {
            let response = connect(addr, "ping")?.ping().map_err(|e| e.to_string())?;
            expect_type(&response, "pong")?;
            println!("server at {addr} is alive");
        }
        return Ok(());
    }
    if flags.stats {
        for addr in &shards {
            let response = connect(addr, "stats")?.stats().map_err(|e| e.to_string())?;
            expect_type(&response, "stats")?;
            if shards.len() > 1 {
                println!("── {addr}");
            }
            println!("{}", response.to_pretty());
        }
        return Ok(());
    }

    if flags.positional.is_empty() {
        return Err("query needs a netlist file".into());
    }
    // Build one analyze object per file, routed to its shard: the same
    // circuit always hashes to the same replica, so each replica's cache
    // stays hot for its slice of the fleet's workload.
    let mut per_shard: Vec<Vec<(usize, Json)>> = vec![Vec::new(); shards.len()];
    for (idx, path) in flags.positional.iter().enumerate() {
        let (request, shard) = build_analyze_request(flags, path, shards.len())?;
        per_shard[shard].push((idx, request));
    }
    let mut responses: Vec<Option<Json>> = vec![None; flags.positional.len()];
    for (shard, routed) in per_shard.iter().enumerate() {
        if routed.is_empty() {
            continue;
        }
        let mut client = connect(&shards[shard], "analyze")?;
        if let [(idx, request)] = routed.as_slice() {
            responses[*idx] = Some(client.request(request).map_err(|e| e.to_string())?);
            continue;
        }
        // Several files for one shard travel as a single batch request;
        // the `seq`-tagged responses come back in submission order.
        let request = Json::Obj(vec![
            ("type".into(), Json::Str("batch".into())),
            (
                "requests".into(),
                Json::Arr(routed.iter().map(|(_, r)| r.clone()).collect()),
            ),
        ]);
        let response = client.request(&request).map_err(|e| e.to_string())?;
        expect_type(&response, "batch")?;
        let items = response
            .get("responses")
            .and_then(Json::as_arr)
            .ok_or("batch response missing `responses`")?;
        if items.len() != routed.len() {
            return Err(format!(
                "batch response has {} item(s), expected {}",
                items.len(),
                routed.len()
            ));
        }
        for ((idx, _), item) in routed.iter().zip(items) {
            responses[*idx] = Some(item.clone());
        }
    }
    let responses: Vec<Json> = responses
        .into_iter()
        .map(|r| r.expect("every file was routed to a shard"))
        .collect();

    if flags.json {
        match responses.as_slice() {
            [only] => {
                check_report_envelope(only)?;
                println!("{}", only.to_pretty());
            }
            _ => println!("{}", Json::Arr(responses.clone()).to_pretty()),
        }
        if responses.len() > 1 {
            let failed = responses
                .iter()
                .filter(|r| check_report_envelope(r).is_err())
                .count();
            if failed > 0 {
                return Err(format!("{failed} of {} file(s) failed", responses.len()));
            }
        }
        return Ok(());
    }
    let mut failures = Vec::new();
    for (path, response) in flags.positional.iter().zip(&responses) {
        match check_report_envelope(response) {
            Ok(()) => print_report_response(response, &flags.connect)?,
            Err(e) => {
                println!("{path}: error: {e}");
                failures.push(path.as_str());
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} file(s) failed",
            failures.len(),
            responses.len()
        ))
    }
}

/// Builds the wire-format analyze object for one netlist file and picks
/// its shard: content digest modulo the shard count, so renamed or
/// reordered-but-identical circuits land on the same replica. With a
/// single shard the local parse is skipped.
fn build_analyze_request(
    flags: &Flags,
    path: &str,
    num_shards: usize,
) -> Result<(Json, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let as_blif = flags.blif.unwrap_or_else(|| path.ends_with(".blif"));
    let name = match &flags.name {
        Some(n) => n.clone(),
        None => std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "circuit".into()),
    };
    let shard = if num_shards > 1 {
        let circuit = if as_blif {
            parse_blif(&text, &flags.model)
        } else {
            parse_bench(&text, &flags.model)
        }
        .map_err(|e| format!("{path}: {e}"))?;
        (circuit_digests(&circuit).content.0 % num_shards as u128) as usize
    } else {
        0
    };
    let opts = mct_options(flags);
    let options = Json::Obj(vec![
        (
            "delay_variation".into(),
            match opts.delay_variation {
                None => Json::Null,
                Some((n, d)) => Json::Arr(vec![Json::Int(n), Json::Int(d)]),
            },
        ),
        ("use_reachability".into(), Json::Bool(opts.use_reachability)),
        ("path_coupled_lp".into(), Json::Bool(opts.path_coupled_lp)),
        ("exact_check".into(), Json::Bool(opts.exact_check)),
        // `--mode skew` changes the report (and the cache fingerprint), so
        // the query path must carry it to the server.
        ("skew".into(), Json::Bool(opts.skew)),
        (
            "skew_bound".into(),
            match opts.skew_bound {
                None => Json::Null,
                Some(b) => Json::Float(b),
            },
        ),
    ]);
    let request = Json::Obj(vec![
        ("type".into(), Json::Str("analyze".into())),
        (
            "format".into(),
            Json::Str(if as_blif { "blif" } else { "bench" }.into()),
        ),
        ("netlist".into(), Json::Str(text)),
        ("name".into(), Json::Str(name)),
        (
            "delay_model".into(),
            Json::Str(
                match flags.model {
                    DelayModel::Unit => "unit",
                    _ => "mapped",
                }
                .into(),
            ),
        ),
        ("options".into(), options),
    ]);
    Ok((request, shard))
}

/// Maps the non-`report` response envelopes to CLI errors.
fn check_report_envelope(response: &Json) -> Result<(), String> {
    match response.get("type").and_then(Json::as_str) {
        Some("report") => Ok(()),
        Some("busy") => Err("server busy, retry later".into()),
        Some("error") => Err(response
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error")
            .to_owned()),
        other => Err(format!("unexpected response type {other:?}")),
    }
}

/// Offline maintenance of a `--cache-dir` store: `ls` lists artifacts,
/// `gc` drops foreign/corrupt files (then evicts LRU down to
/// `--cache-max-bytes` when given), `rm <digest>` removes every artifact
/// keyed by a layout digest.
fn cmd_cache(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .cache_dir
        .as_deref()
        .ok_or("cache needs --cache-dir DIR")?;
    let mut store = mct_store::Store::open(std::path::Path::new(dir), flags.cache_max_bytes)
        .map_err(|e| format!("{dir}: {e}"))?;
    let action = flags
        .positional
        .first()
        .map(String::as_str)
        .ok_or("cache needs an action: ls | gc | rm <digest>")?;
    match action {
        "ls" => {
            // `ls` is made for piping into `head`/`grep -q`, which close
            // the pipe early; a failed write means the reader has all it
            // wants, not an error.
            use std::io::Write;
            let mut out = std::io::stdout().lock();
            for entry in store.ls() {
                let kind = match entry.kind {
                    Some(mct_store::ArtifactKind::Cone) => "cone",
                    None => "other",
                };
                if writeln!(out, "{:>12}  {kind:<6}  {}", entry.bytes, entry.file).is_err() {
                    return Ok(());
                }
            }
            let _ = writeln!(
                out,
                "{} file(s), {} byte(s) in {dir}",
                store.num_files(),
                store.bytes_in_use()
            );
            Ok(())
        }
        "gc" => {
            let outcome = store.gc(flags.cache_max_bytes);
            println!(
                "removed {} file(s), freed {} byte(s); {} byte(s) remain",
                outcome.removed,
                outcome.freed,
                store.bytes_in_use()
            );
            Ok(())
        }
        "rm" => {
            let digest = flags
                .positional
                .get(1)
                .ok_or("cache rm needs a layout digest (32 hex chars)")?;
            let removed = store.rm(digest);
            println!("removed {removed} file(s)");
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}` (ls | gc | rm)")),
    }
}

fn cmd_fuzz(flags: &Flags) -> Result<(), String> {
    let mut cfg = mct_fuzz::FuzzConfig {
        seed: flags.seed,
        iters: flags.iters,
        time_budget_ms: flags.time_budget_ms,
        corpus_dir: flags.corpus.as_ref().map(std::path::PathBuf::from),
        select: flags.oracle,
        ..mct_fuzz::FuzzConfig::default()
    };
    if flags.oracle == mct_fuzz::OracleSelect::Sigma {
        // The sigma oracle compares LP-coupled runs with closed-form ones,
        // which differ only when classes have several feasible shifts and
        // some of them fail: bias delays wide, widen the variation
        // interval (75–100%), and make the LP-coupled run the base.
        cfg.gen.wide_delays = true;
        cfg.oracle.analysis.delay_variation = Some((3, 4));
        cfg.oracle.analysis.path_coupled_lp = true;
    }
    let started = std::time::Instant::now();
    let stats = mct_fuzz::run(&cfg);
    let wall = started.elapsed().as_millis() as u64;
    // stdout is a pure function of the flags; wall time goes to stderr, or
    // into the single documented `wall_ms` field of --stats-json output.
    if flags.stats_json {
        println!("{}", stats.to_json(Some(wall)).to_pretty());
    } else {
        print!("{}", stats.table());
        eprintln!("({wall} ms)");
    }
    if stats.failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} oracle failure(s) found (see shrunk repros above)",
            stats.failures.len()
        ))
    }
}

fn expect_type(response: &Json, want: &str) -> Result<(), String> {
    match response.get("type").and_then(Json::as_str) {
        Some(t) if t == want => Ok(()),
        Some("error") => Err(response
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error")
            .to_owned()),
        other => Err(format!("unexpected response type {other:?}")),
    }
}

fn print_report_response(response: &Json, server: &str) -> Result<(), String> {
    let report = response.get("report").ok_or("response missing report")?;
    let str_field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
    let num = |k: &str| report.get(k).and_then(Json::as_f64);
    let cache = str_field(response, "cache").unwrap_or_else(|| "?".into());
    let elapsed = response
        .get("elapsed_us")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    println!(
        "{}: cache {cache} (server {server}, {elapsed} µs)",
        str_field(report, "circuit").unwrap_or_else(|| "circuit".into()),
    );
    if let Some(l) = num("steady_delay") {
        println!("  steady-state delay L   {l:.3}");
    }
    if let Some(b) = num("mct_upper_bound") {
        println!("  MCT upper bound        {b:.3}");
    }
    match report.get("first_failing_tau").and_then(Json::as_f64) {
        Some(t) => println!("  first failing period   {t:.3}"),
        None => println!("  no failing period found (exhausted at the floor)"),
    }
    if report
        .get("timed_out")
        .and_then(Json::as_bool)
        .unwrap_or(false)
    {
        println!("  note: analysis hit its time budget; the bound is partial");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: mct <analyze|delays|simulate|convert> … (see --help)");
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "-h" {
        eprintln!(
            "mct analyze <file> [--blif] [--model unit|mapped] [--fixed] \
             [--no-reachability] [--exact] [--lp] [--json]\n\
             mct delays <file> [--blif] [--model unit|mapped]\n\
             mct simulate <file> --period X [--cycles N] [--seed S] [--vcd out.vcd]\n\
             mct convert <in> <out>\n\
             mct serve [--listen ADDR] [--workers N] [--cache-capacity N] \
             [--cache-dir DIR] [--cache-max-bytes N] [--max-queue N] \
             [--request-budget SECS] [--quiet]\n\
             mct query <file>… [--connect ADDR] [--shard-map A,B,…] [--name NAME] \
             [analysis flags] [--json]\n\
             mct query --stats|--ping|--shutdown [--connect ADDR] [--shard-map A,B,…]\n\
             mct cache ls|gc|rm <digest> --cache-dir DIR [--cache-max-bytes N]\n\
             mct fuzz [--seed S] [--iters N] [--time-budget-ms T] \
             [--corpus DIR] [--oracle NAME] [--stats-json]"
        );
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(&flags),
        "delays" => cmd_delays(&flags),
        "simulate" => cmd_simulate(&flags),
        "convert" => cmd_convert(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "cache" => cmd_cache(&flags),
        "fuzz" => cmd_fuzz(&flags),
        other => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
