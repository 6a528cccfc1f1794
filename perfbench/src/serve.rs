//! `serve`: one client connection in a closed loop against an in-process
//! daemon (`mct_serve::Server`, default two workers), the way `mct query`
//! and CI callers use it.
//!
//! Each round starts a daemon on a fresh cache directory and replays one
//! script. For every circuit it sends a first request (a miss, or warm when
//! a cone was analyzed before), a repeat (a memory hit), and a one-gate ECO
//! edit (warm: the untouched cones are replayed); then one `exact_check`
//! and one `skew` request; then it restarts the daemon on the same
//! directory and asks for every circuit again (disk hits). Because state is
//! fresh each round, operation *i* meets the same cache state every round.
//! This is the only workload that runs the serve codec, the canonical
//! digest, the report and cone caches, and store I/O.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use mct_core::{MctAnalyzer, MctOptions};
use mct_netlist::{parse_bench, write_bench, Circuit, DelayModel};
use mct_serve::report::options_overlay;
use mct_serve::{Client, Json, Server, ServerConfig, ServerHandle};

use crate::check::{report_text, Verdicts};
use crate::trace::{self, Tracer};
use crate::{Raw, Workload};

const FIG2_BENCH: &str = include_str!("../../examples/fig2.bench");
const SKEW_RING_BENCH: &str = include_str!("../../examples/skew_ring.bench");

/// Suite machines the script submits as rendered `.bench` text: multi-cone
/// composites that share their LFSR cone.
const SUITE_COMPOSITES: [&str; 2] = ["syn-s5378x", "syn-s15850x"];

/// A netlist the script submits, with its option overlay.
#[derive(Clone)]
pub struct Subject {
    name: String,
    text: String,
    options: Vec<(String, Json)>,
}

impl Subject {
    fn new(name: &str, text: String, options: &[(&str, Json)]) -> Self {
        Subject {
            name: name.to_owned(),
            text,
            options: options
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        }
    }
}

/// The role of a request in the script, which fixes the cache answer it
/// must get.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// First submission of a circuit: `miss`, or `warm` when it shares a
    /// cone with an earlier circuit.
    First,
    /// The same text again: a memory `hit`.
    Repeat,
    /// A one-gate edit: `warm` with the untouched cones replayed (`miss`
    /// on a one-cone machine).
    Eco,
    /// A request with its own options (`exact_check`, `skew`).
    Extra,
    /// After the restart: a `disk` hit.
    Requery,
}

/// One step of the script.
pub enum Step {
    /// An `analyze` request.
    Request {
        /// Unique label of the step.
        op: String,
        /// Circuit name sent with the request.
        name: String,
        /// Role in the script.
        kind: Kind,
        /// Netlist text.
        text: String,
        /// Option overlay.
        options: Json,
    },
    /// Stop the daemon and bind a new one on the same directory, until it
    /// answers `ping`.
    Restart,
}

impl Step {
    /// The step's label.
    pub fn op(&self) -> &str {
        match self {
            Step::Request { op, .. } => op,
            Step::Restart => "restart",
        }
    }

    fn request(&self) -> Option<Json> {
        let Step::Request {
            name,
            text,
            options,
            ..
        } = self
        else {
            return None;
        };
        Some(Json::Obj(vec![
            ("type".into(), Json::Str("analyze".into())),
            ("format".into(), Json::Str("bench".into())),
            ("netlist".into(), Json::Str(text.clone())),
            ("name".into(), Json::Str(name.clone())),
            ("options".into(), options.clone()),
        ]))
    }
}

/// Inserts a buffer in front of the first input of one gate, chosen by
/// `seed`: an ECO edit that changes the timing of exactly one cone.
pub fn eco_edit(text: &str, seed: u64) -> String {
    let gates: Vec<usize> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#') && l.contains(" = ") && !l.contains("DFF("))
        .map(|(i, _)| i)
        .collect();
    let mut rng = mct_prng::SmallRng::seed_from_u64(seed);
    let pick = gates[rng.gen_range(0..gates.len())];
    let mut out = String::new();
    let mut extra = String::new();
    for (i, line) in text.lines().enumerate() {
        if i == pick {
            let (name, rhs) = line.split_once(" = ").expect("gate line");
            let (kind, args) = rhs.split_once('(').expect("gate call");
            let first = args.split([',', ')']).next().expect("an input").trim();
            let rest = &args[args.find(first).expect("input present") + first.len()..];
            out.push_str(&format!("{name} = {kind}(eco_{name}{rest}\n"));
            extra = format!("eco_{name} = BUFF({first})\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out + &extra
}

/// The script over `subjects` (first, repeat, ECO edit each), then
/// `extras`, a restart, and a re-query of every subject.
pub fn script(subjects: &[Subject], extras: &[Subject], seed: u64) -> Vec<Step> {
    let decomposed = |s: &Subject| {
        let mut fields = s.options.clone();
        fields.push(("decompose".into(), Json::Bool(true)));
        Json::Obj(fields)
    };
    let request = |s: &Subject, kind: Kind, name: String, text: String, options: Json| {
        let role = match kind {
            Kind::First => "first",
            Kind::Repeat => "repeat",
            Kind::Eco => "eco",
            Kind::Extra => "extra",
            Kind::Requery => "requery",
        };
        Step::Request {
            op: format!("{}:{role}", s.name),
            name,
            kind,
            text,
            options,
        }
    };
    let mut steps = Vec::new();
    for (k, s) in subjects.iter().enumerate() {
        for kind in [Kind::First, Kind::Repeat] {
            steps.push(request(
                s,
                kind,
                s.name.clone(),
                s.text.clone(),
                decomposed(s),
            ));
        }
        let edited = eco_edit(&s.text, seed.wrapping_mul(31).wrapping_add(k as u64));
        steps.push(request(
            s,
            Kind::Eco,
            format!("{}/eco", s.name),
            edited,
            decomposed(s),
        ));
    }
    for e in extras {
        let options = Json::Obj(e.options.clone());
        steps.push(request(
            e,
            Kind::Extra,
            e.name.clone(),
            e.text.clone(),
            options,
        ));
    }
    steps.push(Step::Restart);
    for s in subjects {
        steps.push(request(
            s,
            Kind::Requery,
            s.name.clone(),
            s.text.clone(),
            decomposed(s),
        ));
    }
    steps
}

/// The `serve` workload's inputs: the suite composites rendered with
/// `write_bench`, s27 and Figure 2 in an order drawn from `seed`, plus the
/// `exact_check` and `skew` requests.
pub fn serve_script(seed: u64) -> Vec<Step> {
    let suite = mct_gen::standard_suite();
    let mut subjects: Vec<Subject> = SUITE_COMPOSITES
        .iter()
        .map(|name| {
            let entry = suite
                .iter()
                .find(|e| e.circuit.name() == *name)
                .expect("composite in the suite");
            Subject::new(name, write_bench(&entry.circuit), &[])
        })
        .collect();
    subjects.push(Subject::new("s27", mct_gen::S27_BENCH.to_owned(), &[]));
    subjects.push(Subject::new("fig2", FIG2_BENCH.to_owned(), &[]));
    let subjects: Vec<Subject> = crate::permutation(subjects.len(), seed)
        .into_iter()
        .map(|k| subjects[k].clone())
        .collect();
    let extras = [
        Subject::new(
            "s27/exact",
            mct_gen::S27_BENCH.to_owned(),
            &[("exact_check", Json::Bool(true))],
        ),
        Subject::new(
            "skew_ring/skew",
            SKEW_RING_BENCH.to_owned(),
            &[("skew", Json::Bool(true))],
        ),
    ];
    script(&subjects, &extras, seed)
}

/// A daemon running on its own thread.
struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon on `dir`, connects, and waits for the first `pong`.
    fn start(dir: &Path) -> Result<(Daemon, Client), String> {
        let server = Server::bind(ServerConfig {
            listen: "127.0.0.1:0".into(),
            cache_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr: SocketAddr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon { handle, thread };
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                daemon.stop();
                return Err(format!("connect: {e}"));
            }
        };
        match client.ping() {
            Ok(pong) if pong.get("type").and_then(Json::as_str) == Some("pong") => {
                Ok((daemon, client))
            }
            other => {
                drop(client);
                daemon.stop();
                Err(format!("no pong: {other:?}"))
            }
        }
    }

    /// Shuts the daemon down and joins its thread (connections must be
    /// closed first).
    fn stop(self) {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: daemon stopped with {e}"),
            Err(_) => eprintln!("perfbench: daemon thread panicked"),
        }
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// The in-process answer to one request: its report text and the parsed
/// circuit (for the simulator replay).
fn in_process(name: &str, text: &str, options: &Json) -> Result<(String, Circuit), String> {
    let mut circuit = parse_bench(text, &DelayModel::Mapped).map_err(|e| e.to_string())?;
    circuit.set_name(name);
    let opts = options_overlay(&MctOptions::paper(), options)?;
    let report = MctAnalyzer::new(&circuit)
        .and_then(|mut a| a.run(&opts))
        .map_err(|e| e.to_string())?;
    Ok((report_text(&report), circuit))
}

/// The `serve` workload.
pub struct Serve {
    seed: u64,
    dir: PathBuf,
    steps: Vec<Step>,
    live: Option<(Daemon, Client)>,
    refs: HashMap<String, (String, Circuit)>,
    labels: Vec<Option<String>>,
    verdicts: Verdicts,
}

impl Serve {
    /// `seed` orders the circuits and picks the ECO edits; the daemon's
    /// cache lives under `scratch`.
    pub fn new(seed: u64, scratch: PathBuf) -> Self {
        let steps = serve_script(seed);
        Serve {
            seed,
            dir: scratch.join("serve-cache"),
            labels: vec![None; steps.len()],
            steps,
            live: None,
            refs: HashMap::new(),
            verdicts: Verdicts::default(),
        }
    }

    fn stop(&mut self) {
        if let Some((daemon, client)) = self.live.take() {
            drop(client);
            daemon.stop();
        }
    }

    fn check_reply(&mut self, i: usize, reply: &Json) -> Result<(), String> {
        let Step::Request {
            name,
            kind,
            text,
            options,
            ..
        } = &self.steps[i]
        else {
            return Err("expected a restart".into());
        };
        if reply.get("type").and_then(Json::as_str) != Some("report") {
            return Err(format!("not a report envelope: {}", reply.to_compact()));
        }
        let label = reply.get("cache").and_then(Json::as_str).unwrap_or("");
        let allowed: &[&str] = match kind {
            Kind::Repeat => &["hit"],
            Kind::Requery => &["disk"],
            Kind::First | Kind::Eco | Kind::Extra => &["miss", "warm"],
        };
        if !allowed.contains(&label) {
            return Err(format!(
                "cache answer `{label}`, expected one of {allowed:?}"
            ));
        }
        match &self.labels[i] {
            None => self.labels[i] = Some(label.to_owned()),
            Some(first) if first != label => {
                return Err(format!(
                    "cache answer `{label}`, `{first}` in the first round"
                ))
            }
            Some(_) => {}
        }
        if !self.refs.contains_key(name) {
            let reference = in_process(name, text, options)?;
            self.refs.insert(name.clone(), reference);
        }
        let (want, circuit) = &self.refs[name];
        let report = reply.get("report").ok_or("envelope without a report")?;
        let got = report.to_compact();
        if &got != want {
            return Err(format!(
                "reply differs from the in-process report:\n  got  {got}\n  want {want}"
            ));
        }
        let bound = report
            .get("mct_upper_bound")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        self.verdicts.note(name, circuit, bound, i);
        Ok(())
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Serve {
    fn op_names(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.op().to_owned()).collect()
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.steps = serve_script(self.seed);
        fresh_dir(&self.dir)?;
        self.live = Some(Daemon::start(&self.dir)?);
        Ok(())
    }

    fn prepare_op(&mut self, i: usize) {
        if matches!(self.steps[i], Step::Restart) {
            self.stop();
        }
    }

    fn run_op(&mut self, i: usize) -> Result<Raw, String> {
        match self.steps[i].request() {
            None => {
                self.live = Some(Daemon::start(&self.dir)?);
                Ok(Raw::Ready)
            }
            Some(request) => {
                let (_, client) = self.live.as_mut().ok_or("no daemon running")?;
                client.request(&request).map(Raw::Reply).map_err(|e| {
                    // The connection is unusable after a timeout; later
                    // requests go over a new one.
                    self.stop();
                    format!("no reply: {e}")
                })
            }
        }
    }

    fn check_op(&mut self, i: usize, raw: Raw) -> Result<(), String> {
        match raw {
            Raw::Ready => Ok(()),
            Raw::Reply(reply) => self.check_reply(i, &reply),
            _ => Err("unexpected result kind".into()),
        }
    }

    fn end_pass(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn replay(&mut self) -> Vec<(usize, String)> {
        self.verdicts.replay()
    }

    fn alternate_cores(&self) -> bool {
        false
    }

    fn trace_pass(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for step in &self.steps {
            if let Step::Request {
                op,
                name,
                kind,
                text,
                options,
            } = step
            {
                if matches!(kind, Kind::First | Kind::Eco | Kind::Extra) {
                    let mut circuit =
                        parse_bench(text, &DelayModel::Mapped).map_err(|e| e.to_string())?;
                    circuit.set_name(name);
                    let opts = MctOptions {
                        decompose: false,
                        ..options_overlay(&MctOptions::paper(), options)?
                    };
                    trace::analysis(tr, op, &circuit, Some(text), &opts);
                }
            }
        }
        run_traced(tr, &self.steps, &self.dir)
    }
}

/// The serve leg of the `table1` and `ladder` traced runs: the script over
/// the workload's multi-cone circuits (the ones the cone cache can replay).
pub fn leg(tr: &mut Tracer, circuits: &[Circuit], scratch: &Path) -> Result<(), String> {
    let subjects: Vec<Subject> = circuits
        .iter()
        .filter(|c| mct_netlist::decompose(c).len() > 1)
        .map(|c| Subject::new(c.name(), write_bench(c), &[]))
        .collect();
    run_traced(tr, &script(&subjects, &[], 0), &scratch.join("serve-leg"))
}

/// Replays `steps` against a fresh daemon, timing each round trip, the
/// daemon's own time (`elapsed_us`) and the restart, and reads the cache
/// and store counters from `stats` before and after the restart.
fn run_traced(tr: &mut Tracer, steps: &[Step], dir: &Path) -> Result<(), String> {
    fresh_dir(dir)?;
    let mut live = Some(Daemon::start(dir)?);
    let mut totals: HashMap<&'static str, f64> = HashMap::new();
    let add_stats = |totals: &mut HashMap<&'static str, f64>, client: &mut Client| {
        let Ok(stats) = client.stats() else {
            *totals.entry("serve.errors").or_default() += 1.0;
            return;
        };
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
        let persist = stats.get("persistence");
        for (name, value) in [
            ("serve.errors", num(stats.get("errors"))),
            ("serve.cones_total", num(stats.get("cones_total"))),
            ("serve.cones_replayed", num(stats.get("cones_replayed"))),
            (
                "serve.report_hits",
                num(persist.and_then(|p| p.get("report_hits"))),
            ),
            (
                "serve.report_misses",
                num(persist.and_then(|p| p.get("report_misses"))),
            ),
        ] {
            *totals.entry(name).or_default() += value;
        }
        // The store outlives the restart: keep its latest size, not a sum.
        for (name, key) in [
            ("store.disk_bytes", "disk_bytes"),
            ("store.disk_files", "disk_files"),
        ] {
            totals.insert(name, num(persist.and_then(|p| p.get(key))));
        }
    };
    for step in steps {
        let op = step.op();
        let Some(request) = step.request() else {
            let (daemon, mut client) = live.take().ok_or("no daemon running")?;
            add_stats(&mut totals, &mut client);
            drop(client);
            daemon.stop();
            let t0 = Instant::now();
            let started = Daemon::start(dir)?;
            tr.span("store.restart", op, t0, t0.elapsed().as_secs_f64());
            live = Some(started);
            continue;
        };
        let (_, client) = live.as_mut().ok_or("no daemon running")?;
        let t0 = Instant::now();
        let reply = client.request(&request);
        let rtt = t0.elapsed().as_secs_f64();
        let reply = match reply {
            Ok(r) if r.get("type").and_then(Json::as_str) == Some("report") => r,
            _ => {
                *totals.entry("serve.errors").or_default() += 1.0;
                continue;
            }
        };
        let call = match reply.get("cache").and_then(Json::as_str) {
            Some("miss") => "serve.rtt_miss",
            Some("hit") => "serve.rtt_hit",
            Some("warm") => "serve.rtt_warm",
            Some("disk") => "serve.rtt_disk",
            _ => "serve.rtt_other",
        };
        tr.span(call, op, t0, rtt);
        let server = reply
            .get("elapsed_us")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            / 1e6;
        tr.record("serve.server", op, server);
        tr.record("serve.wait", op, rtt - server);
    }
    if let Some((daemon, mut client)) = live.take() {
        add_stats(&mut totals, &mut client);
        drop(client);
        daemon.stop();
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut totals: Vec<_> = totals.into_iter().collect();
    totals.sort_by(|a, b| a.0.cmp(b.0));
    for (name, value) in totals {
        tr.count(name, "round", value);
    }
    Ok(())
}
