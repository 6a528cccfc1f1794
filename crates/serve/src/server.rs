//! The analysis daemon: TCP listener, worker pool, request dispatch.
//!
//! One newline-delimited JSON request per line; one JSON response line per
//! request; connections are kept alive until the client closes or goes
//! idle. The accept loop is single-threaded and non-blocking — it only
//! queues connections (or sheds them with a `busy` response when the
//! queue is full), so a slow analysis can never starve accept. Workers
//! pull whole connections, not individual requests, so a client's
//! requests are answered in order.
//!
//! Shutdown is cooperative: the `shutdown` protocol request, a
//! [`ServerHandle::shutdown`] call, or (when installed) SIGINT/SIGTERM
//! all set one flag; the accept loop drains, workers finish their
//! current connection, and [`Server::run`] returns.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mct_core::{BddStats, ConeCacheEntry, MctAnalyzer, MctOptions};
use mct_netlist::{circuit_digests, parse_bench, parse_blif, CanonicalHash, Circuit, DelayModel};

use crate::cache::{CacheHit, CacheKey, CacheTier, ResultCache};
use crate::json::Json;
use crate::report::{options_fingerprint, options_overlay, options_to_json, report_to_json};
use crate::signal;

/// How long the accept loop sleeps between polls of the listener and the
/// shutdown/signal flags.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Read-timeout granularity: how often an idle worker re-checks the
/// shutdown flag while waiting for the next request line.
const READ_POLL: Duration = Duration::from_millis(200);

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to listen on; port 0 picks an ephemeral port.
    pub listen: String,
    /// Worker threads serving connections (minimum 1).
    pub workers: usize,
    /// In-memory result-cache capacity (reports and warm-start
    /// snapshots each).
    pub cache_capacity: usize,
    /// Directory for the persistent result cache; `None` disables the
    /// disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget applied to the in-memory cache and the disk store
    /// (each independently): least-recently-used artifacts are evicted to
    /// stay under it, and an artifact bigger than the whole budget
    /// bypasses admission. `None` leaves both unbounded by size.
    pub cache_max_bytes: Option<u64>,
    /// Maximum connections waiting for a worker before new ones are shed
    /// with a `busy` response (minimum 1 — the queue doubles as the
    /// idle-worker handoff).
    pub max_queue: usize,
    /// Time budget applied to analyze requests that do not set their own
    /// `time_budget_ms` — the per-request timeout.
    pub default_time_budget_ms: Option<u64>,
    /// Idle connections are closed after this long without a request.
    pub idle_timeout_ms: u64,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
    /// Install SIGINT/SIGTERM handlers for graceful shutdown (the CLI
    /// sets this; in-process tests leave it off).
    pub install_signal_handlers: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:7934".into(),
            workers: 2,
            cache_capacity: 64,
            cache_dir: None,
            cache_max_bytes: None,
            max_queue: 32,
            default_time_budget_ms: None,
            idle_timeout_ms: 5_000,
            log: false,
            install_signal_handlers: false,
        }
    }
}

#[derive(Default)]
struct PhaseLatency {
    total_us: AtomicU64,
    count: AtomicU64,
}

impl PhaseLatency {
    fn record(&self, elapsed: Duration) {
        self.total_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "total_us".into(),
                Json::Int(self.total_us.load(Ordering::Relaxed) as i64),
            ),
            (
                "count".into(),
                Json::Int(self.count.load(Ordering::Relaxed) as i64),
            ),
        ])
    }
}

/// Aggregated BDD-kernel diagnostics over every analysis this server ran
/// (cache hits do no symbolic work and contribute nothing): one slot per
/// entry of [`BddStats::COUNTERS`], summed except for the high-water marks,
/// which keep the largest value across requests.
#[derive(Default)]
struct KernelCounters([AtomicU64; BddStats::COUNTERS.len()]);

impl KernelCounters {
    fn record(&self, k: &BddStats) {
        for ((c, v), slot) in k.counters().zip(&self.0) {
            if c.high_water {
                slot.fetch_max(v, Ordering::Relaxed);
            } else {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            BddStats::COUNTERS
                .iter()
                .zip(&self.0)
                .map(|(c, slot)| {
                    (
                        c.name.into(),
                        Json::Int(slot.load(Ordering::Relaxed) as i64),
                    )
                })
                .collect(),
        )
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    warm_starts: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    cones_total: AtomicU64,
    cones_replayed: AtomicU64,
    errors: AtomicU64,
    busy_rejections: AtomicU64,
    parse: PhaseLatency,
    analyze: PhaseLatency,
    request: PhaseLatency,
    kernel: KernelCounters,
}

/// One in-flight analysis, shared between the leader running it and the
/// followers whose identical requests coalesced onto it. The leader
/// publishes exactly once — the compact report text plus its layout
/// digest on success, the error message on failure — then notifies.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<Result<(String, mct_netlist::CanonicalHash), String>>>,
    cv: Condvar,
}

struct Shared {
    cfg: ServerConfig,
    cache: Mutex<ResultCache>,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: Counters,
    /// Requests currently being analyzed, keyed like the result cache.
    /// A second identical submission arriving while the first is running
    /// blocks on the leader's [`Inflight`] instead of re-analyzing.
    inflight: Mutex<std::collections::HashMap<CacheKey, Arc<Inflight>>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (self.cfg.install_signal_handlers && signal::triggered())
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// A clonable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Asks the server to drain and stop; [`Server::run`] returns once
    /// in-flight connections finish.
    pub fn shutdown(&self) {
        self.0.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.is_shutdown()
    }
}

/// A bound, not-yet-running analysis server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state (including loading
    /// nothing from disk — the disk cache is read lazily per key).
    ///
    /// # Errors
    ///
    /// Address parse/bind failures.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::new(
            cfg.cache_capacity,
            cfg.cache_dir.clone(),
            cfg.cache_max_bytes,
        );
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                cfg,
                cache: Mutex::new(cache),
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                stats: Counters::default(),
                inflight: Mutex::new(std::collections::HashMap::new()),
            }),
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for requesting shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(Arc::clone(&self.shared))
    }

    /// Runs the accept loop until shutdown, then joins the workers.
    ///
    /// # Errors
    ///
    /// Fatal listener failures (transient accept errors are logged and
    /// survived).
    pub fn run(self) -> std::io::Result<()> {
        if self.shared.cfg.install_signal_handlers {
            signal::install();
        }
        self.listener.set_nonblocking(true)?;
        let workers: Vec<_> = (0..self.shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("mct-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        while !self.shared.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _peer)) => dispatch(&self.shared, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    if self.shared.cfg.log {
                        eprintln!("[mct-serve] accept error: {e}");
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        self.shared.request_shutdown();
        for w in workers {
            let _ = w.join();
        }
        if self.shared.cfg.log {
            eprintln!("[mct-serve] shut down cleanly");
        }
        Ok(())
    }
}

/// Queues a fresh connection for a worker, or sheds it with a `busy`
/// response when `max_queue` connections are already waiting.
fn dispatch(shared: &Shared, stream: TcpStream) {
    // The queue doubles as the idle-worker handoff, so it keeps a minimum
    // of one slot — otherwise an unloaded server would shed everything.
    let max_queue = shared.cfg.max_queue.max(1);
    let mut queue = shared.queue.lock().expect("queue lock");
    if queue.len() >= max_queue {
        drop(queue);
        shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
        if shared.cfg.log {
            eprintln!("[mct-serve] busy: queue at {max_queue} connections, shedding");
        }
        let busy = Json::Obj(vec![
            ("type".into(), Json::Str("busy".into())),
            (
                "message".into(),
                Json::Str("server at capacity, retry later".into()),
            ),
        ]);
        // Best effort without blocking the accept loop: this runs on the
        // accept thread, exactly when backpressure matters, so a peer too
        // slow to take one short line just misses the courtesy response.
        let mut stream = stream;
        let _ = stream.set_nonblocking(true);
        let _ = stream.write_all(&busy.to_line());
        return;
    }
    queue.push_back(stream);
    drop(queue);
    shared.available.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.is_shutdown() {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, READ_POLL)
                    .expect("queue lock");
                queue = guard;
            }
        };
        match stream {
            Some(s) => serve_connection(shared, s),
            None => return,
        }
    }
}

/// Serves newline-delimited requests on one connection until the peer
/// closes, goes idle past the configured timeout, asks for shutdown, or
/// the server shuts down.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    let mut idle = Duration::ZERO;
    loop {
        // `line` persists across timeout wake-ups so a request split over
        // several reads is reassembled rather than truncated.
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) if line.ends_with('\n') => {
                idle = Duration::ZERO;
                if line.trim().is_empty() {
                    line.clear();
                    continue;
                }
                let (response, close) = handle_request(shared, line.trim(), &peer);
                if writer.write_all(&response.to_line()).is_err() {
                    return;
                }
                if close || shared.is_shutdown() {
                    return;
                }
                line.clear();
            }
            Ok(_) => {
                // Data without a trailing newline: the peer half-closed
                // mid-line. Answer what we got, then drop the connection.
                let (response, _) = handle_request(shared, line.trim(), &peer);
                let _ = writer.write_all(&response.to_line());
                return;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                idle += READ_POLL;
                if shared.is_shutdown() || idle.as_millis() as u64 >= shared.cfg.idle_timeout_ms {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses and executes one request line. Returns the response and whether
/// the connection should close afterwards.
fn handle_request(shared: &Shared, text: &str, peer: &str) -> (Json, bool) {
    let started = Instant::now();
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let request = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (error_response(shared, peer, &e.to_string()), false),
    };
    let kind = request.get("type").and_then(Json::as_str).unwrap_or("");
    let (response, close) = match kind {
        "ping" => (
            Json::Obj(vec![("type".into(), Json::Str("pong".into()))]),
            false,
        ),
        "stats" => (stats_response(shared), false),
        "options" => (
            Json::Obj(vec![
                ("type".into(), Json::Str("options".into())),
                ("defaults".into(), options_to_json(&base_options(shared))),
            ]),
            false,
        ),
        "shutdown" => {
            shared.request_shutdown();
            (
                Json::Obj(vec![("type".into(), Json::Str("bye".into()))]),
                true,
            )
        }
        "analyze" => (handle_analyze(shared, &request, peer, started), false),
        "batch" => (handle_batch(shared, &request, peer), false),
        other => (
            error_response(shared, peer, &format!("unknown request type `{other}`")),
            false,
        ),
    };
    shared.stats.request.record(started.elapsed());
    (response, close)
}

/// The options analyze requests start from: the paper's defaults plus the
/// server-wide per-request time budget.
fn base_options(shared: &Shared) -> MctOptions {
    MctOptions {
        time_budget_ms: shared.cfg.default_time_budget_ms,
        ..MctOptions::paper()
    }
}

fn handle_analyze(shared: &Shared, request: &Json, peer: &str, started: Instant) -> Json {
    match analyze_inner(shared, request, peer, started) {
        Ok(response) => response,
        Err(message) => error_response(shared, peer, &message),
    }
}

/// A batch request carries N analyze-shaped objects under `requests` and
/// is answered with N envelopes in submission order, each tagged with its
/// zero-based `seq`. Items are independent: one bad netlist yields an
/// `error` envelope at its position without failing the rest.
fn handle_batch(shared: &Shared, request: &Json, peer: &str) -> Json {
    /// Hard ceiling on items per batch — a protocol sanity bound, not a
    /// throughput knob (batches beyond this should be split by the
    /// client).
    const MAX_BATCH: usize = 1024;
    let Some(items) = request.get("requests").and_then(Json::as_arr) else {
        return error_response(shared, peer, "batch needs a `requests` array");
    };
    if items.len() > MAX_BATCH {
        return error_response(
            shared,
            peer,
            &format!(
                "batch of {} exceeds the {MAX_BATCH}-item limit",
                items.len()
            ),
        );
    }
    let mut responses = Vec::with_capacity(items.len());
    for (seq, item) in items.iter().enumerate() {
        let mut response = handle_analyze(shared, item, peer, Instant::now());
        if let Json::Obj(fields) = &mut response {
            fields.insert(0, ("seq".into(), Json::Int(seq as i64)));
        }
        responses.push(response);
    }
    Json::Obj(vec![
        ("type".into(), Json::Str("batch".into())),
        ("count".into(), Json::Int(responses.len() as i64)),
        ("responses".into(), Json::Arr(responses)),
    ])
}

fn analyze_inner(
    shared: &Shared,
    request: &Json,
    peer: &str,
    started: Instant,
) -> Result<Json, String> {
    // Phase 1: parse the netlist and resolve the effective options.
    let netlist = request
        .get("netlist")
        .and_then(Json::as_str)
        .ok_or("analyze needs a `netlist` string field")?;
    let format = request
        .get("format")
        .and_then(Json::as_str)
        .unwrap_or("bench");
    let model = match request.get("delay_model").and_then(Json::as_str) {
        None | Some("mapped") => DelayModel::Mapped,
        Some("unit") => DelayModel::Unit,
        Some(other) => return Err(format!("unknown delay_model `{other}`")),
    };
    let mut circuit = match format {
        "bench" => parse_bench(netlist, &model),
        "blif" => parse_blif(netlist, &model),
        other => return Err(format!("unknown format `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    if let Some(name) = request.get("name").and_then(Json::as_str) {
        circuit.set_name(name);
    }
    let opts = match request.get("options") {
        None => base_options(shared),
        Some(patch) => options_overlay(&base_options(shared), patch)?,
    };
    let digests = circuit_digests(&circuit);
    let key = CacheKey {
        circuit: digests.content,
        options: options_fingerprint(&opts),
    };
    shared.stats.parse.record(started.elapsed());

    // Phase 2: cache lookup — memory, then disk.
    let cached = shared.cache.lock().expect("cache lock").get(key);
    if let Some(hit) = cached {
        if let Ok(report_json) = Json::parse(&hit.report_json) {
            let (counter, label) = match hit.tier {
                CacheTier::Memory => (&shared.stats.hits, "hit"),
                CacheTier::Disk => (&shared.stats.disk_hits, "disk"),
            };
            counter.fetch_add(1, Ordering::Relaxed);
            return Ok(report_response(
                shared,
                key,
                label,
                with_circuit_name(report_json, circuit.name()),
                // The entry came from a differently-declared build of the
                // same circuit: index-valued diagnostics are relative to
                // that build's declaration order, so flag the response.
                EnvelopeNotes {
                    canonical_indices: hit.layout != digests.layout,
                    ..EnvelopeNotes::default()
                },
                peer,
                started,
            ));
        }
        // A corrupt cache entry falls through to a fresh analysis.
    }

    // Phase 2.5: coalesce concurrent identical submissions. The first
    // request for a key becomes the leader and runs the analysis; an
    // identical request arriving while it is in flight blocks on the
    // leader's [`Inflight`] and replays its result instead of running the
    // same analysis a second time.
    enum Claim {
        Leader,
        Follower(Arc<Inflight>),
        Settled(CacheHit),
    }
    let claim = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        match inflight.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => Claim::Follower(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(v) => {
                // Double-check the memory tier before claiming leadership:
                // a leader publishes to the cache *before* releasing its
                // in-flight entry, so a vacant entry after a phase-2 miss
                // can only mean the leader finished in between — replay its
                // result instead of running the analysis a second time.
                match shared.cache.lock().expect("cache lock").get_memory(key) {
                    Some(hit) => Claim::Settled(hit),
                    None => {
                        v.insert(Arc::new(Inflight::default()));
                        Claim::Leader
                    }
                }
            }
        }
    };
    if let Claim::Follower(flight) = &claim {
        return follow_inflight(
            shared,
            flight,
            key,
            digests.layout,
            circuit.name(),
            peer,
            started,
        );
    }
    if let Claim::Settled(hit) = &claim {
        if let Ok(report_json) = Json::parse(&hit.report_json) {
            shared.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(report_response(
                shared,
                key,
                "hit",
                with_circuit_name(report_json, circuit.name()),
                EnvelopeNotes {
                    canonical_indices: hit.layout != digests.layout,
                    ..EnvelopeNotes::default()
                },
                peer,
                started,
            ));
        }
        // A corrupt entry falls through to an (uncoalesced) analysis.
    }
    let is_leader = matches!(claim, Claim::Leader);
    lead(shared, key, digests.layout, is_leader, || {
        analyze(shared, &circuit, &opts, key, digests.layout, peer, started)
    })
}

/// Runs one analysis (`work`) and, for the leader of `key`, publishes its
/// result to the coalesced followers — on success, on failure, and on a
/// panic alike, so a follower can never wait forever and the in-flight
/// entry is always removed. A panic becomes an error (answered as an error
/// envelope and counted in `errors`); the worker thread survives.
fn lead(
    shared: &Shared,
    key: CacheKey,
    layout: CanonicalHash,
    is_leader: bool,
    work: impl FnOnce() -> Result<(Json, String), String>,
) -> Result<Json, String> {
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".into());
            Err(format!("analysis panicked: {what}"))
        });
    if is_leader {
        let published = match &result {
            Ok((_, report_text)) => Ok((report_text.clone(), layout)),
            Err(message) => Err(message.clone()),
        };
        let flight = shared.inflight.lock().expect("inflight lock").remove(&key);
        if let Some(flight) = flight {
            *flight.done.lock().expect("inflight result lock") = Some(published);
            flight.cv.notify_all();
        }
    }
    result.map(|(response, _)| response)
}

/// Blocks until the leader for `key` publishes its result, then answers
/// with the leader's report under the `coalesced` cache label. A leader
/// failure propagates to every follower (the request would have failed
/// identically run alone).
fn follow_inflight(
    shared: &Shared,
    flight: &Inflight,
    key: CacheKey,
    layout: mct_netlist::CanonicalHash,
    name: &str,
    peer: &str,
    started: Instant,
) -> Result<Json, String> {
    shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
    let mut done = flight.done.lock().expect("inflight result lock");
    loop {
        if let Some(result) = done.clone() {
            drop(done);
            let (text, leader_layout) = result?;
            let report_json =
                Json::parse(&text).map_err(|e| format!("coalesced report failed to parse: {e}"))?;
            return Ok(report_response(
                shared,
                key,
                "coalesced",
                with_circuit_name(report_json, name),
                EnvelopeNotes {
                    // The leader may have built the same circuit with a
                    // different register declaration order.
                    canonical_indices: leader_layout != layout,
                    ..EnvelopeNotes::default()
                },
                peer,
                started,
            ));
        }
        if shared.is_shutdown() {
            return Err("server shut down before the coalesced analysis finished".into());
        }
        let (guard, _) = flight
            .cv
            .wait_timeout(done, READ_POLL)
            .expect("inflight result lock");
        done = guard;
    }
}

/// The kernel stats never enter the serialized report (they vary with GC
/// thresholds and with what the cache replays), so the per-request log line
/// is where they surface on the server side.
fn log_kernel(shared: &Shared, peer: &str, circuit: &str, k: &BddStats) {
    if shared.cfg.log {
        eprintln!("[mct-serve] peer={peer} type=kernel circuit={circuit} {k}");
    }
}

/// The analyze path: slices the circuit into cones of influence, takes
/// the cached [`ConeCacheEntry`] of each cone — keyed by the cone's layout
/// digest and [`ConeCacheEntry::key`] — from memory or the disk store,
/// replays them through [`MctAnalyzer::run_decomposed`], and stores the
/// refreshed entries back. An edit that touches one cone re-analyzes
/// exactly that cone; a request with different options for a known
/// circuit reuses every cone's reachable set and the verdicts its σ share
/// (a one-cone circuit's entry carries the whole reachable set). The
/// layout digest, not the content digest, keys entries because their BDD
/// variables are register *positions*: a register-permuted rebuild must
/// never import a foreign reach set. Returns the response envelope plus
/// the compact report text (for the coalescing publication).
fn analyze(
    shared: &Shared,
    circuit: &Circuit,
    opts: &MctOptions,
    key: CacheKey,
    layout: CanonicalHash,
    peer: &str,
    started: Instant,
) -> Result<(Json, String), String> {
    let mut analyzer = MctAnalyzer::new(circuit).map_err(|e| e.to_string())?;
    // The slice order here and inside `run_decomposed` is the same
    // deterministic `mct_netlist::decompose` order, so seeds line up
    // positionally. Two identical cones share a digest: the second take
    // misses (ownership moved to the first), which costs a re-analysis but
    // never soundness.
    let entry_key = ConeCacheEntry::key(opts);
    let cone_digests: Vec<CanonicalHash> = mct_netlist::decompose(circuit)
        .iter()
        .map(|c| circuit_digests(&c.circuit).layout)
        .collect();
    let mut any_disk_seed = false;
    let mut seeds: Vec<Option<ConeCacheEntry>> = {
        let mut cache = shared.cache.lock().expect("cache lock");
        cone_digests
            .iter()
            .map(|&d| {
                let (entry, tier) = cache.take_cone(d, entry_key)?;
                any_disk_seed |= tier == CacheTier::Disk;
                Some(entry)
            })
            .collect()
    };
    let seeded = seeds.iter().any(Option::is_some);
    let analyze_started = Instant::now();
    let run = {
        let seed_refs: Vec<Option<&ConeCacheEntry>> = seeds.iter().map(Option::as_ref).collect();
        analyzer.run_decomposed(opts, &seed_refs)
    };
    let (report, mut artifacts) = match run {
        Ok(ok) => ok,
        Err(e) => {
            // Put the borrowed seeds back so a failed request does not
            // evict warm state.
            let mut cache = shared.cache.lock().expect("cache lock");
            for (digest, seed) in cone_digests.iter().zip(seeds.drain(..)) {
                if let Some(entry) = seed {
                    cache.store_cone(*digest, entry_key, entry);
                }
            }
            return Err(e.to_string());
        }
    };
    shared.stats.analyze.record(analyze_started.elapsed());
    let (total, replayed) = (artifacts.cones_total, artifacts.cones_replayed);
    let label = if seeded {
        shared.stats.warm_starts.fetch_add(1, Ordering::Relaxed);
        "warm"
    } else {
        shared.stats.misses.fetch_add(1, Ordering::Relaxed);
        "miss"
    };
    shared
        .stats
        .cones_total
        .fetch_add(total as u64, Ordering::Relaxed);
    shared
        .stats
        .cones_replayed
        .fetch_add(replayed as u64, Ordering::Relaxed);
    shared.stats.kernel.record(&report.kernel);
    log_kernel(shared, peer, circuit.name(), &report.kernel);

    // Store: every cone comes back — a freshly harvested entry when the
    // cone did new work, the untouched seed when it was replayed.
    // Timed-out reports stay out of the report cache, but the per-σ cone
    // outcomes computed before the deadline are each complete and
    // deterministic, so they are kept.
    let report_json = report_to_json(&report);
    let report_text = report_json.to_compact();
    {
        let mut cache = shared.cache.lock().expect("cache lock");
        for ((digest, seed), fresh) in cone_digests
            .iter()
            .zip(seeds.drain(..))
            .zip(artifacts.entries.drain(..))
        {
            if let Some(entry) = fresh.or(seed) {
                cache.store_cone(*digest, entry_key, entry);
            }
        }
        if !report.timed_out {
            cache.insert(key, layout, report_text.clone());
        }
    }
    let warm_source = seeded.then_some(if any_disk_seed { "disk" } else { "memory" });
    let response = report_response(
        shared,
        key,
        label,
        report_json,
        EnvelopeNotes {
            cones: Some((total, replayed)),
            warm_source,
            ..EnvelopeNotes::default()
        },
        peer,
        started,
    );
    Ok((response, report_text))
}

/// Clones the report with its `circuit` field rewritten to the
/// requester's chosen name, so cached responses don't leak the name the
/// first requester used.
fn with_circuit_name(report_json: Json, name: &str) -> Json {
    let Json::Obj(mut fields) = report_json else {
        return report_json;
    };
    for (k, v) in &mut fields {
        if k == "circuit" {
            *v = Json::Str(name.into());
        }
    }
    Json::Obj(fields)
}

/// Envelope annotations beyond the cache verdict.
#[derive(Default)]
struct EnvelopeNotes {
    /// The report was replayed from a differently-declared build of the
    /// same circuit (index-valued diagnostics use that build's order).
    canonical_indices: bool,
    /// `(cones_total, cones_replayed)` for analyzed (non-hit) requests.
    cones: Option<(usize, usize)>,
    /// Where the replayed cone entries came from (`"disk"` when any came
    /// from the store, else `"memory"`), for `cache == "warm"` responses.
    /// A `"disk"` source proves the analysis warm-started from the
    /// persistent store — e.g. across a daemon restart.
    warm_source: Option<&'static str>,
}

fn report_response(
    shared: &Shared,
    key: CacheKey,
    cache: &str,
    report_json: Json,
    notes: EnvelopeNotes,
    peer: &str,
    started: Instant,
) -> Json {
    let elapsed_us = started.elapsed().as_micros() as i64;
    if shared.cfg.log {
        let circuit = report_json
            .get("circuit")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let persist = shared.cache.lock().expect("cache lock").persist_stats();
        let warm_source = notes.warm_source.unwrap_or("-");
        eprintln!(
            "[mct-serve] peer={peer} type=analyze circuit={circuit} key={} cache={cache} warm_source={warm_source} elapsed_us={elapsed_us} mem_bytes={} disk_bytes={} disk_evictions={}",
            key.hex(),
            persist.mem_bytes,
            persist.disk_bytes,
            persist.disk_evictions,
        );
    }
    let mut fields = vec![
        ("type".into(), Json::Str("report".into())),
        ("cache".into(), Json::Str(cache.into())),
        ("key".into(), Json::Str(key.hex())),
        ("elapsed_us".into(), Json::Int(elapsed_us)),
    ];
    if notes.canonical_indices {
        // The replayed report was produced by a build of this circuit with
        // a different register/output declaration order; `failure.bit`,
        // `failure.index`, and region provenance use *that* order.
        fields.push(("canonical_indices".into(), Json::Bool(true)));
    }
    if let Some((total, replayed)) = notes.cones {
        // The incremental-replay ledger rides in the envelope, never inside
        // the report (which must stay bit-identical to a cold analysis).
        fields.push(("cones_total".into(), Json::Int(total as i64)));
        fields.push(("cones_replayed".into(), Json::Int(replayed as i64)));
    }
    if let Some(source) = notes.warm_source {
        fields.push(("warm_source".into(), Json::Str(source.into())));
    }
    fields.push(("report".into(), report_json));
    Json::Obj(fields)
}

fn error_response(shared: &Shared, peer: &str, message: &str) -> Json {
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    if shared.cfg.log {
        eprintln!("[mct-serve] peer={peer} type=error message={message:?}");
    }
    Json::Obj(vec![
        ("type".into(), Json::Str("error".into())),
        ("message".into(), Json::Str(message.into())),
    ])
}

fn stats_response(shared: &Shared) -> Json {
    let s = &shared.stats;
    let (cache_entries, cone_entries, evictions, persist) = {
        let cache = shared.cache.lock().expect("cache lock");
        (
            cache.len(),
            cache.cone_entries(),
            cache.evictions(),
            cache.persist_stats(),
        )
    };
    let queue_depth = shared.queue.lock().expect("queue lock").len();
    let load = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
    Json::Obj(vec![
        ("type".into(), Json::Str("stats".into())),
        ("requests".into(), load(&s.requests)),
        ("hits".into(), load(&s.hits)),
        ("disk_hits".into(), load(&s.disk_hits)),
        ("warm_starts".into(), load(&s.warm_starts)),
        ("misses".into(), load(&s.misses)),
        ("coalesced".into(), load(&s.coalesced)),
        ("errors".into(), load(&s.errors)),
        ("busy_rejections".into(), load(&s.busy_rejections)),
        ("cones_total".into(), load(&s.cones_total)),
        ("cones_replayed".into(), load(&s.cones_replayed)),
        ("evictions".into(), Json::Int(evictions as i64)),
        ("cache_entries".into(), Json::Int(cache_entries as i64)),
        ("cone_entries".into(), Json::Int(cone_entries as i64)),
        ("mem_bytes".into(), Json::Int(persist.mem_bytes as i64)),
        (
            "persistence".into(),
            Json::Obj(vec![
                (
                    "store_configured".into(),
                    Json::Bool(persist.store_configured),
                ),
                ("report_hits".into(), Json::Int(persist.report_hits as i64)),
                (
                    "report_misses".into(),
                    Json::Int(persist.report_misses as i64),
                ),
                ("cone_hits".into(), Json::Int(persist.cone_hits as i64)),
                ("cone_misses".into(), Json::Int(persist.cone_misses as i64)),
                ("disk_bytes".into(), Json::Int(persist.disk_bytes as i64)),
                ("disk_files".into(), Json::Int(persist.disk_files as i64)),
                (
                    "disk_evictions".into(),
                    Json::Int(persist.disk_evictions as i64),
                ),
            ]),
        ),
        ("queue_depth".into(), Json::Int(queue_depth as i64)),
        (
            "workers".into(),
            Json::Int(shared.cfg.workers.max(1) as i64),
        ),
        (
            "phase_latency".into(),
            Json::Obj(vec![
                ("parse".into(), s.parse.to_json()),
                ("analyze".into(), s.analyze.to_json()),
                ("request".into(), s.request.to_json()),
            ]),
        ),
        ("kernel".into(), s.kernel.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_leader_releases_its_followers() {
        let shared = Shared {
            cfg: ServerConfig::default(),
            cache: Mutex::new(ResultCache::new(4, None, None)),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Counters::default(),
            inflight: Mutex::new(std::collections::HashMap::new()),
        };
        let key = CacheKey {
            circuit: CanonicalHash(1),
            options: 2,
        };
        let layout = CanonicalHash(3);
        let flight = Arc::new(Inflight::default());
        shared
            .inflight
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&flight));
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| {
                follow_inflight(&shared, &flight, key, layout, "c", "peer", Instant::now())
            });
            let led = lead(&shared, key, layout, true, || panic!("boom"));
            assert!(led.unwrap_err().contains("boom"));
            let followed = follower.join().expect("the follower never panics");
            assert!(followed.unwrap_err().contains("boom"));
        });
        assert!(shared.inflight.lock().unwrap().is_empty());
    }
}
