//! A persistent minimum-cycle-time analysis service.
//!
//! Running the paper's decision procedure from the command line pays the
//! full cost — netlist parse, BDD construction, reachability fixed
//! point, breakpoint sweep — on every invocation, even when the same
//! circuit is analyzed repeatedly (regression runs, parameter sweeps,
//! editor integrations). This crate keeps the expensive state alive in a
//! daemon:
//!
//! * [`server::Server`] — a std-only TCP daemon (`mct serve`) speaking
//!   newline-delimited JSON, with a worker pool, bounded-queue
//!   backpressure (explicit `busy` responses), per-request time budgets,
//!   aggregate statistics, and graceful shutdown on SIGTERM/ctrl-C or a
//!   `shutdown` request.
//! * A **content-addressed result cache**: requests are keyed by the
//!   circuit's canonical hash (`mct_netlist::canonical_hash` — invariant
//!   under gate/wire reordering and renaming) combined with a fingerprint
//!   of the semantically relevant options
//!   ([`report::options_fingerprint`]). Identical resubmissions are
//!   answered from memory (or a `--cache-dir` disk store across
//!   restarts) with a byte-identical report. Behind it, a cone tier keys
//!   per-cone analysis artifacts (reach layers plus verdicts) on each
//!   cone-of-influence's layout digest: a *different-options* request for
//!   a known circuit warm-starts from the cached reachable sets instead of
//!   recomputing the fixed point, and an ECO that edits one cone replays
//!   every untouched cone and re-analyzes only the edited one (the
//!   response envelope reports `cones_total`/`cones_replayed`).
//! * [`client::Client`] — the blocking client behind `mct query`.
//! * [`json`] — the hand-rolled JSON value/parser/emitter shared by the
//!   wire protocol, the disk cache, and the CLI's `--json` outputs (the
//!   workspace builds offline, so there is no `serde`).
//!
//! # Protocol
//!
//! One JSON object per line, one response line per request:
//!
//! ```text
//! → {"type":"analyze","format":"bench","netlist":"INPUT(a)\n…","options":{"delay_variation":null}}
//! ← {"type":"report","cache":"miss","key":"…","elapsed_us":1234,"report":{…}}
//! → {"type":"stats"}
//! ← {"type":"stats","requests":2,"hits":1,…}
//! ```
//!
//! Other request types: `ping` → `pong`, `options` (the server's
//! effective defaults), `shutdown` → `bye`. Overload produces
//! `{"type":"busy",…}`; malformed input produces `{"type":"error",…}`.
//!
//! # Example
//!
//! ```
//! use mct_serve::client::Client;
//! use mct_serve::json::Json;
//! use mct_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     listen: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! }).unwrap();
//! let addr = server.local_addr();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let pong = client.ping().unwrap();
//! assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));
//! client.shutdown().unwrap();
//! thread.join().unwrap().unwrap();
//! ```

#![deny(unsafe_code)] // `allow`ed only for the two signal(2) registrations
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod json;
pub mod report;
pub mod server;
pub mod signal;

pub use cache::{CacheHit, CacheKey, CacheTier, PersistStats, ResultCache};
pub use client::Client;
pub use json::Json;
pub use server::{Server, ServerConfig, ServerHandle};
