//! Versioned on-disk persistence for the analysis service's hot artifacts.
//!
//! The service caches one expensive symbolic artifact class in memory —
//! per-cone replay seeds, which for a one-cone circuit carry the whole
//! machine's reachable set — plus final report JSON. This crate gives the
//! seeds a durable form:
//!
//! * a **binary codec** (DDDMP-flavoured) for `mct-core`'s plain-data
//!   [`ConeCacheEntry`](mct_core::ConeCacheEntry): a fixed
//!   header carrying magic, format version, artifact kind, and a
//!   complement-edge flag, then little-endian fixed-width payloads whose
//!   node lists are topologically sorted with signed (negative =
//!   complemented) edge references — see `DESIGN.md` §12 for the full
//!   format specification;
//! * a **store directory manager** ([`Store`]) that owns a `--cache-dir`:
//!   byte-accounted writes with LRU eviction under a configurable budget,
//!   atomic tempfile-rename publication (safe against a daemon killed
//!   mid-write and against a second replica reading concurrently), and
//!   offline inspection (`ls`/`gc`/`rm`) for the `mct cache` subcommand.
//!
//! Decoding is hostile-input safe by construction: every read is
//! bounds-checked, every length is validated against the bytes that
//! remain, a decoded entry's shape is validated before it is returned,
//! and any malformed, truncated, badly shaped or mis-versioned file
//! surfaces as a [`StoreError`] the caller treats as a cache miss — never
//! a panic.
//! Seeds are keyed by the cone's **layout** digest plus the entry key
//! (`mct_core::ConeCacheEntry::key`): snapshot BDD variables are register
//! *positions*, so two cones with equal behaviour but different register
//! layouts must not share artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod dirstore;

pub use codec::{
    decode_cone, encode_cone, peek_kind, ArtifactKind, StoreError, FORMAT_VERSION, MAGIC,
};
pub use dirstore::{cone_name, GcOutcome, Store, StoreEntry};
