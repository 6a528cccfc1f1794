//! Content-addressed result cache for the analysis service.
//!
//! Keys combine the circuit's canonical hash (stable under gate/wire
//! reordering and renaming — see `mct_netlist::canonical_hash`) with a
//! fingerprint of the semantically relevant analysis options. Values are
//! the serialized [`MctReport`](mct_core::MctReport) JSON, stored as text
//! so a hit replays the exact bytes of the original response.
//!
//! Tiers, fastest first:
//!
//! 1. **Memory** — an LRU of up to `capacity` report texts, plus (when a
//!    byte budget is configured) a byte account shared with the cone tier
//!    below: the memory tier as a whole stays under
//!    `--cache-max-bytes`, evicting least-recently-used items across all
//!    maps, and an item bigger than the whole budget bypasses admission.
//! 2. **Disk** — optional (`--cache-dir`): an [`mct_store::Store`]
//!    directory surviving server restarts and shareable between replicas.
//!    Reports keep their text format (`<key>.json`: the producer's layout
//!    digest on the first line, the report JSON after); cone entries are
//!    persisted in the versioned binary store format.
//!    The store is byte-accounted under the same `--cache-max-bytes`
//!    budget with its own LRU. Entries are promoted back into memory on
//!    read; corrupt, truncated, badly shaped or mis-versioned files are
//!    misses.
//! 3. **Cones** — per-cone replay seeds ([`mct_core::ConeCacheEntry`] —
//!    reach layers plus decision outcomes for one cone of influence),
//!    keyed by the cone's *layout* digest and the entry key
//!    ([`mct_core::ConeCacheEntry::key`]), memory first with a disk
//!    fallback (cone-*.mctb). An ECO that edits one cone leaves every
//!    other cone's digest unchanged, so a re-analysis replays the
//!    untouched cones and only recomputes the edited one; a request with
//!    different options for a known circuit reuses its reach sets without
//!    re-running any fixpoint. The layout digest (not the content digest)
//!    is essential for soundness: entry BDD variables and outcomes are
//!    positional on the cone's local register indices, so a
//!    canonically-equal cone whose flip-flops are declared in a different
//!    order must never import a foreign entry.
//!
//! Report entries also remember the layout digest of the circuit that
//! produced them (first line of each disk file), so the server can flag
//! hits served to a differently-declared rebuild, whose index-valued
//! diagnostics refer to the original submitter's declaration order.

use std::collections::HashMap;
use std::path::PathBuf;

use mct_core::ConeCacheEntry;
use mct_netlist::CanonicalHash;
use mct_store::Store;

/// Cache key: canonical circuit identity × analysis-options fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical circuit hash (see `mct_netlist::canonical_hash`).
    pub circuit: CanonicalHash,
    /// Options fingerprint (see [`crate::report::options_fingerprint`]).
    pub options: u64,
}

impl CacheKey {
    /// The key as a fixed-width hex string — also the disk file stem.
    pub fn hex(&self) -> String {
        format!("{:032x}-{:016x}", self.circuit.0, self.options)
    }
}

/// A layout digest as the fixed-width hex string the disk store keys on.
fn layout_hex(layout: CanonicalHash) -> String {
    format!("{:032x}", layout.0)
}

/// Where a cached artifact was found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheTier {
    /// In-memory LRU.
    Memory,
    /// On-disk store (promoted to memory on the way out).
    Disk,
}

/// A report served from the cache.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheHit {
    /// The serialized report, byte-identical to the cold response.
    pub report_json: String,
    /// Layout digest of the circuit build that produced the report; when
    /// it differs from the requester's, index-valued diagnostics refer to
    /// the original declaration order.
    pub layout: CanonicalHash,
    /// Which tier answered.
    pub tier: CacheTier,
}

/// Per-class disk-store hit/miss counters plus byte accounts, surfaced in
/// the server's `stats` response and per-request logs. A "hit" is a load
/// that found a valid artifact; a "miss" is a load attempted against a
/// configured store that found nothing usable (missing, truncated,
/// corrupt, and mis-versioned files all count the same — they behave the
/// same). Lookups without a configured store count nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PersistStats {
    /// Whether a disk store is configured at all.
    pub store_configured: bool,
    /// Report (`.json`) loads answered from disk.
    pub report_hits: u64,
    /// Report loads that consulted the store and missed.
    pub report_misses: u64,
    /// Cone replay-seed (`cone-*.mctb`) loads answered from disk.
    pub cone_hits: u64,
    /// Cone replay-seed loads that consulted the store and missed.
    pub cone_misses: u64,
    /// Bytes currently accounted to the store directory (all files).
    pub disk_bytes: u64,
    /// Files currently accounted to the store directory.
    pub disk_files: u64,
    /// Files evicted from the store to keep it under budget.
    pub disk_evictions: u64,
    /// Approximate bytes held by the memory tier (reports + cone entries).
    pub mem_bytes: u64,
}

struct Entry {
    report_json: String,
    layout: CanonicalHash,
    tick: u64,
    bytes: u64,
}

/// Identifies the item a byte-budget eviction pass must not remove: the
/// one that was just inserted (otherwise a single large-but-admissible
/// item could evict itself and thrash).
enum Protect {
    Entry(CacheKey),
    Cone((CanonicalHash, u64)),
}

/// The tiered cache. Not internally synchronized; the server wraps it in
/// a mutex.
pub struct ResultCache {
    capacity: usize,
    max_bytes: Option<u64>,
    store: Option<Store>,
    entries: HashMap<CacheKey, Entry>,
    cones: HashMap<(CanonicalHash, u64), (ConeCacheEntry, u64, u64)>,
    mem_bytes: u64,
    tick: u64,
    evictions: u64,
    counters: PersistStats,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` reports in memory
    /// (minimum 1), persisting to `disk_dir` when given. `max_bytes`
    /// bounds the memory tier and the disk store each (independently) —
    /// `None` leaves both unbounded by size.
    ///
    /// The store directory is created eagerly; failure to open it disables
    /// the disk tier rather than failing the server.
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>, max_bytes: Option<u64>) -> Self {
        let store = disk_dir.and_then(|dir| Store::open(&dir, max_bytes).ok());
        ResultCache {
            capacity: capacity.max(1),
            max_bytes,
            counters: PersistStats {
                store_configured: store.is_some(),
                ..PersistStats::default()
            },
            store,
            entries: HashMap::new(),
            cones: HashMap::new(),
            mem_bytes: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// Number of reports currently held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total memory-tier evictions since startup (reports and cone entries
    /// alike).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate bytes held by the memory tier.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Snapshot of the persistence counters (disk hit/miss per artifact
    /// class, byte accounts for both tiers).
    pub fn persist_stats(&self) -> PersistStats {
        let mut stats = self.counters;
        stats.mem_bytes = self.mem_bytes;
        if let Some(store) = &self.store {
            stats.disk_bytes = store.bytes_in_use();
            stats.disk_files = store.num_files() as u64;
            stats.disk_evictions = store.evictions();
        }
        stats
    }

    /// Looks up a report, checking memory then disk. A disk hit is
    /// promoted into memory.
    pub fn get(&mut self, key: CacheKey) -> Option<CacheHit> {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.tick = self.tick;
            return Some(CacheHit {
                report_json: entry.report_json.clone(),
                layout: entry.layout,
                tier: CacheTier::Memory,
            });
        }
        // Disk format: the producer's layout digest (32 hex digits) on the
        // first line, the report JSON on the rest. Anything else is
        // treated as corrupt — a miss.
        let parsed = self
            .store
            .as_mut()?
            .load(&format!("{}.json", key.hex()))
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| {
                let (head, report_json) = text.split_once('\n')?;
                let layout = CanonicalHash(u128::from_str_radix(head.trim(), 16).ok()?);
                Some((layout, report_json.to_string()))
            });
        let Some((layout, report_json)) = parsed else {
            self.counters.report_misses += 1;
            return None;
        };
        self.counters.report_hits += 1;
        self.insert_memory(key, layout, report_json.clone());
        Some(CacheHit {
            report_json,
            layout,
            tier: CacheTier::Disk,
        })
    }

    /// Memory-tier-only lookup, used by the server's coalescing
    /// double-check: a finished leader always publishes to memory before
    /// releasing its in-flight claim, so this never needs the disk probe
    /// (and never moves the persistence counters).
    pub fn get_memory(&mut self, key: CacheKey) -> Option<CacheHit> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&key)?;
        entry.tick = tick;
        Some(CacheHit {
            report_json: entry.report_json.clone(),
            layout: entry.layout,
            tier: CacheTier::Memory,
        })
    }

    /// Stores a report under `key` in memory and (when configured) on
    /// disk, remembering the layout digest of the build that produced it.
    /// The caller is responsible for not caching partial results
    /// (timed-out reports).
    pub fn insert(&mut self, key: CacheKey, layout: CanonicalHash, report_json: String) {
        if let Some(store) = &mut self.store {
            // Best effort: a full disk must not take the server down.
            let bytes = format!("{:032x}\n{report_json}", layout.0);
            let _ = store.save(&format!("{}.json", key.hex()), bytes.as_bytes());
        }
        self.tick += 1;
        self.insert_memory(key, layout, report_json);
    }

    fn insert_memory(&mut self, key: CacheKey, layout: CanonicalHash, report_json: String) {
        let bytes = report_json.len() as u64;
        if self.max_bytes.is_some_and(|max| bytes > max) {
            return; // oversized: bypass admission rather than flush the tier
        }
        while self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // O(n) victim scan; capacities are small (default 64).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty map over capacity");
            self.remove_entry(&victim);
            self.evictions += 1;
        }
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                report_json,
                layout,
                tick: self.tick,
                bytes,
            },
        ) {
            self.mem_bytes -= old.bytes;
        }
        self.mem_bytes += bytes;
        self.evict_to_mem_budget(&Protect::Entry(key));
    }

    fn remove_entry(&mut self, key: &CacheKey) {
        if let Some(old) = self.entries.remove(key) {
            self.mem_bytes -= old.bytes;
        }
    }

    fn remove_cone(&mut self, key: &(CanonicalHash, u64)) {
        if let Some((_, _, bytes)) = self.cones.remove(key) {
            self.mem_bytes -= bytes;
        }
    }

    /// Evicts least-recently-used items — across reports and cone entries
    /// alike — until the memory tier fits its byte budget.
    fn evict_to_mem_budget(&mut self, protect: &Protect) {
        let Some(max) = self.max_bytes else { return };
        while self.mem_bytes > max {
            // The oldest tick across both maps, skipping the item being
            // admitted.
            let entry = self
                .entries
                .iter()
                .filter(|(k, _)| !matches!(protect, Protect::Entry(p) if p == *k))
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, e)| (e.tick, *k));
            let cone = self
                .cones
                .iter()
                .filter(|(k, _)| !matches!(protect, Protect::Cone(p) if p == *k))
                .min_by_key(|(_, (_, tick, _))| *tick)
                .map(|(k, (_, tick, _))| (*tick, *k));
            match (entry, cone) {
                (None, None) => break,
                (Some((te, k)), Some((tc, _))) if te <= tc => self.remove_entry(&k),
                (Some((_, k)), None) => self.remove_entry(&k),
                (_, Some((_, k))) => self.remove_cone(&k),
            }
            self.evictions += 1;
        }
    }

    /// Takes the cached per-cone analysis artifacts for a cone *layout*
    /// digest under an entry key ([`ConeCacheEntry::key`]), from memory or
    /// the disk store. Ownership moves out so the analysis can replay the
    /// entry outside the cache lock; store the (possibly refreshed) entry
    /// back via [`store_cone`](Self::store_cone). The returned tier says
    /// where it came from (the envelope's warm provenance).
    pub fn take_cone(
        &mut self,
        cone: CanonicalHash,
        key: u64,
    ) -> Option<(ConeCacheEntry, CacheTier)> {
        if let Some((entry, _, bytes)) = self.cones.remove(&(cone, key)) {
            self.mem_bytes -= bytes;
            return Some((entry, CacheTier::Memory));
        }
        let store = self.store.as_mut()?;
        match store.load_cone(&layout_hex(cone), key) {
            Some(entry) => {
                self.counters.cone_hits += 1;
                Some((entry, CacheTier::Disk))
            }
            None => {
                self.counters.cone_misses += 1;
                None
            }
        }
    }

    /// Stores per-cone analysis artifacts under the cone's layout digest
    /// and the entry key, in memory and (when configured) the disk store.
    /// The memory tier holds up to eight entries per unit of report
    /// capacity — one circuit contributes several cones — evicting the
    /// least-recently stored beyond that.
    pub fn store_cone(&mut self, cone: CanonicalHash, key: u64, entry: ConeCacheEntry) {
        if let Some(store) = &mut self.store {
            let _ = store.save_cone(&layout_hex(cone), key, &entry);
        }
        self.tick += 1;
        let bytes = entry.approx_bytes();
        if self.max_bytes.is_some_and(|max| bytes > max) {
            return; // oversized bypass
        }
        let cap = self.capacity.saturating_mul(8);
        let key = (cone, key);
        while self.cones.len() >= cap && !self.cones.contains_key(&key) {
            let victim = self
                .cones
                .iter()
                .min_by_key(|(_, (_, tick, _))| *tick)
                .map(|(k, _)| *k)
                .expect("non-empty map over capacity");
            self.remove_cone(&victim);
        }
        if let Some((_, _, old)) = self.cones.insert(key, (entry, self.tick, bytes)) {
            self.mem_bytes -= old;
        }
        self.mem_bytes += bytes;
        self.evict_to_mem_budget(&Protect::Cone(key));
    }

    /// Number of per-cone entries currently held in memory.
    pub fn cone_entries(&self) -> usize {
        self.cones.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(circuit: u128, options: u64) -> CacheKey {
        CacheKey {
            circuit: CanonicalHash(circuit),
            options,
        }
    }

    const LAYOUT: CanonicalHash = CanonicalHash(0xabcd);

    fn hit(report_json: &str, tier: CacheTier) -> CacheHit {
        CacheHit {
            report_json: report_json.into(),
            layout: LAYOUT,
            tier,
        }
    }

    #[test]
    fn memory_roundtrip_and_miss() {
        let mut cache = ResultCache::new(4, None, None);
        assert!(cache.get(key(1, 1)).is_none());
        cache.insert(key(1, 1), LAYOUT, "{\"a\":1}".into());
        assert_eq!(
            cache.get(key(1, 1)),
            Some(hit("{\"a\":1}", CacheTier::Memory))
        );
        assert!(cache.get(key(1, 2)).is_none(), "options split the key");
        assert!(cache.get(key(2, 1)).is_none(), "circuit splits the key");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2, None, None);
        cache.insert(key(1, 0), LAYOUT, "one".into());
        cache.insert(key(2, 0), LAYOUT, "two".into());
        cache.get(key(1, 0)); // refresh 1; 2 is now the LRU victim
        cache.insert(key(3, 0), LAYOUT, "three".into());
        assert!(cache.get(key(2, 0)).is_none());
        assert!(cache.get(key(1, 0)).is_some());
        assert!(cache.get(key(3, 0)).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut cache = ResultCache::new(2, None, None);
        cache.insert(key(1, 0), LAYOUT, "one".into());
        cache.insert(key(2, 0), LAYOUT, "two".into());
        cache.insert(key(2, 0), LAYOUT, "two again".into());
        assert_eq!(cache.evictions(), 0);
        assert_eq!(
            cache.get(key(2, 0)),
            Some(hit("two again", CacheTier::Memory))
        );
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("mct-serve-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResultCache::new(4, Some(dir.clone()), None);
            cache.insert(key(7, 9), LAYOUT, "persisted".into());
        }
        let mut fresh = ResultCache::new(4, Some(dir.clone()), None);
        assert_eq!(
            fresh.get(key(7, 9)),
            Some(hit("persisted", CacheTier::Disk)),
            "the layout digest must survive the disk round-trip"
        );
        // Promoted: the second read is a memory hit.
        assert_eq!(
            fresh.get(key(7, 9)),
            Some(hit("persisted", CacheTier::Memory))
        );
        let stats = fresh.persist_stats();
        assert!(stats.store_configured);
        assert_eq!(stats.report_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_misses() {
        let dir =
            std::env::temp_dir().join(format!("mct-serve-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A pre-layout-format file (no hex digest line), present at open
        // time so the store's scan accounts it.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.json", key(3, 3).hex())), "{\"a\":1}").unwrap();
        let mut cache = ResultCache::new(4, Some(dir.clone()), None);
        assert!(cache.get(key(3, 3)).is_none());
        assert_eq!(cache.persist_stats().report_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_bounds_the_memory_tier() {
        // Budget fits two 40-byte reports but not three.
        let mut cache = ResultCache::new(64, None, Some(100));
        let body = "x".repeat(40);
        cache.insert(key(1, 0), LAYOUT, body.clone());
        cache.insert(key(2, 0), LAYOUT, body.clone());
        assert_eq!(cache.mem_bytes(), 80);
        cache.get(key(1, 0)); // refresh 1 → 2 becomes the victim
        cache.insert(key(3, 0), LAYOUT, body.clone());
        assert!(cache.mem_bytes() <= 100, "mem_bytes={}", cache.mem_bytes());
        assert!(cache.get(key(2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(key(1, 0)).is_some());
        assert!(cache.get(key(3, 0)).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn oversized_report_bypasses_memory_admission() {
        let mut cache = ResultCache::new(64, None, Some(10));
        cache.insert(key(1, 0), LAYOUT, "x".repeat(50));
        assert_eq!(cache.mem_bytes(), 0);
        assert!(cache.get(key(1, 0)).is_none());
        assert_eq!(cache.evictions(), 0, "bypass must not flush the tier");
    }

    #[test]
    fn key_hex_is_stable_and_filename_safe() {
        let k = key(0xdead_beef, 0x1234);
        assert_eq!(k.hex(), "000000000000000000000000deadbeef-0000000000001234");
        assert!(k.hex().chars().all(|c| c.is_ascii_hexdigit() || c == '-'));
    }
}
