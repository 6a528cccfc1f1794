//! The `--cache-dir` directory manager: byte-accounted persistence with
//! LRU eviction, atomic publication, and offline inspection.
//!
//! One [`Store`] owns one directory. Files are flat (no subdirectories)
//! and named by artifact class and key:
//!
//! ```text
//! cone-<layout:032x>-<key:016x>.mctb  cone replay seed
//! <circuit:032x>-<fp:016x>.json       report (text format owned by the
//!                                     service's result cache)
//! ```
//!
//! Older stores may also hold `reach-<layout:032x>.mctb` and
//! `order-<layout:032x>.mctb` files (retired artifact kinds), and cone
//! files written under an older key. Lookups never open the retired kinds
//! and never compute an old key; `ls` lists retired kinds with no kind,
//! `gc` deletes them like any other file that no longer decodes, and
//! stale cone files age out under the LRU budget.
//!
//! Seeds are keyed by the cone's **layout** digest — the canonical digest
//! that still distinguishes register positions — because snapshot BDD
//! variables are register positions: a content-digest key would let a
//! behaviourally-equal cone with permuted registers import a positionally
//! wrong reach set. Reports are keyed content-first (they are
//! position-free) exactly as the in-memory tier keys them.
//!
//! Writes go to a tempfile and `rename` into place, so a daemon killed
//! mid-write never leaves a half-written artifact under the real name and
//! a second replica reading the directory concurrently sees only complete
//! files. Byte accounting covers every regular file in the directory
//! (reports included); when a budget is configured, saves evict
//! least-recently-used files until the directory fits, and an artifact
//! bigger than the whole budget bypasses admission instead of flushing
//! everything else.

use crate::codec::{decode_cone, encode_cone, peek_kind, ArtifactKind};
use mct_core::ConeCacheEntry;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File name of a cone replay seed for a (cone layout digest, entry key)
/// pair; callers pass the digest pre-formatted as 32 lowercase hex digits.
pub fn cone_name(layout_hex: &str, key: u64) -> String {
    format!("cone-{layout_hex}-{key:016x}.mctb")
}

/// One directory entry, as reported by [`Store::ls`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreEntry {
    /// Bare file name inside the store directory.
    pub file: String,
    /// Artifact class when the file is a valid store artifact; `None` for
    /// reports and foreign/corrupt files.
    pub kind: Option<ArtifactKind>,
    /// File size in bytes.
    pub bytes: u64,
}

/// What [`Store::gc`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcOutcome {
    /// Files removed (invalid ones plus LRU evictions).
    pub removed: usize,
    /// Bytes freed.
    pub freed: u64,
}

#[derive(Clone, Copy)]
struct FileInfo {
    len: u64,
    last_use: u64,
}

/// A byte-accounted artifact directory. See the module docs for layout
/// and eviction semantics.
pub struct Store {
    dir: PathBuf,
    max_bytes: Option<u64>,
    files: HashMap<String, FileInfo>,
    bytes: u64,
    next_tick: u64,
    evictions: u64,
}

impl Store {
    /// Opens (creating if needed) a store over `dir`, scanning existing
    /// files into the byte account. Initial recency follows file
    /// modification time, so a restarted daemon evicts the oldest
    /// artifacts first.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/read errors.
    pub fn open(dir: &Path, max_bytes: Option<u64>) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let mut scanned: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            scanned.push((name, meta.len(), mtime));
        }
        scanned.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut files = HashMap::with_capacity(scanned.len());
        let mut bytes = 0u64;
        for (tick, (name, len, _)) in scanned.into_iter().enumerate() {
            bytes += len;
            files.insert(
                name,
                FileInfo {
                    len,
                    last_use: tick as u64,
                },
            );
        }
        let next_tick = files.len() as u64;
        Ok(Store {
            dir: dir.to_path_buf(),
            max_bytes,
            files,
            bytes,
            next_tick,
            evictions: 0,
        })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently accounted to the directory.
    pub fn bytes_in_use(&self) -> u64 {
        self.bytes
    }

    /// Files evicted to keep the directory under budget since open.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of files currently accounted.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    fn tick(&mut self) -> u64 {
        let t = self.next_tick;
        self.next_tick += 1;
        t
    }

    /// Saves raw bytes under `name`, atomically (tempfile + rename).
    /// Returns `false` when the artifact alone exceeds the byte budget and
    /// was bypassed rather than admitted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed save leaves no partial file under
    /// `name`.
    pub fn save(&mut self, name: &str, bytes: &[u8]) -> io::Result<bool> {
        if let Some(max) = self.max_bytes {
            if bytes.len() as u64 > max {
                return Ok(false);
            }
        }
        let tmp = self.dir.join(format!("{name}.tmp"));
        fs::write(&tmp, bytes)?;
        let dst = self.dir.join(name);
        fs::rename(&tmp, &dst)?;
        if let Some(old) = self.files.remove(name) {
            self.bytes -= old.len;
        }
        let tick = self.tick();
        self.files.insert(
            name.to_owned(),
            FileInfo {
                len: bytes.len() as u64,
                last_use: tick,
            },
        );
        self.bytes += bytes.len() as u64;
        self.evict_to_budget(Some(name));
        Ok(true)
    }

    /// Loads raw bytes for `name`, refreshing its LRU recency. A missing
    /// or unreadable file is `None`.
    pub fn load(&mut self, name: &str) -> Option<Vec<u8>> {
        if !self.files.contains_key(name) {
            return None;
        }
        match fs::read(self.dir.join(name)) {
            Ok(bytes) => {
                let tick = self.tick();
                if let Some(info) = self.files.get_mut(name) {
                    info.last_use = tick;
                }
                Some(bytes)
            }
            Err(_) => {
                // The file vanished under us (another replica's gc, a
                // hostile rm -rf): drop the account entry and miss.
                if let Some(old) = self.files.remove(name) {
                    self.bytes -= old.len;
                }
                None
            }
        }
    }

    /// Removes `name` from disk and the account. Returns the bytes freed.
    pub fn remove(&mut self, name: &str) -> u64 {
        let Some(info) = self.files.remove(name) else {
            return 0;
        };
        self.bytes -= info.len;
        let _ = fs::remove_file(self.dir.join(name));
        info.len
    }

    fn evict_to_budget(&mut self, protect: Option<&str>) {
        let Some(max) = self.max_bytes else { return };
        while self.bytes > max {
            let victim = self
                .files
                .iter()
                .filter(|(name, _)| protect != Some(name.as_str()))
                .min_by_key(|(name, info)| (info.last_use, name.as_str()))
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else { break };
            self.remove(&victim);
            self.evictions += 1;
        }
    }

    // ------------------------------------------------- typed artifacts

    /// Persists a cone replay seed for a (cone layout digest, entry key)
    /// pair. Returns `false` on oversized bypass.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_cone(
        &mut self,
        layout_hex: &str,
        key: u64,
        entry: &ConeCacheEntry,
    ) -> io::Result<bool> {
        self.save(&cone_name(layout_hex, key), &encode_cone(entry))
    }

    /// Loads the cone replay seed for a (cone layout digest, entry key)
    /// pair. Any missing, truncated, corrupted, mis-versioned or badly
    /// shaped file is a miss (`None`), never a panic.
    pub fn load_cone(&mut self, layout_hex: &str, key: u64) -> Option<ConeCacheEntry> {
        let bytes = self.load(&cone_name(layout_hex, key))?;
        decode_cone(&bytes).ok()
    }

    // ------------------------------------------------------ inspection

    /// Lists every accounted file, sorted by name, classifying valid
    /// binary artifacts by kind.
    pub fn ls(&self) -> Vec<StoreEntry> {
        let mut out: Vec<StoreEntry> = self
            .files
            .iter()
            .map(|(name, info)| {
                let kind = if name.ends_with(".mctb") {
                    fs::read(self.dir.join(name))
                        .ok()
                        .and_then(|bytes| peek_kind(&bytes).ok())
                } else {
                    None
                };
                StoreEntry {
                    file: name.clone(),
                    kind,
                    bytes: info.len,
                }
            })
            .collect();
        out.sort_by(|a, b| a.file.cmp(&b.file));
        out
    }

    /// Garbage-collects the directory: removes binary artifacts that no
    /// longer load (truncated, corrupt, badly shaped, or written by a
    /// different format version), then — when `max_bytes` is given — LRU-prunes the rest
    /// down to that budget.
    pub fn gc(&mut self, max_bytes: Option<u64>) -> GcOutcome {
        let mut outcome = GcOutcome::default();
        let names: Vec<String> = self.files.keys().cloned().collect();
        for name in names {
            if !name.ends_with(".mctb") {
                continue;
            }
            let valid = fs::read(self.dir.join(&name))
                .ok()
                .map(|bytes| match peek_kind(&bytes) {
                    Ok(ArtifactKind::Cone) => decode_cone(&bytes).is_ok(),
                    Err(_) => false,
                })
                .unwrap_or(false);
            if !valid {
                outcome.freed += self.remove(&name);
                outcome.removed += 1;
            }
        }
        if let Some(max) = max_bytes {
            while self.bytes > max {
                let victim = self
                    .files
                    .iter()
                    .min_by_key(|(name, info)| (info.last_use, name.as_str()))
                    .map(|(name, _)| name.clone());
                let Some(victim) = victim else { break };
                outcome.freed += self.remove(&victim);
                outcome.removed += 1;
            }
        }
        outcome
    }

    /// Removes every file whose name contains `digest` (a full or partial
    /// hex key). Returns the number of files removed.
    pub fn rm(&mut self, digest: &str) -> usize {
        if digest.is_empty() {
            return 0;
        }
        let victims: Vec<String> = self
            .files
            .keys()
            .filter(|name| name.contains(digest))
            .cloned()
            .collect();
        for name in &victims {
            self.remove(name);
        }
        victims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_tbf::TimedVar;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mct-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A cone artifact over `n` timed variables with an empty snapshot.
    fn cone_of(n: usize) -> ConeCacheEntry {
        let vars = (0..n).map(|leaf| TimedVar::Next { leaf }).collect();
        ConeCacheEntry::new(vars, mct_bdd::BddSnapshot::default(), 0, 0, false).unwrap()
    }

    #[test]
    fn save_load_round_trip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut store = Store::open(&dir, None).unwrap();
        let data = cone_of(4);
        assert!(store.save_cone("00ff", 7, &data).unwrap());
        assert_eq!(store.load_cone("00ff", 7), Some(data.clone()));
        assert_eq!(store.load_cone("00ff", 8), None, "the key splits entries");
        assert_eq!(store.load_cone("beef", 7), None);
        let expected = store.bytes_in_use();
        drop(store);
        // Reopen: the scan must rebuild the byte account.
        let mut store = Store::open(&dir, None).unwrap();
        assert_eq!(store.bytes_in_use(), expected);
        assert_eq!(store.load_cone("00ff", 7), Some(data));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_keeps_directory_under_budget() {
        let dir = tmpdir("lru");
        let one = encode_cone(&cone_of(4));
        let budget = one.len() as u64 * 2;
        let mut store = Store::open(&dir, Some(budget)).unwrap();
        assert!(store.save_cone("aa", 0, &cone_of(4)).unwrap());
        assert!(store.save_cone("bb", 0, &cone_of(4)).unwrap());
        // Touch "aa" so "bb" is the LRU victim.
        assert!(store.load_cone("aa", 0).is_some());
        assert!(store.save_cone("cc", 0, &cone_of(4)).unwrap());
        assert!(store.bytes_in_use() <= budget);
        assert_eq!(store.evictions(), 1);
        assert!(store.load_cone("bb", 0).is_none(), "LRU file evicted");
        assert!(store.load_cone("aa", 0).is_some(), "recently used survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_artifact_bypasses_admission() {
        let dir = tmpdir("oversize");
        let mut store = Store::open(&dir, Some(8)).unwrap();
        assert!(!store.save_cone("aa", 0, &cone_of(64)).unwrap());
        assert_eq!(store.bytes_in_use(), 0);
        assert_eq!(store.num_files(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_corrupt_and_prunes() {
        let dir = tmpdir("gc");
        let mut store = Store::open(&dir, None).unwrap();
        store.save_cone("aa", 0, &cone_of(2)).unwrap();
        store.save_cone("bb", 0, &cone_of(2)).unwrap();
        store.save(&cone_name("cc", 0), b"garbage").unwrap();
        drop(store);
        let mut store = Store::open(&dir, None).unwrap();
        assert_eq!(store.num_files(), 3);
        let outcome = store.gc(None);
        assert_eq!(outcome.removed, 1, "only the corrupt file goes");
        assert_eq!(store.num_files(), 2);
        let outcome = store.gc(Some(0));
        assert_eq!(outcome.removed, 2);
        assert_eq!(store.bytes_in_use(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rm_by_digest_substring() {
        let dir = tmpdir("rm");
        let mut store = Store::open(&dir, None).unwrap();
        store.save("deadbeef-00.json", b"{}").unwrap();
        store.save_cone("deadbeef", 1, &cone_of(1)).unwrap();
        store.save_cone("cafe", 1, &cone_of(1)).unwrap();
        assert_eq!(store.rm("deadbeef"), 2);
        assert_eq!(store.rm(""), 0);
        assert_eq!(store.num_files(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ls_classifies() {
        let dir = tmpdir("ls");
        let mut store = Store::open(&dir, None).unwrap();
        store.save_cone("bb", 0, &cone_of(1)).unwrap();
        store.save("cc.json", b"{}").unwrap();
        let entries = store.ls();
        assert_eq!(entries.len(), 2);
        let kind_of = |file: &str| {
            entries
                .iter()
                .find(|e| e.file == file)
                .map(|e| e.kind)
                .unwrap()
        };
        assert_eq!(kind_of(&cone_name("bb", 0)), Some(ArtifactKind::Cone));
        assert_eq!(kind_of("cc.json"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
