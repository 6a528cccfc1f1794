//! Hostile-input tier for the store parser, mirroring the netlist crate's
//! `hostile_inputs.rs`: corrupted, truncated, mis-versioned and badly
//! shaped store files must surface as cache misses (errors / `None`),
//! never as panics, hangs, or outsized allocations — and must never
//! corrupt a live manager.

use mct_bdd::{BddManager, BddSnapshot, SnapshotNode, Var};
use mct_core::ArtifactError;
use mct_store::{
    cone_name, decode_cone, peek_kind, ArtifactKind, Store, StoreError, FORMAT_VERSION, MAGIC,
};
use mct_tbf::TimedVar;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-hostile-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The fields of a cone file, written by hand from the layout in the
/// codec's documentation, so a test can store shapes no entry has.
struct RawCone {
    vars: Vec<TimedVar>,
    snapshot: BddSnapshot,
    tail: u64,
    period: u64,
    has_reach: bool,
}

impl RawCone {
    /// The file's bytes, with no outcomes.
    fn bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        b.push(ArtifactKind::Cone as u8);
        b.push(1); // flags: complement edges
        b.extend_from_slice(&(self.vars.len() as u32).to_le_bytes());
        for tv in &self.vars {
            let (tag, leaf, aux) = match *tv {
                TimedVar::Shifted { leaf, shift } => (0u8, leaf, shift),
                TimedVar::Next { leaf } => (2, leaf, 0),
                other => panic!("no test writes {other:?}"),
            };
            b.push(tag);
            b.extend_from_slice(&(leaf as u64).to_le_bytes());
            b.extend_from_slice(&aux.to_le_bytes());
        }
        let s = &self.snapshot;
        b.extend_from_slice(&s.num_vars.to_le_bytes());
        for v in &s.order {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(&(s.nodes.len() as u64).to_le_bytes());
        for n in &s.nodes {
            b.extend_from_slice(&n.var.to_le_bytes());
            b.extend_from_slice(&n.lo.to_le_bytes());
            b.extend_from_slice(&n.hi.to_le_bytes());
        }
        b.extend_from_slice(&(s.roots.len() as u32).to_le_bytes());
        for r in &s.roots {
            b.extend_from_slice(&r.to_le_bytes());
        }
        b.extend_from_slice(&self.tail.to_le_bytes());
        b.extend_from_slice(&self.period.to_le_bytes());
        b.push(self.has_reach as u8);
        b.extend_from_slice(&0u32.to_le_bytes()); // C_x verdicts
        b.extend_from_slice(&0u32.to_le_bytes()); // exact parts
        b
    }
}

/// A one-layer cone seed whose layer is also its reach set.
fn valid_cone() -> RawCone {
    RawCone {
        vars: vec![
            TimedVar::Shifted { leaf: 0, shift: 0 },
            TimedVar::Next { leaf: 0 },
        ],
        snapshot: BddSnapshot {
            num_vars: 2,
            order: vec![0, 1],
            nodes: vec![
                SnapshotNode {
                    var: 1,
                    lo: -1,
                    hi: 1,
                },
                SnapshotNode {
                    var: 0,
                    lo: 2,
                    hi: -2,
                },
            ],
            roots: vec![3, 3],
        },
        tail: 0,
        period: 1,
        has_reach: true,
    }
}

/// Stores `bytes` as a cone file and loads it back: `Some` iff it loaded.
fn stored_and_loaded(tag: &str, bytes: &[u8]) -> bool {
    let dir = tmpdir(tag);
    let mut store = Store::open(&dir, None).unwrap();
    store.save(&cone_name("00", 0), bytes).unwrap();
    let loaded = store.load_cone("00", 0).is_some();
    let _ = fs::remove_dir_all(&dir);
    loaded
}

#[test]
fn zero_length_file_is_a_miss() {
    let dir = tmpdir("zero");
    let mut store = Store::open(&dir, None).unwrap();
    store.save(&cone_name("00", 0), b"").unwrap();
    assert_eq!(store.load_cone("00", 0), None);
    assert!(matches!(
        decode_cone(b"").unwrap_err(),
        StoreError::Truncated { .. }
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_is_a_miss() {
    let dir = tmpdir("magic");
    let mut store = Store::open(&dir, None).unwrap();
    let mut bytes = valid_cone().bytes();
    bytes[..4].copy_from_slice(b"DDMP");
    store.save(&cone_name("00", 0), &bytes).unwrap();
    assert_eq!(store.load_cone("00", 0), None);
    assert_eq!(decode_cone(&bytes).unwrap_err(), StoreError::BadMagic);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_a_miss_not_a_guess() {
    let mut bytes = valid_cone().bytes();
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert_eq!(
        decode_cone(&bytes).unwrap_err(),
        StoreError::UnsupportedVersion {
            got: FORMAT_VERSION + 1
        }
    );
}

#[test]
fn truncated_node_list_every_prefix() {
    let bytes = valid_cone().bytes();
    assert!(stored_and_loaded("intact", &bytes));
    for cut in 0..bytes.len() {
        assert!(
            decode_cone(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix decoded successfully"
        );
    }
}

#[test]
fn every_single_byte_flip_never_panics() {
    let bytes = valid_cone().bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xff;
        // Any result is fine (some flips produce a different valid value);
        // what this asserts is "no panic, no hang" on every 1-byte
        // corruption, shape validation included.
        let _ = decode_cone(&mutated);
    }
}

#[test]
fn dangling_node_refs_are_refused_at_load() {
    // Structurally valid bytes whose node references point forward: the
    // byte layout parses, the shape validation at load must reject it.
    let mut data = valid_cone();
    data.snapshot.nodes[0].lo = 3; // forward ref to node 1 from node 0
    assert!(matches!(
        decode_cone(&data.bytes()),
        Err(StoreError::Invalid(ArtifactError::Bdd(_)))
    ));
    assert!(!stored_and_loaded("dangling", &data.bytes()));
    // And via the raw manager API, with a pristine manager untouched.
    let mut m = BddManager::new();
    let map: Vec<Var> = (0..2).map(Var::new).collect();
    assert!(m.import_bdd(&data.snapshot, 0..2, &map).is_err());
    assert_eq!(m.num_nodes(), 1);
}

#[test]
fn wrong_var_count_is_refused_at_load() {
    // The order says 2 vars but the timed-var vector names only 1: the
    // load must reject rather than index out of range.
    let mut data = valid_cone();
    data.vars.truncate(1);
    assert!(matches!(
        decode_cone(&data.bytes()),
        Err(StoreError::Invalid(ArtifactError::VarCount { .. }))
    ));
    assert!(!stored_and_loaded("varcount", &data.bytes()));
}

/// Every badly shaped file — a bad ρ shape, a wrong root count, duplicate
/// or missing timed variables, a malformed snapshot — is a miss at load,
/// and `gc` removes it while keeping the well-formed file.
#[test]
fn badly_shaped_files_are_misses_and_gc_removes_them() {
    let mut shapes: Vec<(&str, RawCone)> = Vec::new();
    let mut bad = valid_cone();
    bad.tail = 1;
    shapes.push(("rho", bad));
    let mut bad = valid_cone();
    bad.snapshot.roots.clear();
    shapes.push(("roots", bad));
    let mut bad = valid_cone();
    bad.vars[1] = bad.vars[0];
    shapes.push(("duplicate", bad));
    let mut bad = valid_cone();
    bad.vars.pop();
    shapes.push(("missing", bad));
    let mut bad = valid_cone();
    bad.snapshot.order = vec![1, 1];
    shapes.push(("snapshot", bad));

    let dir = tmpdir("shapes");
    let mut store = Store::open(&dir, None).unwrap();
    store
        .save(&cone_name("good", 0), &valid_cone().bytes())
        .unwrap();
    for (name, raw) in &shapes {
        assert!(
            matches!(decode_cone(&raw.bytes()), Err(StoreError::Invalid(_))),
            "{name}"
        );
        store.save(&cone_name(name, 0), &raw.bytes()).unwrap();
        assert!(store.load_cone(name, 0).is_none(), "{name}");
    }
    let outcome = store.gc(None);
    assert_eq!(outcome.removed, shapes.len());
    assert!(store.load_cone("good", 0).is_some(), "valid artifact kept");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_lengths_never_allocate_wildly() {
    // Declare 2^64-ish node counts in a 40-byte file; the decoder must
    // reject by arithmetic, not by attempting the allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(ArtifactKind::Cone as u8);
    bytes.push(1); // flags
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no timed vars
    bytes.extend_from_slice(&0u32.to_le_bytes()); // snapshot num_vars = 0
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // node count: 2^64-1
    assert!(matches!(
        decode_cone(&bytes).unwrap_err(),
        StoreError::Truncated { .. } | StoreError::Malformed(_)
    ));
}

#[test]
fn corrupt_files_are_misses_and_gc_prunes_them() {
    let dir = tmpdir("gc-prune");
    let mut store = Store::open(&dir, None).unwrap();
    store
        .save(&cone_name("good", 0), &valid_cone().bytes())
        .unwrap();
    let mut corrupt = valid_cone().bytes();
    corrupt.truncate(corrupt.len() / 2);
    store.save(&cone_name("bad0", 0), &corrupt).unwrap();
    store.save(&cone_name("bad1", 0), b"MCTB").unwrap();
    store.save("order-bad2.mctb", &[0xff; 64]).unwrap();

    assert!(store.load_cone("good", 0).is_some());
    assert!(store.load_cone("bad0", 0).is_none());
    assert!(store.load_cone("bad1", 0).is_none());

    let outcome = store.gc(None);
    assert_eq!(outcome.removed, 3, "all three corrupt files pruned");
    assert!(store.load_cone("good", 0).is_some(), "valid artifact kept");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_store_directory_degrades_to_misses() {
    let dir = tmpdir("rmrf");
    let mut store = Store::open(&dir, None).unwrap();
    store
        .save(&cone_name("aa", 0), &valid_cone().bytes())
        .unwrap();
    fs::remove_dir_all(&dir).unwrap();
    // Accounted but gone: loads miss, saves may error, nothing panics.
    assert!(store.load_cone("aa", 0).is_none());
    let _ = fs::remove_dir_all(&dir);
}

/// A file of a retired artifact kind as older stores wrote it: valid
/// magic, version and flags, the kind byte, and one timed variable
/// (`Next { leaf: 0 }`: tag 2, leaf 0, aux 0).
fn retired_kind_file(kind: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(kind);
    bytes.push(1); // flags: complement edges
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(2);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&0i64.to_le_bytes());
    bytes
}

#[test]
fn retired_order_kind_is_refused_listed_and_collected() {
    // Kind 1 held a whole-circuit reach snapshot, kind 2 a learned order.
    let retired = [(1u8, "reach-00ff.mctb"), (2, "order-00ff.mctb")];
    for (kind, _) in retired {
        let bytes = retired_kind_file(kind);
        assert!(matches!(
            decode_cone(&bytes).unwrap_err(),
            StoreError::WrongKind { got, .. } if got == kind
        ));
        assert!(peek_kind(&bytes).is_err());
    }

    // A directory an older writer left behind: both retired files beside
    // a cone seed.
    let dir = tmpdir("retired-kinds");
    fs::create_dir_all(&dir).unwrap();
    for (kind, file) in retired {
        fs::write(dir.join(file), retired_kind_file(kind)).unwrap();
    }
    let mut store = Store::open(&dir, None).unwrap();
    store
        .save(&cone_name("00ff", 7), &valid_cone().bytes())
        .unwrap();

    let entries = store.ls();
    let kind_of = |file: &str| entries.iter().find(|e| e.file == file).map(|e| e.kind);
    for (_, file) in retired {
        assert_eq!(kind_of(file), Some(None), "{file} listed as other");
    }
    assert_eq!(
        kind_of(&cone_name("00ff", 7)),
        Some(Some(ArtifactKind::Cone))
    );

    let outcome = store.gc(None);
    assert_eq!(outcome.removed, 2, "only the retired files go");
    for (_, file) in retired {
        assert!(!dir.join(file).exists(), "{file} collected");
    }
    assert!(store.load_cone("00ff", 7).is_some(), "cone file survives");
    let _ = fs::remove_dir_all(&dir);
}
