//! Hostile-input tier for the store parser, mirroring the netlist crate's
//! `hostile_inputs.rs`: corrupted, truncated, and mis-versioned store
//! files must surface as cache misses (errors / `None`), never as panics,
//! hangs, or outsized allocations — and must never corrupt a live manager.

use mct_bdd::{BddManager, BddSnapshot, SnapshotNode, Var};
use mct_core::{ConeData, ReachData, ReachSnapshot};
use mct_store::{
    cone_name, decode_cone, decode_reach, encode_reach, peek_kind, reach_name, ArtifactKind, Store,
    StoreError, FORMAT_VERSION, MAGIC,
};
use mct_tbf::TimedVar;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-hostile-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn valid_reach() -> ReachData {
    ReachData {
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
            roots: vec![3],
        },
        states: 2.0,
    }
}

#[test]
fn zero_length_file_is_a_miss() {
    let dir = tmpdir("zero");
    let mut store = Store::open(&dir, None).unwrap();
    store.save("reach-00.mctb", b"").unwrap();
    assert_eq!(store.load_reach("00"), None);
    assert!(matches!(
        decode_reach(b"").unwrap_err(),
        StoreError::Truncated { .. }
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_is_a_miss() {
    let dir = tmpdir("magic");
    let mut store = Store::open(&dir, None).unwrap();
    let mut bytes = encode_reach(&valid_reach());
    bytes[..4].copy_from_slice(b"DDMP");
    store.save("reach-00.mctb", &bytes).unwrap();
    assert_eq!(store.load_reach("00"), None);
    assert_eq!(decode_reach(&bytes).unwrap_err(), StoreError::BadMagic);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_a_miss_not_a_guess() {
    let mut bytes = encode_reach(&valid_reach());
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    assert_eq!(
        decode_reach(&bytes).unwrap_err(),
        StoreError::UnsupportedVersion {
            got: FORMAT_VERSION + 1
        }
    );
}

#[test]
fn truncated_node_list_every_prefix() {
    let bytes = encode_reach(&valid_reach());
    for cut in 0..bytes.len() {
        assert!(
            decode_reach(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix decoded successfully"
        );
    }
}

#[test]
fn every_single_byte_flip_never_panics() {
    let bytes = encode_reach(&valid_reach());
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xff;
        // Any result is fine (some flips produce a different valid value);
        // what this asserts is "no panic, no hang" on every 1-byte corruption,
        // and that a *decoded* artifact still imports or errors cleanly.
        if let Ok(data) = decode_reach(&mutated) {
            let _ = ReachSnapshot::import_data(&data);
        }
    }
}

#[test]
fn dangling_node_refs_fail_import_not_decode() {
    // Structurally valid bytes whose node references point forward: the
    // codec accepts the shape, the manager-level import must reject it.
    let mut data = valid_reach();
    data.snapshot.nodes[0].lo = 3; // forward ref to node 1 from node 0
    let bytes = mct_store::encode_reach(&data);
    let decoded = decode_reach(&bytes).unwrap();
    assert!(ReachSnapshot::import_data(&decoded).is_err());
    // And via the raw manager API, with a pristine manager untouched.
    let mut m = BddManager::new();
    let map: Vec<Var> = (0..2).map(Var::new).collect();
    assert!(m.import_bdd(&decoded.snapshot, &map).is_err());
    assert_eq!(m.num_nodes(), 1);
}

#[test]
fn wrong_var_count_fails_import() {
    // The order says 2 vars but the timed-var vector names only 1: the
    // artifact importer must reject rather than index out of range.
    let mut data = valid_reach();
    data.vars.truncate(1);
    let bytes = mct_store::encode_reach(&data);
    let decoded = decode_reach(&bytes).unwrap();
    assert!(ReachSnapshot::import_data(&decoded).is_err());
}

#[test]
fn kind_confusion_is_rejected() {
    let reach_bytes = encode_reach(&valid_reach());
    assert!(matches!(
        decode_cone(&reach_bytes).unwrap_err(),
        StoreError::WrongKind {
            expected: ArtifactKind::Cone,
            got: 1,
        }
    ));
}

#[test]
fn hostile_lengths_never_allocate_wildly() {
    // Declare 2^64-ish node counts in a 40-byte file; the decoder must
    // reject by arithmetic, not by attempting the allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(1); // kind: reach
    bytes.push(1); // flags
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no timed vars
    bytes.extend_from_slice(&0u32.to_le_bytes()); // snapshot num_vars = 0
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // node count: 2^64-1
    assert!(matches!(
        decode_reach(&bytes).unwrap_err(),
        StoreError::Truncated { .. } | StoreError::Malformed(_)
    ));
}

#[test]
fn corrupt_files_are_misses_and_gc_prunes_them() {
    let dir = tmpdir("gc-prune");
    let mut store = Store::open(&dir, None).unwrap();
    store.save_reach("good", &valid_reach()).unwrap();
    let mut corrupt = encode_reach(&valid_reach());
    corrupt.truncate(corrupt.len() / 2);
    store.save("reach-bad0.mctb", &corrupt).unwrap();
    store.save("reach-bad1.mctb", b"MCTB").unwrap();
    store.save("order-bad2.mctb", &[0xff; 64]).unwrap();

    assert!(store.load_reach("good").is_some());
    assert!(store.load_reach("bad0").is_none());
    assert!(store.load_reach("bad1").is_none());

    let outcome = store.gc(None);
    assert_eq!(outcome.removed, 3, "all three corrupt files pruned");
    assert!(store.load_reach("good").is_some(), "valid artifact kept");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deleted_store_directory_degrades_to_misses() {
    let dir = tmpdir("rmrf");
    let mut store = Store::open(&dir, None).unwrap();
    store.save_reach("aa", &valid_reach()).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    // Accounted but gone: loads miss, saves may error, nothing panics.
    assert!(store.load_reach("aa").is_none());
    let _ = fs::remove_dir_all(&dir);
}

/// A learned-order file as older stores wrote it: valid magic, version
/// and flags, artifact kind byte 2, and one timed variable
/// (`Next { leaf: 0 }`: tag 2, leaf 0, aux 0).
fn retired_order_file() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(2); // kind: the retired learned order
    bytes.push(1); // flags: complement edges
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(2);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&0i64.to_le_bytes());
    bytes
}

fn valid_cone() -> ConeData {
    ConeData {
        vars: vec![TimedVar::Next { leaf: 0 }],
        snapshot: BddSnapshot {
            num_vars: 1,
            order: vec![0],
            nodes: vec![SnapshotNode {
                var: 0,
                lo: -1,
                hi: 1,
            }],
            roots: vec![2],
        },
        tail: 0,
        period: 1,
        has_reach: false,
        outcomes_cx: Vec::new(),
        outcomes_exact: Vec::new(),
    }
}

#[test]
fn retired_order_kind_is_refused_listed_and_collected() {
    let bytes = retired_order_file();
    assert!(matches!(
        decode_reach(&bytes).unwrap_err(),
        StoreError::WrongKind { got: 2, .. }
    ));
    assert!(matches!(
        decode_cone(&bytes).unwrap_err(),
        StoreError::WrongKind { got: 2, .. }
    ));
    assert!(peek_kind(&bytes).is_err());

    // A directory an older writer left behind: an order file beside a
    // reach snapshot and a cone seed.
    let dir = tmpdir("retired-order");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("order-00ff.mctb"), &bytes).unwrap();
    let mut store = Store::open(&dir, None).unwrap();
    store.save_reach("00ff", &valid_reach()).unwrap();
    store.save_cone("00ff", 7, &valid_cone()).unwrap();

    let entries = store.ls();
    let kind_of = |file: &str| entries.iter().find(|e| e.file == file).map(|e| e.kind);
    assert_eq!(kind_of("order-00ff.mctb"), Some(None), "listed as other");
    assert_eq!(
        kind_of(&reach_name("00ff")),
        Some(Some(ArtifactKind::Reach))
    );
    assert_eq!(
        kind_of(&cone_name("00ff", 7)),
        Some(Some(ArtifactKind::Cone))
    );

    let outcome = store.gc(None);
    assert_eq!(outcome.removed, 1, "only the order file goes");
    assert!(!dir.join("order-00ff.mctb").exists());
    assert!(store.load_reach("00ff").is_some(), "reach file survives");
    assert!(store.load_cone("00ff", 7).is_some(), "cone file survives");
    let _ = fs::remove_dir_all(&dir);
}
