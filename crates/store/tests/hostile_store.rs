//! Hostile-input tier for the store parser, mirroring the netlist crate's
//! `hostile_inputs.rs`: corrupted, truncated, and mis-versioned store
//! files must surface as cache misses (errors / `None`), never as panics,
//! hangs, or outsized allocations — and must never corrupt a live manager.

use mct_bdd::{BddManager, BddSnapshot, SnapshotNode, Var};
use mct_core::{ConeCacheEntry, ConeData};
use mct_store::{
    cone_name, decode_cone, encode_cone, peek_kind, ArtifactKind, Store, StoreError,
    FORMAT_VERSION, MAGIC,
};
use mct_tbf::TimedVar;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-hostile-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A one-layer cone seed whose layer is also its reach set.
fn valid_cone() -> ConeData {
    ConeData {
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
        outcomes_cx: Vec::new(),
        outcomes_exact: Vec::new(),
    }
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
    let mut bytes = encode_cone(&valid_cone());
    bytes[..4].copy_from_slice(b"DDMP");
    store.save(&cone_name("00", 0), &bytes).unwrap();
    assert_eq!(store.load_cone("00", 0), None);
    assert_eq!(decode_cone(&bytes).unwrap_err(), StoreError::BadMagic);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_a_miss_not_a_guess() {
    let mut bytes = encode_cone(&valid_cone());
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
    let bytes = encode_cone(&valid_cone());
    for cut in 0..bytes.len() {
        assert!(
            decode_cone(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix decoded successfully"
        );
    }
}

#[test]
fn every_single_byte_flip_never_panics() {
    let bytes = encode_cone(&valid_cone());
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xff;
        // Any result is fine (some flips produce a different valid value);
        // what this asserts is "no panic, no hang" on every 1-byte corruption,
        // and that a *decoded* artifact still imports or errors cleanly.
        if let Ok(data) = decode_cone(&mutated) {
            let _ = ConeCacheEntry::import_data(&data);
        }
    }
}

#[test]
fn dangling_node_refs_fail_import_not_decode() {
    // Structurally valid bytes whose node references point forward: the
    // codec accepts the shape, the manager-level import must reject it.
    let mut data = valid_cone();
    data.snapshot.nodes[0].lo = 3; // forward ref to node 1 from node 0
    let decoded = decode_cone(&encode_cone(&data)).unwrap();
    assert!(ConeCacheEntry::import_data(&decoded).is_err());
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
    let mut data = valid_cone();
    data.vars.truncate(1);
    let decoded = decode_cone(&encode_cone(&data)).unwrap();
    assert!(ConeCacheEntry::import_data(&decoded).is_err());
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
    store.save_cone("good", 0, &valid_cone()).unwrap();
    let mut corrupt = encode_cone(&valid_cone());
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
    store.save_cone("aa", 0, &valid_cone()).unwrap();
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
    store.save_cone("00ff", 7, &valid_cone()).unwrap();

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
