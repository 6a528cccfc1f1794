//! The binary artifact codec.
//!
//! Layout (all integers little-endian, fixed width):
//!
//! ```text
//! header   := magic "MCTB" | version u16 | kind u8 | flags u8
//! payload  := cone                            (selected by kind)
//!
//! cone     := tvars | snapshot | tail u64 | period u64 | has_reach u8
//!           | cx_count u32  { sub | m i64 | outcome }*
//!           | ex_count u32  { sub | m_state i64 | m_input i64
//!                           | fix u8 [ outcome | bad u8 [iter u64] ] }*
//!
//! tvars    := count u32 { tag u8 | leaf u64 | aux i64 }*
//! snapshot := num_vars u32 | order u32*num_vars
//!           | node_count u64 { var u32 | lo i64 | hi i64 }*
//!           | root_count u32 | root i64 *
//! sub      := count u32 | i64*count
//! outcome  := kind_len u16 | kind bytes | cyc u8 [i64] | idx u8 [u64]
//! ```
//!
//! Kind byte 3 is a cone seed. Kind bytes 1 (a whole-circuit reach
//! snapshot) and 2 (a learned variable order) were written by older
//! stores; both are retired, never reused, and every decoder refuses them.
//!
//! Snapshot node references are signed: `+1`/`-1` are TRUE/FALSE, node *i*
//! is `±(i+2)`, negative means a complemented edge; nodes appear children
//! first (the topological order [`mct_bdd::BddManager::export_bdd`]
//! emits). The `flags` bit 0 records that the producer uses complement
//! edges — always set by this writer, required by this reader.
//!
//! Every decode path is bounds-checked and every declared length is
//! validated against the bytes actually remaining, so hostile input costs
//! at most one pass over the file and never a panic or an outsized
//! allocation. A payload that decodes must also pass
//! [`ConeCacheEntry::new`]'s shape validation before it becomes an entry.

use mct_bdd::{BddSnapshot, SnapshotNode};
use mct_core::{ArtifactError, ConeCacheEntry, DecisionOutcome, ExactPart, ExactRun};
use mct_tbf::TimedVar;
use std::fmt;

/// File magic, first four bytes of every artifact.
pub const MAGIC: &[u8; 4] = b"MCTB";
/// Current on-disk format version.
pub const FORMAT_VERSION: u16 = 1;
/// Flags bit 0: the node list uses complement (signed) edges.
const FLAG_COMPLEMENT_EDGES: u8 = 1;

/// Artifact kind tag carried in the header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ArtifactKind {
    // Kind bytes 1 (a whole-circuit reach snapshot) and 2 (a learned
    // variable order) are retired: never reuse them, so files an older
    // writer left behind can never decode as new data.
    /// A [`ConeCacheEntry`] cone replay seed.
    Cone = 3,
}

impl ArtifactKind {
    fn from_u8(v: u8) -> Option<ArtifactKind> {
        match v {
            3 => Some(ArtifactKind::Cone),
            _ => None,
        }
    }
}

/// Why a store file failed to decode. Callers treat every variant as a
/// cache miss; the variants exist so logs can say *which* way a file was
/// bad.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The buffer ended before a read completed.
    Truncated {
        /// Byte offset of the failed read.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion {
        /// The version found.
        got: u16,
    },
    /// The header names a different artifact kind than requested.
    WrongKind {
        /// The kind the caller asked to decode.
        expected: ArtifactKind,
        /// The kind tag found (raw, possibly unknown).
        got: u8,
    },
    /// The header flags are incompatible (complement edges required).
    BadFlags {
        /// The flags byte found.
        got: u8,
    },
    /// A structurally invalid payload (bad tag, impossible length, …).
    Malformed(&'static str),
    /// Trailing bytes after a complete payload.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A payload that decodes but is badly shaped as a cone entry.
    Invalid(ArtifactError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { offset, needed } => {
                write!(f, "truncated: needed {needed} bytes at offset {offset}")
            }
            StoreError::BadMagic => write!(f, "bad magic (not an mct artifact file)"),
            StoreError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported format version {got} (reader speaks {FORMAT_VERSION})"
                )
            }
            StoreError::WrongKind { expected, got } => {
                write!(f, "artifact kind {got} where {expected:?} was expected")
            }
            StoreError::BadFlags { got } => {
                write!(f, "incompatible flags {got:#x} (complement edges required)")
            }
            StoreError::Malformed(what) => write!(f, "malformed payload: {what}"),
            StoreError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            StoreError::Invalid(e) => write!(f, "invalid cone entry: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: ArtifactKind) -> Writer {
        let mut w = Writer {
            buf: Vec::with_capacity(256),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u16(FORMAT_VERSION);
        w.u8(kind as u8);
        w.u8(FLAG_COMPLEMENT_EDGES);
        w
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn timed_var(&mut self, tv: TimedVar) {
        let (tag, leaf, aux) = match tv {
            TimedVar::Shifted { leaf, shift } => (0u8, leaf, shift),
            TimedVar::Absolute { leaf, cycle } => (1, leaf, cycle),
            TimedVar::Next { leaf } => (2, leaf, 0),
            TimedVar::Old { leaf } => (3, leaf, 0),
            TimedVar::Arbitrary { leaf, delay } => (4, leaf, delay),
            TimedVar::Primed { leaf, depth } => (5, leaf, depth),
        };
        self.u8(tag);
        self.u64(leaf as u64);
        self.i64(aux);
    }

    fn timed_vars(&mut self, tvs: &[TimedVar]) {
        self.u32(tvs.len() as u32);
        for &tv in tvs {
            self.timed_var(tv);
        }
    }

    fn snapshot(&mut self, s: &BddSnapshot) {
        self.u32(s.num_vars);
        for &v in &s.order {
            self.u32(v);
        }
        self.u64(s.nodes.len() as u64);
        for n in &s.nodes {
            self.u32(n.var);
            self.i64(n.lo);
            self.i64(n.hi);
        }
        self.u32(s.roots.len() as u32);
        for &r in &s.roots {
            self.i64(r);
        }
    }

    fn sub(&mut self, sub: &[i64]) {
        self.u32(sub.len() as u32);
        for &v in sub {
            self.i64(v);
        }
    }

    fn outcome(&mut self, o: DecisionOutcome) {
        let (kind, cycle, index) = o.parts();
        self.u16(kind.len() as u16);
        self.buf.extend_from_slice(kind.as_bytes());
        match cycle {
            Some(c) => {
                self.u8(1);
                self.i64(c);
            }
            None => self.u8(0),
        }
        match index {
            Some(i) => {
                self.u8(1);
                self.u64(i as u64);
            }
            None => self.u8(0),
        }
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type R<T> = Result<T, StoreError>;

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> R<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> R<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> R<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a declared element count and rejects it immediately when even
    /// minimum-sized elements could not fit in the remaining bytes — a
    /// hostile length never provokes an outsized allocation.
    fn len(&mut self, count: u64, elem_min: usize) -> R<usize> {
        let count = usize::try_from(count).map_err(|_| StoreError::Malformed("length"))?;
        if count
            .checked_mul(elem_min)
            .is_none_or(|need| need > self.remaining())
        {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: count.saturating_mul(elem_min),
            });
        }
        Ok(count)
    }

    fn timed_var(&mut self) -> R<TimedVar> {
        let tag = self.u8()?;
        let leaf = usize::try_from(self.u64()?).map_err(|_| StoreError::Malformed("leaf"))?;
        let aux = self.i64()?;
        Ok(match tag {
            0 => TimedVar::Shifted { leaf, shift: aux },
            1 => TimedVar::Absolute { leaf, cycle: aux },
            2 => TimedVar::Next { leaf },
            3 => TimedVar::Old { leaf },
            4 => TimedVar::Arbitrary { leaf, delay: aux },
            5 => TimedVar::Primed { leaf, depth: aux },
            _ => return Err(StoreError::Malformed("timed-var tag")),
        })
    }

    fn timed_vars(&mut self) -> R<Vec<TimedVar>> {
        let count = self.u32()?;
        let count = self.len(count as u64, 17)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.timed_var()?);
        }
        Ok(out)
    }

    fn snapshot(&mut self) -> R<BddSnapshot> {
        let num_vars = self.u32()?;
        let order_len = self.len(num_vars as u64, 4)?;
        let mut order = Vec::with_capacity(order_len);
        for _ in 0..order_len {
            order.push(self.u32()?);
        }
        let node_count = self.u64()?;
        let node_count = self.len(node_count, 20)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(SnapshotNode {
                var: self.u32()?,
                lo: self.i64()?,
                hi: self.i64()?,
            });
        }
        let root_count = self.u32()?;
        let root_count = self.len(root_count as u64, 8)?;
        let mut roots = Vec::with_capacity(root_count);
        for _ in 0..root_count {
            roots.push(self.i64()?);
        }
        Ok(BddSnapshot {
            num_vars,
            order,
            nodes,
            roots,
        })
    }

    fn sub(&mut self) -> R<Vec<i64>> {
        let count = self.u32()?;
        let count = self.len(count as u64, 8)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.i64()?);
        }
        Ok(out)
    }

    fn outcome(&mut self) -> R<DecisionOutcome> {
        let kind_len = self.u16()? as usize;
        let kind = std::str::from_utf8(self.take(kind_len)?)
            .map_err(|_| StoreError::Malformed("outcome kind utf8"))?;
        let cycle = match self.u8()? {
            0 => None,
            1 => Some(self.i64()?),
            _ => return Err(StoreError::Malformed("cycle flag")),
        };
        let index = match self.u8()? {
            0 => None,
            1 => Some(
                usize::try_from(self.u64()?).map_err(|_| StoreError::Malformed("outcome index"))?,
            ),
            _ => return Err(StoreError::Malformed("index flag")),
        };
        DecisionOutcome::from_parts(kind, cycle, index).ok_or(StoreError::Malformed("outcome kind"))
    }

    fn finish(self) -> R<()> {
        if self.remaining() != 0 {
            return Err(StoreError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn read_header(r: &mut Reader<'_>, expected: ArtifactKind) -> R<()> {
    if r.take(4)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { got: version });
    }
    let kind = r.u8()?;
    if ArtifactKind::from_u8(kind) != Some(expected) {
        return Err(StoreError::WrongKind {
            expected,
            got: kind,
        });
    }
    let flags = r.u8()?;
    if flags & FLAG_COMPLEMENT_EDGES == 0 {
        return Err(StoreError::BadFlags { got: flags });
    }
    Ok(())
}

/// Reads just the header of an encoded artifact and returns its kind.
/// Used by offline inspection (`mct cache ls`) to classify files without
/// decoding payloads.
pub fn peek_kind(bytes: &[u8]) -> R<ArtifactKind> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { got: version });
    }
    let kind = r.u8()?;
    ArtifactKind::from_u8(kind).ok_or(StoreError::Malformed("artifact kind"))
}

// ---------------------------------------------------------------- public

/// Encodes a cone replay seed. Outcomes are sorted by key, so equal
/// entries encode to equal bytes.
pub fn encode_cone(entry: &ConeCacheEntry) -> Vec<u8> {
    let mut w = Writer::new(ArtifactKind::Cone);
    let (tail, period) = entry.rho();
    w.timed_vars(entry.vars());
    w.snapshot(entry.snapshot());
    w.u64(tail as u64);
    w.u64(period as u64);
    w.u8(entry.has_reach() as u8);
    let mut cx: Vec<_> = entry.outcomes_cx().collect();
    cx.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    w.u32(cx.len() as u32);
    for (sub, m, o) in cx {
        w.sub(sub);
        w.i64(m);
        w.outcome(o);
    }
    let mut exact: Vec<_> = entry.outcomes_exact().collect();
    exact.sort_by(|a, b| a.0.cmp(b.0));
    w.u32(exact.len() as u32);
    for (sub, part) in exact {
        w.sub(sub);
        w.i64(part.m_state);
        w.i64(part.m_input);
        match part.fix {
            None => w.u8(0),
            Some(run) => {
                w.u8(1);
                w.outcome(run.outcome);
                match run.bad_iteration {
                    None => w.u8(0),
                    Some(it) => {
                        w.u8(1);
                        w.u64(it);
                    }
                }
            }
        }
    }
    w.buf
}

/// Decodes a cone replay seed and validates its shape
/// ([`ConeCacheEntry::new`]).
///
/// # Errors
///
/// [`StoreError`] on any malformed, truncated, mis-versioned or badly
/// shaped input.
pub fn decode_cone(bytes: &[u8]) -> R<ConeCacheEntry> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, ArtifactKind::Cone)?;
    let vars = r.timed_vars()?;
    let snapshot = r.snapshot()?;
    let tail = r.u64()?;
    let period = r.u64()?;
    let has_reach = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(StoreError::Malformed("has_reach flag")),
    };
    let mut entry = ConeCacheEntry::new(vars, snapshot, tail, period, has_reach)
        .map_err(StoreError::Invalid)?;
    let cx_count = r.u32()?;
    let cx_count = r.len(cx_count as u64, 16)?;
    for _ in 0..cx_count {
        let sub = r.sub()?;
        let m = r.i64()?;
        entry.insert_cx(sub, m, r.outcome()?);
    }
    let ex_count = r.u32()?;
    let ex_count = r.len(ex_count as u64, 21)?;
    for _ in 0..ex_count {
        let sub = r.sub()?;
        let m_state = r.i64()?;
        let m_input = r.i64()?;
        let fix = match r.u8()? {
            0 => None,
            1 => {
                let outcome = r.outcome()?;
                let bad_iteration = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(StoreError::Malformed("bad-iteration flag")),
                };
                Some(ExactRun {
                    outcome,
                    bad_iteration,
                })
            }
            _ => return Err(StoreError::Malformed("fix flag")),
        };
        entry.insert_exact(
            sub,
            ExactPart {
                m_state,
                m_input,
                fix,
            },
        );
    }
    r.finish()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-variable snapshot with one layer, which is also the reach set.
    fn sample_snapshot() -> BddSnapshot {
        BddSnapshot {
            num_vars: 1,
            order: vec![0],
            nodes: vec![SnapshotNode {
                var: 0,
                lo: -1,
                hi: 1,
            }],
            roots: vec![2, -2],
        }
    }

    fn sample_cone() -> ConeCacheEntry {
        let mut entry = ConeCacheEntry::new(
            vec![TimedVar::Shifted { leaf: 0, shift: 0 }],
            sample_snapshot(),
            0,
            1,
            true,
        )
        .unwrap();
        entry.insert_cx(
            vec![3, -4],
            2,
            DecisionOutcome::BasisStateMismatch { cycle: 2, bit: 0 },
        );
        entry.insert_exact(
            vec![3],
            ExactPart {
                m_state: 2,
                m_input: 1,
                fix: Some(ExactRun {
                    outcome: DecisionOutcome::Valid,
                    bad_iteration: Some(4),
                }),
            },
        );
        entry
    }

    /// A cone entry with no variables and an empty snapshot.
    fn empty_cone() -> ConeCacheEntry {
        ConeCacheEntry::new(Vec::new(), BddSnapshot::default(), 0, 0, false).unwrap()
    }

    /// A cone file's bytes for raw fields, outcomes omitted: lets a test
    /// write shapes [`ConeCacheEntry::new`] refuses to build.
    fn raw_cone(
        vars: &[TimedVar],
        snapshot: &BddSnapshot,
        tail: u64,
        period: u64,
        has_reach: u8,
    ) -> Vec<u8> {
        let mut w = Writer::new(ArtifactKind::Cone);
        w.timed_vars(vars);
        w.snapshot(snapshot);
        w.u64(tail);
        w.u64(period);
        w.u8(has_reach);
        w.u32(0);
        w.u32(0);
        w.buf
    }

    #[test]
    fn cone_round_trip() {
        let data = sample_cone();
        let bytes = encode_cone(&data);
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(peek_kind(&bytes).unwrap(), ArtifactKind::Cone);
        assert_eq!(decode_cone(&bytes).unwrap(), data);
    }

    #[test]
    fn every_timed_var_tag_round_trips() {
        let vars = vec![
            TimedVar::Old { leaf: 5 },
            TimedVar::Arbitrary { leaf: 2, delay: -7 },
            TimedVar::Primed { leaf: 1, depth: 3 },
            TimedVar::Absolute { leaf: 0, cycle: -1 },
            TimedVar::Next { leaf: 4 },
        ];
        let data = ConeCacheEntry::new(vars, BddSnapshot::default(), 0, 0, false).unwrap();
        let bytes = encode_cone(&data);
        assert_eq!(decode_cone(&bytes).unwrap(), data);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_cone(&sample_cone()), encode_cone(&sample_cone()));
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode_cone(&sample_cone());
        for cut in 0..bytes.len() {
            assert!(
                decode_cone(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn header_violations() {
        let good = encode_cone(&empty_cone());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_cone(&bad).unwrap_err(), StoreError::BadMagic);
        let mut bad = good.clone();
        bad[4] = 0xff;
        assert!(matches!(
            decode_cone(&bad).unwrap_err(),
            StoreError::UnsupportedVersion { .. }
        ));
        let mut bad = good.clone();
        bad[7] = 0;
        assert!(matches!(
            decode_cone(&bad).unwrap_err(),
            StoreError::BadFlags { .. }
        ));
        let mut bad = good;
        bad.push(0);
        assert!(matches!(
            decode_cone(&bad).unwrap_err(),
            StoreError::TrailingBytes { .. }
        ));
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        // Claim 2^32-1 timed vars in a tiny buffer: the length check must
        // reject before any allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(ArtifactKind::Cone as u8);
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_cone(&bytes).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn unknown_outcome_kind_is_malformed() {
        let mut bytes = encode_cone(&sample_cone());
        let kind = b"basis_state";
        let at = bytes
            .windows(kind.len())
            .position(|w| w == kind)
            .expect("the encoded verdict");
        bytes[at..at + kind.len()].copy_from_slice(b"mystery_kid");
        assert_eq!(
            decode_cone(&bytes).unwrap_err(),
            StoreError::Malformed("outcome kind")
        );
    }

    #[test]
    fn badly_shaped_payloads_are_invalid() {
        let vars = [TimedVar::Shifted { leaf: 0, shift: 0 }];
        let good = sample_snapshot();
        assert!(decode_cone(&raw_cone(&vars, &good, 0, 1, 1)).is_ok());
        let invalid = |bytes: Vec<u8>| match decode_cone(&bytes) {
            Err(StoreError::Invalid(e)) => e,
            other => panic!("expected an invalid entry, got {other:?}"),
        };
        assert!(matches!(
            invalid(raw_cone(&vars, &good, 1, 1, 1)),
            ArtifactError::BadRho { .. }
        ));
        assert!(matches!(
            invalid(raw_cone(&[], &good, 0, 1, 1)),
            ArtifactError::VarCount { .. }
        ));
        assert!(matches!(
            invalid(raw_cone(&[vars[0], vars[0]], &good, 0, 1, 1)),
            ArtifactError::DuplicateTimedVar { .. }
        ));
        let no_roots = BddSnapshot {
            roots: Vec::new(),
            ..good.clone()
        };
        assert!(matches!(
            invalid(raw_cone(&vars, &no_roots, 0, 1, 1)),
            ArtifactError::RootCount { .. }
        ));
        let mut dangling = good;
        dangling.nodes[0].lo = 2;
        assert!(matches!(
            invalid(raw_cone(&vars, &dangling, 0, 1, 1)),
            ArtifactError::Bdd(_)
        ));
    }

    /// Harvested entries survive the codec: decoded, they seed a repeat
    /// analysis that replays every cone to the cold report.
    #[test]
    fn harvested_entries_round_trip_into_a_seeded_run() {
        use mct_core::{MctAnalyzer, MctOptions};
        use mct_netlist::{Circuit, GateKind, Time};
        let t = Time::from_f64;
        let mut c = Circuit::new("tri");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", true, Time::UNIT);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        let a = c.add_input("a");
        let ab = c.add_gate("ab", GateKind::Buf, &[a], t(3.0));
        for out in [q0, q1, ab] {
            c.set_output(out);
        }
        let opts = MctOptions::default();
        let strip = |mut r: mct_core::MctReport| {
            r.kernel = Default::default();
            format!("{r:?}")
        };
        let (cold, artifacts) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        let seeds: Vec<ConeCacheEntry> = artifacts
            .entries
            .iter()
            .map(|e| decode_cone(&encode_cone(e.as_ref().unwrap())).unwrap())
            .collect();
        let refs: Vec<Option<&ConeCacheEntry>> = seeds.iter().map(Some).collect();
        let (warm, replay) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &refs)
            .unwrap();
        assert_eq!(replay.cones_replayed, 3);
        assert_eq!(strip(warm), strip(cold));
    }

    /// A cone file can decode cleanly yet hold verdicts that name a state
    /// bit or an output beyond its cone, or a diverging exact run without
    /// its iteration. Seeding a run with it is a miss: the cone is
    /// recomputed to the cold report, and its fresh entry replaces the bad
    /// one.
    #[test]
    fn verdicts_beyond_the_cone_are_a_miss_not_a_panic() {
        use mct_core::{MctAnalyzer, MctOptions};
        use mct_netlist::{Circuit, GateKind, Time};
        let t = Time::from_f64;
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], t(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], t(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], t(5.0));
        let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], t(2.0));
        let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        let strip = |mut r: mct_core::MctReport| {
            r.kernel = Default::default();
            format!("{r:?}")
        };
        let cx_bad = [
            DecisionOutcome::BasisStateMismatch { cycle: 1, bit: 99 },
            DecisionOutcome::InductionOutputMismatch { output: 7 },
        ];
        let diverging = ExactRun {
            outcome: DecisionOutcome::InductionOutputMismatch { output: 0 },
            bad_iteration: None,
        };
        for exact_check in [false, true] {
            let opts = MctOptions {
                exact_check,
                ..MctOptions::default()
            };
            let (cold, artifacts) = MctAnalyzer::new(&c)
                .unwrap()
                .run_decomposed(&opts, &[])
                .unwrap();
            let harvested = artifacts.entries[0].clone().unwrap();
            let mut corrupt: Vec<ConeCacheEntry> = Vec::new();
            if exact_check {
                let mut entry = harvested.clone();
                let keys: Vec<(Vec<i64>, ExactPart)> = entry
                    .outcomes_exact()
                    .map(|(sub, p)| (sub.to_vec(), p))
                    .collect();
                assert!(!keys.is_empty());
                for (sub, part) in keys {
                    let fix = Some(diverging);
                    entry.insert_exact(sub, ExactPart { fix, ..part });
                }
                corrupt.push(entry);
            } else {
                for bad in cx_bad {
                    let mut entry = harvested.clone();
                    let keys: Vec<(Vec<i64>, i64)> = entry
                        .outcomes_cx()
                        .map(|(sub, m, _)| (sub.to_vec(), m))
                        .collect();
                    assert!(!keys.is_empty());
                    for (sub, m) in keys {
                        entry.insert_cx(sub, m, bad);
                    }
                    corrupt.push(entry);
                }
            }
            for entry in corrupt {
                let seed = decode_cone(&encode_cone(&entry)).unwrap();
                let (warm, replay) = MctAnalyzer::new(&c)
                    .unwrap()
                    .run_decomposed(&opts, &[Some(&seed)])
                    .unwrap();
                assert_eq!(replay.cones_replayed, 0);
                assert_eq!(strip(warm), strip(cold.clone()));
                assert_eq!(replay.entries[0].as_ref(), Some(&harvested));
            }
        }
    }
}
