//! Manager-independent BDD snapshots: export a rooted multi-graph to a
//! plain-data form and rebuild it in any other manager, under any variable
//! order.
//!
//! The encoding is DDDMP-flavoured: a node list in topological order
//! (children strictly before parents) with signed references. Reference
//! `+1` is the constant TRUE, `-1` is FALSE, and node *i* of the list (from
//! 0) is referenced as `±(i + 2)` — negative means the edge is
//! complemented. The snapshot also records the variable count and a level
//! order so consumers can validate a stale artifact before letting it near
//! a live manager. A variable's index is its level, so exports write the
//! identity order; the field stays in the format for artifacts written
//! before that held.
//!
//! Import rebuilds bottom-up with [`BddManager::ite`], so the result is
//! canonical under the *destination* manager's order; it is the one way a
//! BDD moves between managers. Nothing in the destination manager is
//! mutated until the snapshot has fully validated.

use crate::hash::FxHashMap;
use crate::manager::{Bdd, BddManager, Var};
use std::fmt;
use std::ops::Range;

/// One node of a [`BddSnapshot`]: a decision variable plus signed
/// references to the two children (see the module docs for the encoding).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotNode {
    /// Decision variable index (a source-manager [`Var`] index).
    pub var: u32,
    /// Low (else) child reference.
    pub lo: i64,
    /// High (then) child reference. Always positive in snapshots produced
    /// by [`BddManager::export_bdd`] (regular-high-child canonical form),
    /// but import tolerates either sign.
    pub hi: i64,
}

/// A manager-independent serialization of one or more rooted BDDs.
///
/// Produced by [`BddManager::export_bdd`]; consumed by
/// [`BddManager::import_bdd`]. All fields are public plain data so codecs
/// can construct snapshots directly; [`BddManager::import_bdd`] validates
/// everything and never panics on malformed input.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BddSnapshot {
    /// Number of variables the source manager knew about.
    pub num_vars: u32,
    /// The source manager's variable order, root-most level first
    /// (`order[level] = var index`). A permutation of `0..num_vars`;
    /// [`BddManager::export_bdd`] writes the identity.
    pub order: Vec<u32>,
    /// Decision nodes, children strictly before parents.
    pub nodes: Vec<SnapshotNode>,
    /// The exported roots, as signed references into `nodes`.
    pub roots: Vec<i64>,
}

impl BddSnapshot {
    /// Approximate in-memory footprint in bytes (used for byte-accounted
    /// cache admission; exact malloc overhead is not modelled).
    pub fn approx_bytes(&self) -> u64 {
        let fixed = std::mem::size_of::<BddSnapshot>() as u64;
        fixed
            + self.order.len() as u64 * 4
            + self.nodes.len() as u64 * std::mem::size_of::<SnapshotNode>() as u64
            + self.roots.len() as u64 * 8
    }

    /// Checks the snapshot's shape: the order is a permutation of
    /// `0..num_vars`, every node decides a variable below `num_vars`, every
    /// child reference names an earlier node, and every root names a node.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`BddImportError`].
    pub fn validate(&self) -> Result<(), BddImportError> {
        validate_order(&self.order, self.num_vars)?;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.var >= self.num_vars {
                return Err(BddImportError::NodeVarOutOfRange {
                    node: i,
                    var: n.var,
                    num_vars: self.num_vars,
                });
            }
            for reference in [n.lo, n.hi] {
                let id = reference.unsigned_abs();
                if reference == 0 || id > i as u64 + 1 {
                    return Err(BddImportError::DanglingRef { node: i, reference });
                }
            }
        }
        let limit = self.nodes.len() as u64 + 1;
        for (i, &reference) in self.roots.iter().enumerate() {
            if reference == 0 || reference.unsigned_abs() > limit {
                return Err(BddImportError::DanglingRoot { root: i, reference });
            }
        }
        Ok(())
    }

    /// Renumbers the variables the nodes decide on to `0..k` in level
    /// order, drops the rest, and returns the former index of each kept
    /// variable. An export names every variable its manager knows; this
    /// leaves only the ones the exported graphs test.
    ///
    /// # Panics
    ///
    /// If the snapshot is malformed (see [`validate`](Self::validate)).
    pub fn compact_vars(&mut self) -> Vec<u32> {
        let mut used = vec![false; self.num_vars as usize];
        for n in &self.nodes {
            used[n.var as usize] = true;
        }
        let kept: Vec<u32> = self
            .order
            .iter()
            .copied()
            .filter(|&v| used[v as usize])
            .collect();
        let mut renumber = vec![0; self.num_vars as usize];
        for (new, &old) in kept.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        for n in &mut self.nodes {
            n.var = renumber[n.var as usize];
        }
        self.num_vars = kept.len() as u32;
        self.order = (0..self.num_vars).collect();
        kept
    }
}

/// Why a [`BddSnapshot`] was rejected by [`BddManager::import_bdd`].
///
/// Every variant names the offending datum so store-layer callers can log a
/// precise cache-miss reason. Malformed snapshots are *errors*, never
/// panics: a stale or hostile on-disk artifact must not corrupt a live
/// manager.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum BddImportError {
    /// `order.len()` disagrees with `num_vars`.
    OrderLength {
        /// The snapshot's declared variable count.
        expected: u32,
        /// The actual order-vector length.
        got: usize,
    },
    /// An order entry names a variable `>= num_vars`.
    OrderVarOutOfRange {
        /// The offending variable index.
        var: u32,
        /// The snapshot's declared variable count.
        num_vars: u32,
    },
    /// A variable appears twice in the order (not a permutation).
    OrderDuplicateVar {
        /// The duplicated variable index.
        var: u32,
    },
    /// A node's decision variable is `>= num_vars`.
    NodeVarOutOfRange {
        /// Index of the offending node in the node list.
        node: usize,
        /// The offending variable index.
        var: u32,
        /// The snapshot's declared variable count.
        num_vars: u32,
    },
    /// A child reference is zero or points at-or-after its own node
    /// (the node list must be topologically sorted, children first).
    DanglingRef {
        /// Index of the offending node in the node list.
        node: usize,
        /// The unresolvable reference value.
        reference: i64,
    },
    /// A root reference is zero or out of range of the node list.
    DanglingRoot {
        /// Index of the offending entry in the roots list.
        root: usize,
        /// The unresolvable reference value.
        reference: i64,
    },
    /// The caller's variable map is shorter than `num_vars`.
    VarMapLength {
        /// The snapshot's declared variable count.
        expected: u32,
        /// The actual map length.
        got: usize,
    },
}

impl fmt::Display for BddImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddImportError::OrderLength { expected, got } => {
                write!(f, "order vector has {got} entries, expected {expected}")
            }
            BddImportError::OrderVarOutOfRange { var, num_vars } => {
                write!(f, "order names variable {var} outside 0..{num_vars}")
            }
            BddImportError::OrderDuplicateVar { var } => {
                write!(f, "variable {var} appears twice in the order")
            }
            BddImportError::NodeVarOutOfRange {
                node,
                var,
                num_vars,
            } => write!(
                f,
                "node {node} decides variable {var} outside 0..{num_vars}"
            ),
            BddImportError::DanglingRef { node, reference } => {
                write!(
                    f,
                    "node {node} references {reference}, which is not an earlier node"
                )
            }
            BddImportError::DanglingRoot { root, reference } => {
                write!(
                    f,
                    "root {root} references {reference}, outside the node list"
                )
            }
            BddImportError::VarMapLength { expected, got } => {
                write!(
                    f,
                    "variable map has {got} entries, expected at least {expected}"
                )
            }
        }
    }
}

impl std::error::Error for BddImportError {}

/// Validates that `order` is a permutation of `0..num_vars`: length must
/// match, every entry in range, no duplicates.
fn validate_order(order: &[u32], num_vars: u32) -> Result<(), BddImportError> {
    if order.len() != num_vars as usize {
        return Err(BddImportError::OrderLength {
            expected: num_vars,
            got: order.len(),
        });
    }
    let mut seen = vec![false; num_vars as usize];
    for &v in order {
        if v >= num_vars {
            return Err(BddImportError::OrderVarOutOfRange { var: v, num_vars });
        }
        if seen[v as usize] {
            return Err(BddImportError::OrderDuplicateVar { var: v });
        }
        seen[v as usize] = true;
    }
    Ok(())
}

impl BddManager {
    /// Exports the graphs rooted at `roots` as a plain-data snapshot.
    ///
    /// The node list is emitted in depth-first post-order (children before
    /// parents) over the regular (uncomplemented) node graph, so the output
    /// is deterministic for a given manager state and root sequence. Shared
    /// subgraphs are emitted once.
    ///
    /// # Examples
    ///
    /// ```
    /// use mct_bdd::{BddManager, Var};
    /// let mut m = BddManager::new();
    /// let a = m.var(Var::new(0));
    /// let b = m.var(Var::new(1));
    /// let f = m.xor(a, b);
    /// let snap = m.export_bdd(&[f]);
    /// let mut n = BddManager::new();
    /// let map: Vec<Var> = (0..snap.num_vars).map(Var::new).collect();
    /// let back = n.import_bdd(&snap, 0..1, &map).unwrap();
    /// assert!(n.eval(back[0], |v| v.index() == 0));
    /// ```
    pub fn export_bdd(&self, roots: &[Bdd]) -> BddSnapshot {
        // Regular handle bits -> signed-reference id (>= 2).
        let mut ids: FxHashMap<u32, i64> = FxHashMap::default();
        let mut nodes: Vec<SnapshotNode> = Vec::new();
        // (regular handle, children already pushed).
        let mut stack: Vec<(Bdd, bool)> = Vec::new();

        let ref_of = |h: Bdd, ids: &FxHashMap<u32, i64>| -> i64 {
            if h.is_const() {
                if h.is_true() {
                    1
                } else {
                    -1
                }
            } else {
                let id = ids[&h.regular().0];
                if h.is_complement() {
                    -id
                } else {
                    id
                }
            }
        };

        for &root in roots {
            if root.is_const() {
                continue;
            }
            stack.push((root.regular(), false));
            while let Some((f, expanded)) = stack.pop() {
                if ids.contains_key(&f.0) {
                    continue;
                }
                if expanded {
                    let lo = self.low(f);
                    let hi = self.high(f);
                    nodes.push(SnapshotNode {
                        var: self.root_var(f).expect("non-terminal").index(),
                        lo: ref_of(lo, &ids),
                        hi: ref_of(hi, &ids),
                    });
                    ids.insert(f.0, nodes.len() as i64 + 1);
                } else {
                    stack.push((f, true));
                    for child in [self.low(f), self.high(f)] {
                        if !child.is_const() && !ids.contains_key(&child.regular().0) {
                            stack.push((child.regular(), false));
                        }
                    }
                }
            }
        }

        BddSnapshot {
            num_vars: self.num_vars(),
            order: (0..self.num_vars()).collect(),
            nodes,
            roots: roots.iter().map(|&r| ref_of(r, &ids)).collect(),
        }
    }

    /// Rebuilds the snapshot roots `roots` (a range of `snap.roots`) in
    /// this manager, remapping snapshot variable index `v` to `var_map[v]`.
    /// Only the nodes those roots reach are built.
    ///
    /// The snapshot is fully validated first ([`BddSnapshot::validate`])
    /// and a malformed snapshot returns a structured [`BddImportError`]
    /// without touching this manager. Reconstruction runs bottom-up through
    /// [`ite`](Self::ite), so the result is canonical under this manager's
    /// order regardless of the order the snapshot was exported under.
    ///
    /// # Panics
    ///
    /// If `roots` reaches past the end of `snap.roots`.
    pub fn import_bdd(
        &mut self,
        snap: &BddSnapshot,
        roots: Range<usize>,
        var_map: &[Var],
    ) -> Result<Vec<Bdd>, BddImportError> {
        snap.validate()?;
        if var_map.len() < snap.num_vars as usize {
            return Err(BddImportError::VarMapLength {
                expected: snap.num_vars,
                got: var_map.len(),
            });
        }
        let roots = &snap.roots[roots];
        // Children precede parents, so one backward pass marks everything
        // the selected roots reach.
        let mut needed = vec![false; snap.nodes.len()];
        let mark = |reference: i64, needed: &mut [bool]| {
            if let Some(i) = (reference.unsigned_abs() as usize).checked_sub(2) {
                needed[i] = true;
            }
        };
        for &reference in roots {
            mark(reference, &mut needed);
        }
        for i in (0..snap.nodes.len()).rev() {
            if needed[i] {
                mark(snap.nodes[i].lo, &mut needed);
                mark(snap.nodes[i].hi, &mut needed);
            }
        }

        // Validated: rebuild bottom-up. `built[i]` is the regular-form
        // function of snapshot node i under this manager (a placeholder
        // for nodes no selected root reaches).
        let mut built: Vec<Bdd> = Vec::with_capacity(snap.nodes.len());
        let resolve = |reference: i64, built: &[Bdd]| -> Bdd {
            let id = reference.unsigned_abs();
            let h = if id == 1 {
                Bdd::TRUE
            } else {
                built[id as usize - 2]
            };
            if reference < 0 {
                h.complemented()
            } else {
                h
            }
        };
        for (n, &need) in snap.nodes.iter().zip(&needed) {
            if !need {
                built.push(Bdd::FALSE);
                continue;
            }
            let lo = resolve(n.lo, &built);
            let hi = resolve(n.hi, &built);
            let v = self.var(var_map[n.var as usize]);
            built.push(self.ite(v, hi, lo));
        }
        Ok(roots
            .iter()
            .map(|&reference| resolve(reference, &built))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr_with_fn() -> (BddManager, Bdd) {
        let mut m = BddManager::new();
        let a = m.var(Var::new(0));
        let b = m.var(Var::new(1));
        let c = m.var(Var::new(2));
        let ab = m.and(a, b);
        let f = m.xor(ab, c);
        (m, f)
    }

    #[test]
    fn round_trip_same_order() {
        let (m, f) = mgr_with_fn();
        let nf = {
            let mut m2 = m.export_bdd(&[f]);
            assert_eq!(m2.roots.len(), 1);
            m2.roots.push(m2.roots[0]); // alias root sharing
            m2
        };
        let mut dst = BddManager::new();
        let map: Vec<Var> = (0..nf.num_vars).map(Var::new).collect();
        let back = dst.import_bdd(&nf, 0..2, &map).unwrap();
        assert_eq!(back[0], back[1]);
        for bits in 0..8u32 {
            let asg = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(dst.eval(back[0], asg), m.eval(f, asg));
        }
    }

    #[test]
    fn round_trip_across_orders() {
        let (m, f) = mgr_with_fn();
        let snap = m.export_bdd(&[f]);
        assert_eq!(snap.order, vec![0, 1, 2], "exports write the identity");
        // Import under the reversed order: snapshot variable v lands on
        // destination variable 2 − v, so every parent/child pair flips.
        let mut dst = BddManager::new();
        let map: Vec<Var> = (0..snap.num_vars).map(|v| Var::new(2 - v)).collect();
        let back = dst.import_bdd(&snap, 0..1, &map).unwrap()[0];
        for bits in 0..8u32 {
            let asg = |v: Var| bits >> (2 - v.index()) & 1 == 1;
            let src_asg = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(dst.eval(back, asg), m.eval(f, src_asg));
        }
    }

    #[test]
    fn round_trip_with_var_remap() {
        let (m, f) = mgr_with_fn();
        let snap = m.export_bdd(&[f]);
        let mut dst = BddManager::new();
        // Shift every variable up by 10 in the destination.
        let map: Vec<Var> = (0..snap.num_vars).map(|v| Var::new(v + 10)).collect();
        let back = dst.import_bdd(&snap, 0..1, &map).unwrap()[0];
        for bits in 0..8u32 {
            let asg = |v: Var| v.index() >= 10 && bits >> (v.index() - 10) & 1 == 1;
            let src_asg = |v: Var| bits >> v.index() & 1 == 1;
            assert_eq!(dst.eval(back, asg), m.eval(f, src_asg));
        }
    }

    #[test]
    fn constants_and_complements() {
        let mut m = BddManager::new();
        let a = m.var(Var::new(0));
        let na = m.not(a);
        let snap = m.export_bdd(&[Bdd::TRUE, Bdd::FALSE, a, na]);
        assert_eq!(snap.roots[0], 1);
        assert_eq!(snap.roots[1], -1);
        assert_eq!(snap.roots[2], -snap.roots[3]);
        let mut dst = BddManager::new();
        let back = dst.import_bdd(&snap, 0..4, &[Var::new(0)]).unwrap();
        assert!(back[0].is_true());
        assert!(back[1].is_false());
        assert_eq!(dst.not(back[2]), back[3]);
    }

    #[test]
    fn rejects_malformed_snapshots() {
        let good = {
            let (m, f) = mgr_with_fn();
            m.export_bdd(&[f])
        };
        let map: Vec<Var> = (0..good.num_vars).map(Var::new).collect();
        let mut dst = BddManager::new();

        let mut bad = good.clone();
        bad.order.pop();
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::OrderLength { .. })
        ));

        let mut bad = good.clone();
        bad.order[0] = 99;
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::OrderVarOutOfRange { var: 99, .. })
        ));

        let mut bad = good.clone();
        bad.order[1] = bad.order[0];
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::OrderDuplicateVar { .. })
        ));

        let mut bad = good.clone();
        bad.nodes[0].var = 77;
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::NodeVarOutOfRange { var: 77, .. })
        ));

        // Forward (not-yet-emitted) reference and zero reference.
        let mut bad = good.clone();
        bad.nodes[0].lo = bad.nodes.len() as i64 + 1;
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::DanglingRef { node: 0, .. })
        ));
        let mut bad = good.clone();
        bad.nodes[0].hi = 0;
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::DanglingRef { node: 0, .. })
        ));

        let mut bad = good.clone();
        bad.roots[0] = 1000;
        assert!(matches!(
            dst.import_bdd(&bad, 0..1, &map),
            Err(BddImportError::DanglingRoot { root: 0, .. })
        ));

        // Short variable map.
        assert!(matches!(
            dst.import_bdd(&good, 0..1, &[]),
            Err(BddImportError::VarMapLength { .. })
        ));

        // The manager stayed pristine through all rejections.
        assert_eq!(dst.num_nodes(), 1);
    }

    #[test]
    fn compact_vars_keeps_only_decided_variables_in_level_order() {
        let mut m = BddManager::new();
        let a = m.var(Var::new(2));
        let b = m.var(Var::new(7));
        m.var(Var::new(9)); // known to the manager, decided by no root
        let f = m.and(a, b);
        let mut snap = m.export_bdd(&[f]);
        assert_eq!(snap.num_vars, 10);
        assert_eq!(snap.compact_vars(), vec![2, 7]);
        assert_eq!((snap.num_vars, &snap.order[..]), (2, &[0, 1][..]));
        assert!(snap.validate().is_ok());
        let mut dst = BddManager::new();
        let back = dst
            .import_bdd(&snap, 0..1, &[Var::new(0), Var::new(1)])
            .unwrap()[0];
        assert!(dst.eval(back, |_| true));
        assert!(!dst.eval(back, |v| v.index() == 0));
    }

    #[test]
    fn validate_order_is_strict() {
        assert!(validate_order(&[0, 1, 2], 3).is_ok());
        assert!(validate_order(&[2, 0, 1], 3).is_ok());
        assert!(validate_order(&[0, 1], 3).is_err());
        assert!(validate_order(&[0, 1, 3], 3).is_err());
        assert!(validate_order(&[0, 1, 1], 3).is_err());
    }

    #[test]
    fn shared_subgraph_emitted_once() {
        let mut m = BddManager::new();
        let a = m.var(Var::new(0));
        let b = m.var(Var::new(1));
        let ab = m.and(a, b);
        let nab = m.not(ab);
        let snap = m.export_bdd(&[ab, nab]);
        // One node for `b`? No: and(a,b) is two nodes (a over b). Both
        // roots share the same graph; the complement lives in the root ref.
        assert_eq!(snap.nodes.len(), 2);
        assert_eq!(snap.roots[0], -snap.roots[1]);
    }
}
