//! Moving BDDs between managers by semantic variable identity.
//!
//! A [`Bdd`](mct_bdd::Bdd) index is meaningless outside the manager that
//! built it, and two managers generally disagree on which raw variable
//! index a given [`TimedVar`] occupies (allocation is first-use order). The
//! transfer below re-expresses a function in a destination manager by
//! walking the source graph once and rebuilding bottom-up with `ite`,
//! mapping each decision variable *semantically* through the two
//! [`TimedVarTable`]s — so it is correct even when the tables disagree on
//! numbering, and linear in the source node count (memoized on source
//! nodes; `ite` re-canonicalizes under the destination order).
//!
//! The sweep uses this to import a seeded cone's reachable-state
//! restriction from the cached entry's manager, instead of repeating the
//! image fixpoint.

use crate::error::TbfError;
use crate::vars::TimedVarTable;
use mct_bdd::{Bdd, BddManager};
use std::collections::HashMap;

/// Rebuilds `f` (a function of `src`) inside `dst`, allocating destination
/// variables for the same [`TimedVar`](crate::TimedVar)s on demand.
///
/// # Errors
///
/// [`TbfError::UnmappedVariable`] if a decision variable of `f` has no
/// entry in `src_table` (i.e. `f` was not built through that table).
pub fn transfer_bdd(
    src: &BddManager,
    src_table: &TimedVarTable,
    f: Bdd,
    dst: &mut BddManager,
    dst_table: &mut TimedVarTable,
) -> Result<Bdd, TbfError> {
    // The walk runs on an explicit frame stack (source graphs can be tens
    // of thousands of levels deep). `low`/`high` resolve the handle's
    // complement bit, so the memo is keyed on full (polarity-carrying)
    // handles and complemented sub-DAGs rebuild correctly.
    enum Frame {
        Visit(Bdd),
        Emit(Bdd),
    }
    let mut memo: HashMap<Bdd, Bdd> = HashMap::new();
    let mut frames = vec![Frame::Visit(f)];
    let mut results: Vec<Bdd> = Vec::new();
    while let Some(frame) = frames.pop() {
        match frame {
            Frame::Visit(f) => {
                if f.is_const() {
                    // FALSE and TRUE share handles in every manager.
                    results.push(f);
                    continue;
                }
                if let Some(&r) = memo.get(&f) {
                    results.push(r);
                    continue;
                }
                frames.push(Frame::Emit(f));
                frames.push(Frame::Visit(src.high(f)));
                frames.push(Frame::Visit(src.low(f)));
            }
            Frame::Emit(f) => {
                let hi = results.pop().expect("transfer high result");
                let lo = results.pop().expect("transfer low result");
                let v = src.root_var(f).expect("non-terminal has a root variable");
                let tv = src_table
                    .timed_var(v)
                    .ok_or(TbfError::UnmappedVariable { index: v.index() })?;
                let dv = dst.var(dst_table.var(tv));
                let r = dst.ite(dv, hi, lo);
                memo.insert(f, r);
                results.push(r);
            }
        }
    }
    Ok(results.pop().expect("transfer result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::TimedVar;

    fn tv(leaf: usize) -> TimedVar {
        TimedVar::Shifted { leaf, shift: 1 }
    }

    #[test]
    fn transfer_preserves_semantics_across_allocation_orders() {
        let mut src = BddManager::new();
        let mut st = TimedVarTable::new();
        let a = src.var(st.var(tv(0)));
        let b = src.var(st.var(tv(1)));
        let c = src.var(st.var(tv(2)));
        let ab = src.and(a, b);
        let f = src.or(ab, c);

        // Destination allocates the same TimedVars in the *reverse* order,
        // so raw indices disagree and ite must re-canonicalize.
        let mut dst = BddManager::new();
        let mut dt = TimedVarTable::new();
        for leaf in (0..3).rev() {
            dt.var(tv(leaf));
        }
        let g = transfer_bdd(&src, &st, f, &mut dst, &mut dt).unwrap();

        for mask in 0u32..8 {
            let sv = src.eval(f, |v| {
                let leaf = match st.timed_var(v).unwrap() {
                    TimedVar::Shifted { leaf, .. } => leaf,
                    _ => unreachable!(),
                };
                mask >> leaf & 1 == 1
            });
            let dv = dst.eval(g, |v| {
                let leaf = match dt.timed_var(v).unwrap() {
                    TimedVar::Shifted { leaf, .. } => leaf,
                    _ => unreachable!(),
                };
                mask >> leaf & 1 == 1
            });
            assert_eq!(sv, dv, "assignment {mask:03b}");
        }
    }

    #[test]
    fn constants_transfer_unchanged() {
        let src = BddManager::new();
        let st = TimedVarTable::new();
        let mut dst = BddManager::new();
        let mut dt = TimedVarTable::new();
        assert_eq!(
            transfer_bdd(&src, &st, Bdd::TRUE, &mut dst, &mut dt).unwrap(),
            Bdd::TRUE
        );
        assert_eq!(
            transfer_bdd(&src, &st, Bdd::FALSE, &mut dst, &mut dt).unwrap(),
            Bdd::FALSE
        );
    }

    #[test]
    fn unmapped_variable_is_an_error() {
        let mut src = BddManager::new();
        let st = TimedVarTable::new(); // empty: nothing mapped
        let x = src.var(mct_bdd::Var::new(0));
        let mut dst = BddManager::new();
        let mut dt = TimedVarTable::new();
        assert!(transfer_bdd(&src, &st, x, &mut dst, &mut dt).is_err());
    }
}
