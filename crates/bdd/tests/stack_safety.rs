//! Deep-graph regression tests for the explicit-stack kernel walks.
//!
//! Every recursive operation of the old kernel overflowed the thread stack
//! somewhere past a few thousand variable levels. These tests build chains
//! ~10k levels deep — far beyond any default stack's recursion budget for
//! the per-frame state the walks carry — and push them through each of the
//! rewritten entry points. They pass iff the explicit stacks hold.

use mct_bdd::{Bdd, BddManager, Var, VarSet};

const DEPTH: u32 = 10_000;

/// `x0 ∧ x1 ∧ … ∧ x_{DEPTH-1}`, built bottom-up so construction itself is
/// O(DEPTH): each step only prepends a level above the existing root.
fn deep_conjunction(m: &mut BddManager) -> Bdd {
    let mut f = m.one();
    for i in (0..DEPTH).rev() {
        let v = m.var(Var::new(i));
        f = m.and(v, f);
    }
    f
}

/// `x0 ⊕ x1 ⊕ … ⊕ x_{DEPTH-1}`, also built bottom-up. Parity maximally
/// exercises complement edges: with them the chain needs one node per
/// level, without them two.
fn deep_parity(m: &mut BddManager) -> Bdd {
    let mut f = m.zero();
    for i in (0..DEPTH).rev() {
        let v = m.var(Var::new(i));
        f = m.xor(v, f);
    }
    f
}

#[test]
fn deep_chain_through_ite_and_not() {
    let mut m = BddManager::new();
    let f = deep_conjunction(&mut m);
    let g = m.not(f);
    assert_ne!(f, g);
    assert_eq!(m.not(g), f);
    // ite with all three operands ~DEPTH deep.
    let h = m.ite(f, g, f);
    // f ? ¬f : f ≡ false.
    assert!(h.is_false());
    let all_true = m.eval(f, |_| true);
    assert!(all_true);
    assert!(!m.eval(f, |v| v.index() != DEPTH / 2));
}

#[test]
fn deep_parity_round_trips() {
    let mut m = BddManager::new();
    let f = deep_parity(&mut m);
    // `size` counts distinct semantic subfunctions: both polarities of every
    // suffix parity, plus the root and the two constants.
    assert_eq!(m.size(f), 2 * DEPTH as usize + 1);
    // Complement edges make negation free: no new arena nodes.
    let before = m.stats().nodes;
    let g = m.not(f);
    assert_eq!(m.stats().nodes, before);
    assert!(m.eval(f, |v| v.index() == 0));
    assert_eq!(m.eval(f, |_| true), DEPTH % 2 == 1);
    let x = m.xor(f, g);
    assert!(x.is_true());
}

#[test]
fn deep_exists_collapses_the_chain() {
    let mut m = BddManager::new();
    let f = deep_conjunction(&mut m);
    // Quantifying the single deepest variable keeps the walk DEPTH levels
    // deep before anything can simplify.
    let bottom = VarSet::new(&[Var::new(DEPTH - 1)]);
    let g = m.exists_set(f, &bottom);
    let expect = {
        let mut e = m.one();
        for i in (0..DEPTH - 1).rev() {
            let v = m.var(Var::new(i));
            e = m.and(v, e);
        }
        e
    };
    assert_eq!(g, expect);
    // Quantifying everything yields a constant.
    let all: VarSet = (0..DEPTH).map(Var::new).collect();
    assert!(m.exists_set(f, &all).is_true());
    assert!(m.forall_set(f, &all).is_false());
}

#[test]
fn deep_and_exists_matches_two_steps() {
    let mut m = BddManager::new();
    let f = deep_parity(&mut m);
    let g = deep_conjunction(&mut m);
    let vars: VarSet = (0..DEPTH).step_by(2).map(Var::new).collect();
    let fused = m.and_exists_set(f, g, &vars);
    let conj = m.and(f, g);
    let two_step = m.exists_set(conj, &vars);
    assert_eq!(fused, two_step);
}

#[test]
fn deep_vector_compose_negates_every_level() {
    let mut m = BddManager::new();
    let f = deep_parity(&mut m);
    // Substitute x_i ↦ ¬x_i at every level: parity of an even number of
    // complemented inputs is unchanged, odd flips it.
    let pairs: Vec<(Var, Bdd)> = (0..DEPTH)
        .map(|i| {
            let v = m.var(Var::new(i));
            (Var::new(i), m.not(v))
        })
        .collect();
    let g = m.vector_compose(f, &pairs);
    let expect = if DEPTH.is_multiple_of(2) { f } else { m.not(f) };
    assert_eq!(g, expect);
}

#[test]
fn deep_restrict_and_support() {
    let mut m = BddManager::new();
    let f = deep_conjunction(&mut m);
    let g = m.restrict(f, Var::new(DEPTH - 1), true);
    assert_eq!(m.support(g).len(), DEPTH as usize - 1);
    let h = m.restrict(f, Var::new(0), false);
    assert!(h.is_false());
    assert_eq!(m.support(f).len(), DEPTH as usize);
}

#[test]
fn deep_sat_count_is_exact() {
    let mut m = BddManager::new();
    let f = deep_parity(&mut m);
    // Exactly half the 2^DEPTH assignments satisfy a parity function.
    let frac = m.sat_fraction_of(f);
    assert_eq!(frac, 0.5);
    let g = deep_conjunction(&mut m);
    assert_eq!(m.sat_fraction_of(g), 0.5f64.powi(DEPTH as i32));
}

/// A deep graph moves between managers through one snapshot: exported
/// and imported onto renumbered variables, then through the reversed
/// variable map, where every rebuilt level lands above the levels already
/// built and each bottom-up `ite` walks down the whole chain below it.
/// That walk is quadratic in the depth, so the reversed leg runs on a
/// tenth of the chain.
#[test]
fn deep_snapshot_round_trips_under_a_reversed_map() {
    let mut src = BddManager::new();
    let f = deep_parity(&mut src);
    let snap = src.export_bdd(&[f]);
    assert_eq!(snap.nodes.len(), DEPTH as usize);
    let shifted: Vec<Var> = (0..DEPTH).map(|v| Var::new(v + DEPTH)).collect();
    let mut dst = BddManager::new();
    let g = dst.import_bdd(&snap, 0..1, &shifted).unwrap()[0];
    assert_eq!(dst.size(g), 2 * DEPTH as usize + 1);
    let back = dst.export_bdd(&[g]);
    assert_eq!(back.nodes.len(), DEPTH as usize);
    for ones in [0, 1, 2, DEPTH] {
        let src_asg = |v: Var| v.index() < ones;
        let dst_asg = |v: Var| v.index() - DEPTH < ones;
        assert_eq!(dst.eval(g, dst_asg), src.eval(f, src_asg), "{ones} ones");
        assert_eq!(dst.eval(g, dst_asg), ones % 2 == 1);
    }

    let depth = DEPTH / 10;
    let mut src = BddManager::new();
    let mut f = src.zero();
    for i in (0..depth).rev() {
        let v = src.var(Var::new(i));
        f = src.xor(v, f);
    }
    let snap = src.export_bdd(&[f]);
    let reversed: Vec<Var> = (0..depth).map(|v| Var::new(depth - 1 - v)).collect();
    let mut dst = BddManager::new();
    let g = dst.import_bdd(&snap, 0..1, &reversed).unwrap()[0];
    // Parity is symmetric: the reversed chain is one node per level again.
    assert_eq!(dst.size(g), 2 * depth as usize + 1);
    for ones in [0, 1, 2, depth] {
        let src_asg = |v: Var| v.index() < ones;
        let dst_asg = |v: Var| depth - 1 - v.index() < ones;
        assert_eq!(dst.eval(g, dst_asg), src.eval(f, src_asg), "{ones} ones");
    }
}

/// Importing only the reach root of a layers-plus-reach snapshot builds
/// none of the nodes that only the layers use: a deep layer beside a
/// two-variable reach set costs the destination only the reach set's
/// nodes.
#[test]
fn importing_the_reach_root_skips_layer_only_nodes() {
    let mut src = BddManager::new();
    let layer = deep_parity(&mut src);
    let a = src.var(Var::new(0));
    let b = src.var(Var::new(1));
    let reach = src.and(a, b);
    let snap = src.export_bdd(&[layer, reach]);
    let map: Vec<Var> = (0..snap.num_vars).map(Var::new).collect();

    let mut dst = BddManager::new();
    let r = dst.import_bdd(&snap, 1..2, &map).unwrap()[0];
    let mut direct = BddManager::new();
    let (da, db) = (direct.var(Var::new(0)), direct.var(Var::new(1)));
    direct.and(da, db);
    assert_eq!(dst.num_nodes(), direct.num_nodes());
    assert!(dst.eval(r, |v| v.index() < 2));
    assert!(!dst.eval(r, |v| v.index() == 0));

    let mut all = BddManager::new();
    all.import_bdd(&snap, 0..2, &map).unwrap();
    assert!(all.num_nodes() > DEPTH as usize);
}
