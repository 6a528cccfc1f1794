//! Randomized property tests: BDD operations agree with brute-force
//! truth-table semantics on random expressions (seeded, reproducible).

use crate::{BddManager, Var};
use mct_prng::SmallRng;

/// A small random Boolean expression over `NVARS` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

const NVARS: u32 = 5;
const CASES: usize = 256;

fn random_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..4usize) == 0 {
        return if rng.gen_bool() {
            Expr::Var(rng.gen_range(0..NVARS))
        } else {
            Expr::Const(rng.gen_bool())
        };
    }
    let sub = |rng: &mut SmallRng| Box::new(random_expr(rng, depth - 1));
    match rng.gen_range(0..5usize) {
        0 => Expr::Not(sub(rng)),
        1 => Expr::And(sub(rng), sub(rng)),
        2 => Expr::Or(sub(rng), sub(rng)),
        3 => Expr::Xor(sub(rng), sub(rng)),
        _ => Expr::Ite(sub(rng), sub(rng), sub(rng)),
    }
}

fn eval_expr(e: &Expr, env: u32) -> bool {
    match e {
        Expr::Var(v) => env >> v & 1 == 1,
        Expr::Const(b) => *b,
        Expr::Not(a) => !eval_expr(a, env),
        Expr::And(a, b) => eval_expr(a, env) && eval_expr(b, env),
        Expr::Or(a, b) => eval_expr(a, env) || eval_expr(b, env),
        Expr::Xor(a, b) => eval_expr(a, env) != eval_expr(b, env),
        Expr::Ite(c, t, f) => {
            if eval_expr(c, env) {
                eval_expr(t, env)
            } else {
                eval_expr(f, env)
            }
        }
    }
}

fn build(m: &mut BddManager, e: &Expr) -> crate::Bdd {
    match e {
        Expr::Var(v) => m.var(Var::new(*v)),
        Expr::Const(b) => m.constant(*b),
        Expr::Not(a) => {
            let fa = build(m, a);
            m.not(fa)
        }
        Expr::And(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let fa = build(m, a);
            let fb = build(m, b);
            m.xor(fa, fb)
        }
        Expr::Ite(c, t, f) => {
            let fc = build(m, c);
            let ft = build(m, t);
            let ff = build(m, f);
            m.ite(fc, ft, ff)
        }
    }
}

/// Runs `check` against `CASES` random expressions from a fixed seed.
fn for_random_exprs(seed: u64, mut check: impl FnMut(&mut SmallRng, Expr)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..CASES {
        let depth = rng.gen_range(0..=4usize);
        let e = random_expr(&mut rng, depth);
        check(&mut rng, e);
    }
}

#[test]
fn bdd_matches_truth_table() {
    for_random_exprs(1, |_, e| {
        let mut m = BddManager::new();
        let f = build(&mut m, &e);
        for env in 0..(1u32 << NVARS) {
            let expect = eval_expr(&e, env);
            let got = m.eval(f, |v| env >> v.index() & 1 == 1);
            assert_eq!(got, expect, "env={env:05b} expr={e:?}");
        }
    });
}

#[test]
fn canonicity_semantic_equality_iff_handle_equality() {
    for_random_exprs(2, |rng, e1| {
        let e2 = random_expr(rng, 3);
        let mut m = BddManager::new();
        let f1 = build(&mut m, &e1);
        let f2 = build(&mut m, &e2);
        let semantically_equal =
            (0..(1u32 << NVARS)).all(|env| eval_expr(&e1, env) == eval_expr(&e2, env));
        assert_eq!(f1 == f2, semantically_equal, "{e1:?} vs {e2:?}");
    });
}

#[test]
fn sat_count_matches_enumeration() {
    for_random_exprs(3, |_, e| {
        let mut m = BddManager::new();
        let f = build(&mut m, &e);
        let brute = (0..(1u32 << NVARS))
            .filter(|&env| eval_expr(&e, env))
            .count() as u64;
        assert_eq!(m.sat_count(f, NVARS) as u64, brute, "{e:?}");
    });
}

#[test]
fn exists_is_disjunction_of_cofactors() {
    for_random_exprs(4, |rng, e| {
        let v = rng.gen_range(0..NVARS);
        let mut m = BddManager::new();
        let f = build(&mut m, &e);
        let var = Var::new(v);
        let lo = m.restrict(f, var, false);
        let hi = m.restrict(f, var, true);
        let both = m.or(lo, hi);
        let ex = m.exists(f, &[var]);
        assert_eq!(ex, both, "var {v} in {e:?}");
    });
}

#[test]
fn compose_matches_semantic_substitution() {
    for_random_exprs(5, |rng, e1| {
        let e2 = random_expr(rng, 3);
        let v = rng.gen_range(0..NVARS);
        let mut m = BddManager::new();
        let f = build(&mut m, &e1);
        let g = build(&mut m, &e2);
        let composed = m.compose(f, Var::new(v), g);
        for env in 0..(1u32 << NVARS) {
            let gval = eval_expr(&e2, env);
            let env2 = if gval {
                env | (1 << v)
            } else {
                env & !(1 << v)
            };
            let expect = eval_expr(&e1, env2);
            let got = m.eval(composed, |var| env >> var.index() & 1 == 1);
            assert_eq!(got, expect, "env={env:05b}");
        }
    });
}

#[test]
fn cubes_partition_onset() {
    for_random_exprs(6, |_, e| {
        let mut m = BddManager::new();
        let f = build(&mut m, &e);
        let covered: u64 = m.cubes(f).map(|c| 1u64 << (NVARS - c.len() as u32)).sum();
        assert_eq!(covered, m.sat_count(f, NVARS) as u64, "{e:?}");
    });
}

#[test]
fn support_is_exact() {
    for_random_exprs(8, |_, e| {
        let mut m = BddManager::new();
        let f = build(&mut m, &e);
        let support = m.support(f);
        // Every support variable actually matters...
        for &v in &support {
            let lo = m.restrict(f, v, false);
            let hi = m.restrict(f, v, true);
            assert_ne!(lo, hi, "declared support var {v} is vacuous");
        }
        // ...and no other variable does (by ROBDD reduction).
        for v in (0..NVARS).map(Var::new) {
            if !support.contains(&v) {
                let lo = m.restrict(f, v, false);
                assert_eq!(lo, f);
            }
        }
    });
}
