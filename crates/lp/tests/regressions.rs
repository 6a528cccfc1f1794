//! Programs the simplex solver once got wrong, kept as fixtures in a sparse
//! text form: `vars N`, then `max j:v …` for the objective, then one
//! `le b j:v …` line per row `a·x ≤ b` (zero coefficients omitted). `#`
//! starts a comment line.

use mct_lp::{LpOutcome, Simplex, MAX_PIVOTS};

/// The program, and its rows `(a, b)` for checking a solution.
fn parse(text: &str) -> (Simplex, Vec<(Vec<f64>, f64)>) {
    let mut lp = None;
    let mut rows = Vec::new();
    let entries = |fields: std::str::SplitWhitespace<'_>, n: usize| {
        let mut row = vec![0.0; n];
        for f in fields {
            let (j, v) = f.split_once(':').expect("j:v entry");
            row[j.parse::<usize>().expect("index")] = v.parse().expect("coefficient");
        }
        row
    };
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("vars") => {
                let n = fields.next().and_then(|n| n.parse().ok()).expect("count");
                lp = Some(Simplex::new(n));
            }
            Some("max") => {
                let lp = lp.as_mut().expect("vars first");
                let c = entries(fields, lp.num_vars());
                lp.set_objective(&c);
            }
            Some("le") => {
                let lp = lp.as_mut().expect("vars first");
                let b = fields.next().and_then(|b| b.parse().ok()).expect("rhs");
                let a = entries(fields, lp.num_vars());
                lp.add_le(&a, b);
                rows.push((a, b));
            }
            other => panic!("bad fixture line {other:?}"),
        }
    }
    (lp.expect("a program"), rows)
}

/// A feasible Section-7 program from the σ fuzz tier (seed 42): maximize
/// τ (variable 0) subject to τ ≤ 16,832.999 and the shift rows of one σ.
/// The solver used to accept round-off-sized pivot elements and leave
/// residue in the pivot column: it spent 51,966 pivots on this program
/// and returned τ ≈ 4.6e12, far beyond τ's own bound, at a point with
/// entries near 1e132.
#[test]
fn feasible_section7_program_is_solved_to_its_optimum() {
    let (lp, rows) = parse(include_str!("data/section7_tau_16832.lp"));
    assert_eq!((lp.num_vars(), lp.num_rows()), (36, 216));
    let (outcome, pivots) = lp.solve_counted();
    let LpOutcome::Optimal { value, solution } = outcome else {
        panic!("expected the optimum, got {outcome} after {pivots} pivots");
    };
    // τ's own upper bound is reached at a point that satisfies every row
    // up to round-off, which grows with the magnitudes a row sums.
    assert!((value - 16_832.999).abs() < 1e-6, "τ = {value}");
    for (a, b) in &rows {
        let terms = a.iter().zip(&solution).map(|(c, x)| c * x);
        let lhs: f64 = terms.clone().sum();
        let scale: f64 = terms.map(f64::abs).sum::<f64>() + b.abs() + 1.0;
        assert!(lhs <= b + 1e-8 * scale, "row {a:?} ≤ {b} violated: {lhs}");
    }
    assert!(solution.iter().all(|&x| x >= -1e-9));
    assert!(pivots < MAX_PIVOTS / 4, "{pivots} pivots");
}
