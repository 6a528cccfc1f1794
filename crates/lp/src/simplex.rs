//! A dense two-phase simplex solver.

use std::fmt;

const EPS: f64 = 1e-9;

/// Smallest pivot element the ratio test accepts. A pivot the size of
/// round-off scales its row by its inverse and swamps the tableau, so a
/// feasible program can end phase 1 with a huge residual.
const PIVOT_TOL: f64 = 1e-7;

/// Pivots one solve may take across both phases before it gives up with
/// [`LpOutcome::Stalled`]. Bland's rule terminates in exact arithmetic;
/// the cap only catches floating-point pathology, and bounds a solve to
/// well under a second. The largest converging solve measured across the
/// test suite and the four fuzz tiers (seed 42, 300 s each) took 741
/// pivots, on a 36-variable, 216-row Section-7 program.
pub const MAX_PIVOTS: u64 = 4_000;

/// Result of [`Simplex::solve`].
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal {
        /// The optimal objective value.
        value: f64,
        /// An optimal assignment of the structural variables.
        solution: Vec<f64>,
    },
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The solver stopped after [`MAX_PIVOTS`] pivots without an answer:
    /// the program is neither proven feasible nor proven infeasible.
    Stalled,
}

impl fmt::Display for LpOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpOutcome::Optimal { value, .. } => write!(f, "optimal (value {value})"),
            LpOutcome::Infeasible => f.write_str("infeasible"),
            LpOutcome::Unbounded => f.write_str("unbounded"),
            LpOutcome::Stalled => f.write_str("stalled"),
        }
    }
}

/// A linear program `max c·x  s.t.  A·x ≤ b, x ≥ 0`, solved by the
/// textbook two-phase simplex method with Bland's anti-cycling rule.
///
/// Build the program incrementally with [`add_le`](Self::add_le),
/// [`add_ge`](Self::add_ge), and [`add_eq`](Self::add_eq); `≥` and `=` rows
/// are translated to `≤` form internally. All variables are non-negative,
/// which matches the paper's Section-7 programs (delays and clock periods
/// are physical durations).
///
/// The solver is exact up to `f64` round-off; the cycle-time engine feeds it
/// well-scaled inputs (milli-unit delays) and treats answers within `1e-6`
/// of a bound as binding. It never panics: a solve that exceeds
/// [`MAX_PIVOTS`] returns [`LpOutcome::Stalled`].
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

impl Simplex {
    /// Creates a program over `num_vars` non-negative structural variables
    /// with a zero objective.
    pub fn new(num_vars: usize) -> Self {
        Simplex {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows (after `≥`/`=` translation).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sets the maximization objective `c·x`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != num_vars`.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.num_vars, "objective width mismatch");
        self.objective = c.to_vec();
    }

    /// Adds the constraint `a·x ≤ b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != num_vars`.
    pub fn add_le(&mut self, a: &[f64], b: f64) {
        assert_eq!(a.len(), self.num_vars, "constraint width mismatch");
        self.rows.push((a.to_vec(), b));
    }

    /// Adds the constraint `a·x ≥ b` (stored as `−a·x ≤ −b`).
    pub fn add_ge(&mut self, a: &[f64], b: f64) {
        let neg: Vec<f64> = a.iter().map(|&v| -v).collect();
        self.add_le(&neg, -b);
    }

    /// Adds the constraint `a·x = b` (as a `≤` and a `≥` pair).
    pub fn add_eq(&mut self, a: &[f64], b: f64) {
        self.add_le(a, b);
        self.add_ge(a, b);
    }

    /// Adds the bound `lo ≤ x_j ≤ hi`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `lo > hi`.
    pub fn add_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        assert!(j < self.num_vars, "variable index out of range");
        assert!(lo <= hi, "inverted bounds");
        let mut row = vec![0.0; self.num_vars];
        row[j] = 1.0;
        self.add_le(&row, hi);
        if lo > 0.0 {
            self.add_ge(&row, lo);
        }
    }

    /// Solves the program.
    pub fn solve(&self) -> LpOutcome {
        self.solve_counted().0
    }

    /// Solves the program and reports the number of simplex pivots
    /// performed across both phases — the work metric surfaced by the
    /// clock-skew optimizer's kernel counters.
    pub fn solve_counted(&self) -> (LpOutcome, u64) {
        self.solve_capped(MAX_PIVOTS)
    }

    fn solve_capped(&self, max_pivots: u64) -> (LpOutcome, u64) {
        let mut tableau = Tableau::build(self, max_pivots);
        let outcome = tableau.solve(&self.objective);
        (outcome, tableau.pivots)
    }
}

/// How one simplex phase ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Optimal,
    Unbounded,
    Stalled,
}

struct Tableau {
    num_structural: usize,
    num_slack: usize,
    /// Artificial columns start at `num_structural + num_slack`.
    num_art: usize,
    /// `rows[i]` has one entry per column plus the rhs in the last slot.
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
    /// Pivots performed across both phases.
    pivots: u64,
    /// The solve stalls rather than pivot past this count.
    max_pivots: u64,
}

impl Tableau {
    fn build(lp: &Simplex, max_pivots: u64) -> Tableau {
        let n = lp.num_vars;
        let m = lp.rows.len();
        // Which rows need an artificial variable (negative rhs after adding
        // the slack)?
        let art_rows: Vec<usize> = (0..m).filter(|&i| lp.rows[i].1 < 0.0).collect();
        let num_art = art_rows.len();
        let total = n + m + num_art;
        let mut rows = Vec::with_capacity(m);
        let mut basis = vec![0usize; m];
        let mut next_art = 0usize;
        for (i, (a, b)) in lp.rows.iter().enumerate() {
            let mut row = vec![0.0; total + 1];
            let negate = *b < 0.0;
            let sign = if negate { -1.0 } else { 1.0 };
            for (j, &v) in a.iter().enumerate() {
                row[j] = sign * v;
            }
            // Slack of the original ≤ row; negated rows carry it with −1.
            row[n + i] = sign;
            row[total] = sign * b;
            if negate {
                let col = n + m + next_art;
                next_art += 1;
                row[col] = 1.0;
                basis[i] = col;
            } else {
                basis[i] = n + i;
            }
            rows.push(row);
        }
        Tableau {
            num_structural: n,
            num_slack: m,
            num_art,
            rows,
            basis,
            pivots: 0,
            max_pivots,
        }
    }

    fn total_cols(&self) -> usize {
        self.num_structural + self.num_slack + self.num_art
    }

    fn rhs(&self, i: usize) -> f64 {
        let t = self.total_cols();
        self.rows[i][t]
    }

    /// Prices a cost vector into a reduced-cost row for the current basis.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let total = self.total_cols();
        let mut p = vec![0.0; total + 1];
        p[..cost.len()].copy_from_slice(cost);
        for (i, &b) in self.basis.iter().enumerate() {
            let pb = p[b];
            if pb.abs() > EPS {
                let row = self.rows[i].clone();
                for (pj, rj) in p.iter_mut().zip(row.iter()) {
                    *pj -= pb * rj;
                }
            }
        }
        p
    }

    /// Pivots `col` into the basis at `row`. The pivot column is written
    /// exactly afterwards (1 in its row, 0 elsewhere and in the cost row):
    /// eliminations skipped below `EPS` would otherwise leave residue there,
    /// and a basic column could re-enter its own row.
    fn pivot(&mut self, row: usize, col: usize, p: &mut [f64]) {
        self.pivots += 1;
        let piv = self.rows[row][col];
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        self.rows[row][col] = 1.0;
        let pivot_row = self.rows[row].clone();
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor.abs() > EPS {
                for (rv, pv) in r.iter_mut().zip(pivot_row.iter()) {
                    *rv -= factor * pv;
                }
            }
            r[col] = 0.0;
        }
        let factor = p[col];
        if factor.abs() > EPS {
            for (pv, rv) in p.iter_mut().zip(pivot_row.iter()) {
                *pv -= factor * rv;
            }
        }
        p[col] = 0.0;
        self.basis[row] = col;
    }

    /// Runs simplex iterations maximizing the priced cost row `p`, entering
    /// only columns where `allowed` is true. Stalls when another pivot
    /// would exceed the solve's cap.
    fn optimize(&mut self, p: &mut [f64], allowed: impl Fn(usize) -> bool) -> Phase {
        let total = self.total_cols();
        loop {
            // Entering column: smallest index with positive reduced cost.
            let Some(col) = (0..total).find(|&j| allowed(j) && p[j] > EPS) else {
                return Phase::Optimal;
            };
            if self.pivots >= self.max_pivots {
                return Phase::Stalled;
            }
            // Ratio test (Bland tie-break on basis variable index).
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][col];
                if a > PIVOT_TOL {
                    let ratio = self.rhs(i) / a;
                    let cand = (ratio, self.basis[i], i);
                    best = match best {
                        None => Some(cand),
                        Some(b) => {
                            if cand.0 < b.0 - EPS || (cand.0 < b.0 + EPS && cand.1 < b.1) {
                                Some(cand)
                            } else {
                                Some(b)
                            }
                        }
                    };
                }
            }
            match best {
                Some((_, _, row)) => self.pivot(row, col, p),
                None => return Phase::Unbounded, // in direction `col`
            }
        }
    }

    fn solve(&mut self, objective: &[f64]) -> LpOutcome {
        let total = self.total_cols();
        // Phase 1: drive artificial variables to zero.
        if self.num_art > 0 {
            let art_start = self.num_structural + self.num_slack;
            let mut cost = vec![0.0; total];
            for c in cost.iter_mut().skip(art_start) {
                *c = -1.0; // maximize −Σ artificials
            }
            let mut p = self.reduced_costs(&cost);
            // Phase 1 is bounded (its objective is at most 0), so anything
            // but an optimum is numerical pathology.
            if self.optimize(&mut p, |_| true) != Phase::Optimal {
                return LpOutcome::Stalled;
            }
            let infeasibility: f64 = (0..self.rows.len())
                .filter(|&i| self.basis[i] >= art_start)
                .map(|i| self.rhs(i))
                .sum();
            if infeasibility > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Pivot any degenerate basic artificials out of the basis.
            for i in 0..self.rows.len() {
                if self.basis[i] >= art_start {
                    if let Some(col) = (0..art_start).find(|&j| self.rows[i][j].abs() > PIVOT_TOL) {
                        let mut dummy = vec![0.0; total + 1];
                        self.pivot(i, col, &mut dummy);
                    }
                    // Otherwise the row is redundant (all-zero) and inert.
                }
            }
        }
        // Phase 2: the real objective; artificial columns may not re-enter.
        let art_start = self.num_structural + self.num_slack;
        let mut cost = vec![0.0; total];
        cost[..objective.len()].copy_from_slice(objective);
        let mut p = self.reduced_costs(&cost);
        match self.optimize(&mut p, |j| j < art_start) {
            Phase::Optimal => {}
            Phase::Unbounded => return LpOutcome::Unbounded,
            Phase::Stalled => return LpOutcome::Stalled,
        }
        let mut solution = vec![0.0; self.num_structural];
        let mut value = 0.0;
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                solution[b] = self.rhs(i);
                value += objective[b] * self.rhs(i);
            }
        }
        LpOutcome::Optimal { value, solution }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(outcome: LpOutcome) -> (f64, Vec<f64>) {
        match outcome {
            LpOutcome::Optimal { value, solution } => (value, solution),
            other => panic!("expected optimal, got {other}"),
        }
    }

    #[test]
    fn textbook_two_var() {
        let mut lp = Simplex::new(2);
        lp.set_objective(&[3.0, 5.0]);
        lp.add_le(&[1.0, 0.0], 4.0);
        lp.add_le(&[0.0, 2.0], 12.0);
        lp.add_le(&[3.0, 2.0], 18.0);
        let (value, x) = optimal(lp.solve());
        assert!((value - 36.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn a_solve_past_its_pivot_cap_stalls_instead_of_panicking() {
        let mut lp = Simplex::new(2);
        lp.set_objective(&[3.0, 5.0]);
        lp.add_le(&[1.0, 0.0], 4.0);
        lp.add_le(&[0.0, 2.0], 12.0);
        lp.add_le(&[3.0, 2.0], 18.0);
        let (_, needed) = lp.solve_counted();
        assert!(needed >= 2, "{needed}");
        assert_eq!(
            lp.solve_capped(needed - 1),
            (LpOutcome::Stalled, needed - 1)
        );
        // A phase-1 stall is reported the same way.
        let mut infeasible = Simplex::new(1);
        infeasible.add_le(&[1.0], 1.0);
        infeasible.add_ge(&[1.0], 2.0);
        assert_eq!(infeasible.solve_capped(0).0, LpOutcome::Stalled);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Simplex::new(1);
        lp.set_objective(&[1.0]);
        // x ≥ 3 only: unbounded above.
        lp.add_ge(&[1.0], 3.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Simplex::new(1);
        lp.set_objective(&[1.0]);
        lp.add_le(&[1.0], 1.0);
        lp.add_ge(&[1.0], 2.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints() {
        // max x + y  s.t.  x + y = 5, x ≤ 3.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_eq(&[1.0, 1.0], 5.0);
        lp.add_le(&[1.0, 0.0], 3.0);
        let (value, _) = optimal(lp.solve());
        assert!((value - 5.0).abs() < 1e-7);
    }

    #[test]
    fn bounds_helper() {
        let mut lp = Simplex::new(1);
        lp.set_objective(&[-1.0]); // minimize x via max −x
        lp.add_bounds(0, 2.0, 7.0);
        let (value, x) = optimal(lp.solve());
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((value + 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple constraints intersecting at the optimum.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_le(&[1.0, 1.0], 1.0);
        lp.add_le(&[1.0, 0.0], 1.0);
        lp.add_le(&[0.0, 1.0], 1.0);
        lp.add_le(&[2.0, 2.0], 2.0);
        let (value, _) = optimal(lp.solve());
        assert!((value - 1.0).abs() < 1e-7);
    }

    #[test]
    fn paper_style_tau_program() {
        // Section 7 form: max τ subject to the shift constraints
        //   τ·(−σ−1) ≤ k ≤ τ·(−σ)  with σ = −2   →  τ ≤ k ≤ 2τ
        // and the path-delay bound k ∈ [3.6, 4.0]:
        // feasible τ ∈ [2.0, 4.0]; maximum τ = 4.0 (k = 4).
        // Variables: x0 = τ, x1 = k.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[1.0, 0.0]);
        lp.add_le(&[1.0, -1.0], 0.0); // τ − k ≤ 0
        lp.add_ge(&[2.0, -1.0], 0.0); // 2τ − k ≥ 0
        lp.add_bounds(1, 3.6, 4.0);
        let (value, _) = optimal(lp.solve());
        assert!((value - 4.0).abs() < 1e-7, "got {value}");
    }

    #[test]
    fn zero_objective_feasible() {
        let mut lp = Simplex::new(2);
        lp.add_le(&[1.0, 1.0], 3.0);
        let (value, _) = optimal(lp.solve());
        assert_eq!(value, 0.0);
    }

    #[test]
    fn empty_program_is_optimal_zero() {
        let lp = Simplex::new(0);
        let (value, solution) = optimal(lp.solve());
        assert_eq!(value, 0.0);
        assert!(solution.is_empty());
    }

    #[test]
    fn redundant_equality_rows() {
        // x = 2 stated twice plus implied by two inequalities.
        let mut lp = Simplex::new(1);
        lp.set_objective(&[1.0]);
        lp.add_eq(&[1.0], 2.0);
        lp.add_eq(&[1.0], 2.0);
        let (value, x) = optimal(lp.solve());
        assert!((value - 2.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "objective width mismatch")]
    fn objective_width_checked() {
        let mut lp = Simplex::new(2);
        lp.set_objective(&[1.0]);
    }

    /// Adds the difference constraint `x_j − x_i ≤ c` (the shape of every
    /// setup/hold row in the clock-skew feasibility programs).
    fn add_diff(lp: &mut Simplex, j: usize, i: usize, c: f64) {
        let mut row = vec![0.0; lp.num_vars()];
        row[j] = 1.0;
        row[i] = -1.0;
        lp.add_le(&row, c);
    }

    #[test]
    fn skew_difference_system_feasible() {
        // Two registers + env node (index 2 pinned by bounds to [0, 0]):
        //   s0 − s1 ≤ −2  (setup: T − k_max = −2)
        //   s1 − s0 ≤  4  (setup of the return path)
        //   s1 − env ≤ 5, env − s1 ≤ 5  (|s1| bound, shifted encoding)
        // Feasible: s0 = 0, s1 ∈ [2, 4] after shifting.
        let mut lp = Simplex::new(3);
        lp.set_objective(&[0.0, 0.0, 0.0]);
        add_diff(&mut lp, 0, 1, -2.0);
        add_diff(&mut lp, 1, 0, 4.0);
        add_diff(&mut lp, 1, 2, 5.0);
        add_diff(&mut lp, 2, 1, 5.0);
        let (outcome, pivots) = lp.solve_counted();
        let (_, x) = optimal(outcome);
        assert!(x[1] - x[0] >= 2.0 - 1e-7, "setup row violated: {x:?}");
        assert!(x[1] - x[0] <= 4.0 + 1e-7);
        assert!(pivots > 0, "a feasibility pass must pivot at least once");
    }

    #[test]
    fn skew_negative_cycle_infeasible() {
        // s1 − s0 ≤ −3 together with s0 − s1 ≤ 1 sums to a −2 cycle: the
        // period is too short for any skew assignment.
        let mut lp = Simplex::new(2);
        add_diff(&mut lp, 1, 0, -3.0);
        add_diff(&mut lp, 0, 1, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn skew_without_bounds_unbounded() {
        // Hold rows alone never cap the skews from above: maximizing a skew
        // with only s0 − s1 ≤ 0 runs away. The optimizer always adds the
        // |s_i| ≤ B bound rows precisely to rule this out.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[0.0, 1.0]);
        add_diff(&mut lp, 0, 1, 0.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
        let mut bounded = Simplex::new(2);
        bounded.set_objective(&[0.0, 1.0]);
        add_diff(&mut bounded, 0, 1, 0.0);
        bounded.add_bounds(0, 0.0, 6.0);
        bounded.add_bounds(1, 0.0, 6.0);
        let (value, _) = optimal(bounded.solve());
        assert!((value - 6.0).abs() < 1e-7);
    }

    #[test]
    fn skew_degenerate_equality_cycle_terminates() {
        // A zero-weight cycle forces s1 − s0 = 2 exactly; stating it through
        // four redundant rows makes the optimum degenerate (several bases
        // describe the same vertex). Bland's rule must still terminate.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[1.0, 1.0]);
        add_diff(&mut lp, 1, 0, 2.0);
        add_diff(&mut lp, 0, 1, -2.0);
        add_diff(&mut lp, 1, 0, 2.0);
        add_diff(&mut lp, 0, 1, -2.0);
        lp.add_bounds(1, 0.0, 5.0);
        let (outcome, pivots) = lp.solve_counted();
        let (value, x) = optimal(outcome);
        assert!((x[1] - x[0] - 2.0).abs() < 1e-7, "cycle not tight: {x:?}");
        assert!((value - 8.0).abs() < 1e-7, "expected s = (3, 5), got {x:?}");
        assert!(pivots > 0);
    }

    #[test]
    fn negative_objective_coefficients() {
        // max −x − y s.t. x + y ≥ 1: optimum at value −1.
        let mut lp = Simplex::new(2);
        lp.set_objective(&[-1.0, -1.0]);
        lp.add_ge(&[1.0, 1.0], 1.0);
        let (value, x) = optimal(lp.solve());
        assert!((value + 1.0).abs() < 1e-7);
        assert!((x[0] + x[1] - 1.0).abs() < 1e-7);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mct_prng::SmallRng;

    fn random_lp(rng: &mut SmallRng) -> (Vec<f64>, Vec<(Vec<f64>, f64)>) {
        let nvars = 3usize;
        let obj: Vec<f64> = (0..nvars)
            .map(|_| rng.gen_range(-4..=4i64) as f64)
            .collect();
        let nrows = rng.gen_range(1..6usize);
        let rows = (0..nrows)
            .map(|_| {
                let a: Vec<f64> = (0..nvars)
                    .map(|_| rng.gen_range(-4..=4i64) as f64)
                    .collect();
                (a, rng.gen_range(0..=20i64) as f64)
            })
            .collect();
        (obj, rows)
    }

    /// Optimal solutions are feasible and at least as good as a grid of
    /// sampled feasible points.
    #[test]
    fn optimum_is_feasible_and_dominates_samples() {
        let mut rng = SmallRng::seed_from_u64(0x51_4c50);
        for case in 0..128 {
            let (obj, rows) = random_lp(&mut rng);
            let mut lp = Simplex::new(obj.len());
            lp.set_objective(&obj);
            for (a, b) in &rows {
                lp.add_le(a, *b);
            }
            match lp.solve() {
                LpOutcome::Optimal { value, solution } => {
                    // Feasibility of the returned point.
                    for (a, b) in &rows {
                        let lhs: f64 = a.iter().zip(&solution).map(|(c, x)| c * x).sum();
                        assert!(
                            lhs <= b + 1e-6,
                            "case {case}: violated row {a:?} ≤ {b}: lhs {lhs}"
                        );
                    }
                    assert!(solution.iter().all(|&x| x >= -1e-9));
                    let recomputed: f64 = obj.iter().zip(&solution).map(|(c, x)| c * x).sum();
                    assert!((recomputed - value).abs() < 1e-6);
                    // Grid sampling cannot beat the optimum.
                    for gx in 0..=4 {
                        for gy in 0..=4 {
                            for gz in 0..=4 {
                                let p = [gx as f64, gy as f64, gz as f64];
                                let feasible = rows.iter().all(|(a, b)| {
                                    a.iter().zip(&p).map(|(c, x)| c * x).sum::<f64>() <= b + 1e-9
                                });
                                if feasible {
                                    let v: f64 = obj.iter().zip(&p).map(|(c, x)| c * x).sum();
                                    assert!(
                                        v <= value + 1e-6,
                                        "case {case}: sample {p:?} (value {v}) beats \
                                         optimum {value}"
                                    );
                                }
                            }
                        }
                    }
                }
                LpOutcome::Infeasible => {
                    // The origin must then violate some row (all-zero rows
                    // with b ≥ 0 cannot make the program infeasible).
                    let origin_ok = rows.iter().all(|(_, b)| *b >= 0.0);
                    assert!(
                        !origin_ok,
                        "case {case}: claimed infeasible but x = 0 is feasible"
                    );
                }
                LpOutcome::Unbounded => {
                    // Plausible whenever some objective coefficient is
                    // positive; just require that it isn't the all-zero
                    // objective.
                    assert!(obj.iter().any(|&c| c > 0.0));
                }
                LpOutcome::Stalled => panic!("case {case}: a 3-variable program stalled"),
            }
        }
    }
}
