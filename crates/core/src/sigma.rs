//! The interval algebra of Section 7: shift sets, the Cartesian product
//! `Φ`, and feasibility of shift combinations.

use mct_lp::Rat;

/// The inclusive range of shifts a delay class can take on a τ interval:
/// `⌊−I_k/τ⌋` as an integer range `[⌈k^min/τ⌉, ⌈k^max/τ⌉]` (clamped to at
/// least 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShiftRange {
    /// Smallest possible shift.
    pub lo: i64,
    /// Largest possible shift.
    pub hi: i64,
}

impl ShiftRange {
    /// The shift set of a class with delay interval `[k_min, k_max]`
    /// (milli-units) at period `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive or `k_min > k_max`.
    pub fn at(k_min: i64, k_max: i64, tau: Rat) -> Self {
        assert!(k_min <= k_max, "inverted delay interval");
        let lo = tau.ceil_div_int(k_min).max(1);
        let hi = tau.ceil_div_int(k_max).max(1);
        ShiftRange { lo, hi }
    }

    /// Number of shifts in the range.
    pub fn len(self) -> usize {
        (self.hi - self.lo + 1) as usize
    }

    /// Always false: well-formed ranges contain at least one shift.
    pub fn is_empty(self) -> bool {
        false
    }

    /// Whether the range is a single shift (the common case with fixed
    /// delays).
    pub fn is_singleton(self) -> bool {
        self.lo == self.hi
    }
}

/// Odometer iterator over `Φ = Π_i [lo_i, hi_i]` — every combination of
/// class shifts on one τ interval.
///
/// # Examples
///
/// ```
/// use mct_core::{ShiftRange, SigmaIter};
/// let ranges = vec![
///     ShiftRange { lo: 1, hi: 2 },
///     ShiftRange { lo: 3, hi: 3 },
/// ];
/// let all: Vec<Vec<i64>> = SigmaIter::new(&ranges).collect();
/// assert_eq!(all, vec![vec![1, 3], vec![2, 3]]);
/// ```
#[derive(Clone, Debug)]
pub struct SigmaIter {
    ranges: Vec<ShiftRange>,
    current: Option<Vec<i64>>,
}

impl SigmaIter {
    /// Creates the product iterator (a single empty combination when
    /// `ranges` is empty).
    pub fn new(ranges: &[ShiftRange]) -> Self {
        let current = Some(ranges.iter().map(|r| r.lo).collect());
        SigmaIter {
            ranges: ranges.to_vec(),
            current,
        }
    }

    /// Total number of combinations `|Φ|`, saturating at `u128::MAX`.
    ///
    /// Wide delay intervals on many classes overflow 64-bit arithmetic
    /// (thirteen classes of a thousand shifts each already exceed
    /// `u64::MAX`), so the product is taken in checked `u128` math: an
    /// overflowing product saturates — it never wraps around to a small
    /// value that would slip past the σ-explosion cap.
    pub fn combination_count(ranges: &[ShiftRange]) -> u128 {
        ranges
            .iter()
            .map(|r| r.len() as u128)
            .try_fold(1u128, |acc, n| acc.checked_mul(n))
            .unwrap_or(u128::MAX)
    }

    /// Number of combinations in both `Π a_i` and `Π b_i`: the product over
    /// classes of the two ranges' overlap, saturating like
    /// [`combination_count`](Self::combination_count).
    pub(crate) fn shared_count(a: &[ShiftRange], b: &[ShiftRange]) -> u128 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x.hi.min(y.hi) - x.lo.max(y.lo) + 1).max(0) as u128)
            .try_fold(1u128, |acc, n| acc.checked_mul(n))
            .unwrap_or(u128::MAX)
    }
}

impl Iterator for SigmaIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let result = self.current.clone()?;
        let cur = self.current.as_mut().expect("checked above");
        if !next_sigma(cur, &self.ranges) {
            self.current = None;
        }
        Some(result)
    }
}

/// Steps `sigma` to the next combination of `Φ = Π_i ranges[i]` in
/// odometer order, index 0 the least-significant digit: the
/// [`SigmaIter`] order, in place. Returns false after the last
/// combination.
pub(crate) fn next_sigma(sigma: &mut [i64], ranges: &[ShiftRange]) -> bool {
    for (s, r) in sigma.iter_mut().zip(ranges) {
        if *s < r.hi {
            *s += 1;
            return true;
        }
        *s = r.lo;
    }
    false
}

/// The feasible τ range of a shift combination `σ` under independent
/// per-class delay intervals: the intersection over classes of
/// `[k^min_i/σ_i, k^max_i/(σ_i − 1))`, intersected with the examined
/// interval `[interval_lo, interval_hi)`.
///
/// Returns `Some((lo, hi))` with `lo` inclusive and `hi` exclusive
/// (`hi = None` means unbounded above, which only happens when the caller's
/// interval is unbounded), or `None` when infeasible.
pub fn feasible_tau_range(
    sigma: &[i64],
    intervals: &[(i64, i64)],
    interval_lo: Rat,
    interval_hi: Option<Rat>,
) -> Option<(Rat, Option<Rat>)> {
    debug_assert_eq!(sigma.len(), intervals.len());
    let mut lo = interval_lo;
    let mut hi = interval_hi;
    for (&s, &(k_min, k_max)) in sigma.iter().zip(intervals) {
        debug_assert!(s >= 1);
        // τ ≥ k_min / σ  (so that some k ≤ στ exists in the interval).
        let this_lo = Rat::new(k_min, s);
        if this_lo > lo {
            lo = this_lo;
        }
        // τ < k_max / (σ − 1)  (so that some k > (σ−1)τ exists).
        if s > 1 {
            let this_hi = Rat::new(k_max, s - 1);
            hi = Some(match hi {
                None => this_hi,
                Some(h) => h.min(this_hi),
            });
        }
    }
    match hi {
        Some(h) if lo >= h => None,
        _ => Some((lo, hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::skewed_k_min;
    use crate::BreakpointIter;
    use mct_tbf::DelayClass;

    #[test]
    fn shift_range_fixed_delay_is_singleton() {
        let r = ShiftRange::at(4000, 4000, Rat::new(2500, 1));
        assert_eq!(r, ShiftRange { lo: 2, hi: 2 });
        assert!(r.is_singleton());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn shift_range_with_variation_widens_at_breakpoint() {
        // k ∈ [3600, 4000] at τ = 3800: ⌈3600/3800⌉ = 1, ⌈4000/3800⌉ = 2.
        let r = ShiftRange::at(3600, 4000, Rat::new(3800, 1));
        assert_eq!(r, ShiftRange { lo: 1, hi: 2 });
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn shift_range_clamps_zero_delay() {
        let r = ShiftRange::at(0, 0, Rat::new(1000, 1));
        assert_eq!(r, ShiftRange { lo: 1, hi: 1 });
    }

    #[test]
    fn sigma_iter_covers_product() {
        let ranges = vec![ShiftRange { lo: 1, hi: 2 }, ShiftRange { lo: 1, hi: 3 }];
        let all: Vec<Vec<i64>> = SigmaIter::new(&ranges).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(SigmaIter::combination_count(&ranges), 6);
        assert!(all.contains(&vec![2, 3]));
        assert!(all.contains(&vec![1, 1]));
        // No duplicates.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn sigma_iter_empty_ranges() {
        let all: Vec<Vec<i64>> = SigmaIter::new(&[]).collect();
        assert_eq!(all, vec![Vec::<i64>::new()]);
    }

    #[test]
    fn feasibility_basic() {
        // One class k ∈ [3600, 4000], σ = 2: τ ∈ [1800, 4000).
        let r = feasible_tau_range(&[2], &[(3600, 4000)], Rat::new(1000, 1), None);
        assert_eq!(r, Some((Rat::new(1800, 1), Some(Rat::new(4000, 1)))));
        // σ = 1: τ ≥ 3600, no upper bound from the class.
        let r = feasible_tau_range(&[1], &[(3600, 4000)], Rat::new(1000, 1), None);
        assert_eq!(r, Some((Rat::new(3600, 1), None)));
    }

    #[test]
    fn feasibility_infeasible_combination() {
        // Two identical classes with contradictory shifts: σ = (1, 3) on
        // k ∈ [4000, 4000]: σ=1 needs τ ≥ 4000; σ=3 needs τ < 2000.
        let r = feasible_tau_range(&[1, 3], &[(4000, 4000), (4000, 4000)], Rat::new(1, 1), None);
        assert_eq!(r, None);
    }

    #[test]
    fn feasibility_respects_examined_interval() {
        // σ = 2 on k = 4000 is feasible for τ ∈ [2000, 4000); clipped to
        // the examined interval [2500, 3000).
        let r = feasible_tau_range(
            &[2],
            &[(4000, 4000)],
            Rat::new(2500, 1),
            Some(Rat::new(3000, 1)),
        );
        assert_eq!(r, Some((Rat::new(2500, 1), Some(Rat::new(3000, 1)))));
        // And infeasible when the interval lies outside the class range.
        let r = feasible_tau_range(
            &[2],
            &[(4000, 4000)],
            Rat::new(4000, 1),
            Some(Rat::new(4100, 1)),
        );
        assert_eq!(r, None);
    }

    #[test]
    fn combination_count_is_exact_past_u64() {
        // 5 classes of 2^13 shifts each: 2^65 combinations — wraps a u64
        // product, exact in u128.
        let ranges = vec![ShiftRange { lo: 1, hi: 1 << 13 }; 5];
        assert_eq!(SigmaIter::combination_count(&ranges), 1u128 << 65);
    }

    #[test]
    fn combination_count_saturates_instead_of_wrapping() {
        // 2^13 shifts on 10 classes = 2^130 > u128::MAX: the product must
        // saturate (so it still trips the σ-explosion cap) rather than wrap
        // to a small even number.
        let ranges = vec![ShiftRange { lo: 1, hi: 1 << 13 }; 10];
        assert_eq!(SigmaIter::combination_count(&ranges), u128::MAX);
    }

    /// Property: on every interval `[τ, prev)` a sweep examines, `τ` and
    /// `prev` consecutive breakpoints of the classes' delays, every σ of
    /// Φ(τ) has the closed-form τ range `[τ, prev)` exactly: each class's
    /// shift range is taken at τ, and each `k_i^max/(σ_i − 1)` with
    /// `σ_i > 1` is itself a breakpoint above τ. So a failing σ's
    /// closed-form sup is the interval's upper end. Over seeded random
    /// classes, zero-delay and skewed ones among them.
    #[test]
    fn every_sigma_of_phi_spans_its_examined_interval() {
        let mut rng = mct_prng::SmallRng::seed_from_u64(0x51674a15);
        let mut checked = 0u64;
        for case in 0..200 {
            let n = rng.gen_range(1..5usize);
            let intervals: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..4u32) == 0 {
                        return (0, 0);
                    }
                    let delay = 250 * rng.gen_range(1..20i64);
                    let class = DelayClass {
                        leaf: 0,
                        delay,
                        skew_offset: if rng.gen_bool() {
                            rng.gen_range(-delay / 2..=delay / 2)
                        } else {
                            0
                        },
                        path: Vec::new(),
                    };
                    let variation = (rng.gen_range(5..11i64), 10);
                    (skewed_k_min(&class, Some(variation)), delay)
                })
                .collect();
            let l = intervals.iter().map(|c| c.1).max().unwrap_or(0);
            let delays: Vec<i64> = intervals.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
            let floor = Rat::new(l.max(1), rng.gen_range(2..9i64));
            let mut prev = None;
            for tau in BreakpointIter::new(&delays, floor) {
                let ranges: Vec<ShiftRange> = intervals
                    .iter()
                    .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
                    .collect();
                for sigma in SigmaIter::new(&ranges) {
                    assert_eq!(
                        feasible_tau_range(&sigma, &intervals, tau, prev),
                        Some((tau, prev)),
                        "case {case}: classes {intervals:?}, σ {sigma:?}"
                    );
                    checked += 1;
                }
                prev = Some(tau);
            }
        }
        assert!(checked > 5_000, "{checked} σ checked");
    }

    #[test]
    fn next_sigma_steps_in_sigma_iter_order() {
        let ranges = [
            ShiftRange { lo: 1, hi: 2 },
            ShiftRange { lo: 3, hi: 3 },
            ShiftRange { lo: 2, hi: 4 },
        ];
        let mut sigma: Vec<i64> = ranges.iter().map(|r| r.lo).collect();
        let mut stepped = vec![sigma.clone()];
        while next_sigma(&mut sigma, &ranges) {
            stepped.push(sigma.clone());
        }
        assert_eq!(stepped, SigmaIter::new(&ranges).collect::<Vec<_>>());
        assert!(!next_sigma(&mut [], &[]));
    }

    #[test]
    fn touching_bounds_are_infeasible() {
        // lo == hi (exclusive) → empty.
        let r = feasible_tau_range(
            &[2],
            &[(4000, 4000)],
            Rat::new(4000, 1),
            Some(Rat::new(4000, 1)),
        );
        assert_eq!(r, None);
    }
}
