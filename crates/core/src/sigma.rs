//! The interval algebra of Section 7: shift sets, the Cartesian product
//! `Φ`, and feasibility of shift combinations.

use mct_lp::Rat;
use std::ops::ControlFlow;

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
        // Odometer increment.
        let cur = self.current.as_mut().expect("checked above");
        let mut i = 0;
        loop {
            if i == self.ranges.len() {
                self.current = None;
                break;
            }
            if cur[i] < self.ranges[i].hi {
                cur[i] += 1;
                break;
            }
            cur[i] = self.ranges[i].lo;
            i += 1;
        }
        Some(result)
    }
}

/// Callback of [`SigmaWalk::run`]: one visited leaf and the sup of its
/// closed-form τ range (`None`: unbounded above). `Break` ends the walk.
pub(crate) type LeafVisitor<'a, E> =
    &'a mut dyn FnMut(&[i64], Option<Rat>) -> Result<ControlFlow<()>, E>;

/// Backtracking prefix-tree walk over `Φ = Π_i [lo_i, hi_i]`.
///
/// Classes are assigned from the most-significant odometer digit (the last
/// index) down to index 0, children in increasing shift order, so leaves are
/// visited in **exactly** the [`SigmaIter`] order.
///
/// Every σ of `Φ(τ)` is closed-form feasible on the examined interval
/// `[τ, prev)`: each class's shift range is taken at τ itself, so
/// `k^min_i/σ_i ≤ τ` and, when `σ_i > 1`, `τ < k^max_i/(σ_i − 1)`. The
/// walk therefore cuts no subtree; it carries only the running sup
/// `min(prev, min_i k^max_i/(σ_i − 1))` down to each leaf, which is what
/// [`feasible_tau_range`] returns as the leaf's upper end, at one division
/// per tree node instead of one per class and leaf. The visitor may end
/// the walk early: the sweep stops a candidate's walk once its verdict is
/// settled.
pub(crate) struct SigmaWalk<'a> {
    ranges: &'a [ShiftRange],
    intervals: &'a [(i64, i64)],
    interval_hi: Option<Rat>,
}

impl<'a> SigmaWalk<'a> {
    /// Prepares a walk of `Φ` over the examined τ interval
    /// `[interval_lo, interval_hi)`, where `ranges` are the shift ranges at
    /// `interval_lo`.
    ///
    /// # Panics
    ///
    /// Panics if the examined interval is empty: the sweep's breakpoints
    /// strictly descend, so it never builds one.
    pub fn new(
        ranges: &'a [ShiftRange],
        intervals: &'a [(i64, i64)],
        interval_lo: Rat,
        interval_hi: Option<Rat>,
    ) -> Self {
        assert!(
            interval_hi.is_none_or(|h| interval_lo < h),
            "empty examined interval"
        );
        debug_assert_eq!(ranges.len(), intervals.len());
        SigmaWalk {
            ranges,
            intervals,
            interval_hi,
        }
    }

    /// Runs the walk: `visit` sees each σ in odometer order, with the sup
    /// of its closed-form τ range, until it returns `Break` or an error.
    pub fn run<E>(&self, visit: LeafVisitor<'_, E>) -> Result<(), E> {
        let mut sigma = vec![0i64; self.ranges.len()];
        self.rec(self.ranges.len(), self.interval_hi, &mut sigma, visit)
            .map(drop)
    }

    fn rec<E>(
        &self,
        j: usize,
        hi: Option<Rat>,
        sigma: &mut Vec<i64>,
        visit: LeafVisitor<'_, E>,
    ) -> Result<ControlFlow<()>, E> {
        if j == 0 {
            return visit(sigma, hi);
        }
        let r = self.ranges[j - 1];
        let k_max = self.intervals[j - 1].1;
        for s in r.lo..=r.hi {
            sigma[j - 1] = s;
            let c_hi = if s > 1 {
                let this_hi = Rat::new(k_max, s - 1);
                Some(hi.map_or(this_hi, |h| h.min(this_hi)))
            } else {
                hi
            };
            if self.rec(j - 1, c_hi, sigma, visit)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }
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

    /// One random walk input: class intervals, the examined interval
    /// `[tau, prev)`, and the shift ranges at `tau`.
    type Case = (Vec<(i64, i64)>, Rat, Option<Rat>, Vec<ShiftRange>);

    /// 200 seeded random cases of 1–4 classes.
    fn random_cases() -> Vec<Case> {
        let mut rng = mct_prng::SmallRng::seed_from_u64(0x51674a15);
        (0..200u64)
            .map(|_| {
                let n = rng.gen_range(1..5usize);
                let intervals: Vec<(i64, i64)> = (0..n)
                    .map(|_| {
                        let k_max = 250 * rng.gen_range(1..20i64);
                        let k_min = (k_max * rng.gen_range(5..11i64)) / 10;
                        (k_min, k_max)
                    })
                    .collect();
                let tau = Rat::new(250 * rng.gen_range(1..16i64), 1);
                let prev = if rng.gen_bool() {
                    None
                } else {
                    Some(tau + Rat::new(250 * rng.gen_range(1..8i64), 1))
                };
                let ranges: Vec<ShiftRange> = intervals
                    .iter()
                    .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
                    .collect();
                (intervals, tau, prev, ranges)
            })
            .collect()
    }

    /// Property: every σ of Φ(τ) is closed-form feasible on `[τ, prev)`,
    /// so the walk visits the whole flat enumeration in order, each leaf
    /// with the sup of [`feasible_tau_range`].
    #[test]
    fn every_sigma_of_phi_is_closed_form_feasible() {
        for (intervals, tau, prev, ranges) in random_cases() {
            let expected: Vec<(Vec<i64>, Option<Rat>)> = SigmaIter::new(&ranges)
                .map(|s| {
                    let (lo, hi) = feasible_tau_range(&s, &intervals, tau, prev)
                        .unwrap_or_else(|| panic!("{s:?} infeasible at τ {tau:?}"));
                    assert_eq!(lo, tau, "{s:?}");
                    (s, hi)
                })
                .collect();
            let mut seen = Vec::new();
            SigmaWalk::new(&ranges, &intervals, tau, prev)
                .run::<()>(&mut |s, hi| {
                    seen.push((s.to_vec(), hi));
                    Ok(ControlFlow::Continue(()))
                })
                .unwrap();
            assert_eq!(seen, expected, "ranges {ranges:?} τ {tau:?} prev {prev:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty examined interval")]
    fn empty_examined_interval_is_rejected() {
        let intervals = vec![(3600, 4000)];
        let tau = Rat::new(4000, 1);
        let ranges = vec![ShiftRange::at(3600, 4000, tau)];
        SigmaWalk::new(&ranges, &intervals, tau, Some(tau));
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
