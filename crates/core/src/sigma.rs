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

/// Running counters of a pruned Φ walk: how many subtrees were cut before
/// their combinations were generated, and how many combinations those
/// subtrees contained. Saturating — counts are diagnostics, never gates.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SigmaPruneStats {
    /// Subtrees (including single leaves) cut by a partial-assignment bound.
    pub subtrees: u64,
    /// Combinations contained in the cut subtrees.
    pub combos: u64,
}

impl SigmaPruneStats {
    fn record(&mut self, combos: u128) {
        self.subtrees = self.subtrees.saturating_add(1);
        self.combos = self
            .combos
            .saturating_add(combos.min(u64::MAX as u128) as u64);
    }
}

/// Smallest subtree (in leaves) worth an external-oracle probe: one probe
/// costs about one leaf-level feasibility check, so cutting a single leaf
/// can never win.
const ORACLE_MIN_SUBTREE: u128 = 2;

/// Callback of [`SigmaWalk::run`]: one visited leaf and its closed-form τ
/// range; `Ok(false)` stops the walk.
pub(crate) type LeafVisitor<'a, E> = &'a mut dyn FnMut(&[i64], TauRange) -> Result<bool, E>;

/// Backtracking prefix-tree walk over `Φ = Π_i [lo_i, hi_i]`.
///
/// Classes are assigned from the most-significant odometer digit (the last
/// index) down to index 0, children in increasing shift order, so leaves are
/// visited in **exactly** the [`SigmaIter`] order — a pruned walk emits a
/// subsequence of the flat enumeration, never a reordering.
///
/// With pruning enabled, every internal node carries the running
/// closed-form τ bound of its partial assignment (the per-class constraints
/// of [`feasible_tau_range`] over the assigned suffix) combined with a
/// precomputed *hull* over the still-unassigned prefix: class `i` can
/// contribute at best `τ ≥ k^min_i / hi_i` and (when even its smallest
/// shift exceeds 1) at best `τ < k^max_i / (lo_i − 1)`. When the combined
/// interval is empty, **no** completion of the partial assignment is
/// feasible and the whole subtree is cut — at a leaf the combined bound
/// degenerates to `feasible_tau_range` itself, so the surviving leaves are
/// precisely the closed-form-feasible subset. Every visited leaf is handed
/// that running bound, so callers never recompute the closed form.
///
/// The walk can be restricted to a window `[start, end)` of odometer
/// ordinals (digit 0 has weight 1), which is how the worker pool splits one
/// candidate's tree into deterministic chunks. Window exclusion is not
/// pruning and is not counted.
///
/// The external oracle is only consulted where a cut can pay for itself:
/// at internal nodes whose subtree holds at least [`ORACLE_MIN_SUBTREE`]
/// leaves. One oracle call costs about one leaf-level feasibility check, so
/// probing a weight-1 subtree can never win — the leaf below is checked
/// individually either way. Skipping the probe leaves the visited sequence
/// (and the serialized report) unchanged; only the diagnostic prune
/// counters shift.
pub(crate) struct SigmaWalk<'a> {
    ranges: &'a [ShiftRange],
    intervals: &'a [(i64, i64)],
    interval_lo: Rat,
    interval_hi: Option<Rat>,
    window: (u128, u128),
    prune: bool,
    /// `weights[j] = Π_{i<j} len_i` — the subtree size at depth `j`.
    weights: Vec<u128>,
    /// Best-case lower bound contributed by the unassigned classes `0..j`.
    hull_lo: Vec<Rat>,
    /// Best-case upper bound contributed by the unassigned classes `0..j`.
    hull_hi: Vec<Option<Rat>>,
}

impl<'a> SigmaWalk<'a> {
    /// Prepares a walk of `Φ` over the examined τ interval
    /// `[interval_lo, interval_hi)`. With `prune` false the walk visits
    /// every combination (the flat odometer through a different engine).
    pub fn new(
        ranges: &'a [ShiftRange],
        intervals: &'a [(i64, i64)],
        interval_lo: Rat,
        interval_hi: Option<Rat>,
        prune: bool,
    ) -> Self {
        debug_assert_eq!(ranges.len(), intervals.len());
        let n = ranges.len();
        let mut weights = vec![1u128; n + 1];
        for j in 0..n {
            weights[j + 1] = weights[j].saturating_mul(ranges[j].len() as u128);
        }
        let mut hull_lo = vec![interval_lo; n + 1];
        let mut hull_hi = vec![interval_hi; n + 1];
        for j in 1..=n {
            let (k_min, k_max) = intervals[j - 1];
            let r = ranges[j - 1];
            // Weakest lower bound: the largest shift divides k_min least.
            let lo = Rat::new(k_min, r.hi).max(hull_lo[j - 1]);
            hull_lo[j] = lo;
            // Weakest upper bound: absent when σ_i = 1 is available,
            // otherwise attained at the smallest shift.
            hull_hi[j] = if r.lo > 1 {
                let c = Rat::new(k_max, r.lo - 1);
                Some(match hull_hi[j - 1] {
                    None => c,
                    Some(h) => h.min(c),
                })
            } else {
                hull_hi[j - 1]
            };
        }
        SigmaWalk {
            ranges,
            intervals,
            interval_lo,
            interval_hi,
            window: (0, u128::MAX),
            prune,
            weights,
            hull_lo,
            hull_hi,
        }
    }

    /// Restricts the walk to odometer ordinals in `[start, end)`.
    pub fn window(mut self, start: u128, end: u128) -> Self {
        self.window = (start, end);
        self
    }

    /// Runs the walk. `subtree_infeasible(partial, j)` is an additional
    /// *sound* oracle consulted at internal nodes that survive the closed
    /// form (the LP suffix relaxation): `partial` is the assigned suffix
    /// `σ[j..]`; returning true certifies every completion infeasible.
    /// `visit` sees each surviving leaf in odometer order, with its running
    /// closed-form τ range `(lo, hi)` — what [`feasible_tau_range`] returns
    /// for the leaf, or an empty range (`hi ≤ lo`) where that is `None`,
    /// which only an unpruned walk visits — and returns `Ok(false)` to stop
    /// the walk early.
    pub fn run<E>(
        &self,
        stats: &mut SigmaPruneStats,
        subtree_infeasible: &mut dyn FnMut(&[i64], usize) -> bool,
        visit: LeafVisitor<'_, E>,
    ) -> Result<bool, E> {
        let mut sigma = vec![0i64; self.ranges.len()];
        self.rec(
            self.ranges.len(),
            0,
            self.interval_lo,
            self.interval_hi,
            &mut sigma,
            stats,
            subtree_infeasible,
            visit,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn rec<E>(
        &self,
        j: usize,
        base: u128,
        lo: Rat,
        hi: Option<Rat>,
        sigma: &mut Vec<i64>,
        stats: &mut SigmaPruneStats,
        subtree_infeasible: &mut dyn FnMut(&[i64], usize) -> bool,
        visit: LeafVisitor<'_, E>,
    ) -> Result<bool, E> {
        let w = self.weights[j];
        let (ws, we) = self.window;
        let end = base.saturating_add(w);
        if base >= we || end <= ws {
            return Ok(true); // Outside the window — someone else's chunk.
        }
        if self.prune {
            let eff_lo = lo.max(self.hull_lo[j]);
            let eff_hi = match (hi, self.hull_hi[j]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let n = self.ranges.len();
            let cut = matches!(eff_hi, Some(h) if eff_lo >= h)
                || (j > 0
                    && j < n
                    && w >= ORACLE_MIN_SUBTREE
                    && subtree_infeasible(&sigma[j..], j));
            if cut {
                // Count only the window's share, so chunked counters sum to
                // (about) the unchunked total instead of multi-counting.
                stats.record(end.min(we) - base.max(ws));
                return Ok(true);
            }
        }
        if j == 0 {
            return visit(sigma, (lo, hi));
        }
        let r = self.ranges[j - 1];
        let (k_min, k_max) = self.intervals[j - 1];
        for (t, s) in (r.lo..=r.hi).enumerate() {
            sigma[j - 1] = s;
            let c_lo = Rat::new(k_min, s).max(lo);
            let c_hi = if s > 1 {
                let this_hi = Rat::new(k_max, s - 1);
                Some(match hi {
                    None => this_hi,
                    Some(h) => h.min(this_hi),
                })
            } else {
                hi
            };
            let child_base = base + t as u128 * self.weights[j - 1];
            if !self.rec(
                j - 1,
                child_base,
                c_lo,
                c_hi,
                sigma,
                stats,
                subtree_infeasible,
                visit,
            )? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A τ range `(lo, hi)`: `lo` inclusive, `hi` exclusive (`None` means
/// unbounded above).
pub(crate) type TauRange = (Rat, Option<Rat>);

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

    /// The flat reference: enumerate with [`SigmaIter`] and keep the
    /// closed-form-feasible subset.
    fn flat_feasible(
        ranges: &[ShiftRange],
        intervals: &[(i64, i64)],
        lo: Rat,
        hi: Option<Rat>,
    ) -> Vec<Vec<i64>> {
        SigmaIter::new(ranges)
            .filter(|s| feasible_tau_range(s, intervals, lo, hi).is_some())
            .collect()
    }

    /// The bound a walk hands a leaf is the leaf's closed-form τ range:
    /// empty exactly where [`feasible_tau_range`] is `None`, equal to it
    /// otherwise. Returns whether the bound was empty.
    fn check_leaf_bound(
        sigma: &[i64],
        bound: TauRange,
        intervals: &[(i64, i64)],
        lo: Rat,
        hi: Option<Rat>,
    ) -> bool {
        let empty = bound.1.is_some_and(|h| bound.0 >= h);
        match feasible_tau_range(sigma, intervals, lo, hi) {
            None => assert!(empty, "{sigma:?}: {bound:?} for an infeasible leaf"),
            Some(range) => assert_eq!(bound, range, "{sigma:?}"),
        }
        empty
    }

    fn pruned_visited(
        ranges: &[ShiftRange],
        intervals: &[(i64, i64)],
        lo: Rat,
        hi: Option<Rat>,
    ) -> (Vec<Vec<i64>>, SigmaPruneStats) {
        let mut stats = SigmaPruneStats::default();
        let mut seen = Vec::new();
        let walk = SigmaWalk::new(ranges, intervals, lo, hi, true);
        walk.run::<()>(&mut stats, &mut |_, _| false, &mut |s, bound| {
            assert!(!check_leaf_bound(s, bound, intervals, lo, hi));
            seen.push(s.to_vec());
            Ok(true)
        })
        .unwrap();
        // The pruned walk itself must already skip every infeasible leaf.
        for s in &seen {
            assert!(
                feasible_tau_range(s, intervals, lo, hi).is_some(),
                "visited infeasible {s:?}"
            );
        }
        (seen, stats)
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

    /// Property: the pruned prefix-tree walk visits exactly the
    /// closed-form-feasible subset of the full enumeration, in the same
    /// order, over seeded random range vectors, handing each leaf its
    /// closed-form τ range.
    #[test]
    fn pruned_walk_equals_filtered_flat_enumeration() {
        for (intervals, tau, prev, ranges) in random_cases() {
            let flat = flat_feasible(&ranges, &intervals, tau, prev);
            let (pruned, stats) = pruned_visited(&ranges, &intervals, tau, prev);
            assert_eq!(flat, pruned, "ranges {ranges:?} τ {tau:?} prev {prev:?}");
            let total = SigmaIter::combination_count(&ranges);
            assert_eq!(
                total,
                pruned.len() as u128 + stats.combos as u128,
                "every combination is either visited or counted pruned"
            );
        }
    }

    #[test]
    fn pruned_walk_all_singletons() {
        // Fixed delays: every range is a singleton; the only combination is
        // feasible on its own breakpoint interval and nothing is pruned.
        let intervals = vec![(4000, 4000), (2000, 2000)];
        let tau = Rat::new(2000, 1);
        let ranges: Vec<ShiftRange> = intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
            .collect();
        assert!(ranges.iter().all(|r| r.is_singleton()));
        let flat = flat_feasible(&ranges, &intervals, tau, None);
        let (pruned, stats) = pruned_visited(&ranges, &intervals, tau, None);
        assert_eq!(flat, pruned);
        assert_eq!(stats, SigmaPruneStats::default());
    }

    #[test]
    fn pruned_walk_cuts_deliberately_infeasible_product() {
        // Examined interval [4000, 4000): empty, so every combination is
        // infeasible — the walk must visit nothing and cut at the root
        // (one subtree holding the whole product).
        let intervals = vec![(3600, 4000), (3600, 4000)];
        let tau = Rat::new(4000, 1);
        let ranges: Vec<ShiftRange> = intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
            .collect();
        let (pruned, stats) = pruned_visited(&ranges, &intervals, tau, Some(tau));
        assert!(pruned.is_empty());
        assert_eq!(stats.subtrees, 1);
        assert_eq!(stats.combos as u128, SigmaIter::combination_count(&ranges));
    }

    #[test]
    fn windowed_walks_partition_the_enumeration() {
        // Chunked windows concatenate to the full walk, and per-chunk
        // pruned-combination counts sum to the unchunked total.
        let intervals = vec![(500, 1000), (1000, 2000), (2500, 5000)];
        let tau = Rat::new(400, 1);
        let prev = Some(Rat::new(500, 1));
        let ranges: Vec<ShiftRange> = intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
            .collect();
        let total = SigmaIter::combination_count(&ranges);
        assert!(total > 4, "{total}");
        let (full, full_stats) = pruned_visited(&ranges, &intervals, tau, prev);
        for chunks in [2u128, 3, 5] {
            let mut cat = Vec::new();
            let mut combos = 0u64;
            for k in 0..chunks {
                let (ws, we) = (total * k / chunks, total * (k + 1) / chunks);
                let mut stats = SigmaPruneStats::default();
                let walk = SigmaWalk::new(&ranges, &intervals, tau, prev, true).window(ws, we);
                walk.run::<()>(&mut stats, &mut |_, _| false, &mut |s, _| {
                    cat.push(s.to_vec());
                    Ok(true)
                })
                .unwrap();
                combos += stats.combos;
            }
            assert_eq!(cat, full, "chunks {chunks}");
            assert_eq!(combos, full_stats.combos, "chunks {chunks}");
        }
    }

    /// The unpruned walk visits every combination in odometer order, each
    /// with its closed-form τ range — empty on the infeasible leaves it
    /// visits too.
    #[test]
    fn unpruned_walk_is_the_flat_odometer() {
        let case = |intervals: Vec<(i64, i64)>, tau: i64, prev: Option<i64>| -> Case {
            let tau = Rat::new(tau, 1);
            let ranges = intervals
                .iter()
                .map(|&(lo, hi)| ShiftRange::at(lo, hi, tau))
                .collect();
            (intervals, tau, prev.map(|p| Rat::new(p, 1)), ranges)
        };
        let mut cases = random_cases();
        cases.push(case(vec![(900, 1000), (2700, 3000)], 600, None));
        // Shift ranges taken at τ hold τ itself, so only an empty examined
        // interval makes leaves infeasible: here every one is.
        cases.push(case(vec![(3600, 4000), (3600, 4000)], 4000, Some(4000)));
        let mut empty = [0usize; 2];
        for (intervals, tau, prev, ranges) in cases {
            let flat: Vec<Vec<i64>> = SigmaIter::new(&ranges).collect();
            let mut seen = Vec::new();
            let mut stats = SigmaPruneStats::default();
            SigmaWalk::new(&ranges, &intervals, tau, prev, false)
                .run::<()>(&mut stats, &mut |_, _| false, &mut |s, bound| {
                    empty[check_leaf_bound(s, bound, &intervals, tau, prev) as usize] += 1;
                    seen.push(s.to_vec());
                    Ok(true)
                })
                .unwrap();
            assert_eq!(flat, seen);
            assert_eq!(stats, SigmaPruneStats::default());
        }
        // Both kinds of leaf occur.
        assert!(empty.iter().all(|&n| n > 0), "{empty:?}");
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
