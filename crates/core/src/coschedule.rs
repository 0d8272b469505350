//! Coschedules: multisets of job types running simultaneously.

use std::fmt;
use std::ops::RangeInclusive;

/// A coschedule — the multiset of job types occupying the machine's
/// hardware contexts at one instant.
///
/// Internally a count vector: `counts()[b]` is how many jobs of type `b`
/// run. For a 4-context machine and workload `ABCD`, the 35 possible
/// coschedules range from `AAAA` to `DDDD` (combinations with repetition,
/// Section V-A of the paper).
///
/// # Examples
///
/// ```
/// use symbiosis::Coschedule;
///
/// let s = Coschedule::from_slots(&[0, 0, 2, 1], 4);
/// assert_eq!(s.counts(), &[2, 1, 1, 0]);
/// assert_eq!(s.size(), 4);
/// assert_eq!(s.heterogeneity(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coschedule {
    counts: Vec<u32>,
}

impl Coschedule {
    /// Builds a coschedule from per-type counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or sums to zero.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        assert!(!counts.is_empty(), "coschedule needs at least one type");
        assert!(
            counts.iter().any(|&c| c > 0),
            "coschedule must contain at least one job"
        );
        Coschedule { counts }
    }

    /// Builds a coschedule from the job type in each hardware context.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or references a type `>= num_types`.
    pub fn from_slots(slots: &[usize], num_types: usize) -> Self {
        assert!(
            !slots.is_empty(),
            "coschedule must contain at least one job"
        );
        let mut counts = vec![0u32; num_types];
        for &t in slots {
            assert!(
                t < num_types,
                "type {t} out of range (num_types {num_types})"
            );
            counts[t] += 1;
        }
        Coschedule { counts }
    }

    /// Per-type job counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of job types this coschedule is defined over.
    pub fn num_types(&self) -> usize {
        self.counts.len()
    }

    /// Total number of jobs (must equal the machine's context count).
    pub fn size(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Number of *distinct* job types present (Table II's "coschedule
    /// heterogeneity").
    pub fn heterogeneity(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Number of jobs of type `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= num_types`.
    pub fn count(&self, b: usize) -> u32 {
        self.counts[b]
    }

    /// Expands to a sorted slot list (`[0, 0, 2, 1]` -> `[0, 0, 1, 2]`).
    pub fn slots(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.size() as usize);
        for (t, &c) in self.counts.iter().enumerate() {
            for _ in 0..c {
                slots.push(t);
            }
        }
        slots
    }

    /// Returns the coschedule obtained by replacing one job of type `from`
    /// with one of type `to`, or `None` if no `from` job is present.
    pub fn replace(&self, from: usize, to: usize) -> Option<Coschedule> {
        if self.counts.get(from).copied().unwrap_or(0) == 0 || to >= self.num_types() {
            return None;
        }
        let mut counts = self.counts.clone();
        counts[from] -= 1;
        counts[to] += 1;
        Some(Coschedule { counts })
    }
}

impl fmt::Display for Coschedule {
    /// Displays as letters, e.g. `AABD` for counts `[2, 1, 0, 1]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, &c) in self.counts.iter().enumerate() {
            for _ in 0..c {
                let ch = if t < 26 {
                    (b'A' + t as u8) as char
                } else {
                    '?'
                };
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// Enumerates every coschedule of `k` jobs over `num_types` job types
/// (combinations with repetition), in lexicographic count order.
///
/// # Examples
///
/// ```
/// // 4 types on 4 contexts: C(4+4-1, 4) = 35 coschedules (Section V-A).
/// let all = symbiosis::enumerate_coschedules(4, 4);
/// assert_eq!(all.len(), 35);
/// ```
///
/// # Panics
///
/// Panics if `num_types == 0` or `k == 0`.
pub fn enumerate_coschedules(num_types: usize, k: usize) -> Vec<Coschedule> {
    CoscheduleIter::new(num_types, k).collect()
}

/// Streaming coschedule enumeration: yields the same sequence as
/// [`enumerate_coschedules`] (count vectors in descending lexicographic
/// order) one coschedule at a time, without materialising the full list.
///
/// At N = 12 job types on K = 8 contexts the full enumeration is
/// `C(19, 8)` = 75 582 coschedules; the big-machine solvers and the
/// `workloads` table sweep iterate that space, and this iterator lets them
/// do so in constant memory (one count vector of successor state).
///
/// # Examples
///
/// ```
/// use symbiosis::{enumerate_coschedules, CoscheduleIter};
///
/// let streamed: Vec<_> = CoscheduleIter::new(4, 4).collect();
/// assert_eq!(streamed, enumerate_coschedules(4, 4));
/// assert_eq!(CoscheduleIter::new(12, 8).count(), 75_582);
/// ```
#[derive(Debug, Clone)]
pub struct CoscheduleIter {
    /// Successor state: the next count vector to yield, or `None` when the
    /// sequence is exhausted.
    counts: Option<Vec<u32>>,
}

impl CoscheduleIter {
    /// Starts the enumeration of `k`-job coschedules over `num_types` types.
    ///
    /// # Panics
    ///
    /// Panics if `num_types == 0` or `k == 0`.
    pub fn new(num_types: usize, k: usize) -> Self {
        assert!(num_types > 0, "need at least one job type");
        assert!(k > 0, "need at least one context");
        let mut counts = vec![0u32; num_types];
        counts[0] = k as u32;
        CoscheduleIter {
            counts: Some(counts),
        }
    }

    /// Total number of coschedules in the sequence: `C(n + k - 1, k)`
    /// multisets of size `k` over `n` types (saturating at `usize::MAX`).
    pub fn count_total(num_types: usize, k: usize) -> usize {
        // C(n + k - 1, k) computed incrementally to postpone overflow.
        let mut total: u128 = 1;
        for i in 0..k {
            total = total * (num_types as u128 + i as u128) / (i as u128 + 1);
            if total > usize::MAX as u128 {
                return usize::MAX;
            }
        }
        total as usize
    }

    /// Advances `counts` to its lexicographic successor (descending count
    /// order); returns `false` when the sequence is exhausted.
    pub(crate) fn advance(counts: &mut [u32]) -> bool {
        let n = counts.len();
        // Find the rightmost position before the last with a job to move.
        let Some(i) = (0..n - 1).rev().find(|&i| counts[i] > 0) else {
            return false; // everything sits in the last bucket: done
        };
        counts[i] -= 1;
        // The moved job plus everything right of i re-packs into i+1.
        let tail: u32 = 1 + counts[i + 1..].iter().sum::<u32>();
        for c in &mut counts[i + 1..] {
            *c = 0;
        }
        counts[i + 1] = tail;
        true
    }
}

impl Iterator for CoscheduleIter {
    type Item = Coschedule;

    fn next(&mut self) -> Option<Coschedule> {
        let counts = self.counts.as_mut()?;
        let item = Coschedule::from_counts(counts.clone());
        if !Self::advance(counts) {
            self.counts = None;
        }
        Some(item)
    }
}

/// Perfect index into the [`CoscheduleIter`] enumeration: maps a count
/// vector to its position in the stream with O(`num_types`) arithmetic and
/// zero allocation.
///
/// The iterator yields count vectors in *descending* lexicographic order,
/// so the rank of `c` is the number of count vectors that precede it —
/// i.e. compare lexicographically *greater*. Fixing a prefix `c[..i]` and
/// picking `d_i > c_i` leaves `r_i - d_i` jobs to distribute over the
/// remaining `n - i - 1` types (`r_i` is the budget left before type `i`);
/// summing the multiset counts over all admissible `d_i` telescopes (the
/// hockey-stick identity) to one binomial per position:
///
/// ```text
/// rank(c) = sum_i C((n - i - 1) + (r_i - c_i - 1), r_i - c_i - 1)
/// ```
///
/// The binomials come from a Pascal table precomputed once per `(n, k)`,
/// so a rank probe is a short loop of adds — the flat-layout replacement
/// for hashing an allocated `Vec<u32>` key on every rate lookup.
///
/// # Examples
///
/// ```
/// use symbiosis::{CoscheduleIter, CoscheduleRank};
///
/// let rank = CoscheduleRank::new(4, 4);
/// for (i, s) in CoscheduleIter::new(4, 4).enumerate() {
///     assert_eq!(rank.rank(s.counts()), Some(i));
/// }
/// assert_eq!(rank.rank(&[0, 0, 0, 3]), None, "wrong total");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoscheduleRank {
    num_types: usize,
    k: u32,
    /// `binom[a * (k + 1) + b]` = `C(a, b)` (saturating), for
    /// `a <= n + k - 1`, `b <= k`.
    binom: Vec<usize>,
    stride: usize,
}

impl CoscheduleRank {
    /// Builds the rank table for `k`-job coschedules over `num_types`
    /// types.
    ///
    /// # Panics
    ///
    /// Panics if `num_types == 0` or `k == 0`.
    pub fn new(num_types: usize, k: usize) -> Self {
        assert!(num_types > 0, "need at least one job type");
        assert!(k > 0, "need at least one context");
        let rows = num_types + k; // a ranges over 0..=n + k - 1
        let stride = k + 1;
        let mut binom = vec![0usize; rows * stride];
        for a in 0..rows {
            binom[a * stride] = 1;
            for b in 1..=k.min(a) {
                let left = binom[(a - 1) * stride + b - 1];
                let up = if b < a {
                    binom[(a - 1) * stride + b]
                } else {
                    0
                };
                binom[a * stride + b] = left.saturating_add(up);
            }
        }
        CoscheduleRank {
            num_types,
            k: k as u32,
            binom,
            stride,
        }
    }

    /// Number of job types.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Jobs per coschedule.
    pub fn contexts(&self) -> usize {
        self.k as usize
    }

    /// Total coschedules in the enumeration (`C(n + k - 1, k)`).
    pub fn total(&self) -> usize {
        self.binom(self.num_types + self.contexts() - 1, self.contexts())
    }

    fn binom(&self, a: usize, b: usize) -> usize {
        self.binom[a * self.stride + b]
    }

    /// Rank of the count vector produced by `count_of(ty)` for each type,
    /// or `None` if the counts do not sum to `k`. The shared core behind
    /// [`CoscheduleRank::rank`] and the allocation-free sparse probes in
    /// the `workloads` crate.
    pub fn rank_with<F: FnMut(usize) -> u32>(&self, mut count_of: F) -> Option<usize> {
        let n = self.num_types;
        let mut rank = 0usize;
        let mut remaining = self.k;
        for i in 0..n {
            if remaining == 0 {
                // All later counts must be zero; any job left is a mismatch.
                return (i..n).all(|j| count_of(j) == 0).then_some(rank);
            }
            let c = count_of(i);
            if c > remaining {
                return None;
            }
            // Choices d_i in c+1..=remaining, each leaving a free multiset
            // over the n - i - 1 later types: hockey-stick to one binomial.
            if remaining > c {
                let t = (remaining - c - 1) as usize;
                rank += self.binom(n - i - 1 + t, t);
            }
            remaining -= c;
        }
        (remaining == 0).then_some(rank)
    }

    /// Rank of a count vector, or `None` if its length is not `num_types`
    /// or its counts do not sum to `k`.
    pub fn rank(&self, counts: &[u32]) -> Option<usize> {
        if counts.len() != self.num_types {
            return None;
        }
        self.rank_with(|i| counts[i])
    }

    /// Visits `(c, rank)` for every single-job replacement `b -> c`
    /// (`c != b`) of the coschedule `counts`, whose own rank is `base`:
    /// first `c = b+1..n` ascending, then `c = b-1..=0` descending.
    ///
    /// Replacing one type-`b` job by type `c` shifts the suffix-remainder
    /// `d_i` (jobs left after consuming types `0..=i`) by one exactly for
    /// `i` between the endpoints, and each rank term depends only on
    /// `(i, d_i)` — so walking `c` outward from `b` costs one binomial
    /// delta per target: O(n) for all `n - 1` replacements, instead of
    /// O(n) per target. This is what lets the Markov generator enumerate
    /// a state's full neighbor row in the time a single rank probe used
    /// to take.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `counts` has the right length, sums to `k`, has
    /// `counts[b] > 0`, and that `base` is its rank.
    // Both sweeps thread running state (`d`, `acc`) through the index, so
    // an enumerate()-style rewrite would obscure the recurrence.
    #[allow(clippy::needless_range_loop)]
    pub fn replace_ranks<F: FnMut(usize, usize)>(
        &self,
        counts: &[u32],
        base: usize,
        b: usize,
        mut visit: F,
    ) {
        let n = self.num_types;
        debug_assert_eq!(counts.len(), n);
        debug_assert!(counts[b] > 0, "type b must be present");
        debug_assert_eq!(self.rank(counts), Some(base), "base must be counts' rank");
        // Rank term at position i, as a function of the suffix-remainder:
        // `binom(n - i + d - 2, d - 1)` for `d > 0`, else 0 (see
        // `rank_with`: `d` is `remaining - c_i` there).
        let g = |i: usize, d: u32| -> usize {
            if d == 0 {
                0
            } else {
                self.binom(n - i + d as usize - 2, d as usize - 1)
            }
        };
        let d_b: u32 = self.k - counts[..=b].iter().sum::<u32>();
        // Ascending c > b: d_i gains one for b <= i < c, and g grows with
        // d, so the running rank only ever steps up.
        let mut acc = base;
        let mut d = d_b;
        for i in b..n.saturating_sub(1) {
            if i > b {
                d -= counts[i];
            }
            acc += g(i, d + 1) - g(i, d);
            visit(i + 1, acc);
        }
        // Descending c < b: d_i loses one for c <= i < b; every
        // intermediate value is itself a valid target rank, so the
        // subtraction cannot underflow.
        let mut acc = base;
        let mut d = d_b + counts[b];
        for i in (0..b).rev() {
            acc -= g(i, d) - g(i, d - 1);
            visit(i, acc);
            d += counts[i];
        }
    }

    /// Rank of a coschedule given as a *sorted* slot list (`slots[j]` is
    /// the type of job `j`, ascending) — the `workloads` crate's native
    /// combo format. Returns `None` for the wrong length, unsorted input,
    /// or a type out of range.
    pub fn rank_sorted_slots(&self, slots: &[usize]) -> Option<usize> {
        if slots.len() != self.contexts() || slots.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if slots.iter().any(|&t| t >= self.num_types) {
            return None;
        }
        let mut cursor = 0usize;
        self.rank_with(|ty| {
            let start = cursor;
            while cursor < slots.len() && slots[cursor] == ty {
                cursor += 1;
            }
            (cursor - start) as u32
        })
    }
}

/// Perfect index over the multisets of a range of sizes: sizes ascending,
/// [`CoscheduleIter`] order within a size. A multiset's index is its size
/// stratum's offset plus its [`CoscheduleRank`], so a probe is
/// O(`num_types`) arithmetic with no allocation and no hashing. Over sizes
/// `1..=K` this is `workloads::PerfTable`'s combo index space; a
/// [`RateGrid`](crate::RateGrid) keys its cells with it when digit keys
/// would not fit.
///
/// ```
/// use symbiosis::{CoscheduleIndex, CoscheduleIter};
///
/// let index = CoscheduleIndex::new(3, 1..=2);
/// let order = (1..=2).flat_map(|size| CoscheduleIter::new(3, size));
/// for (i, s) in order.enumerate() {
///     assert_eq!(index.index(s.counts()), Some(i));
///     assert_eq!(index.index_sorted_slots(&s.slots()), Some(i));
/// }
/// assert_eq!(index.total(), 3 + 6);
/// assert_eq!(index.index(&[1, 1, 1]), None, "size 3 is not indexed");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoscheduleIndex {
    min_size: usize,
    /// Rank table and index offset per size, ascending from `min_size`.
    strata: Vec<(CoscheduleRank, usize)>,
    total: usize,
}

impl CoscheduleIndex {
    /// Indexes the multisets of every size in `sizes` over `num_types`
    /// types.
    ///
    /// # Panics
    ///
    /// Panics if `num_types == 0` or `sizes` is empty or contains 0.
    pub fn new(num_types: usize, sizes: RangeInclusive<usize>) -> Self {
        assert!(!sizes.is_empty(), "need at least one multiset size");
        let min_size = *sizes.start();
        let mut total = 0;
        let strata = sizes
            .map(|size| {
                let rank = CoscheduleRank::new(num_types, size);
                let offset = total;
                total += rank.total();
                (rank, offset)
            })
            .collect();
        CoscheduleIndex {
            min_size,
            strata,
            total,
        }
    }

    /// Number of multisets indexed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Index of the size-`size` multiset with `count_of(ty)` jobs of type
    /// `ty`, or `None` if the size is not indexed or the counts do not sum
    /// to it.
    pub fn index_with<F: FnMut(usize) -> u32>(&self, size: usize, count_of: F) -> Option<usize> {
        let (rank, offset) = self.strata.get(size.checked_sub(self.min_size)?)?;
        Some(offset + rank.rank_with(count_of)?)
    }

    /// Index of a count vector, or `None` for a wrong length or a size
    /// that is not indexed.
    pub fn index(&self, counts: &[u32]) -> Option<usize> {
        if counts.len() != self.strata[0].0.num_types() {
            return None;
        }
        let size = counts.iter().map(|&c| c as usize).sum();
        self.index_with(size, |ty| counts[ty])
    }

    /// Index of a sorted slot list (see
    /// [`CoscheduleRank::rank_sorted_slots`]), or `None` if it is
    /// malformed or its length is not an indexed size.
    pub fn index_sorted_slots(&self, slots: &[usize]) -> Option<usize> {
        let (rank, offset) = self.strata.get(slots.len().checked_sub(self.min_size)?)?;
        Some(offset + rank.rank_sorted_slots(slots)?)
    }
}

/// Enumerates every workload of `n` distinct job types chosen from
/// `pool_size` candidates (combinations without repetition), as sorted
/// index vectors.
///
/// # Examples
///
/// ```
/// // 4 job types out of 12 benchmarks: C(12, 4) = 495 workloads.
/// let w = symbiosis::enumerate_workloads(12, 4);
/// assert_eq!(w.len(), 495);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `n > pool_size`.
pub fn enumerate_workloads(pool_size: usize, n: usize) -> Vec<Vec<usize>> {
    assert!(n > 0, "workloads must contain at least one type");
    assert!(n <= pool_size, "cannot choose {n} from {pool_size}");
    let mut result = Vec::new();
    let mut current = Vec::with_capacity(n);
    choose(&mut result, &mut current, 0, pool_size, n);
    result
}

fn choose(
    out: &mut Vec<Vec<usize>>,
    current: &mut Vec<usize>,
    start: usize,
    pool: usize,
    n: usize,
) {
    if current.len() == n {
        out.push(current.clone());
        return;
    }
    let needed = n - current.len();
    for i in start..=pool - needed {
        current.push(i);
        choose(out, current, i + 1, pool, n);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn replace_ranks_agree_with_direct_ranks_everywhere() {
        for (n, k) in [(2, 2), (3, 3), (4, 4), (5, 3), (6, 4), (8, 4), (4, 6)] {
            let rank = CoscheduleRank::new(n, k);
            for (base, s) in CoscheduleIter::new(n, k).enumerate() {
                for b in 0..n {
                    if s.count(b) == 0 {
                        continue;
                    }
                    let mut got = vec![None; n];
                    rank.replace_ranks(s.counts(), base, b, |c, r| {
                        assert!(got[c].is_none(), "each target visited once");
                        got[c] = Some(r);
                    });
                    assert!(got[b].is_none(), "b -> b is not a transition");
                    for (c, visited) in got.iter().enumerate() {
                        if c == b {
                            continue;
                        }
                        let target = s.replace(b, c).expect("b present");
                        assert_eq!(
                            *visited,
                            rank.rank(target.counts()),
                            "n={n} k={k} base={base} {b}->{c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn counts_round_trip_slots() {
        let s = Coschedule::from_slots(&[3, 1, 1, 0], 4);
        assert_eq!(s.counts(), &[1, 2, 0, 1]);
        assert_eq!(s.slots(), vec![0, 1, 1, 3]);
        assert_eq!(Coschedule::from_slots(&s.slots(), 4), s);
    }

    #[test]
    fn heterogeneity_counts_distinct_types() {
        assert_eq!(Coschedule::from_slots(&[0, 0, 0, 0], 4).heterogeneity(), 1);
        assert_eq!(Coschedule::from_slots(&[0, 1, 0, 1], 4).heterogeneity(), 2);
        assert_eq!(Coschedule::from_slots(&[0, 1, 2, 3], 4).heterogeneity(), 4);
    }

    #[test]
    fn enumeration_counts_match_combinatorics() {
        // C(n+k-1, k) with repetition.
        assert_eq!(enumerate_coschedules(4, 4).len(), 35);
        assert_eq!(enumerate_coschedules(12, 4).len(), 1365);
        assert_eq!(enumerate_coschedules(8, 4).len(), 330);
        assert_eq!(enumerate_coschedules(1, 4).len(), 1);
        assert_eq!(enumerate_coschedules(4, 1).len(), 4);
    }

    #[test]
    fn enumeration_is_unique_and_sized() {
        let all = enumerate_coschedules(5, 3);
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len(), "no duplicates");
        for s in &all {
            assert_eq!(s.size(), 3);
            assert_eq!(s.num_types(), 5);
        }
    }

    #[test]
    fn stream_matches_materialised_enumeration_exactly() {
        for (n, k) in [(1, 1), (1, 5), (2, 3), (3, 2), (4, 4), (5, 3), (12, 4)] {
            let streamed: Vec<_> = CoscheduleIter::new(n, k).collect();
            assert_eq!(streamed, enumerate_coschedules(n, k), "n={n} k={k}");
        }
    }

    #[test]
    fn stream_count_total_matches_combinatorics() {
        assert_eq!(CoscheduleIter::count_total(4, 4), 35);
        assert_eq!(CoscheduleIter::count_total(12, 4), 1365);
        assert_eq!(CoscheduleIter::count_total(12, 8), 75_582);
        assert_eq!(CoscheduleIter::count_total(1, 9), 1);
        assert_eq!(
            CoscheduleIter::count_total(200, 100),
            usize::MAX,
            "saturates"
        );
        for (n, k) in [(2, 5), (6, 3), (8, 4)] {
            assert_eq!(
                CoscheduleIter::count_total(n, k),
                CoscheduleIter::new(n, k).count(),
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn workload_enumeration_matches_binomials() {
        assert_eq!(enumerate_workloads(12, 4).len(), 495);
        assert_eq!(enumerate_workloads(12, 8).len(), 495);
        assert_eq!(enumerate_workloads(5, 1).len(), 5);
        assert_eq!(enumerate_workloads(4, 4).len(), 1);
    }

    #[test]
    fn workloads_are_sorted_and_distinct() {
        for w in enumerate_workloads(6, 3) {
            assert!(w.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn rank_matches_enumeration_position_exactly() {
        for (n, k) in [
            (1, 1),
            (1, 5),
            (2, 3),
            (3, 2),
            (4, 4),
            (5, 3),
            (12, 4),
            (6, 8),
        ] {
            let rank = CoscheduleRank::new(n, k);
            assert_eq!(rank.total(), CoscheduleIter::count_total(n, k));
            for (i, s) in CoscheduleIter::new(n, k).enumerate() {
                assert_eq!(rank.rank(s.counts()), Some(i), "n={n} k={k} {s}");
                assert_eq!(
                    rank.rank_sorted_slots(&s.slots()),
                    Some(i),
                    "slots n={n} k={k} {s}"
                );
            }
        }
    }

    #[test]
    fn rank_rejects_malformed_counts() {
        let rank = CoscheduleRank::new(4, 4);
        assert_eq!(rank.rank(&[1, 1, 1]), None, "wrong length");
        assert_eq!(rank.rank(&[1, 1, 1, 0]), None, "wrong total");
        assert_eq!(rank.rank(&[5, 0, 0, 0]), None, "overfull");
        assert_eq!(rank.rank(&[4, 0, 0, 1]), None, "job past an empty budget");
        assert_eq!(rank.rank_sorted_slots(&[0, 1, 2]), None, "short slots");
        assert_eq!(rank.rank_sorted_slots(&[0, 2, 1, 3]), None, "unsorted");
        assert_eq!(rank.rank_sorted_slots(&[0, 1, 2, 9]), None, "out of range");
    }

    #[test]
    fn rank_is_zero_allocation_arithmetic_on_big_spaces() {
        // The K = 10 regime this rank exists for: 352 716 coschedules.
        let rank = CoscheduleRank::new(12, 10);
        assert_eq!(rank.total(), 352_716);
        let mut first = vec![0u32; 12];
        first[0] = 10;
        assert_eq!(rank.rank(&first), Some(0));
        let mut last = vec![0u32; 12];
        last[11] = 10;
        assert_eq!(rank.rank(&last), Some(352_715));
    }

    #[test]
    fn replace_moves_one_job() {
        let s = Coschedule::from_counts(vec![2, 1, 1, 0]);
        let t = s.replace(0, 3).unwrap();
        assert_eq!(t.counts(), &[1, 1, 1, 1]);
        assert!(s.replace(3, 0).is_none(), "no type-3 job to replace");
        assert!(s.replace(0, 9).is_none(), "target type out of range");
    }

    #[test]
    fn display_uses_letters() {
        let s = Coschedule::from_counts(vec![2, 0, 1, 1]);
        assert_eq!(s.to_string(), "AACD");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_coschedule_panics() {
        let _ = Coschedule::from_counts(vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_type_panics() {
        let _ = Coschedule::from_slots(&[0, 5], 4);
    }
}
