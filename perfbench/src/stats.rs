//! Order statistics, the self-time fold, computed SpMV bytes and the
//! floating-point distance used by the correctness checks.

use crate::spans::Span;
use std::collections::BTreeMap;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile ladder the tail is chosen from. A fixed ladder keeps the
/// reported level the same from run to run unless the sample count crosses
/// a rung, so the tail value is comparable between runs.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 for no samples.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// A tail percentile with the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Value at the percentile (nearest rank).
    pub value: f64,
    /// The percentile, from [`LADDER`].
    pub percentile: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`] of
/// `planned` samples beyond it, evaluated on `v`. A run takes at least
/// `planned` samples, so the level is fixed per workload and every run
/// reports the same percentile; with fewer samples than planned the level
/// follows the count actually taken. With too few samples for even the
/// median, the maximum is returned as percentile 100.
pub fn tail(v: &[f64], planned: usize) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let plan = planned.min(n);
    let mut best = Tail {
        value: s.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        n,
        beyond: 0,
    };
    for p in LADDER {
        // Nearest rank: the ceil(p/100 * n)-th smallest sample.
        let rank_of = |count: usize| ((p / 100.0) * count as f64).ceil() as usize;
        if rank_of(plan) == 0 || plan - rank_of(plan) < MIN_BEYOND {
            break;
        }
        let rank = rank_of(n);
        best = Tail {
            value: s[rank - 1],
            percentile: p,
            n,
            beyond: n - rank,
        };
    }
    best
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Folded {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Folds the spans `keep` selects by name: call count, total and self
/// time. Self times are computed over the whole set, so a kept span's
/// children count even when they are not kept themselves.
pub fn fold(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Folded> {
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if !keep(s) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Bytes one CSR SpMV (single right-hand side) moves, computed from the
/// array sizes: values and column indices once per nonzero, the row
/// pointers, the input vector once and the output vector once.
pub fn csr_spmv_bytes(rows: usize, cols: usize, nnz: usize, value_b: usize, index_b: usize) -> f64 {
    (nnz * (value_b + index_b) + (rows + 1) * index_b + cols * value_b + rows * value_b) as f64
}

/// Bytes one COO SpMV moves, computed from the array sizes: values, row and
/// column indices once per nonzero, the input vector once and the output
/// vector once.
pub fn coo_spmv_bytes(rows: usize, cols: usize, nnz: usize, value_b: usize, index_b: usize) -> f64 {
    (nnz * (value_b + 2 * index_b) + cols * value_b + rows * value_b) as f64
}

/// Distance in units in the last place between two doubles (0 for equal
/// values, including `+0 == -0`; `u64::MAX` when either is NaN).
pub fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map the sign-magnitude bit pattern onto a monotone integer line.
    let key = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    key(a).abs_diff(key(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 50.0), 5.0);
        assert_eq!(quantile(&v, 95.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 1.0);
        assert_eq!(quantile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 1..=100: p90 has exactly 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 100);
        assert_eq!(
            (t.percentile, t.value, t.n, t.beyond),
            (90.0, 90.0, 100, 10)
        );
        // 66 samples (a CG run): p75 has 16 beyond, p90 only 6.
        let v: Vec<f64> = (1..=66).map(f64::from).collect();
        let t = tail(&v, 66);
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 50.0, 16));
        // 2000 samples: p99 has 20 beyond, p99.9 only 2.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 2000).percentile, 99.0);
        // The ladder is applied to sorted samples.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v, 100).value, 90.0);
    }

    #[test]
    fn tail_level_follows_the_planned_count() {
        // 130 samples taken, 40 planned: the level stays at p75 (10 of 40
        // beyond), evaluated on all 130 samples, so more beyond.
        let v: Vec<f64> = (1..=130).map(f64::from).collect();
        let t = tail(&v, 40);
        assert_eq!(
            (t.percentile, t.value, t.n, t.beyond),
            (75.0, 98.0, 130, 32)
        );
        // 39 planned: p75 would leave only 9 beyond, so the median.
        assert_eq!(tail(&v, 39).percentile, 50.0);
        // Fewer samples than planned: the level follows the actual count.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&v, 1000).percentile, 50.0);
    }

    #[test]
    fn tail_with_too_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0], 3);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 5.0, 0));
        // 20 samples: the median has exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 20).percentile, 50.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent at 100
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
        let f = fold(&spans, |_| true);
        assert_eq!(f["root"].self_ns, 50);
        let only_a = fold(&spans, |s| s.name == "a");
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a["a"].self_ns, 14);
        assert_eq!(f["a"].total_ns, 20);
        assert_eq!(f["a"].self_ns, 14);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_tile_it() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("iteration", 0, 60, Some(0)),
            span("spmv", 5, 40, Some(1)),
            span("dot", 40, 55, Some(1)),
            span("iteration", 60, 100, Some(0)),
            span("spmv", 60, 95, Some(4)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn computed_bytes_follow_the_array_sizes() {
        // 3x4 matrix with 5 nonzeros, f64 values and i32 indices.
        // CSR: 5*(8+4) + 4*4 + 4*8 + 3*8 = 60 + 16 + 32 + 24.
        assert_eq!(csr_spmv_bytes(3, 4, 5, 8, 4), 132.0);
        // COO: 5*(8+2*4) + 4*8 + 3*8 = 80 + 32 + 24.
        assert_eq!(coo_spmv_bytes(3, 4, 5, 8, 4), 136.0);
        // poisson2d_600: 360k rows, 1,797,600 nonzeros.
        let csr = csr_spmv_bytes(360_000, 360_000, 1_797_600, 8, 4);
        assert_eq!(csr, 1_797_600.0 * 12.0 + 360_001.0 * 4.0 + 360_000.0 * 16.0);
    }

    #[test]
    fn ulps_counts_representable_steps() {
        assert_eq!(ulps(1.0, 1.0), 0);
        assert_eq!(ulps(0.0, -0.0), 0);
        let up = f64::from_bits(1.0f64.to_bits() + 4);
        assert_eq!(ulps(1.0, up), 4);
        assert_eq!(ulps(up, 1.0), 4);
        let tiny = f64::from_bits(1);
        assert_eq!(ulps(tiny, -tiny), 2);
        assert_eq!(ulps(f64::NAN, 1.0), u64::MAX);
    }
}
