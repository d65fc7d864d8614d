//! Correctness checks, computed independently of the program under test.

use crate::stats::ulps;

/// SpMV parity bound against the reference executor (never relaxed).
pub const SPMV_MAX_ULPS: u64 = 4;

/// A plain serial CSR matrix used to compute true residuals.
pub struct HostCsr {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl HostCsr {
    /// Builds the matrix from (row, col, value) triplets in any order.
    pub fn from_triplets(rows: usize, entries: &[(usize, usize, f64)]) -> Self {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&k| (entries[k].0, entries[k].1));
        let mut row_ptr = vec![0; rows + 1];
        for &(r, _, _) in entries {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        HostCsr {
            row_ptr,
            cols: order.iter().map(|&k| entries[k].1).collect(),
            vals: order.iter().map(|&k| entries[k].2).collect(),
        }
    }

    /// `‖b − A x‖ / ‖b‖` for vectors read with stride `stride` from offset
    /// `offset` (stride 1 and offset 0 for a plain vector; a column of a
    /// row-major `(n, S)` buffer otherwise).
    pub fn rel_residual(&self, b: &[f64], x: &[f64], stride: usize, offset: usize) -> f64 {
        let rows = self.row_ptr.len() - 1;
        let (mut rr, mut bb) = (0.0, 0.0);
        for i in 0..rows {
            let ax: f64 = (self.row_ptr[i]..self.row_ptr[i + 1])
                .map(|k| self.vals[k] * x[self.cols[k] * stride + offset])
                .sum();
            let bi = b[i * stride + offset];
            rr += (bi - ax) * (bi - ax);
            bb += bi * bi;
        }
        if bb == 0.0 {
            rr.sqrt()
        } else {
            (rr / bb).sqrt()
        }
    }
}

/// The largest ulp distance between `out` and `reference` and the row it
/// occurs at; `u64::MAX` when the lengths differ.
pub fn max_ulps(out: &[f64], reference: &[f64]) -> (u64, usize) {
    if out.len() != reference.len() {
        return (u64::MAX, 0);
    }
    out.iter()
        .zip(reference)
        .map(|(a, b)| ulps(*a, *b))
        .enumerate()
        .fold(
            (0, 0),
            |best, (row, d)| if d > best.0 { (d, row) } else { best },
        )
}

/// True when `a` and `b` are equal bit for bit.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in (0..n).rev() {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        t
    }

    #[test]
    fn residual_of_an_exact_solution_is_zero_and_a_perturbed_one_is_not() {
        let a = HostCsr::from_triplets(3, &tridiag(3));
        // A * [1, 1, 1] = [3, 2, 3].
        let b = [3.0, 2.0, 3.0];
        assert_eq!(a.rel_residual(&b, &[1.0, 1.0, 1.0], 1, 0), 0.0);
        assert!(a.rel_residual(&b, &[1.0, 1.0 + 1e-3, 1.0], 1, 0) > 1e-6);
    }

    #[test]
    fn residual_reads_one_column_of_a_row_major_batch() {
        let a = HostCsr::from_triplets(3, &tridiag(3));
        // Two systems side by side: column 0 solved exactly, column 1 not.
        let b = [3.0, 9.0, 2.0, 9.0, 3.0, 9.0];
        let x = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        assert_eq!(a.rel_residual(&b, &x, 2, 0), 0.0);
        assert_eq!(a.rel_residual(&b, &x, 2, 1), 1.0);
    }

    #[test]
    fn perturbed_spmv_output_fails_the_ulp_bound() {
        let reference = vec![1.0, -2.5, 3.25];
        let mut out = reference.clone();
        assert_eq!(max_ulps(&out, &reference), (0, 0));
        out[1] = f64::from_bits(out[1].to_bits() + SPMV_MAX_ULPS);
        assert_eq!(max_ulps(&out, &reference), (SPMV_MAX_ULPS, 1));
        out[1] = f64::from_bits(out[1].to_bits() + 1);
        assert_eq!(max_ulps(&out, &reference), (SPMV_MAX_ULPS + 1, 1));
        assert_eq!(max_ulps(&out[..2], &reference).0, u64::MAX);
    }

    #[test]
    fn bitwise_equality_distinguishes_signed_zeros() {
        assert!(bitwise_equal(&[0.0, 1.0], &[0.0, 1.0]));
        assert!(!bitwise_equal(&[0.0], &[-0.0]));
    }
}
