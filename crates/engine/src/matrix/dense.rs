//! Row-major dense matrices and vectors.
//!
//! `Dense` plays two roles, exactly as in Ginkgo: it is the vector type all
//! `LinOp::apply` calls operate on (an `n x k` block of `k` vectors), and it
//! is itself a `LinOp` whose apply is a GEMV. Reductions (dot products,
//! norms) accumulate in `f64` per chunk and combine partials in chunk order,
//! so results are deterministic under any thread schedule.

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::executor::pool::{
    parallel_chunks, parallel_chunks2, parallel_partials, tree_reduce, uniform_bounds,
};
use crate::executor::Executor;
use crate::linop::{check_apply_dims, LinOp};
use crate::log::OpTimer;
use pygko_sim::ChunkWork;

/// A dense row-major matrix (or block of column vectors) on an executor.
#[derive(Debug, Clone)]
pub struct Dense<V: Value> {
    size: Dim2,
    values: Array<V>,
}

impl<V: Value> Dense<V> {
    /// Allocates a zero-initialized dense matrix.
    pub fn zeros(exec: &Executor, size: Dim2) -> Self {
        Dense {
            size,
            values: Array::new(exec, size.count()),
        }
    }

    /// Allocates and fills with a constant.
    pub fn filled(exec: &Executor, size: Dim2, value: V) -> Self {
        let mut m = Dense::zeros(exec, size);
        m.fill(value);
        m
    }

    /// Wraps a row-major value vector.
    ///
    /// Returns an error if the length does not match `size`.
    pub fn from_vec(exec: &Executor, size: Dim2, values: Vec<V>) -> Result<Self> {
        if values.len() != size.count() {
            return Err(GkoError::BadInput(format!(
                "dense values length {} does not match size {size}",
                values.len()
            )));
        }
        Ok(Dense {
            size,
            values: Array::from_vec(exec, values),
        })
    }

    /// Builds from an array of rows (test/demo convenience).
    pub fn from_rows<const K: usize>(exec: &Executor, rows: &[[V; K]]) -> Self {
        let mut values = Vec::with_capacity(rows.len() * K);
        for row in rows {
            values.extend_from_slice(row);
        }
        Dense {
            size: Dim2::new(rows.len(), K),
            values: Array::from_vec(exec, values),
        }
    }

    /// A fresh column vector (n x 1) filled with `value`.
    pub fn vector(exec: &Executor, n: usize, value: V) -> Self {
        Dense::filled(exec, Dim2::new(n, 1), value)
    }

    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Executor the values live on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Checks the storage length against the declared shape, and rejects
    /// NaN/Inf entries (the dense format's only corruptible invariants).
    pub fn validate(&self) -> Result<()> {
        let expect = self.size.rows * self.size.cols;
        if self.values.len() != expect {
            return Err(GkoError::BadInput(format!(
                "dense storage holds {} values but the shape {} needs {expect}",
                self.values.len(),
                self.size
            )));
        }
        crate::sanitize::check_finite("dense", self.values.as_slice())
    }

    /// Element access (host-side, for tests and small algorithms).
    pub fn at(&self, row: usize, col: usize) -> V {
        self.values.as_slice()[row * self.size.cols + col]
    }

    /// Element mutation (host-side).
    pub fn set(&mut self, row: usize, col: usize, value: V) {
        self.values.as_mut_slice()[row * self.size.cols + col] = value;
    }

    /// Read access to the raw row-major values.
    pub fn as_slice(&self) -> &[V] {
        self.values.as_slice()
    }

    /// Write access to the raw row-major values.
    pub fn as_mut_slice(&mut self) -> &mut [V] {
        self.values.as_mut_slice()
    }

    /// Copies the values into a host `Vec`.
    pub fn to_host_vec(&self) -> Vec<V> {
        self.values.as_slice().to_vec()
    }

    /// Clones onto another executor, charging transfers if crossing memory
    /// spaces.
    pub fn clone_to(&self, exec: &Executor) -> Self {
        Dense {
            size: self.size,
            values: self.values.copy_to(exec),
        }
    }

    fn stream_kernel(&self, arrays: usize, flops_per_item: f64) -> Vec<ChunkWork> {
        let n = self.size.count();
        let spec = self.executor().spec();
        let bounds = uniform_bounds(n, spec.workers * 2);
        bounds
            .windows(2)
            .map(|w| {
                let items = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    items * (arrays * V::BYTES) as f64,
                    0.0,
                    items * flops_per_item,
                )
            })
            .collect()
    }

    fn check_same_shape(&self, other: &Dense<V>, op: &'static str) -> Result<()> {
        if self.size != other.size {
            return Err(GkoError::DimensionMismatch {
                op,
                expected: self.size,
                actual: other.size,
            });
        }
        self.values.check_same_executor(&other.values)
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: V) {
        let _timer = OpTimer::new(self.executor(), "dense::fill");
        let work = self.stream_kernel(1, 0.0);
        self.values.fill(value);
        self.executor().launch(&work);
    }

    /// Copies values from a same-shaped matrix.
    pub fn copy_from(&mut self, other: &Dense<V>) -> Result<()> {
        self.check_same_shape(other, "copy")?;
        let _timer = OpTimer::new(self.executor(), "dense::copy");
        self.values
            .as_mut_slice()
            .copy_from_slice(other.values.as_slice());
        self.charge_copy();
        Ok(())
    }

    /// Scales all entries: `self *= alpha`.
    pub fn scale(&mut self, alpha: V) {
        if alpha == V::one() {
            return;
        }
        let _timer = OpTimer::new(self.executor(), "dense::scale");
        let work = self.stream_kernel(2, 1.0);
        let exec = self.executor().clone();
        let bounds = uniform_bounds(self.size.count(), work.len());
        if alpha == V::zero() {
            self.values.fill(V::zero());
        } else {
            parallel_chunks(&exec, self.values.as_mut_slice(), &bounds, |_, s| {
                for v in s {
                    *v *= alpha;
                }
            });
        }
        self.executor().launch(&work);
    }

    /// AXPY: `self += alpha * other`.
    pub fn add_scaled(&mut self, alpha: V, other: &Dense<V>) -> Result<()> {
        self.check_same_shape(other, "add_scaled")?;
        let _timer = OpTimer::new(self.executor(), "dense::axpy");
        let work = self.stream_kernel(3, 2.0);
        let exec = self.executor().clone();
        let bounds = uniform_bounds(self.size.count(), work.len());
        let src = other.values.as_slice();
        parallel_chunks(&exec, self.values.as_mut_slice(), &bounds, |i, s| {
            let off = bounds_offset(&bounds, i);
            let len = s.len();
            for (d, &x) in s.iter_mut().zip(&src[off..off + len]) {
                *d += alpha * x;
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    /// Scaled assignment: `self = alpha * other + beta * self`.
    pub fn scale_add(&mut self, alpha: V, other: &Dense<V>, beta: V) -> Result<()> {
        self.check_same_shape(other, "scale_add")?;
        let _timer = OpTimer::new(self.executor(), "dense::scale_add");
        let work = self.stream_kernel(3, 3.0);
        let exec = self.executor().clone();
        let bounds = uniform_bounds(self.size.count(), work.len());
        let src = other.values.as_slice();
        parallel_chunks(&exec, self.values.as_mut_slice(), &bounds, |i, s| {
            let off = bounds_offset(&bounds, i);
            let len = s.len();
            for (d, &x) in s.iter_mut().zip(&src[off..off + len]) {
                *d = alpha * x + beta * *d;
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    /// Dot product over all entries, accumulated in `f64`.
    pub fn compute_dot(&self, other: &Dense<V>) -> Result<f64> {
        self.check_same_shape(other, "dot")?;
        let _timer = OpTimer::new(self.executor(), "dense::dot");
        let work = self.stream_kernel(2, 2.0);
        let exec = self.executor().clone();
        let n = self.size.count();
        let bounds = uniform_bounds(n, work.len());
        let a = self.values.as_slice();
        let b = other.values.as_slice();
        let partials = parallel_partials(&exec, bounds.len() - 1, |i| {
            let (lo, hi) = (bounds[i], bounds[i + 1]);
            a[lo..hi]
                .iter()
                .zip(&b[lo..hi])
                .map(|(&x, &y)| x.to_f64() * y.to_f64())
                .sum()
        });
        self.executor().launch(&work);
        Ok(tree_reduce(&partials))
    }

    /// Euclidean norm over all entries.
    pub fn compute_norm2(&self) -> f64 {
        // lint: allow(panic): dot of a vector with itself cannot have a
        // dimension mismatch.
        self.compute_dot(self).expect("dot with self").sqrt()
    }

    /// Fused CG step 2 (Ginkgo's `cg::step_2`) on the residual `self`:
    /// `x += alpha * p` and `self -= alpha * q` in one pass, returning the
    /// new `self · self` (squared residual norm, and CG's `rho` when there is
    /// no preconditioner).
    ///
    /// One pool dispatch replaces the axpy, axpy and norm kernels, and the
    /// result is bit-identical to that sequence: the same chunks, the same
    /// per-element arithmetic and the same per-chunk left-to-right `f64`
    /// sum combined by [`tree_reduce`]. The virtual timeline is charged for
    /// those three kernels, in their order (DESIGN.md §5).
    pub fn cg_step_2(
        &mut self,
        x: &mut Dense<V>,
        p: &Dense<V>,
        q: &Dense<V>,
        alpha: f64,
    ) -> Result<f64> {
        for other in [&*x, p, q] {
            self.check_same_shape(other, "cg_step_2")?;
        }
        let _timer = OpTimer::new(self.executor(), "dense::cg_step_2");
        let axpy = self.stream_kernel(3, 2.0);
        let norm = self.stream_kernel(2, 2.0);
        let exec = self.executor().clone();
        let bounds = uniform_bounds(self.size.count(), axpy.len());
        let (p, q) = (p.values.as_slice(), q.values.as_slice());
        let (alpha, neg_alpha) = (V::from_f64(alpha), V::from_f64(-alpha));
        let partials = parallel_chunks2(
            &exec,
            (x.values.as_mut_slice(), &bounds),
            (self.values.as_mut_slice(), &bounds),
            |i, xs, rs| -> f64 {
                let (lo, hi) = (bounds[i], bounds[i + 1]);
                xs.iter_mut()
                    .zip(rs.iter_mut())
                    .zip(&p[lo..hi])
                    .zip(&q[lo..hi])
                    .map(|(((x, r), &pv), &qv)| {
                        *x += alpha * pv;
                        *r += neg_alpha * qv;
                        r.to_f64() * r.to_f64()
                    })
                    .sum()
            },
        );
        exec.launch(&axpy);
        exec.launch(&axpy);
        exec.launch(&norm);
        Ok(tree_reduce(&partials))
    }

    /// Charges the virtual timeline for a [`copy_from`](Self::copy_from)
    /// into `self` without running it. [`Cg`](crate::solver::Cg) elides the
    /// identity preconditioner's copy on the host, but the modelled device
    /// runs it, as the paper's Ginkgo does (DESIGN.md §5).
    pub(crate) fn charge_copy(&self) {
        self.executor().launch(&self.stream_kernel(2, 0.0));
    }

    /// Charges the virtual timeline for a [`compute_dot`](Self::compute_dot)
    /// on `self` without running it (the `r · z` dot that
    /// [`Cg`](crate::solver::Cg) takes from [`cg_step_2`](Self::cg_step_2)
    /// when `z == r`).
    pub(crate) fn charge_dot(&self) {
        self.executor().launch(&self.stream_kernel(2, 2.0));
    }

    /// Copy converted to another value type (Ginkgo's
    /// `convert_to<Dense<V2>>`, the building block of mixed precision).
    pub fn cast<V2: Value>(&self) -> Dense<V2> {
        let values: Vec<V2> = self
            .values
            .as_slice()
            .iter()
            .map(|v| V2::from_f64(v.to_f64()))
            .collect();
        let out = Dense {
            size: self.size,
            values: Array::from_vec(self.executor(), values),
        };
        let work = self.stream_kernel(2, 1.0);
        self.executor().launch(&work);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense<V> {
        let mut out = Dense::zeros(self.executor(), self.size.transposed());
        for i in 0..self.size.rows {
            for j in 0..self.size.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        let work = self.stream_kernel(2, 0.0);
        self.executor().launch(&work);
        out
    }
}

#[inline]
fn bounds_offset(bounds: &[usize], chunk: usize) -> usize {
    bounds[chunk]
}

impl<V: Value> LinOp<V> for Dense<V> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// GEMV: `x = self * b`, row-parallel.
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.apply_advanced(V::one(), b, V::zero(), x)
    }

    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_apply_dims::<V>(self.size, b, x)?;
        self.values.check_same_executor(&b.values)?;
        let _timer = OpTimer::new(self.executor(), "dense::gemv");
        let (m, n) = (self.size.rows, self.size.cols);
        let k = b.size().cols;
        let spec = self.executor().spec();
        let row_bounds = uniform_bounds(m, spec.workers * 2);
        let work: Vec<ChunkWork> = row_bounds
            .windows(2)
            .map(|w| {
                let rows = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    rows * (n + k) as f64 * V::BYTES as f64 + rows * n as f64 * V::BYTES as f64,
                    0.0,
                    rows * n as f64 * k as f64 * 2.0,
                )
            })
            .collect();

        let exec = self.executor().clone();
        let a = self.values.as_slice();
        let bv = b.values.as_slice();
        // x chunked by rows: each row owns k contiguous outputs.
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| r * k).collect();
        parallel_chunks(&exec, x.values.as_mut_slice(), &elem_bounds, |ci, xs| {
            let row0 = row_bounds[ci];
            for (local, xrow) in xs.chunks_mut(k).enumerate() {
                let i = row0 + local;
                let arow = &a[i * n..(i + 1) * n];
                for (c, out) in xrow.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for (j, &aij) in arow.iter().enumerate() {
                        acc += aij.to_f64() * bv[j * k + c].to_f64();
                    }
                    let prod = V::from_f64(acc);
                    *out = alpha * prod + beta * *out;
                }
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygko_half::Half;

    fn exec() -> Executor {
        Executor::reference()
    }

    #[test]
    fn construction_and_access() {
        let e = exec();
        let mut m = Dense::<f64>::zeros(&e, Dim2::new(2, 3));
        assert_eq!(m.size(), Dim2::new(2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.at(1, 2), 5.0);
        assert_eq!(m.at(0, 0), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let e = exec();
        assert!(Dense::<f64>::from_vec(&e, Dim2::new(2, 2), vec![1.0; 3]).is_err());
        let m = Dense::<f64>::from_vec(&e, Dim2::new(2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    fn fill_and_scale() {
        let e = exec();
        let mut v = Dense::<f32>::vector(&e, 4, 2.0);
        v.scale(3.0);
        assert_eq!(v.to_host_vec(), vec![6.0; 4]);
        v.scale(0.0);
        assert_eq!(v.to_host_vec(), vec![0.0; 4]);
    }

    #[test]
    fn axpy_and_scale_add() {
        let e = exec();
        let mut y = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let x = Dense::from_rows(&e, &[[10.0f64], [20.0], [30.0]]);
        y.add_scaled(2.0, &x).unwrap();
        assert_eq!(y.to_host_vec(), vec![21.0, 42.0, 63.0]);
        y.scale_add(1.0, &x, -1.0).unwrap();
        assert_eq!(y.to_host_vec(), vec![-11.0, -22.0, -33.0]);
    }

    #[test]
    fn dot_and_norm() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[3.0f64], [4.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0]]);
        assert_eq!(a.compute_dot(&b).unwrap(), 11.0);
        assert_eq!(a.compute_norm2(), 5.0);
    }

    #[test]
    fn dot_rejects_shape_mismatch() {
        let e = exec();
        let a = Dense::<f64>::vector(&e, 3, 1.0);
        let b = Dense::<f64>::vector(&e, 4, 1.0);
        assert!(a.compute_dot(&b).is_err());
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64], [10.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(3, 1));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![21.0, 43.0, 65.0]);
    }

    #[test]
    fn gemv_advanced_fuses_alpha_beta() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 0.0], [0.0, 1.0]]);
        let b = Dense::from_rows(&e, &[[2.0f64], [3.0]]);
        let mut x = Dense::from_rows(&e, &[[100.0f64], [200.0]]);
        a.apply_advanced(2.0, &b, 0.5, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![54.0, 106.0]);
    }

    #[test]
    fn gemv_multiple_rhs() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 1.0], [1.0, -1.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64, 2.0], [3.0, 4.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(2, 2));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![4.0, 6.0, -2.0, -2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.size(), Dim2::new(3, 2));
        assert_eq!(t.at(2, 1), 6.0);
        let tt = t.transpose();
        assert_eq!(tt.to_host_vec(), a.to_host_vec());
    }

    #[test]
    fn works_in_half_precision() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[Half::from_f32(2.0)], [Half::from_f32(4.0)]]);
        assert_eq!(a.compute_norm2(), (20.0f64).sqrt());
        let mut b = a.clone();
        b.scale(Half::from_f32(0.5));
        assert_eq!(b.at(0, 0).to_f32(), 1.0);
    }

    #[test]
    fn kernels_charge_the_timeline() {
        let e = Executor::cuda(0);
        let mut v = Dense::<f64>::vector(&e, 1000, 1.0);
        let before = e.timeline().snapshot();
        v.scale(2.0);
        let d = e.timeline().snapshot().since(&before);
        assert_eq!(d.kernels, 1);
        assert!(d.ns as f64 >= e.spec().kernel_launch_ns);
    }

    #[test]
    fn omp_parallel_matches_reference() {
        let r = Executor::reference();
        let o = Executor::omp(4);
        let a_r = Dense::from_rows(&r, &[[1.0f64, 2.0], [3.0, 4.0]]);
        let a_o = a_r.clone_to(&o);
        let b_r = Dense::from_rows(&r, &[[5.0f64], [7.0]]);
        let b_o = b_r.clone_to(&o);
        let mut x_r = Dense::zeros(&r, Dim2::new(2, 1));
        let mut x_o = Dense::zeros(&o, Dim2::new(2, 1));
        a_r.apply(&b_r, &mut x_r).unwrap();
        a_o.apply(&b_o, &mut x_o).unwrap();
        assert_eq!(x_r.to_host_vec(), x_o.to_host_vec());
    }
}
