//! Batched formats: many independent small systems, one pool drain per op.
//!
//! The north-star workload is not one giant system but huge numbers of
//! independent small ones solved per call (Ginkgo's batched direction). A
//! loop of single applies pays the executor's kernel-launch overhead once
//! *per system per kernel*; the batched formats here amortize it to once
//! per kernel by draining the [`WorkerPool`](crate::executor::pool) exactly
//! once per batch apply.
//!
//! Two formats:
//!
//! * [`BatchDense`] — `num_systems` dense blocks of identical shape in one
//!   stride-aware slab, with per-system BLAS kernels (axpy, dots, norms)
//!   that accept a per-system coefficient slice and an activity mask so
//!   batched solvers can stop charging flops for converged systems.
//! * [`BatchCsr`] — `num_systems` CSR systems, either **shared sparsity**
//!   (one structure, per-system value slabs, ONE cached [`SpmvPlan`] reused
//!   across all systems and all applies) or **per-system sparsity**
//!   (independent `Csr` objects batched only for dispatch).
//!
//! Chunking policy for the batched SpMV: when the batch has at least
//! `2 * workers` systems, a chunk is a run of whole systems (small-system
//! regime); otherwise each system is split by its SpMV plan's row partition
//! (large-system regime). Either way the pool is drained once.

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, parallel_chunks2, uniform_bounds};
use crate::executor::Executor;
use crate::log::OpTimer;
use crate::matrix::csr::{dot_span, Csr, SpmvStrategy};
use crate::matrix::plan::{self, PlanCache, PlanCacheStats, SpmvPlan};
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// True when system `s` participates in the current kernel.
#[inline]
fn is_active(active: Option<&[bool]>, s: usize) -> bool {
    active.is_none_or(|m| m[s])
}

/// Validates an activity mask's length against the batch size.
fn check_mask(active: Option<&[bool]>, num_systems: usize, op: &'static str) -> Result<()> {
    if let Some(mask) = active {
        if mask.len() != num_systems {
            return Err(GkoError::BadInput(format!(
                "{op}: activity mask covers {} systems but the batch has {num_systems}",
                mask.len()
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// BatchDense
// ---------------------------------------------------------------------------

/// `num_systems` equally-shaped dense blocks in one stride-aware slab.
///
/// System `s` occupies `values[s * stride .. s * stride + size.count()]` in
/// row-major order; `stride >= size.count()` leaves optional padding between
/// systems. All kernels chunk at whole-system granularity so one
/// [`parallel_chunks`] drain covers every system, and masked kernels skip
/// inactive systems inside the chunk closure while charging the cost model
/// only for active ones.
#[derive(Debug, Clone)]
pub struct BatchDense<V: Value> {
    num_systems: usize,
    size: Dim2,
    stride: usize,
    values: Array<V>,
}

impl<V: Value> BatchDense<V> {
    /// Allocates a zero-initialized batch with dense packing (no padding).
    pub fn zeros(exec: &Executor, num_systems: usize, size: Dim2) -> Self {
        BatchDense {
            num_systems,
            size,
            stride: size.count(),
            values: Array::new(exec, num_systems * size.count()),
        }
    }

    /// Allocates with an explicit per-system stride (`>= size.count()`).
    pub fn with_stride(
        exec: &Executor,
        num_systems: usize,
        size: Dim2,
        stride: usize,
    ) -> Result<Self> {
        if stride < size.count() {
            return Err(GkoError::BadInput(format!(
                "batch stride {stride} is smaller than the system size {} ({} entries)",
                size,
                size.count()
            )));
        }
        Ok(BatchDense {
            num_systems,
            size,
            stride,
            values: Array::new(exec, num_systems * stride),
        })
    }

    /// Builds a densely packed batch from one value vector per system.
    pub fn from_systems(exec: &Executor, size: Dim2, systems: &[Vec<V>]) -> Result<Self> {
        if systems.is_empty() {
            return Err(GkoError::BadInput(
                "a batch needs at least one system".to_owned(),
            ));
        }
        let count = size.count();
        let mut slab = Vec::with_capacity(systems.len() * count);
        for (s, vals) in systems.iter().enumerate() {
            if vals.len() != count {
                return Err(GkoError::BadInput(format!(
                    "system {s} holds {} values but the shape {size} needs {count}",
                    vals.len()
                )));
            }
            slab.extend_from_slice(vals);
        }
        Ok(BatchDense {
            num_systems: systems.len(),
            size,
            stride: count,
            values: Array::from_vec(exec, slab),
        })
    }

    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.num_systems
    }

    /// Shape of each system.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Slab distance between consecutive systems, in elements.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Executor the slab lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Read access to system `s` (row-major, padding excluded).
    pub fn system(&self, s: usize) -> &[V] {
        let lo = s * self.stride;
        &self.values.as_slice()[lo..lo + self.size.count()]
    }

    /// Write access to system `s`.
    pub fn system_mut(&mut self, s: usize) -> &mut [V] {
        let lo = s * self.stride;
        let count = self.size.count();
        &mut self.values.as_mut_slice()[lo..lo + count]
    }

    /// The whole slab, padding included.
    pub fn as_slice(&self) -> &[V] {
        self.values.as_slice()
    }

    /// Mutable access to the whole slab, padding included.
    pub fn as_mut_slice(&mut self) -> &mut [V] {
        self.values.as_mut_slice()
    }

    /// System-aligned chunk partition: `(system bounds, element bounds)`.
    fn system_bounds(&self) -> (Vec<usize>, Vec<usize>) {
        let spec = self.executor().spec();
        let sys_bounds = uniform_bounds(self.num_systems, spec.workers * 2);
        let elem_bounds = sys_bounds.iter().map(|&s| s * self.stride).collect();
        (sys_bounds, elem_bounds)
    }

    /// Cost-model work for a masked streaming kernel: only active systems
    /// move bytes or spend flops.
    fn masked_work(
        &self,
        sys_bounds: &[usize],
        active: Option<&[bool]>,
        arrays: usize,
        flops_per_item: f64,
    ) -> Vec<ChunkWork> {
        let count = self.size.count() as f64;
        sys_bounds
            .windows(2)
            .map(|w| {
                let act = (w[0]..w[1]).filter(|&s| is_active(active, s)).count() as f64;
                ChunkWork::new(
                    act * count * (arrays * V::BYTES) as f64,
                    0.0,
                    act * count * flops_per_item,
                )
            })
            .collect()
    }

    fn check_compatible(&self, other: &BatchDense<V>, op: &'static str) -> Result<()> {
        if self.num_systems != other.num_systems {
            return Err(GkoError::BadInput(format!(
                "{op}: batches hold {} vs {} systems",
                self.num_systems, other.num_systems
            )));
        }
        if self.size != other.size {
            return Err(GkoError::DimensionMismatch {
                op,
                expected: self.size,
                actual: other.size,
            });
        }
        self.values.check_same_executor(&other.values)
    }

    fn check_coeffs(&self, coeffs: &[f64], op: &'static str) -> Result<()> {
        if coeffs.len() != self.num_systems {
            return Err(GkoError::BadInput(format!(
                "{op}: {} coefficients for {} systems",
                coeffs.len(),
                self.num_systems
            )));
        }
        Ok(())
    }

    /// Fills every system (and padding) with a constant.
    pub fn fill(&mut self, value: V) {
        let _timer = OpTimer::new(self.executor(), "batch_dense::fill");
        let exec = self.executor().clone();
        let n = self.values.len();
        let bounds = uniform_bounds(n, exec.spec().workers * 2);
        let work: Vec<ChunkWork> = bounds
            .windows(2)
            .map(|w| ChunkWork::new(((w[1] - w[0]) * V::BYTES) as f64, 0.0, 0.0))
            .collect();
        parallel_chunks(&exec, self.values.as_mut_slice(), &bounds, |_i, s| {
            for v in s {
                *v = value;
            }
        });
        exec.launch(&work);
    }

    /// Copies every system from `other` (strides may differ).
    pub fn copy_from(&mut self, other: &BatchDense<V>) -> Result<()> {
        self.check_compatible(other, "batch copy")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::copy");
        let exec = self.executor().clone();
        let (sys_bounds, elem_bounds) = self.system_bounds();
        let work = self.masked_work(&sys_bounds, None, 2, 0.0);
        let (stride, o_stride, count) = (self.stride, other.stride, self.size.count());
        let src = other.values.as_slice();
        parallel_chunks(&exec, self.values.as_mut_slice(), &elem_bounds, |ci, out| {
            let sys_lo = sys_bounds[ci];
            for s in sys_lo..sys_bounds[ci + 1] {
                let dst = &mut out[(s - sys_lo) * stride..(s - sys_lo) * stride + count];
                dst.copy_from_slice(&src[s * o_stride..s * o_stride + count]);
            }
        });
        exec.launch(&work);
        Ok(())
    }

    /// Per-system axpy: `self[s] += alpha[s] * other[s]` for active systems.
    pub fn axpy(
        &mut self,
        alpha: &[f64],
        other: &BatchDense<V>,
        active: Option<&[bool]>,
    ) -> Result<()> {
        self.check_compatible(other, "batch axpy")?;
        self.check_coeffs(alpha, "batch axpy")?;
        check_mask(active, self.num_systems, "batch axpy")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::axpy");
        let exec = self.executor().clone();
        let (sys_bounds, elem_bounds) = self.system_bounds();
        let work = self.masked_work(&sys_bounds, active, 3, 2.0);
        let (stride, o_stride, count) = (self.stride, other.stride, self.size.count());
        let src = other.values.as_slice();
        parallel_chunks(&exec, self.values.as_mut_slice(), &elem_bounds, |ci, out| {
            let sys_lo = sys_bounds[ci];
            for s in sys_lo..sys_bounds[ci + 1] {
                if !is_active(active, s) {
                    continue;
                }
                let a = V::from_f64(alpha[s]);
                let dst = &mut out[(s - sys_lo) * stride..(s - sys_lo) * stride + count];
                let sv = &src[s * o_stride..s * o_stride + count];
                for (d, &v) in dst.iter_mut().zip(sv) {
                    *d += a * v;
                }
            }
        });
        exec.launch(&work);
        Ok(())
    }

    /// Per-system `self[s] = other[s] + beta[s] * self[s]` for active
    /// systems (the CG direction update `p = z + beta p`).
    pub fn scale_add(
        &mut self,
        other: &BatchDense<V>,
        beta: &[f64],
        active: Option<&[bool]>,
    ) -> Result<()> {
        self.check_compatible(other, "batch scale_add")?;
        self.check_coeffs(beta, "batch scale_add")?;
        check_mask(active, self.num_systems, "batch scale_add")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::scale_add");
        let exec = self.executor().clone();
        let (sys_bounds, elem_bounds) = self.system_bounds();
        let work = self.masked_work(&sys_bounds, active, 3, 2.0);
        let (stride, o_stride, count) = (self.stride, other.stride, self.size.count());
        let src = other.values.as_slice();
        parallel_chunks(&exec, self.values.as_mut_slice(), &elem_bounds, |ci, out| {
            let sys_lo = sys_bounds[ci];
            for s in sys_lo..sys_bounds[ci + 1] {
                if !is_active(active, s) {
                    continue;
                }
                let b = V::from_f64(beta[s]);
                let dst = &mut out[(s - sys_lo) * stride..(s - sys_lo) * stride + count];
                let sv = &src[s * o_stride..s * o_stride + count];
                for (d, &v) in dst.iter_mut().zip(sv) {
                    *d = v + b * *d;
                }
            }
        });
        exec.launch(&work);
        Ok(())
    }

    /// Per-system Euclidean norms into `out[s]` for active systems
    /// (inactive slots are left untouched). Accumulates in `f64` per system
    /// in element order, so results are deterministic.
    pub fn norms2(&self, active: Option<&[bool]>, out: &mut [f64]) -> Result<()> {
        self.check_coeffs(out, "batch norms2")?;
        check_mask(active, self.num_systems, "batch norms2")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::norms2");
        let exec = self.executor().clone();
        let (sys_bounds, _) = self.system_bounds();
        let work = self.masked_work(&sys_bounds, active, 1, 2.0);
        let (stride, count) = (self.stride, self.size.count());
        let vals = self.values.as_slice();
        parallel_chunks(&exec, out, &sys_bounds, |ci, slots| {
            let sys_lo = sys_bounds[ci];
            for (j, slot) in slots.iter_mut().enumerate() {
                let s = sys_lo + j;
                if !is_active(active, s) {
                    continue;
                }
                let mut acc = 0.0f64;
                for &v in &vals[s * stride..s * stride + count] {
                    let f = v.to_f64();
                    acc += f * f;
                }
                *slot = acc.sqrt();
            }
        });
        exec.launch(&work);
        Ok(())
    }

    /// Per-system dot products `out[s] = self[s] · other[s]` for active
    /// systems (inactive slots are left untouched).
    pub fn dots(
        &self,
        other: &BatchDense<V>,
        active: Option<&[bool]>,
        out: &mut [f64],
    ) -> Result<()> {
        self.check_compatible(other, "batch dots")?;
        self.check_coeffs(out, "batch dots")?;
        check_mask(active, self.num_systems, "batch dots")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::dots");
        let exec = self.executor().clone();
        let (sys_bounds, _) = self.system_bounds();
        let work = self.masked_work(&sys_bounds, active, 2, 2.0);
        let (stride, o_stride, count) = (self.stride, other.stride, self.size.count());
        let a = self.values.as_slice();
        let b = other.values.as_slice();
        parallel_chunks(&exec, out, &sys_bounds, |ci, slots| {
            let sys_lo = sys_bounds[ci];
            for (j, slot) in slots.iter_mut().enumerate() {
                let s = sys_lo + j;
                if !is_active(active, s) {
                    continue;
                }
                let av = &a[s * stride..s * stride + count];
                let bv = &b[s * o_stride..s * o_stride + count];
                let mut acc = 0.0f64;
                for (&x, &y) in av.iter().zip(bv) {
                    acc += x.to_f64() * y.to_f64();
                }
                *slot = acc;
            }
        });
        exec.launch(&work);
        Ok(())
    }

    /// Fused batched CG step 2 on the residual batch `self`: for every
    /// active system, `x[s] += alpha[s] * p[s]` and
    /// `self[s] -= alpha[s] * q[s]` in one pass, with the new squared
    /// residual norm `self[s] · self[s]` written to `rr[s]` (inactive slots
    /// are left untouched).
    ///
    /// One pool dispatch replaces [`axpy`](Self::axpy) twice and
    /// [`norms2`](Self::norms2); `rr[s].sqrt()` is bit-identical to what
    /// `norms2` returns, and the virtual timeline is charged for those
    /// three kernels, in their order.
    pub fn cg_step_2(
        &mut self,
        x: &mut BatchDense<V>,
        p: &BatchDense<V>,
        q: &BatchDense<V>,
        alpha: &[f64],
        active: Option<&[bool]>,
        rr: &mut [f64],
    ) -> Result<()> {
        for other in [&*x, p, q] {
            self.check_compatible(other, "batch cg_step_2")?;
        }
        self.check_coeffs(alpha, "batch cg_step_2")?;
        self.check_coeffs(rr, "batch cg_step_2")?;
        check_mask(active, self.num_systems, "batch cg_step_2")?;
        let _timer = OpTimer::new(self.executor(), "batch_dense::cg_step_2");
        let exec = self.executor().clone();
        let (sys_bounds, r_bounds) = self.system_bounds();
        let x_bounds: Vec<usize> = sys_bounds.iter().map(|&s| s * x.stride).collect();
        let axpy = self.masked_work(&sys_bounds, active, 3, 2.0);
        let norms = self.masked_work(&sys_bounds, active, 1, 2.0);
        let count = self.size.count();
        let (r_stride, x_stride) = (self.stride, x.stride);
        let (p_stride, q_stride) = (p.stride, q.stride);
        let (pv, qv) = (p.values.as_slice(), q.values.as_slice());
        let chunk_rr = parallel_chunks2(
            &exec,
            (x.values.as_mut_slice(), &x_bounds),
            (self.values.as_mut_slice(), &r_bounds),
            |ci, xs, rs| -> Vec<f64> {
                let sys_lo = sys_bounds[ci];
                (sys_lo..sys_bounds[ci + 1])
                    .map(|s| {
                        if !is_active(active, s) {
                            return 0.0;
                        }
                        let (a, neg_a) = (V::from_f64(alpha[s]), V::from_f64(-alpha[s]));
                        let local = s - sys_lo;
                        let xd = &mut xs[local * x_stride..local * x_stride + count];
                        let rd = &mut rs[local * r_stride..local * r_stride + count];
                        let ps = &pv[s * p_stride..s * p_stride + count];
                        let qs = &qv[s * q_stride..s * q_stride + count];
                        for (xe, &pe) in xd.iter_mut().zip(ps) {
                            *xe += a * pe;
                        }
                        let mut acc = 0.0f64;
                        for (re, &qe) in rd.iter_mut().zip(qs) {
                            *re += neg_a * qe;
                            let f = re.to_f64();
                            acc += f * f;
                        }
                        acc
                    })
                    .collect()
            },
        );
        for (s, value) in chunk_rr.into_iter().flatten().enumerate() {
            if is_active(active, s) {
                rr[s] = value;
            }
        }
        exec.launch(&axpy);
        exec.launch(&axpy);
        exec.launch(&norms);
        Ok(())
    }

    /// Charges the virtual timeline for [`dots`](Self::dots) of `self` with
    /// itself over the active systems, without running it: the `rho = r · r`
    /// that [`BatchCg`](crate::solver::BatchCg) takes from
    /// [`cg_step_2`](Self::cg_step_2) instead.
    pub(crate) fn charge_dots(&self, active: Option<&[bool]>) {
        let (sys_bounds, _) = self.system_bounds();
        self.executor()
            .launch(&self.masked_work(&sys_bounds, active, 2, 2.0));
    }
}

// ---------------------------------------------------------------------------
// BatchCsr
// ---------------------------------------------------------------------------

/// Sparsity storage of a [`BatchCsr`].
#[derive(Debug)]
enum Sparsity<V: Value, I: Index> {
    /// One structure shared by every system; values live in the batch's
    /// slab. One plan serves all systems and survives value mutation.
    Shared {
        row_ptrs: Array<I>,
        col_idxs: Array<I>,
        nnz: usize,
        strategy: SpmvStrategy,
        plan: PlanCache,
    },
    /// Independent systems batched only for dispatch.
    PerSystem { systems: Vec<Csr<V, I>> },
}

/// A batch of `num_systems` equally-shaped CSR systems.
///
/// The **shared-sparsity** variant keeps one `row_ptrs`/`col_idxs` structure
/// and an `num_systems × nnz` value slab; since SpMV plans depend only on
/// structure, ONE cached [`SpmvPlan`] serves every system and every apply,
/// and [`BatchCsr::system_values_mut`] deliberately does *not* invalidate
/// it. The **per-system** variant wraps arbitrary same-shaped [`Csr`]s.
///
/// [`BatchCsr::apply_batch`] computes `x[s] = A[s] b[s]` for every active
/// system with a single pool drain.
#[derive(Debug)]
pub struct BatchCsr<V: Value, I: Index = i32> {
    num_systems: usize,
    size: Dim2,
    exec: Executor,
    /// Shared variant: the `num_systems × nnz` value slab. Empty for
    /// per-system sparsity (values live inside each `Csr`).
    values: Array<V>,
    sparsity: Sparsity<V, I>,
}

/// One contiguous piece of a batched SpMV: a run of whole systems
/// (`row_lo == 0`, `row_hi == rows`) or a row range of a single system.
struct ChunkDesc {
    sys_lo: usize,
    sys_hi: usize,
    row_lo: usize,
    row_hi: usize,
}

impl<V: Value, I: Index> BatchCsr<V, I> {
    /// Builds a shared-sparsity batch from a prototype structure and one
    /// value vector per system (each of length `proto.nnz()`).
    pub fn from_shared(proto: &Csr<V, I>, system_values: &[Vec<V>]) -> Result<Self> {
        if system_values.is_empty() {
            return Err(GkoError::BadInput(
                "a batch needs at least one system".to_owned(),
            ));
        }
        let nnz = proto.nnz();
        let mut slab = Vec::with_capacity(system_values.len() * nnz);
        for (s, vals) in system_values.iter().enumerate() {
            if vals.len() != nnz {
                return Err(GkoError::BadInput(format!(
                    "system {s} holds {} values but the shared sparsity has {nnz}",
                    vals.len()
                )));
            }
            slab.extend_from_slice(vals);
        }
        Ok(Self::shared_from_slab(proto, system_values.len(), slab))
    }

    /// Builds a shared-sparsity batch replicating one matrix `num_systems`
    /// times (the facade's batched-solve path).
    pub fn replicated(proto: &Csr<V, I>, num_systems: usize) -> Result<Self> {
        if num_systems == 0 {
            return Err(GkoError::BadInput(
                "a batch needs at least one system".to_owned(),
            ));
        }
        let mut slab = Vec::with_capacity(num_systems * proto.nnz());
        for _ in 0..num_systems {
            slab.extend_from_slice(proto.values());
        }
        Ok(Self::shared_from_slab(proto, num_systems, slab))
    }

    fn shared_from_slab(proto: &Csr<V, I>, num_systems: usize, slab: Vec<V>) -> Self {
        let exec = proto.executor().clone();
        BatchCsr {
            num_systems,
            size: proto.size(),
            values: Array::from_vec(&exec, slab),
            sparsity: Sparsity::Shared {
                row_ptrs: Array::from_vec(&exec, proto.row_ptrs().to_vec()),
                col_idxs: Array::from_vec(&exec, proto.col_idxs().to_vec()),
                nnz: proto.nnz(),
                strategy: proto.strategy(),
                plan: PlanCache::new(),
            },
            exec,
        }
    }

    /// Builds a per-system-sparsity batch from same-shaped matrices.
    pub fn from_systems(systems: Vec<Csr<V, I>>) -> Result<Self> {
        let first = systems.first().ok_or_else(|| {
            GkoError::BadInput("a batch needs at least one system".to_owned())
        })?;
        let size = first.size();
        let exec = first.executor().clone();
        for sys in &systems {
            if sys.size() != size {
                return Err(GkoError::DimensionMismatch {
                    op: "batch",
                    expected: size,
                    actual: sys.size(),
                });
            }
            if !exec.same_memory_space(sys.executor()) {
                return Err(GkoError::ExecutorMismatch {
                    left: exec.name().to_owned(),
                    right: sys.executor().name().to_owned(),
                });
            }
        }
        Ok(BatchCsr {
            num_systems: systems.len(),
            size,
            values: Array::new(&exec, 0),
            sparsity: Sparsity::PerSystem { systems },
            exec,
        })
    }

    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.num_systems
    }

    /// Shape of each system.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Executor the batch lives on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// True for the shared-sparsity variant.
    pub fn is_shared(&self) -> bool {
        matches!(self.sparsity, Sparsity::Shared { .. })
    }

    /// Nonzeros of the shared structure (`None` for per-system sparsity).
    pub fn shared_nnz(&self) -> Option<usize> {
        match &self.sparsity {
            Sparsity::Shared { nnz, .. } => Some(*nnz),
            Sparsity::PerSystem { .. } => None,
        }
    }

    /// Read access to system `s`'s values.
    pub fn system_values(&self, s: usize) -> &[V] {
        match &self.sparsity {
            Sparsity::Shared { nnz, .. } => &self.values.as_slice()[s * nnz..(s + 1) * nnz],
            Sparsity::PerSystem { systems } => systems[s].values(),
        }
    }

    /// Write access to system `s`'s values.
    ///
    /// On the shared-sparsity variant this does **not** invalidate the
    /// cached SpMV plan: plans depend only on the structure (`row_ptrs`),
    /// which value mutation cannot change, so refreshing one system's
    /// coefficients must not force a re-inspection that every other system
    /// would pay for. Per-system sparsity delegates to that system's
    /// [`Csr::values_mut`], which invalidates only its own plan.
    pub fn system_values_mut(&mut self, s: usize) -> &mut [V] {
        match &mut self.sparsity {
            Sparsity::Shared { nnz, .. } => {
                let (lo, hi) = (s * *nnz, (s + 1) * *nnz);
                &mut self.values.as_mut_slice()[lo..hi]
            }
            Sparsity::PerSystem { systems } => systems[s].values_mut(),
        }
    }

    /// Plan-cache counters of the shared plan (`None` for per-system
    /// sparsity, whose plans live inside each `Csr`).
    pub fn plan_stats(&self) -> Option<PlanCacheStats> {
        match &self.sparsity {
            Sparsity::Shared { plan, .. } => Some(plan.stats()),
            Sparsity::PerSystem { .. } => None,
        }
    }

    /// The shared plan, building it on first use (shared sparsity only).
    fn shared_plan(&self) -> Option<Arc<SpmvPlan>> {
        match &self.sparsity {
            Sparsity::Shared {
                row_ptrs,
                strategy,
                plan,
                ..
            } => {
                let workers = self.exec.spec().workers;
                Some(plan.get_or_build(*strategy, workers, || {
                    plan::build_plan(
                        &self.exec,
                        *strategy,
                        self.size.rows,
                        row_ptrs.as_slice(),
                        V::BYTES,
                    )
                }))
            }
            Sparsity::PerSystem { .. } => None,
        }
    }

    /// Row partition for splitting a single large system.
    fn split_bounds(&self, s: usize, plan: Option<&SpmvPlan>, max_chunks: usize) -> Vec<usize> {
        match &self.sparsity {
            Sparsity::Shared { .. } => match plan {
                // The cached plan's partition (merge-path plans have no
                // row-aligned bounds; fall back to a uniform split).
                Some(p) if p.row_bounds.len() >= 2 => p.row_bounds.clone(),
                _ => uniform_bounds(self.size.rows, max_chunks),
            },
            Sparsity::PerSystem { systems } => systems[s].chunk_bounds(max_chunks),
        }
    }

    /// Cost-model work for an SpMV over `rows` rows and `nnz` nonzeros.
    fn span_work(rows: usize, nnz: usize) -> ChunkWork {
        plan::spmv_chunk_work(rows as f64, nnz as f64, V::BYTES, I::BYTES)
    }

    /// Nonzeros in system `s` rows `[lo, hi)`.
    fn span_nnz(&self, s: usize, lo: usize, hi: usize) -> usize {
        match &self.sparsity {
            Sparsity::Shared { row_ptrs, .. } => {
                let rp = row_ptrs.as_slice();
                rp[hi].to_usize() - rp[lo].to_usize()
            }
            Sparsity::PerSystem { systems } => {
                let rp = systems[s].row_ptrs();
                rp[hi].to_usize() - rp[lo].to_usize()
            }
        }
    }

    /// Batched SpMV: `x[s] = A[s] b[s]` for every system where
    /// `active` is unset or true; inactive systems' outputs are untouched.
    ///
    /// Drains the worker pool exactly once. A chunk is a run of whole
    /// systems when the batch is large relative to the pool, or a plan-split
    /// row range of one system otherwise; the cost model is charged only
    /// for active systems.
    pub fn apply_batch(
        &self,
        b: &BatchDense<V>,
        x: &mut BatchDense<V>,
        active: Option<&[bool]>,
    ) -> Result<()> {
        let (rows, cols) = (self.size.rows, self.size.cols);
        if b.num_systems() != self.num_systems || x.num_systems() != self.num_systems {
            return Err(GkoError::BadInput(format!(
                "apply_batch: operator has {} systems, b {} and x {}",
                self.num_systems,
                b.num_systems(),
                x.num_systems()
            )));
        }
        if b.size() != Dim2::new(cols, 1) {
            return Err(GkoError::DimensionMismatch {
                op: "apply_batch",
                expected: Dim2::new(cols, 1),
                actual: b.size(),
            });
        }
        if x.size() != Dim2::new(rows, 1) {
            return Err(GkoError::DimensionMismatch {
                op: "apply_batch",
                expected: Dim2::new(rows, 1),
                actual: x.size(),
            });
        }
        if !self.exec.same_memory_space(b.executor()) {
            return Err(GkoError::ExecutorMismatch {
                left: self.exec.name().to_owned(),
                right: b.executor().name().to_owned(),
            });
        }
        check_mask(active, self.num_systems, "apply_batch")?;
        let _timer = OpTimer::new(&self.exec, "batch_csr");

        // Resolve (and count a hit on) the shared plan before chunking.
        let plan = self.shared_plan();
        let workers = self.exec.spec().workers.max(1);
        let max_chunks = workers * 2;
        let x_stride = x.stride();

        // Partition the x slab into system-aligned chunks. `work` carries
        // only active systems' cost; bounds must still tile the whole slab
        // (padding rides with the last chunk of each system).
        let mut descs: Vec<ChunkDesc> = Vec::new();
        let mut elem_bounds = vec![0usize];
        let mut work: Vec<ChunkWork> = Vec::new();
        if self.num_systems >= max_chunks {
            // Small-system regime: a chunk is a run of whole systems.
            let sys_bounds = uniform_bounds(self.num_systems, max_chunks);
            for w in sys_bounds.windows(2) {
                let act: usize = (w[0]..w[1]).filter(|&s| is_active(active, s)).count();
                descs.push(ChunkDesc {
                    sys_lo: w[0],
                    sys_hi: w[1],
                    row_lo: 0,
                    row_hi: rows,
                });
                elem_bounds.push(w[1] * x_stride);
                if act > 0 {
                    let nnz: usize = (w[0]..w[1])
                        .filter(|&s| is_active(active, s))
                        .map(|s| self.span_nnz(s, 0, rows))
                        .sum();
                    work.push(Self::span_work(act * rows, nnz));
                }
            }
        } else {
            // Large-system regime: split each active system by its plan.
            for s in 0..self.num_systems {
                let sys_end = (s + 1) * x_stride;
                if !is_active(active, s) {
                    descs.push(ChunkDesc {
                        sys_lo: s,
                        sys_hi: s,
                        row_lo: 0,
                        row_hi: 0,
                    });
                    elem_bounds.push(sys_end);
                    continue;
                }
                let bounds = self.split_bounds(s, plan.as_deref(), max_chunks);
                if bounds.len() < 2 {
                    descs.push(ChunkDesc {
                        sys_lo: s,
                        sys_hi: s,
                        row_lo: 0,
                        row_hi: 0,
                    });
                    elem_bounds.push(sys_end);
                    continue;
                }
                for (j, w) in bounds.windows(2).enumerate() {
                    descs.push(ChunkDesc {
                        sys_lo: s,
                        sys_hi: s + 1,
                        row_lo: w[0],
                        row_hi: w[1],
                    });
                    let last = j + 2 == bounds.len();
                    elem_bounds.push(if last { sys_end } else { s * x_stride + w[1] });
                    work.push(Self::span_work(w[1] - w[0], self.span_nnz(s, w[0], w[1])));
                }
            }
        }

        let b_stride = b.stride();
        let bsl = b.as_slice();
        match &self.sparsity {
            Sparsity::Shared {
                row_ptrs,
                col_idxs,
                nnz,
                ..
            } => {
                let rp = row_ptrs.as_slice();
                let ci = col_idxs.as_slice();
                let vals = self.values.as_slice();
                let nnz = *nnz;
                parallel_chunks(&self.exec, x.as_mut_slice(), &elem_bounds, |d, xs| {
                    let desc = &descs[d];
                    for s in desc.sys_lo..desc.sys_hi {
                        if !is_active(active, s) {
                            continue;
                        }
                        let base = (s - desc.sys_lo) * x_stride;
                        let sv = &vals[s * nnz..(s + 1) * nnz];
                        let bv = &bsl[s * b_stride..s * b_stride + cols];
                        for r in desc.row_lo..desc.row_hi {
                            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
                            xs[base + (r - desc.row_lo)] =
                                V::from_f64(dot_span(&sv[lo..hi], &ci[lo..hi], bv));
                        }
                    }
                });
            }
            Sparsity::PerSystem { systems } => {
                parallel_chunks(&self.exec, x.as_mut_slice(), &elem_bounds, |d, xs| {
                    let desc = &descs[d];
                    for s in desc.sys_lo..desc.sys_hi {
                        if !is_active(active, s) {
                            continue;
                        }
                        let base = (s - desc.sys_lo) * x_stride;
                        let sys = &systems[s];
                        let (rp, ci, sv) = (sys.row_ptrs(), sys.col_idxs(), sys.values());
                        let bv = &bsl[s * b_stride..s * b_stride + cols];
                        for r in desc.row_lo..desc.row_hi {
                            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
                            xs[base + (r - desc.row_lo)] =
                                V::from_f64(dot_span(&sv[lo..hi], &ci[lo..hi], bv));
                        }
                    }
                });
            }
        }
        self.exec.launch(&work);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linop::LinOp;
    use crate::matrix::dense::Dense;

    fn tridiag(exec: &Executor, n: usize, diag: f64) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, diag));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    /// Shared-sparsity batch of `s` tridiagonal systems with distinct values.
    fn shared_batch(exec: &Executor, n: usize, s: usize) -> BatchCsr<f64, i32> {
        let proto = tridiag(exec, n, 4.0);
        let vals: Vec<Vec<f64>> = (0..s)
            .map(|k| {
                proto
                    .values()
                    .iter()
                    .map(|&v| if v > 0.0 { v + k as f64 * 0.25 } else { v })
                    .collect()
            })
            .collect();
        BatchCsr::from_shared(&proto, &vals).unwrap()
    }

    /// Reference result: each system applied through the plain Csr kernel.
    fn reference_apply(
        exec: &Executor,
        batch: &BatchCsr<f64, i32>,
        b: &BatchDense<f64>,
    ) -> Vec<Vec<f64>> {
        let n = batch.size().rows;
        let proto = tridiag(exec, n, 4.0);
        (0..batch.num_systems())
            .map(|s| {
                let csr = Csr::from_raw(
                    exec,
                    batch.size(),
                    proto.row_ptrs().to_vec(),
                    proto.col_idxs().to_vec(),
                    batch.system_values(s).to_vec(),
                )
                .unwrap();
                let bv = Dense::from_vec(
                    exec,
                    Dim2::new(n, 1),
                    b.system(s).to_vec(),
                )
                .unwrap();
                let mut xv = Dense::zeros(exec, Dim2::new(n, 1));
                csr.apply(&bv, &mut xv).unwrap();
                xv.to_host_vec()
            })
            .collect()
    }

    #[test]
    fn shared_apply_matches_per_system_reference() {
        let exec = Executor::reference();
        let (n, s) = (12, 5);
        let batch = shared_batch(&exec, n, s);
        let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        for k in 0..s {
            for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                *v = (i + k + 1) as f64 * 0.5;
            }
        }
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        batch.apply_batch(&b, &mut x, None).unwrap();
        let want = reference_apply(&exec, &batch, &b);
        for (k, want_k) in want.iter().enumerate() {
            for (i, (&got, &w)) in x.system(k).iter().zip(want_k).enumerate() {
                assert!(
                    (got - w).abs() < 1e-12,
                    "system {k} row {i}: {got} vs {w}"
                );
            }
        }
    }

    #[test]
    fn grouped_and_split_regimes_agree() {
        // Force both chunking regimes by varying the batch size around the
        // 2*workers threshold (reference executor: 1 worker, threshold 2).
        let exec = Executor::reference();
        let n = 9;
        for s in [1usize, 2, 7] {
            let batch = shared_batch(&exec, n, s);
            let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
            for k in 0..s {
                for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                    *v = 1.0 + (i * (k + 1)) as f64;
                }
            }
            let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
            batch.apply_batch(&b, &mut x, None).unwrap();
            let want = reference_apply(&exec, &batch, &b);
            for (k, want_k) in want.iter().enumerate() {
                for (&got, &w) in x.system(k).iter().zip(want_k) {
                    assert!((got - w).abs() < 1e-12, "batch of {s}, system {k}");
                }
            }
        }
    }

    #[test]
    fn per_system_sparsity_apply() {
        let exec = Executor::reference();
        let n = 8;
        let systems = vec![
            tridiag(&exec, n, 3.0),
            tridiag(&exec, n, 5.0),
            tridiag(&exec, n, 7.0),
        ];
        let batch = BatchCsr::from_systems(systems.clone()).unwrap();
        assert!(!batch.is_shared());
        let mut b = BatchDense::zeros(&exec, 3, Dim2::new(n, 1));
        for k in 0..3 {
            for v in b.system_mut(k) {
                *v = (k + 1) as f64;
            }
        }
        let mut x = BatchDense::zeros(&exec, 3, Dim2::new(n, 1));
        batch.apply_batch(&b, &mut x, None).unwrap();
        for (k, sys) in systems.iter().enumerate() {
            let bv = Dense::from_vec(&exec, Dim2::new(n, 1), b.system(k).to_vec()).unwrap();
            let mut xv = Dense::zeros(&exec, Dim2::new(n, 1));
            sys.apply(&bv, &mut xv).unwrap();
            for (&got, &w) in x.system(k).iter().zip(xv.to_host_vec().iter()) {
                assert!((got - w).abs() < 1e-12, "system {k}");
            }
        }
    }

    #[test]
    fn masked_apply_leaves_inactive_systems_untouched() {
        let exec = Executor::reference();
        let (n, s) = (6, 4);
        let batch = shared_batch(&exec, n, s);
        let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        b.fill(1.0);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        x.fill(-7.0);
        let active = vec![true, false, true, false];
        batch.apply_batch(&b, &mut x, Some(&active)).unwrap();
        for (k, &act) in active.iter().enumerate() {
            if act {
                assert!(x.system(k).iter().any(|&v| v != -7.0), "system {k} written");
            } else {
                assert!(
                    x.system(k).iter().all(|&v| v == -7.0),
                    "system {k} must be untouched"
                );
            }
        }
    }

    #[test]
    fn shared_plan_is_built_once_and_reused() {
        let exec = Executor::reference();
        let (n, s) = (10, 6);
        let batch = shared_batch(&exec, n, s);
        let b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        for _ in 0..50 {
            batch.apply_batch(&b, &mut x, None).unwrap();
        }
        let stats = batch.plan_stats().unwrap();
        assert_eq!(stats.builds, 1, "one inspection serves the whole batch");
        assert_eq!(stats.hits, 49);
        assert!(stats.reuse_ratio() > 0.97, "ratio {}", stats.reuse_ratio());
    }

    #[test]
    fn value_mutation_does_not_invalidate_shared_plan() {
        let exec = Executor::reference();
        let (n, s) = (10, 4);
        let mut batch = shared_batch(&exec, n, s);
        let b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        batch.apply_batch(&b, &mut x, None).unwrap();
        // Refresh one system's coefficients: structure-only plans for the
        // other systems must survive.
        for v in batch.system_values_mut(0) {
            *v *= 2.0;
        }
        batch.apply_batch(&b, &mut x, None).unwrap();
        let stats = batch.plan_stats().unwrap();
        assert_eq!(stats.builds, 1, "value mutation must not re-inspect");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn batch_dense_kernels_match_scalar_math() {
        let exec = Executor::reference();
        let (n, s) = (5, 3);
        let dim = Dim2::new(n, 1);
        let mut a = BatchDense::zeros(&exec, s, dim);
        let mut b = BatchDense::zeros(&exec, s, dim);
        for k in 0..s {
            for (i, v) in a.system_mut(k).iter_mut().enumerate() {
                *v = (k + i) as f64;
            }
            for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                *v = 1.0 + i as f64 * (k + 1) as f64;
            }
        }
        let alpha = vec![1.0, -2.0, 0.5];
        let before: Vec<Vec<f64>> = (0..s).map(|k| a.system(k).to_vec()).collect();
        a.axpy(&alpha, &b, None).unwrap();
        for k in 0..s {
            for (i, &was) in before[k].iter().enumerate() {
                let want = was + alpha[k] * b.system(k)[i];
                assert!((a.system(k)[i] - want).abs() < 1e-12);
            }
        }
        let mut dots = vec![0.0; s];
        a.dots(&b, None, &mut dots).unwrap();
        let mut norms = vec![0.0; s];
        a.norms2(None, &mut norms).unwrap();
        for k in 0..s {
            let want_dot: f64 = a.system(k).iter().zip(b.system(k)).map(|(x, y)| x * y).sum();
            let want_norm: f64 = a.system(k).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((dots[k] - want_dot).abs() < 1e-9, "dot {k}");
            assert!((norms[k] - want_norm).abs() < 1e-9, "norm {k}");
        }
    }

    #[test]
    fn masked_kernels_skip_inactive_systems() {
        let exec = Executor::reference();
        let (n, s) = (4, 3);
        let dim = Dim2::new(n, 1);
        let mut a = BatchDense::zeros(&exec, s, dim);
        a.fill(1.0);
        let mut b = BatchDense::zeros(&exec, s, dim);
        b.fill(10.0);
        let active = vec![true, false, true];
        a.axpy(&[1.0, 1.0, 1.0], &b, Some(&active)).unwrap();
        assert_eq!(a.system(0)[0], 11.0);
        assert_eq!(a.system(1)[0], 1.0, "inactive system untouched");
        assert_eq!(a.system(2)[0], 11.0);
        let mut out = vec![-1.0; s];
        a.norms2(Some(&active), &mut out).unwrap();
        assert!(out[0] > 0.0);
        assert_eq!(out[1], -1.0, "inactive slot untouched");
    }

    #[test]
    fn strided_batch_round_trips() {
        let exec = Executor::reference();
        let dim = Dim2::new(3, 1);
        let mut padded = BatchDense::<f64>::with_stride(&exec, 2, dim, 8).unwrap();
        assert_eq!(padded.stride(), 8);
        for (i, v) in padded.system_mut(1).iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut dense = BatchDense::zeros(&exec, 2, dim);
        dense.copy_from(&padded).unwrap();
        assert_eq!(dense.system(1), &[0.0, 1.0, 2.0]);
        assert!(BatchDense::<f64>::with_stride(&exec, 2, dim, 2).is_err());
    }

    #[test]
    fn dimension_and_mask_errors() {
        let exec = Executor::reference();
        let batch = shared_batch(&exec, 6, 3);
        let b = BatchDense::zeros(&exec, 3, Dim2::new(6, 1));
        let mut wrong_rows = BatchDense::zeros(&exec, 3, Dim2::new(5, 1));
        assert!(batch.apply_batch(&b, &mut wrong_rows, None).is_err());
        let mut wrong_batch = BatchDense::zeros(&exec, 2, Dim2::new(6, 1));
        assert!(batch.apply_batch(&b, &mut wrong_batch, None).is_err());
        let mut x = BatchDense::zeros(&exec, 3, Dim2::new(6, 1));
        let short_mask = vec![true; 2];
        assert!(batch.apply_batch(&b, &mut x, Some(&short_mask)).is_err());
        assert!(BatchCsr::<f64, i32>::from_systems(vec![]).is_err());
        let proto = tridiag(&exec, 4, 2.0);
        assert!(BatchCsr::from_shared(&proto, &[vec![1.0; 3]]).is_err());
    }
}
