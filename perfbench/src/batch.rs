//! `batch_small`: `Solver::solve_batch` with CG over 1200 SPD tridiagonal
//! systems of 32 rows to a 1e-10 residual reduction. One op is one batched
//! solve from x0 = 0; the facade replicates the matrix into a fresh
//! `BatchCsr` (and builds its plan) on every call.

use crate::check::{bitwise_equal, HostCsr};
use crate::harness::{attribute, err, pairs, sample, Ctx, Res, Workload};
use crate::inputs::{Files, BATCH_N, BATCH_SYSTEMS};
use crate::spans::Recorder;
use crate::stats::csr_spmv_bytes;
use gko::matrix::{BatchCsr, BatchDense, Csr, Dense};
use gko::solver::BatchCg;
use gko::stop::Criteria;
use gko::{Dim2, Executor, LinOp};
use pyginkgo as pg;
use pygko_baselines::scipy::ScipyCsr;
use std::sync::Arc;
use std::time::Instant;

const MAX_ITERS: usize = 1000;
/// Residual reduction every system must reach, and the check enforces.
pub const REDUCTION: f64 = 1e-10;

/// Reference data for the checks.
pub struct BatchPrep {
    triplets: Vec<(usize, usize, f64)>,
    /// Right-hand sides, row-major `(n, S)`.
    rhs: Vec<f64>,
    a: HostCsr,
}

/// A warmed facade batched CG solver and its operands.
pub struct BatchWorkload {
    dev: pg::Device,
    solver: pg::solver::Solver,
    b: pg::Tensor,
    x: pg::Tensor,
    read_s: f64,
    last: Option<pg::solver::BatchSolveResult>,
}

impl Workload for BatchWorkload {
    type Prep = BatchPrep;
    const ARMABLE: bool = true;
    const SYSTEMS_PER_OP: usize = BATCH_SYSTEMS;
    const SETUP_REPS: usize = 45;

    fn prepare(files: &Files, _threads: usize) -> Res<BatchPrep> {
        let data = pygko_mtx::read_mtx_file(files.path("tridiag32.mtx")).map_err(err)?;
        let rhs = files.vector("rhs.vec").map_err(err)?;
        if data.rows != BATCH_N || rhs.len() != BATCH_N * BATCH_SYSTEMS {
            return Err("generated batch has the wrong shape".into());
        }
        Ok(BatchPrep {
            a: HostCsr::from_triplets(data.rows, &data.entries),
            triplets: data.entries,
            rhs,
        })
    }

    fn setup(prep: &BatchPrep, _files: &Files, dev: pg::Device, armed: bool) -> pg::PyResult<Self> {
        let t0 = Instant::now();
        let b = pg::as_tensor(prep.rhs.clone(), &dev, (BATCH_N, BATCH_SYSTEMS), "double")?;
        let mtx = pg::SparseMatrix::from_triplets(
            &dev,
            (BATCH_N, BATCH_N),
            &prep.triplets,
            "double",
            "int32",
            "Csr",
        )?;
        let read_s = t0.elapsed().as_secs_f64();
        let mut x = pg::as_tensor_fill(&dev, (BATCH_N, BATCH_SYSTEMS), "double", 0.0)?;
        let mut solver = pg::solver::cg(&dev, &mtx, None, MAX_ITERS, REDUCTION)?;
        if armed {
            solver = solver
                .with_logger("metrics")?
                .with_flight_recorder()
                .with_tracing(1)?
                .with_profiling();
        }
        // Warm-up: the first batched solve spawns the pool.
        let last = Some(solver.solve_batch(&b, &mut x)?);
        Ok(BatchWorkload {
            dev,
            solver,
            b,
            x,
            read_s,
            last,
        })
    }

    fn read_s(&self) -> f64 {
        self.read_s
    }

    fn device(&self) -> &pg::Device {
        &self.dev
    }

    fn reset(&mut self) {
        self.x.fill(0.0);
        self.last = None;
    }

    fn op(&mut self, _rec: Option<&mut Recorder>) -> pg::PyResult<()> {
        self.last = Some(self.solver.solve_batch(&self.b, &mut self.x)?);
        Ok(())
    }

    fn check(&self, prep: &BatchPrep) -> bool {
        let Some(result) = &self.last else {
            return false;
        };
        let x = self.x.to_vec();
        result.num_systems() == BATCH_SYSTEMS
            && result.all_converged()
            && (0..BATCH_SYSTEMS)
                .all(|s| prep.a.rel_residual(&prep.rhs, &x, BATCH_SYSTEMS, s) <= REDUCTION)
    }

    fn inject_fault(&mut self) {
        let v = self.x.get(0, 0).unwrap_or(0.0);
        let _ = self.x.set(0, 0, v + 1.0);
    }

    fn observed(&self) -> Option<(f64, f64, f64)> {
        let report = self.solver.trace_report()?;
        let nodes = self.solver.profile().map_or(0, |p| p.nodes.len());
        Some((
            report.spans.len() as f64,
            report.truncated_spans as f64,
            nodes as f64,
        ))
    }

    fn layers(&mut self, ctx: &mut Ctx<'_, BatchPrep>) -> Res<()> {
        let exec = self.dev.executor().clone();
        let dim = Dim2::new(BATCH_N, BATCH_N);
        let proto = Csr::<f64, i32>::from_triplets(&exec, dim, &ctx.prep.triplets).map_err(err)?;
        let nnz = proto.nnz();
        let criteria = Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION);
        let per_system = |flat: &[f64]| -> Vec<Vec<f64>> {
            (0..BATCH_SYSTEMS)
                .map(|s| (0..BATCH_N).map(|i| flat[i * BATCH_SYSTEMS + s]).collect())
                .collect()
        };
        let vdim = Dim2::new(BATCH_N, 1);
        let b = BatchDense::from_systems(&exec, vdim, &per_system(&ctx.prep.rhs)).map_err(err)?;

        // Facade op against the engine twin: the same replicated BatchCsr
        // and BatchCg, without validation or the (n, S) layout copies.
        let (mut builds, mut hits, mut twin_ops) = (0u64, 0u64, 0u64);
        let mut record = None;
        let (engine, overhead) = pairs(self, ctx.rec, 200, ctx.budget, |rec| {
            let s = rec.begin("pair.engine");
            let batch = Arc::new(BatchCsr::replicated(&proto, BATCH_SYSTEMS).map_err(err)?);
            let mut x = BatchDense::zeros(&exec, BATCH_SYSTEMS, vdim);
            let r = BatchCg::new(batch.clone())
                .map_err(err)?
                .with_criteria(criteria)
                .apply_batch(&b, &mut x)
                .map_err(err)?;
            rec.end(s);
            let p = batch.plan_stats().unwrap_or_default();
            builds += p.builds;
            hits += p.hits;
            twin_ops += 1;
            record = Some(r);
            Ok(())
        })?;
        let record = record.ok_or("no twin batch ran")?;
        let iters_max = record.max_iterations();
        ctx.out.set("pyginkgo.overhead_us", overhead * 1e6);
        ctx.out
            .set("plan.builds_per_op", builds as f64 / twin_ops as f64);
        ctx.out
            .set("plan.hits_per_op", hits as f64 / twin_ops as f64);
        ctx.out.set(
            "solver.iters",
            record.outcomes.iter().map(|o| o.iterations).sum::<usize>() as f64,
        );
        ctx.out.set("batch.iters_max", iters_max as f64);
        ctx.out
            .set("solver.iter_us", engine / iters_max as f64 * 1e6);

        // Kernel twins: the batched CG loop through public BatchDense and
        // BatchCsr calls, one span per kernel. Each replay follows an
        // engine-twin solve on the same operator.
        let batch = Arc::new(BatchCsr::replicated(&proto, BATCH_SYSTEMS).map_err(err)?);
        let solver = BatchCg::new(batch.clone())
            .map_err(err)?
            .with_criteria(criteria);
        let mut x_twin = BatchDense::zeros(&exec, BATCH_SYSTEMS, vdim);
        solver.apply_batch(&b, &mut x_twin).map_err(err)?; // builds the shared plan
        let first = ctx.rec.next_op();
        let mut x_loop = Vec::new();
        for _ in 0..10 {
            x_twin.fill(0.0);
            ctx.rec
                .span("twin.solve", || solver.apply_batch(&b, &mut x_twin))
                .map_err(err)?;
            x_loop = batch_kernel_twin(ctx.rec, &batch, &b, criteria)?;
        }
        attribute(
            ctx,
            first,
            iters_max,
            bitwise_equal(&x_loop, x_twin.as_slice()),
        );

        // Batched SpMV over all systems at once, against a loop of
        // single-threaded SciPy-style SpMVs, one per system.
        let mut q = BatchDense::zeros(&exec, BATCH_SYSTEMS, vdim);
        let spmv = sample(ctx.rec, "kernel.spmv.batch", 500, ctx.budget, || {
            batch.apply_batch(&b, &mut q, None).map_err(err)
        })?;
        ctx.out.set("matrix.spmv_us.main.csr", spmv * 1e6);
        let bytes = BATCH_SYSTEMS as f64 * csr_spmv_bytes(BATCH_N, BATCH_N, nnz, 8, 4);
        ctx.out
            .set("matrix.spmv_gbps_computed.main.csr", bytes / spmv * 1e-9);
        let reference = Executor::reference();
        let scipy = ScipyCsr::new(Arc::new(proto.clone_to(&reference)));
        let rhs0 = per_system(&ctx.prep.rhs).swap_remove(0);
        let rb = Dense::from_vec(&reference, vdim, rhs0).map_err(err)?;
        let mut rx = Dense::zeros(&reference, vdim);
        let scipy_s = sample(ctx.rec, "baseline.scipy", 100, ctx.budget, || {
            for _ in 0..BATCH_SYSTEMS {
                scipy.apply(&rb, &mut rx).map_err(err)?;
            }
            Ok(())
        })?;
        ctx.out
            .set("matrix.spmv_speedup_vs_scipy.main", scipy_s / spmv);

        let build = sample(ctx.rec, "plan.build", 500, ctx.budget, || {
            proto.invalidate_plan();
            std::hint::black_box(proto.plan());
            Ok(())
        })?;
        ctx.out.set("plan.build_us.main", build * 1e6);
        Ok(())
    }
}

/// One batched CG solve from x0 = 0 through public engine calls, in the
/// order `gko::solver::BatchCg` issues them.
fn batch_kernel_twin(
    rec: &mut Recorder,
    op: &BatchCsr<f64, i32>,
    b: &BatchDense<f64>,
    criteria: Criteria,
) -> Res<Vec<f64>> {
    let exec = b.executor().clone();
    let (s_count, dim) = (b.num_systems(), b.size());
    rec.next_op();
    let root = rec.begin("twin.loop");
    let mut x = BatchDense::zeros(&exec, s_count, dim);
    let mut r = BatchDense::zeros(&exec, s_count, dim);
    let mut q = BatchDense::zeros(&exec, s_count, dim);
    let mut p = BatchDense::zeros(&exec, s_count, dim);
    rec.span("kernel.copy", || r.copy_from(b)).map_err(err)?;
    rec.span("kernel.spmv", || op.apply_batch(&x, &mut q, None))
        .map_err(err)?;
    rec.span("kernel.axpy", || r.axpy(&vec![-1.0; s_count], &q, None))
        .map_err(err)?;
    let mut baseline = vec![0.0; s_count];
    rec.span("kernel.norm", || r.norms2(None, &mut baseline))
        .map_err(err)?;
    let mut active: Vec<bool> = baseline
        .iter()
        .map(|&b0| criteria.check(0, b0, b0).is_none())
        .collect();
    rec.span("kernel.copy", || p.copy_from(&r)).map_err(err)?;
    let mut rho = vec![0.0; s_count];
    rec.span("kernel.dot", || r.dots(&r, Some(&active), &mut rho))
        .map_err(err)?;
    let (mut pq, mut res, mut coeff, mut rho_new) = (
        vec![0.0; s_count],
        vec![0.0; s_count],
        vec![0.0; s_count],
        vec![0.0; s_count],
    );
    let mut iter = 0;
    while active.iter().any(|a| *a) {
        iter += 1;
        let it = rec.begin("solver.iteration");
        rec.span("kernel.spmv", || op.apply_batch(&p, &mut q, Some(&active)))
            .map_err(err)?;
        rec.span("kernel.dot", || p.dots(&q, Some(&active), &mut pq))
            .map_err(err)?;
        for s in 0..s_count {
            coeff[s] = if active[s] { rho[s] / pq[s] } else { 0.0 };
        }
        rec.span("kernel.axpy", || x.axpy(&coeff, &p, Some(&active)))
            .map_err(err)?;
        for c in coeff.iter_mut() {
            *c = -*c;
        }
        rec.span("kernel.axpy", || r.axpy(&coeff, &q, Some(&active)))
            .map_err(err)?;
        rec.span("kernel.norm", || r.norms2(Some(&active), &mut res))
            .map_err(err)?;
        for s in 0..s_count {
            if active[s] && criteria.check(iter, res[s], baseline[s]).is_some() {
                active[s] = false;
            }
        }
        if !active.iter().any(|a| *a) {
            rec.end(it);
            break;
        }
        rec.span("kernel.dot", || r.dots(&r, Some(&active), &mut rho_new))
            .map_err(err)?;
        for s in 0..s_count {
            if active[s] {
                coeff[s] = rho_new[s] / rho[s];
                rho[s] = rho_new[s];
            }
        }
        rec.span("kernel.scale_add", || {
            p.scale_add(&r, &coeff, Some(&active))
        })
        .map_err(err)?;
        rec.end(it);
    }
    rec.end(root);
    Ok(x.as_slice().to_vec())
}
