//! `cg_poisson`: unpreconditioned CG on poisson2d_200 to a 1e-6 residual
//! reduction, one `Solver::apply` from x0 = 0 per op.

use crate::check::{bitwise_equal, HostCsr};
use crate::harness::{attribute, err, pairs, sample, Ctx, Res, Workload};
use crate::inputs::Files;
use crate::spans::Recorder;
use crate::stats::{coo_spmv_bytes, csr_spmv_bytes};
use gko::matrix::{Coo, Csr, Dense};
use gko::solver::Cg;
use gko::stop::Criteria;
use gko::{Dim2, Executor, LinOp};
use pyginkgo as pg;
use pygko_baselines::scipy::ScipyCsr;
use std::sync::Arc;
use std::time::Instant;

const MATRIX: &str = "poisson2d_200";
const MAX_ITERS: usize = 10_000;
/// Residual reduction the solve must reach, and the check enforces.
pub const REDUCTION: f64 = 1e-6;

/// Reference data for the checks.
pub struct CgPrep {
    rhs: Vec<f64>,
    a: HostCsr,
    /// Solution of an inert solve on its own device, for bitwise equality.
    x_inert: Vec<f64>,
    /// Modeled workers of that device.
    workers: usize,
}

/// A warmed facade CG solver and its operands.
pub struct CgWorkload {
    dev: pg::Device,
    solver: pg::solver::Solver,
    b: pg::Tensor,
    x: pg::Tensor,
    read_s: f64,
    iterations: usize,
    converged: bool,
}

fn read_triplets(files: &Files) -> Res<pygko_mtx::MtxData> {
    pygko_mtx::read_mtx_file(files.path(&format!("{MATRIX}.mtx"))).map_err(err)
}

impl Workload for CgWorkload {
    type Prep = CgPrep;
    const ARMABLE: bool = true;
    const SYSTEMS_PER_OP: usize = 1;
    const SETUP_REPS: usize = 45;

    fn prepare(files: &Files, threads: usize) -> Res<CgPrep> {
        let rhs = files.vector("rhs.vec").map_err(err)?;
        let data = read_triplets(files)?;
        let mut prep = CgPrep {
            rhs,
            a: HostCsr::from_triplets(data.rows, &data.entries),
            x_inert: Vec::new(),
            workers: 0,
        };
        let dev = pg::device_with_id("omp", threads).map_err(err)?;
        prep.workers = dev.executor().spec().workers;
        let mut inert = CgWorkload::setup(&prep, files, dev, false).map_err(err)?;
        inert.reset();
        inert.op(None).map_err(err)?;
        prep.x_inert = inert.x.to_vec();
        if !inert.converged {
            return Err("the inert reference solve did not converge".into());
        }
        Ok(prep)
    }

    fn setup(prep: &CgPrep, files: &Files, dev: pg::Device, armed: bool) -> pg::PyResult<Self> {
        let t0 = Instant::now();
        let mtx = pg::read(&dev, files.path(&format!("{MATRIX}.mtx")), "double", "Csr")?;
        let read_s = t0.elapsed().as_secs_f64();
        let n = prep.rhs.len();
        let b = pg::as_tensor(prep.rhs.clone(), &dev, (n, 1), "double")?;
        let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;
        // Warm-up: builds the SpMV plan and spawns the pool.
        mtx.spmv_into(&b, &mut x)?;
        let mut solver = pg::solver::cg(&dev, &mtx, None, MAX_ITERS, REDUCTION)?;
        if armed {
            solver = solver
                .with_logger("metrics")?
                .with_flight_recorder()
                .with_tracing(1)?
                .with_profiling();
        }
        Ok(CgWorkload {
            dev,
            solver,
            b,
            x,
            read_s,
            iterations: 0,
            converged: false,
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
    }

    fn op(&mut self, _rec: Option<&mut Recorder>) -> pg::PyResult<()> {
        let logger = self.solver.apply(&self.b, &mut self.x)?;
        self.iterations = logger.iterations();
        self.converged = logger.converged();
        Ok(())
    }

    fn check(&self, prep: &CgPrep) -> bool {
        let x = self.x.to_vec();
        // Chunking follows the device's worker count, so only devices of the
        // reference solve's kind must reproduce it bit for bit.
        let same_kind = self.dev.executor().spec().workers == prep.workers;
        self.converged
            && prep.a.rel_residual(&prep.rhs, &x, 1, 0) <= REDUCTION
            && (!same_kind || bitwise_equal(&x, &prep.x_inert))
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

    fn layers(&mut self, ctx: &mut Ctx<'_, CgPrep>) -> Res<()> {
        let t0 = Instant::now();
        let data = read_triplets(ctx.files)?;
        let read = t0.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(ctx.files.path(&format!("{MATRIX}.mtx")))
            .map_err(err)?
            .len();
        ctx.out.set("mtx.read_mb_per_s", bytes as f64 / 1e6 / read);

        let exec = self.dev.executor().clone();
        let (rows, cols, nnz) = (data.rows, data.cols, data.entries.len());
        let dim = Dim2::new(rows, cols);
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, dim, &data.entries).map_err(err)?);
        let coo = Coo::<f64, i32>::from_triplets(&exec, dim, &data.entries).map_err(err)?;
        let b = Dense::from_vec(&exec, Dim2::new(rows, 1), ctx.prep.rhs.clone()).map_err(err)?;
        let mut x = Dense::zeros(&exec, Dim2::new(rows, 1));
        let twin = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
            .map_err(err)?
            .with_criteria(Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION));
        twin.apply(&b, &mut x).map_err(err)?; // builds the twin's plan

        // Facade op against the engine twin on the same executor.
        let plan0 = a.plan_stats();
        let mut twin_ops = 0u64;
        let (engine, overhead) = pairs(self, ctx.rec, 10, ctx.budget * 4, |rec| {
            x.fill(0.0);
            rec.span("pair.engine", || twin.apply(&b, &mut x))
                .map_err(err)?;
            twin_ops += 1;
            Ok(())
        })?;
        let plan = a.plan_stats();
        let iters = self.iterations;
        ctx.out.set("pyginkgo.overhead_us", overhead * 1e6);
        ctx.out.set(
            "plan.builds_per_op",
            (plan.builds - plan0.builds) as f64 / twin_ops as f64,
        );
        ctx.out.set(
            "plan.hits_per_op",
            (plan.hits - plan0.hits) as f64 / twin_ops as f64,
        );
        ctx.out.set("solver.iters", iters as f64);
        ctx.out.set("solver.iter_us", engine / iters as f64 * 1e6);

        // Kernel twins: the same CG iteration through the public Dense and
        // Csr calls, one span per kernel, folded into per-layer self time.
        // Each replay follows an engine-twin solve, so both see the same
        // host conditions.
        let first = ctx.rec.next_op();
        let mut x_loop = Vec::new();
        for _ in 0..3 {
            x.fill(0.0);
            ctx.rec
                .span("twin.solve", || twin.apply(&b, &mut x))
                .map_err(err)?;
            x_loop = cg_kernel_twin(ctx.rec, &a, &b, iters)?;
        }
        let csr_s = attribute(ctx, first, iters, bitwise_equal(&x_loop, x.as_slice()));
        ctx.out.set("matrix.spmv_us.main.csr", csr_s * 1e6);
        ctx.out.set(
            "matrix.spmv_gbps_computed.main.csr",
            csr_spmv_bytes(rows, cols, nnz, 8, 4) / csr_s * 1e-9,
        );

        let mut q = Dense::zeros(&exec, Dim2::new(rows, 1));
        let coo_s = sample(ctx.rec, "kernel.spmv.coo", 200, ctx.budget, || {
            coo.apply(&b, &mut q).map_err(err)
        })?;
        ctx.out.set("matrix.spmv_us.main.coo", coo_s * 1e6);
        ctx.out.set(
            "matrix.spmv_gbps_computed.main.coo",
            coo_spmv_bytes(rows, cols, nnz, 8, 4) / coo_s * 1e-9,
        );

        let build = sample(ctx.rec, "plan.build", 200, ctx.budget, || {
            a.invalidate_plan();
            std::hint::black_box(a.plan());
            Ok(())
        })?;
        ctx.out.set("plan.build_us.main", build * 1e6);

        let reference = Executor::reference();
        let scipy = ScipyCsr::new(Arc::new(a.clone_to(&reference)));
        let rb = b.clone_to(&reference);
        let mut rq = Dense::zeros(&reference, Dim2::new(rows, 1));
        let scipy_s = sample(ctx.rec, "baseline.scipy", 200, ctx.budget, || {
            scipy.apply(&rb, &mut rq).map_err(err)
        })?;
        ctx.out
            .set("matrix.spmv_speedup_vs_scipy.main", scipy_s / csr_s);
        Ok(())
    }
}

/// One CG solve from x0 = 0 through public engine calls, in the order
/// `gko::solver::Cg` issues them with no preconditioner (the identity
/// preconditioner is a copy), for exactly `iters` iterations.
fn cg_kernel_twin(
    rec: &mut Recorder,
    a: &Csr<f64, i32>,
    b: &Dense<f64>,
    iters: usize,
) -> Res<Vec<f64>> {
    let exec = b.executor().clone();
    let dim = b.size();
    rec.next_op();
    let root = rec.begin("twin.loop");
    let mut x = Dense::zeros(&exec, dim);
    let mut r = Dense::zeros(&exec, dim);
    let mut z = Dense::zeros(&exec, dim);
    let mut q = Dense::zeros(&exec, dim);
    rec.span("kernel.copy", || r.copy_from(b)).map_err(err)?;
    rec.span("kernel.spmv", || a.apply_advanced(-1.0, &x, 1.0, &mut r))
        .map_err(err)?;
    rec.span("kernel.copy", || z.copy_from(&r)).map_err(err)?;
    let mut p = z.clone();
    rec.span("kernel.norm", || r.compute_norm2());
    let mut rho = rec.span("kernel.dot", || r.compute_dot(&z)).map_err(err)?;
    for k in 0..iters {
        let it = rec.begin("solver.iteration");
        rec.span("kernel.spmv", || a.apply(&p, &mut q))
            .map_err(err)?;
        let pq = rec.span("kernel.dot", || p.compute_dot(&q)).map_err(err)?;
        let alpha = rho / pq;
        rec.span("kernel.axpy", || x.add_scaled(alpha, &p))
            .map_err(err)?;
        rec.span("kernel.axpy", || r.add_scaled(-alpha, &q))
            .map_err(err)?;
        std::hint::black_box(rec.span("kernel.norm", || r.compute_norm2()));
        if k + 1 == iters {
            // The converged iteration stops after the residual norm.
            rec.end(it);
            break;
        }
        rec.span("kernel.copy", || z.copy_from(&r)).map_err(err)?;
        let rho_new = rec.span("kernel.dot", || r.compute_dot(&z)).map_err(err)?;
        let beta = rho_new / rho;
        rec.span("kernel.scale_add", || p.scale_add(1.0, &z, beta))
            .map_err(err)?;
        rho = rho_new;
        rec.end(it);
    }
    rec.end(root);
    Ok(x.as_slice().to_vec())
}
