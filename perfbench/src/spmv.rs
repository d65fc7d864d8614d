//! `spmv_stream`: CSR and COO SpMV on poisson2d_600 (regular) and
//! powerlaw_200000 (one ultra-dense row, so `Auto` picks merge-path). One
//! op is one `SparseMatrix::spmv_into` per matrix and format, each reusing
//! its cached plan.

use crate::check::{max_ulps, SPMV_MAX_ULPS};
use crate::harness::{err, pairs, sample, Ctx, Res, Workload};
use crate::inputs::Files;
use crate::spans::Recorder;
use crate::stats::{coo_spmv_bytes, csr_spmv_bytes, median};
use gko::matrix::{Coo, Csr, Dense};
use gko::{Dim2, Executor, LinOp};
use pyginkgo as pg;
use pygko_baselines::scipy::ScipyCsr;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Matrix file stems, in the order `main`, `skewed`.
const MATRICES: [&str; 2] = ["poisson2d_600", "powerlaw_200000"];
/// Format names, in the order CSR, COO.
const FORMATS: [&str; 2] = ["csr", "coo"];
/// Per-call span names, indexed by matrix then format.
const CALL_SPANS: [[&str; 2]; 2] = [
    ["facade.spmv_into.main.csr", "facade.spmv_into.main.coo"],
    ["facade.spmv_into.skewed.csr", "facade.spmv_into.skewed.coo"],
];
/// Per-layer metric names, indexed by matrix (then format).
const SPMV_US: [[&str; 2]; 2] = [
    ["matrix.spmv_us.main.csr", "matrix.spmv_us.main.coo"],
    ["matrix.spmv_us.skewed.csr", "matrix.spmv_us.skewed.coo"],
];
const SPMV_GBPS: [[&str; 2]; 2] = [
    [
        "matrix.spmv_gbps_computed.main.csr",
        "matrix.spmv_gbps_computed.main.coo",
    ],
    [
        "matrix.spmv_gbps_computed.skewed.csr",
        "matrix.spmv_gbps_computed.skewed.coo",
    ],
];
const PLAN_BUILD_US: [&str; 2] = ["plan.build_us.main", "plan.build_us.skewed"];
const SCIPY_SPEEDUP: [&str; 2] = [
    "matrix.spmv_speedup_vs_scipy.main",
    "matrix.spmv_speedup_vs_scipy.skewed",
];

/// Reference outputs for the checks.
pub struct SpmvPrep {
    inputs: [Vec<f64>; 2],
    /// Reference-executor output, indexed by matrix then format.
    expected: [[Vec<f64>; 2]; 2],
}

struct Operands {
    mats: [pg::SparseMatrix; 2],
    b: pg::Tensor,
    out: [pg::Tensor; 2],
}

/// Warmed facade CSR and COO matrices with their operands.
pub struct SpmvWorkload {
    dev: pg::Device,
    ops: Vec<Operands>,
    read_s: f64,
    /// Whether a parity violation was already reported on stderr.
    reported: Cell<bool>,
}

fn mtx_path(files: &Files, m: usize) -> std::path::PathBuf {
    files.path(&format!("{}.mtx", MATRICES[m]))
}

impl Workload for SpmvWorkload {
    type Prep = SpmvPrep;
    const ARMABLE: bool = false;
    const SYSTEMS_PER_OP: usize = 0;
    const SETUP_REPS: usize = 5;

    fn prepare(files: &Files, _threads: usize) -> Res<SpmvPrep> {
        let reference = Executor::reference();
        let mut inputs: [Vec<f64>; 2] = Default::default();
        let mut expected: [[Vec<f64>; 2]; 2] = Default::default();
        for m in 0..2 {
            inputs[m] = files.vector(&format!("{}.vec", MATRICES[m])).map_err(err)?;
            let data = pygko_mtx::read_mtx_file(mtx_path(files, m)).map_err(err)?;
            let dim = Dim2::new(data.rows, data.cols);
            let b = Dense::from_vec(&reference, Dim2::new(data.cols, 1), inputs[m].clone())
                .map_err(err)?;
            let mut y = Dense::zeros(&reference, Dim2::new(data.rows, 1));
            let csr =
                Csr::<f64, i32>::from_triplets(&reference, dim, &data.entries).map_err(err)?;
            csr.apply(&b, &mut y).map_err(err)?;
            expected[m][0] = y.as_slice().to_vec();
            drop(csr);
            let coo =
                Coo::<f64, i32>::from_triplets(&reference, dim, &data.entries).map_err(err)?;
            coo.apply(&b, &mut y).map_err(err)?;
            expected[m][1] = y.as_slice().to_vec();
        }
        Ok(SpmvPrep { inputs, expected })
    }

    fn setup(prep: &SpmvPrep, files: &Files, dev: pg::Device, _armed: bool) -> pg::PyResult<Self> {
        let mut ops = Vec::new();
        let mut read_s = 0.0;
        for m in 0..2 {
            let t0 = Instant::now();
            let csr = pg::read(&dev, mtx_path(files, m), "double", "Csr")?;
            let coo = pg::read(&dev, mtx_path(files, m), "double", "Coo")?;
            read_s += t0.elapsed().as_secs_f64();
            let (rows, cols) = csr.shape();
            let b = pg::as_tensor(prep.inputs[m].clone(), &dev, (cols, 1), "double")?;
            let mut out = [
                pg::as_tensor_fill(&dev, (rows, 1), "double", 0.0)?,
                pg::as_tensor_fill(&dev, (rows, 1), "double", 0.0)?,
            ];
            // Warm-up: builds the CSR plan and spawns the pool.
            csr.spmv_into(&b, &mut out[0])?;
            coo.spmv_into(&b, &mut out[1])?;
            ops.push(Operands {
                mats: [csr, coo],
                b,
                out,
            });
        }
        Ok(SpmvWorkload {
            dev,
            ops,
            read_s,
            reported: Cell::new(false),
        })
    }

    fn read_s(&self) -> f64 {
        self.read_s
    }

    fn device(&self) -> &pg::Device {
        &self.dev
    }

    fn reset(&mut self) {
        // Poison the outputs so an SpMV that skips a row cannot pass.
        for o in &mut self.ops {
            for t in &mut o.out {
                t.fill(f64::NAN);
            }
        }
    }

    fn op(&mut self, mut rec: Option<&mut Recorder>) -> pg::PyResult<()> {
        for (o, spans) in self.ops.iter_mut().zip(CALL_SPANS) {
            for ((mat, out), name) in o.mats.iter().zip(o.out.iter_mut()).zip(spans) {
                let span = rec.as_deref_mut().map(|r| r.begin(name));
                mat.spmv_into(&o.b, out)?;
                if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                    r.end(s);
                }
            }
        }
        Ok(())
    }

    fn check(&self, prep: &SpmvPrep) -> bool {
        let mut ok = true;
        for ((o, expected), matrix) in self.ops.iter().zip(&prep.expected).zip(MATRICES) {
            for ((out, want), format) in o.out.iter().zip(expected).zip(FORMATS) {
                let (worst, row) = max_ulps(&out.to_vec(), want);
                if worst > SPMV_MAX_ULPS {
                    ok = false;
                    if !self.reported.replace(true) {
                        eprintln!(
                            "parity: {matrix} {format} row {row} is {worst} ulps from the \
                             reference executor (bound {SPMV_MAX_ULPS})"
                        );
                    }
                }
            }
        }
        ok
    }

    fn inject_fault(&mut self) {
        let out = &mut self.ops[0].out[0];
        let v = out.get(0, 0).unwrap_or(0.0);
        let _ = out.set(0, 0, v * (1.0 + 1e-12) + 1e-300);
    }

    fn layers(&mut self, ctx: &mut Ctx<'_, SpmvPrep>) -> Res<()> {
        let exec = self.dev.executor().clone();
        let (mut read_bytes, mut read_time) = (0u64, 0.0);
        let mut twins = Vec::new();
        for (m, input) in ctx.prep.inputs.iter().enumerate() {
            let t0 = Instant::now();
            let data = pygko_mtx::read_mtx_file(mtx_path(ctx.files, m)).map_err(err)?;
            read_time += t0.elapsed().as_secs_f64();
            read_bytes += std::fs::metadata(mtx_path(ctx.files, m))
                .map_err(err)?
                .len();
            twins.push(Twin::new(&exec, &data, input)?);
        }
        ctx.out
            .set("mtx.read_mb_per_s", read_bytes as f64 / 1e6 / read_time);

        // Facade SpMV rate per format, from the traced ops' per-call spans.
        let flops = 2.0 * twins.iter().map(|t| t.nnz).sum::<usize>() as f64;
        for (f, metric) in ["spmv_gflops.csr", "spmv_gflops.coo"]
            .into_iter()
            .enumerate()
        {
            let s: f64 = CALL_SPANS
                .iter()
                .map(|c| median(&ctx.rec.seconds_since(c[f], 0)))
                .sum();
            ctx.out.set(metric, flops / s * 1e-9);
        }

        // Facade round against the engine round on the same executor.
        let plan0: Vec<_> = twins.iter().map(|t| t.csr.plan_stats()).collect();
        let mut rounds = 0u64;
        let (_, overhead) = pairs(self, ctx.rec, 40, ctx.budget, |rec| {
            let s = rec.begin("pair.engine");
            for t in twins.iter_mut() {
                t.csr.apply(&t.b, &mut t.x).map_err(err)?;
                t.coo.apply(&t.b, &mut t.x).map_err(err)?;
            }
            rec.end(s);
            rounds += 1;
            Ok(())
        })?;
        ctx.out.set("pyginkgo.overhead_us", overhead * 1e6);
        let (mut builds, mut hits) = (0, 0);
        for (t, p0) in twins.iter().zip(&plan0) {
            let p = t.csr.plan_stats();
            builds += p.builds - p0.builds;
            hits += p.hits - p0.hits;
        }
        ctx.out
            .set("plan.builds_per_op", builds as f64 / rounds as f64);
        ctx.out.set("plan.hits_per_op", hits as f64 / rounds as f64);

        let reference = Executor::reference();
        for (m, t) in twins.iter_mut().enumerate() {
            let Twin {
                csr,
                coo,
                b,
                x,
                rows,
                cols,
                nnz,
            } = t;
            let csr_s = sample(ctx.rec, "kernel.spmv.csr", 100, ctx.budget, || {
                csr.apply(b, x).map_err(err)
            })?;
            let coo_s = sample(ctx.rec, "kernel.spmv.coo", 100, ctx.budget, || {
                coo.apply(b, x).map_err(err)
            })?;
            ctx.out.set(SPMV_US[m][0], csr_s * 1e6);
            ctx.out.set(SPMV_US[m][1], coo_s * 1e6);
            let (csr_b, coo_b) = (
                csr_spmv_bytes(*rows, *cols, *nnz, 8, 4),
                coo_spmv_bytes(*rows, *cols, *nnz, 8, 4),
            );
            ctx.out.set(SPMV_GBPS[m][0], csr_b / csr_s * 1e-9);
            ctx.out.set(SPMV_GBPS[m][1], coo_b / coo_s * 1e-9);

            let build = sample(ctx.rec, "plan.build", 100, ctx.budget, || {
                csr.invalidate_plan();
                std::hint::black_box(csr.plan());
                Ok(())
            })?;
            ctx.out.set(PLAN_BUILD_US[m], build * 1e6);

            let scipy = ScipyCsr::new(Arc::new(csr.clone_to(&reference)));
            let rb = b.clone_to(&reference);
            let mut rx = Dense::zeros(&reference, Dim2::new(*rows, 1));
            let scipy_s = sample(ctx.rec, "baseline.scipy", 50, ctx.budget, || {
                scipy.apply(&rb, &mut rx).map_err(err)
            })?;
            ctx.out.set(SCIPY_SPEEDUP[m], scipy_s / csr_s);
        }

        // Vector kernels at the regular matrix's length.
        let n = twins[0].rows;
        let u = Dense::from_vec(&exec, Dim2::new(n, 1), ctx.prep.inputs[0].clone()).map_err(err)?;
        let mut v = Dense::filled(&exec, Dim2::new(n, 1), 0.5);
        blas_twins(ctx, &u, &mut v)
    }
}

/// Engine-side copies of one matrix and its operands on the workload's
/// executor.
struct Twin {
    csr: Csr<f64, i32>,
    coo: Coo<f64, i32>,
    b: Dense<f64>,
    x: Dense<f64>,
    rows: usize,
    cols: usize,
    nnz: usize,
}

impl Twin {
    fn new(exec: &Executor, data: &pygko_mtx::MtxData, input: &[f64]) -> Res<Self> {
        let dim = Dim2::new(data.rows, data.cols);
        let csr = Csr::<f64, i32>::from_triplets(exec, dim, &data.entries).map_err(err)?;
        let b = Dense::from_vec(exec, Dim2::new(data.cols, 1), input.to_vec()).map_err(err)?;
        let mut x = Dense::zeros(exec, Dim2::new(data.rows, 1));
        csr.apply(&b, &mut x).map_err(err)?; // builds the twin's plan
        Ok(Twin {
            csr,
            coo: Coo::<f64, i32>::from_triplets(exec, dim, &data.entries).map_err(err)?,
            b,
            x,
            rows: data.rows,
            cols: data.cols,
            nnz: data.entries.len(),
        })
    }
}

/// Times the five CG vector kernels on `u` and `v` through the public
/// `Dense` calls.
fn blas_twins(ctx: &mut Ctx<'_, SpmvPrep>, u: &Dense<f64>, v: &mut Dense<f64>) -> Res<()> {
    let b = ctx.budget;
    let dot = sample(ctx.rec, "kernel.dot", 100, b, || {
        u.compute_dot(v).map(drop).map_err(err)
    })?;
    let norm = sample(ctx.rec, "kernel.norm", 100, b, || {
        std::hint::black_box(u.compute_norm2());
        Ok(())
    })?;
    let axpy = sample(ctx.rec, "kernel.axpy", 100, b, || {
        v.add_scaled(1e-3, u).map_err(err)
    })?;
    let scale_add = sample(ctx.rec, "kernel.scale_add", 100, b, || {
        v.scale_add(1.0, u, 0.5).map_err(err)
    })?;
    let copy = sample(ctx.rec, "kernel.copy", 100, b, || {
        v.copy_from(u).map_err(err)
    })?;
    for (name, s) in [
        ("matrix.blas_us.dot", dot),
        ("matrix.blas_us.norm", norm),
        ("matrix.blas_us.axpy", axpy),
        ("matrix.blas_us.scale_add", scale_add),
        ("matrix.blas_us.copy", copy),
    ] {
        ctx.out.set(name, s * 1e6);
    }
    Ok(())
}
