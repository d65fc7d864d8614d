//! Fused CG step kernels are exact.
//!
//! `Cg` and `BatchCg` run each iteration as four pool dispatches: SpMV,
//! `p · q`, the fused step 2 (`x += alpha p`, `r -= alpha q`, `r · r`) and
//! step 1 (`p = z + beta p`). Without a preconditioner `rho = r · r` comes
//! from step 2, so the identity's copy and the second dot are skipped on the
//! host. None of this may change a single bit: the checks below replay the
//! unfused iteration through the public `Dense` / `BatchDense` calls and
//! demand the same solution bits, the same iteration counts and the same
//! virtual timeline.

use gko::linop::{Identity, LinOp};
use gko::matrix::{BatchCsr, BatchDense, Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::{BatchCg, Cg};
use gko::stop::Criteria;
use gko::{Dim2, Executor, Value};
use pygko_sim::TimelineSnapshot;
use std::sync::Arc;

/// Serial reference, even split, prime (uneven chunks), and more lanes than
/// the small systems have rows.
fn executors() -> Vec<(&'static str, Executor)> {
    vec![
        ("reference", Executor::reference()),
        ("omp2", Executor::omp(2)),
        ("omp7", Executor::omp(7)),
        ("omp16", Executor::omp(16)),
    ]
}

/// SPD 2-D five-point stencil on a `g x g` grid with a varying diagonal, so
/// Jacobi is not a uniform scaling.
fn spd<V: Value>(exec: &Executor, g: usize) -> Arc<Csr<V, i32>> {
    let n = g * g;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, V::from_f64(4.0 + (i % 5) as f64 * 0.75)));
        if i % g > 0 {
            t.push((i, i - 1, V::from_f64(-1.0)));
        }
        if i % g + 1 < g {
            t.push((i, i + 1, V::from_f64(-1.0)));
        }
        if i >= g {
            t.push((i, i - g, V::from_f64(-1.0)));
        }
        if i + g < n {
            t.push((i, i + g, V::from_f64(-1.0)));
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
}

fn rhs_values(n: usize, shift: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + shift * 3) % 11) as f64 / 4.0 - 1.0)
        .collect()
}

fn criteria<V: Value>() -> Criteria {
    let reduction = if V::BYTES == 4 { 1e-5 } else { 1e-10 };
    Criteria::iterations_and_reduction(300, reduction)
}

/// The CG iteration as `Cg` issued it before fusion: two axpys, a norm,
/// the preconditioner (the identity's copy when there is none), the dot
/// `r · z` and the scale_add. Returns the solution and the iterations
/// completed (same convention as `SolveRecord::iterations`).
fn unfused_cg<V: Value>(
    a: &dyn LinOp<V>,
    precond: Option<&dyn LinOp<V>>,
    b: &Dense<V>,
    criteria: Criteria,
) -> (Vec<V>, usize) {
    let exec = b.executor().clone();
    let dim = b.size();
    let identity = Identity::new(&exec, dim.rows);
    let m = precond.unwrap_or(&*identity);
    let mut x = Dense::zeros(&exec, dim);
    let mut r = Dense::zeros(&exec, dim);
    r.copy_from(b).unwrap();
    a.apply_advanced(V::from_f64(-1.0), &x, V::one(), &mut r)
        .unwrap();
    let mut z = Dense::zeros(&exec, dim);
    m.apply(&r, &mut z).unwrap();
    let mut p = z.clone();
    let mut q = Dense::zeros(&exec, dim);
    let baseline = r.compute_norm2();
    if criteria.check(0, baseline, baseline).is_some() {
        return (x.to_host_vec(), 0);
    }
    let mut rho = r.compute_dot(&z).unwrap();
    let mut iter = 0;
    loop {
        iter += 1;
        a.apply(&p, &mut q).unwrap();
        let pq = p.compute_dot(&q).unwrap();
        if pq == 0.0 || !pq.is_finite() || rho == 0.0 || !rho.is_finite() {
            return (x.to_host_vec(), iter - 1);
        }
        let alpha = rho / pq;
        x.add_scaled(V::from_f64(alpha), &p).unwrap();
        r.add_scaled(V::from_f64(-alpha), &q).unwrap();
        let res = r.compute_norm2();
        if criteria.check(iter, res, baseline).is_some() {
            return (x.to_host_vec(), iter);
        }
        m.apply(&r, &mut z).unwrap();
        let rho_new = r.compute_dot(&z).unwrap();
        p.scale_add(V::one(), &z, V::from_f64(rho_new / rho))
            .unwrap();
        rho = rho_new;
    }
}

/// Fused `Cg` against the unfused replay on `exec`, with and without
/// Jacobi: bitwise-equal solutions, equal iteration counts. Returns the
/// two virtual-timeline deltas `(fused, unfused)` of the Jacobi-free runs.
fn compare_cg<V: Value>(exec: &Executor, ctx: &str) -> (TimelineSnapshot, TimelineSnapshot) {
    let a = spd::<V>(exec, 9);
    let n = a.size().rows;
    let b_vals: Vec<V> = rhs_values(n, 0).into_iter().map(V::from_f64).collect();
    let b = Dense::from_vec(exec, Dim2::new(n, 1), b_vals).unwrap();
    // Build the SpMV plan up front so neither timed run pays for it.
    a.apply(&b, &mut Dense::zeros(exec, Dim2::new(n, 1)))
        .unwrap();
    let mut deltas = None;
    for jacobi in [false, true] {
        let m: Option<Arc<dyn LinOp<V>>> =
            jacobi.then(|| Arc::new(Jacobi::new(&*a).unwrap()) as Arc<dyn LinOp<V>>);
        let mut solver = Cg::new(a.clone() as Arc<dyn LinOp<V>>)
            .unwrap()
            .with_criteria(criteria::<V>());
        if let Some(m) = &m {
            solver = solver.with_preconditioner(m.clone()).unwrap();
        }
        let mut x = Dense::zeros(exec, Dim2::new(n, 1));
        let t0 = exec.timeline().snapshot();
        solver.apply(&b, &mut x).unwrap();
        let t1 = exec.timeline().snapshot();
        let (want, want_iters) = unfused_cg(&*a, m.as_deref(), &b, criteria::<V>());
        let t2 = exec.timeline().snapshot();

        let rec = solver.logger().snapshot();
        let ctx = format!("{ctx}/jacobi={jacobi}");
        assert!(rec.converged(), "{ctx}: {:?}", rec.stop_reason);
        assert!(rec.iterations > 3, "{ctx}: too easy a system");
        assert_eq!(rec.iterations, want_iters, "{ctx}: iteration count");
        let bits = |v: &[V]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x.as_slice()), bits(&want), "{ctx}: solution bits");
        if !jacobi {
            deltas = Some((t1.since(&t0), t2.since(&t1)));
        }
    }
    deltas.unwrap()
}

#[test]
fn fused_cg_equals_unfused_sequence_bitwise() {
    for (name, exec) in executors() {
        compare_cg::<f64>(&exec, &format!("f64/{name}"));
        compare_cg::<f32>(&exec, &format!("f32/{name}"));
    }
}

#[test]
fn fused_cg_charges_the_unfused_timeline() {
    for (fused, unfused) in [
        compare_cg::<f64>(&Executor::cuda(0), "f64/cuda"),
        compare_cg::<f32>(&Executor::cuda(0), "f32/cuda"),
    ] {
        assert!(fused.kernels > 0);
        // Kernel launches, virtual nanoseconds, flops: all equal.
        assert_eq!(fused, unfused);
    }
}

/// Batch of `systems` diagonally shifted copies of the stencil, so systems
/// converge at different iterations and masking is exercised.
fn batch_op<V: Value>(exec: &Executor, systems: usize) -> Arc<BatchCsr<V, i32>> {
    let proto = spd::<V>(exec, 6);
    let values: Vec<Vec<V>> = (0..systems)
        .map(|s| {
            let shift = 1.0 + (s % 4) as f64 * 0.5;
            proto
                .values()
                .iter()
                .map(|&v| {
                    let v = v.to_f64();
                    V::from_f64(if v > 0.0 { v * shift } else { v })
                })
                .collect()
        })
        .collect();
    Arc::new(BatchCsr::from_shared(&proto, &values).unwrap())
}

/// The batched CG iteration as `BatchCg` issued it before fusion.
fn unfused_batch_cg<V: Value>(
    op: &BatchCsr<V, i32>,
    b: &BatchDense<V>,
    criteria: Criteria,
) -> (Vec<V>, Vec<usize>) {
    let exec = op.executor().clone();
    let count = op.num_systems();
    let dim = b.size();
    let mut x = BatchDense::zeros(&exec, count, dim);
    let mut r = BatchDense::zeros(&exec, count, dim);
    r.copy_from(b).unwrap();
    let mut q = BatchDense::zeros(&exec, count, dim);
    op.apply_batch(&x, &mut q, None).unwrap();
    r.axpy(&vec![-1.0; count], &q, None).unwrap();
    let mut baseline = vec![0.0; count];
    r.norms2(None, &mut baseline).unwrap();
    let mut active = vec![true; count];
    let mut iters = vec![0; count];
    for s in 0..count {
        if criteria.check(0, baseline[s], baseline[s]).is_some() {
            active[s] = false;
        }
    }
    let mut p = BatchDense::zeros(&exec, count, dim);
    p.copy_from(&r).unwrap();
    let mut rho = vec![0.0; count];
    r.dots(&r, Some(&active), &mut rho).unwrap();
    let (mut pq, mut res, mut coeff, mut rho_new) = (
        vec![0.0; count],
        vec![0.0; count],
        vec![0.0; count],
        vec![0.0; count],
    );
    let mut iter = 0;
    while active.iter().any(|&a| a) {
        iter += 1;
        op.apply_batch(&p, &mut q, Some(&active)).unwrap();
        p.dots(&q, Some(&active), &mut pq).unwrap();
        for s in 0..count {
            if active[s]
                && (pq[s] == 0.0 || !pq[s].is_finite() || rho[s] == 0.0 || !rho[s].is_finite())
            {
                active[s] = false;
                iters[s] = iter - 1;
            }
            coeff[s] = if active[s] { rho[s] / pq[s] } else { 0.0 };
        }
        x.axpy(&coeff, &p, Some(&active)).unwrap();
        let neg: Vec<f64> = coeff.iter().map(|c| -c).collect();
        r.axpy(&neg, &q, Some(&active)).unwrap();
        r.norms2(Some(&active), &mut res).unwrap();
        for s in 0..count {
            if active[s] && criteria.check(iter, res[s], baseline[s]).is_some() {
                active[s] = false;
                iters[s] = iter;
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        r.dots(&r, Some(&active), &mut rho_new).unwrap();
        for s in 0..count {
            if active[s] {
                coeff[s] = rho_new[s] / rho[s];
                rho[s] = rho_new[s];
            }
        }
        p.scale_add(&r, &coeff, Some(&active)).unwrap();
    }
    (x.as_slice().to_vec(), iters)
}

/// Fused `BatchCg` against the unfused replay on `exec` for a batch large
/// enough to chunk by whole systems and one small enough to split them.
/// Returns the timeline deltas `(fused, unfused)` of the last batch.
fn compare_batch_cg<V: Value>(exec: &Executor, ctx: &str) -> (TimelineSnapshot, TimelineSnapshot) {
    let mut deltas = None;
    for systems in [3usize, 37] {
        let op = batch_op::<V>(exec, systems);
        let n = op.size().rows;
        let rhs: Vec<Vec<V>> = (0..systems)
            .map(|s| rhs_values(n, s).into_iter().map(V::from_f64).collect())
            .collect();
        let b = BatchDense::from_systems(exec, Dim2::new(n, 1), &rhs).unwrap();
        // Build the shared SpMV plan up front so neither timed run pays for it.
        let mut warm = BatchDense::zeros(exec, systems, Dim2::new(n, 1));
        op.apply_batch(&b, &mut warm, None).unwrap();
        let solver = BatchCg::new(op.clone())
            .unwrap()
            .with_criteria(criteria::<V>());
        let mut x = BatchDense::zeros(exec, systems, Dim2::new(n, 1));
        let t0 = exec.timeline().snapshot();
        let record = solver.apply_batch(&b, &mut x).unwrap();
        let t1 = exec.timeline().snapshot();
        let (want, want_iters) = unfused_batch_cg(&op, &b, criteria::<V>());
        let t2 = exec.timeline().snapshot();

        let ctx = format!("{ctx}/systems={systems}");
        assert!(record.all_converged(), "{ctx}");
        let iters: Vec<usize> = record.outcomes.iter().map(|o| o.iterations).collect();
        assert_eq!(iters, want_iters, "{ctx}: per-system iteration counts");
        assert!(
            iters.iter().any(|&i| i != iters[0]),
            "{ctx}: systems should retire at different iterations"
        );
        let bits = |v: &[V]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x.as_slice()), bits(&want), "{ctx}: solution bits");
        deltas = Some((t1.since(&t0), t2.since(&t1)));
    }
    deltas.unwrap()
}

#[test]
fn fused_batch_cg_equals_unfused_sequence_bitwise() {
    for (name, exec) in executors() {
        compare_batch_cg::<f64>(&exec, &format!("f64/{name}"));
        compare_batch_cg::<f32>(&exec, &format!("f32/{name}"));
    }
}

#[test]
fn fused_batch_cg_charges_the_unfused_timeline() {
    for (fused, unfused) in [
        compare_batch_cg::<f64>(&Executor::cuda(0), "f64/cuda"),
        compare_batch_cg::<f32>(&Executor::cuda(0), "f32/cuda"),
    ] {
        assert!(fused.kernels > 0);
        // Kernel launches, virtual nanoseconds, flops: all equal.
        assert_eq!(fused, unfused);
    }
}

/// Pool dispatches of a fixed-iteration solve, by iteration count.
fn dispatches(exec: &Executor, mut solve: impl FnMut(usize)) -> [u64; 2] {
    [5, 6].map(|iters| {
        let before = exec.pool_stats().dispatches;
        solve(iters);
        exec.pool_stats().dispatches - before
    })
}

#[test]
fn cg_iteration_is_four_pool_dispatches() {
    let exec = Executor::omp(2);
    let a = spd::<f64>(&exec, 20);
    let n = a.size().rows;
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let [five, six] = dispatches(&exec, |iters| {
        let solver = Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
            .unwrap()
            .with_criteria(Criteria::iterations(iters));
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(solver.logger().snapshot().iterations, iters);
    });
    assert_eq!(six - five, 4, "SpMV, p·q, step 2, step 1");

    let op = batch_op::<f64>(&exec, 40);
    let rows = op.size().rows;
    let b =
        BatchDense::from_systems(&exec, Dim2::new(rows, 1), &vec![vec![1.0; rows]; 40]).unwrap();
    let [five, six] = dispatches(&exec, |iters| {
        let solver = BatchCg::new(op.clone())
            .unwrap()
            .with_criteria(Criteria::iterations(iters));
        let mut x = BatchDense::zeros(&exec, 40, Dim2::new(rows, 1));
        let record = solver.apply_batch(&b, &mut x).unwrap();
        assert_eq!(record.max_iterations(), iters);
    });
    assert_eq!(six - five, 4, "batched SpMV, p·q, step 2, step 1");
}

/// Step-2 inputs with mixed signs and magnitudes.
fn step_vectors(exec: &Executor, n: usize) -> [Dense<f64>; 4] {
    let make = |f: &dyn Fn(usize) -> f64| {
        Dense::from_vec(exec, Dim2::new(n, 1), (0..n).map(f).collect()).unwrap()
    };
    [
        make(&|i| (i % 13) as f64 * 0.25 - 1.5),
        make(&|i| {
            if i % 2 == 0 {
                0.5 + (i % 31) as f64 * 0.375
            } else {
                -0.75
            }
        }),
        make(&|i| 0.125 + (i % 17) as f64 * 0.0625),
        make(&|i| (i % 5) as f64 - 2.0),
    ]
}

#[test]
fn dense_step_2_equals_axpy_axpy_norm_bitwise() {
    for (name, exec) in executors() {
        for n in [0usize, 1, 3, 13, 1023] {
            let [mut x, mut r, p, q] = step_vectors(&exec, n);
            let rr = r.cg_step_2(&mut x, &p, &q, 0.625).unwrap();
            let [mut x2, mut r2, _, _] = step_vectors(&exec, n);
            x2.add_scaled(0.625, &p).unwrap();
            r2.add_scaled(-0.625, &q).unwrap();
            let ctx = format!("{name}/n{n}");
            assert_eq!(x.to_host_vec(), x2.to_host_vec(), "{ctx}: x");
            assert_eq!(r.to_host_vec(), r2.to_host_vec(), "{ctx}: r");
            assert_eq!(
                rr.sqrt().to_bits(),
                r2.compute_norm2().to_bits(),
                "{ctx}: norm"
            );
            assert_eq!(
                rr.to_bits(),
                r2.compute_dot(&r2).unwrap().to_bits(),
                "{ctx}: rho"
            );
        }
    }
}

#[test]
fn batch_step_2_equals_axpy_axpy_norms_bitwise() {
    for (name, exec) in executors() {
        for systems in [1usize, 3, 37] {
            let rows = 5;
            let make = |shift: usize| {
                let sys: Vec<Vec<f64>> =
                    (0..systems).map(|s| rhs_values(rows, s + shift)).collect();
                BatchDense::from_systems(&exec, Dim2::new(rows, 1), &sys).unwrap()
            };
            // `x` is padded, as a caller's solution batch may be.
            let strided = |shift: usize| {
                let mut x =
                    BatchDense::with_stride(&exec, systems, Dim2::new(rows, 1), rows + 2).unwrap();
                for s in 0..systems {
                    x.system_mut(s)
                        .copy_from_slice(&rhs_values(rows, s + shift));
                }
                x
            };
            let (p, q) = (make(1), make(2));
            let alpha: Vec<f64> = (0..systems).map(|s| 0.5 - s as f64 * 0.125).collect();
            let mask: Vec<bool> = (0..systems).map(|s| s % 3 != 1).collect();
            let (mut x, mut r) = (strided(3), make(4));
            let mut rr = vec![-1.0; systems];
            r.cg_step_2(&mut x, &p, &q, &alpha, Some(&mask), &mut rr)
                .unwrap();
            let (mut x2, mut r2) = (strided(3), make(4));
            x2.axpy(&alpha, &p, Some(&mask)).unwrap();
            let neg: Vec<f64> = alpha.iter().map(|a| -a).collect();
            r2.axpy(&neg, &q, Some(&mask)).unwrap();
            let mut norms = vec![-1.0; systems];
            r2.norms2(Some(&mask), &mut norms).unwrap();
            let ctx = format!("{name}/systems{systems}");
            assert_eq!(x.as_slice(), x2.as_slice(), "{ctx}: x");
            assert_eq!(r.as_slice(), r2.as_slice(), "{ctx}: r");
            for s in 0..systems {
                if mask[s] {
                    assert_eq!(rr[s].sqrt().to_bits(), norms[s].to_bits(), "{ctx}[{s}]");
                } else {
                    assert_eq!(rr[s], -1.0, "{ctx}[{s}]: inactive slot untouched");
                }
            }
        }
    }
}
