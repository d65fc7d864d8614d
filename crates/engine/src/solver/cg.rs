//! Preconditioned Conjugate Gradient method.

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::Value;
use crate::executor::Executor;
use crate::linop::LinOp;
use crate::log::{ConvergenceLogger, Logger, LoggerRegistry, OpTimer};
use crate::matrix::dense::Dense;
use crate::solver::SolverCore;
use crate::stop::{Criteria, StopReason};
use std::sync::Arc;

/// The Conjugate Gradient method for symmetric positive definite systems.
pub struct Cg<V: Value> {
    core: SolverCore<V>,
}

impl<V: Value> Cg<V> {
    /// Creates a CG solver for the given system operator.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Ok(Cg {
            core: SolverCore::new("solver::Cg", system)?,
        })
    }

    /// Attaches a logger observing this solver's iteration events.
    pub fn with_logger(self, logger: Arc<dyn Logger>) -> Self {
        self.core.add_logger(logger);
        self
    }

    /// Attaches a logger without consuming the solver.
    pub fn add_logger(&self, logger: Arc<dyn Logger>) {
        self.core.add_logger(logger);
    }

    /// The registry of loggers attached to this solver.
    pub fn loggers(&self) -> &LoggerRegistry {
        self.core.loggers()
    }

    /// Sets the preconditioner (applied as `z = M^{-1} r`).
    pub fn with_preconditioner(mut self, precond: Arc<dyn LinOp<V>>) -> Result<Self> {
        self.core.set_preconditioner(precond)?;
        Ok(self)
    }

    /// Sets the stopping criteria.
    pub fn with_criteria(mut self, criteria: Criteria) -> Self {
        self.core.criteria = criteria;
        self
    }

    /// The logger recording residual history.
    pub fn logger(&self) -> &ConvergenceLogger {
        &self.core.logger
    }
}

impl<V: Value> LinOp<V> for Cg<V> {
    fn size(&self) -> Dim2 {
        self.core.system.size()
    }

    fn executor(&self) -> &Executor {
        self.core.system.executor()
    }

    /// Solves `A x = b`; `x` holds the initial guess on entry and the
    /// solution on exit.
    ///
    /// Each iteration is four pool dispatches (Ginkgo's fused CG): the
    /// SpMV `q = A p`, the dot `p · q`, [`Dense::cg_step_2`] (`x += alpha p`,
    /// `r -= alpha q` and `r · r` in one pass) and step 1, `p = z + beta p`.
    /// With a preconditioner, `z = M^{-1} r` and `rho = r · z` run between
    /// the two steps; without one, `z` is `r` itself and `rho = r · r` comes
    /// from step 2, so the identity's copy and second dot are elided (the
    /// virtual timeline still charges them, DESIGN.md §5).
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        let core = &self.core;
        core.check_vectors(b, x)?;
        let exec = x.executor().clone();
        let _solve_timer = OpTimer::new(&exec, self.op_name());
        let n = self.size().rows;

        let mut r = Dense::zeros(&exec, Dim2::new(n, 1));
        core.residual(b, x, &mut r)?;
        // `z` exists only with a preconditioner.
        let mut precond = core
            .precond
            .as_ref()
            .map(|m| (m, Dense::zeros(&exec, Dim2::new(n, 1))));
        match &mut precond {
            Some((m, z)) => m.apply(&r, z)?,
            None => r.charge_copy(),
        }
        let mut p = precond.as_ref().map_or(&r, |(_, z)| z).clone();
        let mut q = Dense::zeros(&exec, Dim2::new(n, 1));

        let rr = r.compute_dot(&r)?;
        let baseline = rr.sqrt();
        core.logger.begin(baseline);
        if let Some(reason) = core.check(0, baseline, baseline) {
            core.logger.finish(0, reason);
            return Ok(());
        }

        let mut rho = match &precond {
            Some((_, z)) => r.compute_dot(z)?,
            None => {
                r.charge_dot();
                rr
            }
        };
        let mut iter = 0usize;
        loop {
            iter += 1;
            core.system.apply(&p, &mut q)?;
            let pq = p.compute_dot(&q)?;
            if pq == 0.0 || !pq.is_finite() || rho == 0.0 || !rho.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            let alpha = rho / pq;
            let rr = r.cg_step_2(x, &p, &q, alpha)?;

            let res_norm = rr.sqrt();
            core.logger.record_residual(iter, res_norm);
            if let Some(reason) = core.check(iter, res_norm, baseline) {
                core.logger.finish(iter, reason);
                return Ok(());
            }

            let rho_new = match &mut precond {
                Some((m, z)) => {
                    m.apply(&r, z)?;
                    r.compute_dot(z)?
                }
                None => {
                    r.charge_copy();
                    r.charge_dot();
                    rr
                }
            };
            let beta = rho_new / rho;
            // Step 1: p = z + beta * p
            let z = precond.as_ref().map_or(&r, |(_, z)| z);
            p.scale_add(V::one(), z, V::from_f64(beta))?;
            rho = rho_new;
        }
    }

    fn op_name(&self) -> &'static str {
        "solver::Cg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::Csr;
    use crate::stop::Criteria;

    /// 1-D Poisson matrix (tridiagonal [-1, 2, -1]) — SPD.
    fn poisson(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_poisson_to_tolerance() {
        let exec = Executor::reference();
        let a = poisson(&exec, 64);
        let solver = Cg::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(1000, 1e-10));
        let b = Dense::<f64>::vector(&exec, 64, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 64, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged(), "stop reason {:?}", rec.stop_reason);
        // Check the actual residual.
        let mut r = Dense::zeros(&exec, Dim2::new(64, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-8, "residual {}", r.compute_norm2());
    }

    #[test]
    fn cg_converges_in_n_iterations_exactly_in_theory() {
        // CG on an n x n SPD system converges in at most n steps (exact
        // arithmetic); with fp64 and a tiny system it is numerically sharp.
        let exec = Executor::reference();
        let a = poisson(&exec, 8);
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(100, 1e-12));
        let b = Dense::<f64>::vector(&exec, 8, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 8, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.iterations <= 8, "took {} iterations", rec.iterations);
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations() {
        use crate::preconditioner::jacobi::Jacobi;
        let exec = Executor::reference();
        // Badly scaled SPD diagonal + small coupling.
        let n = 50;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 1.0 + i as f64 * 10.0));
            if i > 0 {
                t.push((i, i - 1, -0.1));
                t.push((i - 1, i, -0.1));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Cg::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();
        let it_plain = plain.logger().snapshot().iterations;

        let jacobi = Jacobi::new(&*a).unwrap();
        let pre = Cg::new(a)
            .unwrap()
            .with_preconditioner(Arc::new(jacobi))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();
        let it_pre = pre.logger().snapshot().iterations;

        assert!(
            it_pre < it_plain,
            "jacobi {it_pre} should beat plain {it_plain}"
        );
    }

    #[test]
    fn iteration_limit_is_respected() {
        let exec = Executor::reference();
        let a = poisson(&exec, 128);
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(3, 1e-14));
        let b = Dense::<f64>::vector(&exec, 128, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 128, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert_eq!(rec.iterations, 3);
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let exec = Executor::reference();
        let a = poisson(&exec, 16);
        let solver = Cg::new(a).unwrap();
        let b = Dense::<f64>::vector(&exec, 16, 0.0);
        let mut x = Dense::<f64>::vector(&exec, 16, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(solver.logger().snapshot().iterations, 0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let exec = Executor::reference();
        let a = poisson(&exec, 16);
        let solver = Cg::new(a).unwrap();
        let b = Dense::<f64>::vector(&exec, 8, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 16, 0.0);
        assert!(solver.apply(&b, &mut x).is_err());
    }

    #[test]
    fn works_in_f32() {
        let exec = Executor::reference();
        let mut t = vec![];
        for i in 0..16usize {
            t.push((i, i, 3.0f32));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let a = Arc::new(Csr::<f32, i32>::from_triplets(&exec, Dim2::square(16), &t).unwrap());
        let solver = Cg::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(200, 1e-5));
        let b = Dense::<f32>::vector(&exec, 16, 1.0);
        let mut x = Dense::<f32>::vector(&exec, 16, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());
    }
}
