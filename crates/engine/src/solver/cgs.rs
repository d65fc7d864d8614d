//! Conjugate Gradient Squared method (Sonneveld 1989).
//!
//! CGS handles unsymmetric systems without transpose applications by
//! squaring the BiCG polynomial. It is one of the three solvers the paper
//! benchmarks against CuPy (§6.2.1), where it shows the largest speedups.

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::Value;
use crate::executor::Executor;
use crate::linop::LinOp;
use crate::log::{ConvergenceLogger, Logger, OpTimer};
use crate::matrix::dense::Dense;
use crate::solver::SolverCore;
use crate::stop::{Criteria, StopReason};
use std::sync::Arc;

/// The CGS solver.
pub struct Cgs<V: Value> {
    core: SolverCore<V>,
}

impl<V: Value> Cgs<V> {
    /// Creates a CGS solver for the given system operator.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Ok(Cgs {
            core: SolverCore::new("solver::Cgs", system)?,
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

    /// Sets the preconditioner.
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

impl<V: Value> LinOp<V> for Cgs<V> {
    fn size(&self) -> Dim2 {
        self.core.system.size()
    }

    fn executor(&self) -> &Executor {
        self.core.system.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        let core = &self.core;
        core.check_vectors(b, x)?;
        let exec = x.executor().clone();
        let _solve_timer = OpTimer::new(&exec, self.op_name());
        let n = self.size().rows;
        let dim = Dim2::new(n, 1);

        let mut r = Dense::zeros(&exec, dim);
        core.residual(b, x, &mut r)?;
        let r_tilde = r.clone();
        let mut u = Dense::zeros(&exec, dim);
        let mut p = Dense::zeros(&exec, dim);
        let mut q = Dense::zeros(&exec, dim);
        let mut v = Dense::zeros(&exec, dim);
        let mut hat = Dense::zeros(&exec, dim);
        let mut t = Dense::zeros(&exec, dim);

        let baseline = r.compute_norm2();
        core.logger.begin(baseline);
        if let Some(reason) = core.check(0, baseline, baseline) {
            core.logger.finish(0, reason);
            return Ok(());
        }

        let mut rho_old = 1.0f64;
        let mut iter = 0usize;
        loop {
            iter += 1;
            let rho = r_tilde.compute_dot(&r)?;
            if rho == 0.0 || !rho.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            if iter == 1 {
                u.copy_from(&r)?;
                p.copy_from(&u)?;
            } else {
                let beta = rho / rho_old;
                // u = r + beta * q
                u.copy_from(&r)?;
                u.add_scaled(V::from_f64(beta), &q)?;
                // p = u + beta * (q + beta * p)
                t.copy_from(&q)?;
                t.add_scaled(V::from_f64(beta), &p)?;
                p.copy_from(&u)?;
                p.add_scaled(V::from_f64(beta), &t)?;
            }
            // v = A M^{-1} p
            core.precondition(&p, &mut hat)?;
            core.system.apply(&hat, &mut v)?;
            let sigma = r_tilde.compute_dot(&v)?;
            if sigma == 0.0 || !sigma.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            let alpha = rho / sigma;
            // q = u - alpha * v
            q.copy_from(&u)?;
            q.add_scaled(V::from_f64(-alpha), &v)?;
            // hat = M^{-1} (u + q)
            t.copy_from(&u)?;
            t.add_scaled(V::one(), &q)?;
            core.precondition(&t, &mut hat)?;
            // x += alpha * hat;  r -= alpha * A hat
            x.add_scaled(V::from_f64(alpha), &hat)?;
            core.system.apply(&hat, &mut t)?;
            r.add_scaled(V::from_f64(-alpha), &t)?;

            let res_norm = r.compute_norm2();
            core.logger.record_residual(iter, res_norm);
            if let Some(reason) = core.check(iter, res_norm, baseline) {
                core.logger.finish(iter, reason);
                return Ok(());
            }
            rho_old = rho;
        }
    }

    fn op_name(&self) -> &'static str {
        "solver::Cgs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::Csr;

    /// Unsymmetric convection-diffusion-like matrix.
    fn convdiff(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.5)); // upwind bias: unsymmetric
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_unsymmetric_system() {
        let exec = Executor::reference();
        let a = convdiff(&exec, 64);
        let solver = Cgs::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 64, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 64, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());

        let mut r = Dense::zeros(&exec, Dim2::new(64, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-7, "residual {}", r.compute_norm2());
    }

    #[test]
    fn respects_iteration_limit() {
        let exec = Executor::reference();
        let a = convdiff(&exec, 128);
        let solver = Cgs::new(a)
            .unwrap()
            .with_criteria(Criteria::iterations(5));
        let b = Dense::<f64>::vector(&exec, 128, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 128, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert_eq!(rec.iterations, 5);
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
        assert_eq!(rec.residual_history.len(), 5);
    }

    #[test]
    fn preconditioned_cgs_converges_faster() {
        use crate::preconditioner::jacobi::Jacobi;
        let exec = Executor::reference();
        let n = 64;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0 + (i % 7) as f64 * 5.0));
            if i > 0 {
                t.push((i, i - 1, -0.8));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.3));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let b = Dense::<f64>::vector(&exec, n, 1.0);

        let plain = Cgs::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x1 = Dense::<f64>::vector(&exec, n, 0.0);
        plain.apply(&b, &mut x1).unwrap();

        let pre = Cgs::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(Jacobi::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let mut x2 = Dense::<f64>::vector(&exec, n, 0.0);
        pre.apply(&b, &mut x2).unwrap();

        let (i1, i2) = (
            plain.logger().snapshot().iterations,
            pre.logger().snapshot().iterations,
        );
        assert!(i2 <= i1, "preconditioned {i2} vs plain {i1}");
    }
}
