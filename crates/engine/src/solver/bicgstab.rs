//! BiConjugate Gradient Stabilized method (van der Vorst 1992).

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

/// The BiCGStab solver for general (unsymmetric) systems.
pub struct BiCgStab<V: Value> {
    core: SolverCore<V>,
}

impl<V: Value> BiCgStab<V> {
    /// Creates a BiCGStab solver for the given system operator.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Ok(BiCgStab {
            core: SolverCore::new("solver::Bicgstab", system)?,
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

impl<V: Value> LinOp<V> for BiCgStab<V> {
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
        let mut p = Dense::zeros(&exec, dim);
        let mut v = Dense::zeros(&exec, dim);
        let mut s = Dense::zeros(&exec, dim);
        let mut t = Dense::zeros(&exec, dim);
        let mut p_hat = Dense::zeros(&exec, dim);
        let mut s_hat = Dense::zeros(&exec, dim);

        let baseline = r.compute_norm2();
        core.logger.begin(baseline);
        if let Some(reason) = core.check(0, baseline, baseline) {
            core.logger.finish(0, reason);
            return Ok(());
        }

        let mut rho_old = 1.0f64;
        let mut alpha = 1.0f64;
        let mut omega = 1.0f64;
        let mut iter = 0usize;
        loop {
            iter += 1;
            let rho = r_tilde.compute_dot(&r)?;
            if rho == 0.0 || omega == 0.0 || !rho.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            if iter == 1 {
                p.copy_from(&r)?;
            } else {
                let beta = (rho / rho_old) * (alpha / omega);
                // p = r + beta * (p - omega * v)
                p.add_scaled(V::from_f64(-omega), &v)?;
                p.scale_add(V::one(), &r, V::from_f64(beta))?;
            }
            core.precondition(&p, &mut p_hat)?;
            core.system.apply(&p_hat, &mut v)?;
            let denom = r_tilde.compute_dot(&v)?;
            if denom == 0.0 || !denom.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            alpha = rho / denom;
            // s = r - alpha * v
            s.copy_from(&r)?;
            s.add_scaled(V::from_f64(-alpha), &v)?;

            let s_norm = s.compute_norm2();
            let half_step = core.check(iter, s_norm, baseline);
            if let Some(reason) = half_step {
                if reason != StopReason::MaxIterations {
                    // Early half-step convergence (or a non-finite s_norm,
                    // which `check` reports as Breakdown): the half-step
                    // update completes this iteration, so it is counted.
                    x.add_scaled(V::from_f64(alpha), &p_hat)?;
                    core.logger.record_residual(iter, s_norm);
                    core.logger.finish(iter, reason);
                    return Ok(());
                }
            }

            core.precondition(&s, &mut s_hat)?;
            core.system.apply(&s_hat, &mut t)?;
            let tt = t.compute_dot(&t)?;
            if tt == 0.0 || !tt.is_finite() {
                core.logger.finish(iter - 1, StopReason::Breakdown);
                return Ok(());
            }
            omega = t.compute_dot(&s)? / tt;
            // x += alpha * p_hat + omega * s_hat
            x.add_scaled(V::from_f64(alpha), &p_hat)?;
            x.add_scaled(V::from_f64(omega), &s_hat)?;
            // r = s - omega * t
            r.copy_from(&s)?;
            r.add_scaled(V::from_f64(-omega), &t)?;

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
        "solver::Bicgstab"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::Csr;

    fn unsymmetric(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 5.0));
            if i > 0 {
                t.push((i, i - 1, -2.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
            if i + 3 < n {
                t.push((i, i + 3, 0.5));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn solves_unsymmetric_system() {
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 80);
        let solver = BiCgStab::new(a.clone())
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 80, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 80, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());

        let mut r = Dense::zeros(&exec, Dim2::new(80, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-7, "residual {}", r.compute_norm2());
    }

    #[test]
    fn honors_iteration_limit() {
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 100);
        let solver = BiCgStab::new(a).unwrap().with_criteria(Criteria::iterations(4));
        let b = Dense::<f64>::vector(&exec, 100, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 100, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
        assert!(rec.iterations <= 4);
    }

    #[test]
    fn with_ilu_preconditioner() {
        use crate::preconditioner::ilu::Ilu;
        let exec = Executor::reference();
        let a = unsymmetric(&exec, 60);
        let ilu = Ilu::new(&*a).unwrap();
        let solver = BiCgStab::new(a.clone())
            .unwrap()
            .with_preconditioner(Arc::new(ilu))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, 60, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 60, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(rec.converged());
        assert!(rec.iterations < 30, "ILU-preconditioned should be fast, took {}", rec.iterations);
    }
}
