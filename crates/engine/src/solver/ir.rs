//! Iterative refinement (preconditioned Richardson iteration).
//!
//! `x += omega * M^{-1} (b - A x)` — Ginkgo's `solver::Ir`. With an exact
//! inner solver as `M` this performs classical iterative refinement; with a
//! cheap preconditioner it is the Richardson method.

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::Value;
use crate::executor::Executor;
use crate::linop::LinOp;
use crate::log::{ConvergenceLogger, Logger, OpTimer};
use crate::matrix::dense::Dense;
use crate::solver::SolverCore;
use crate::stop::Criteria;
use std::sync::Arc;

/// Richardson / iterative-refinement solver.
pub struct Ir<V: Value> {
    core: SolverCore<V>,
    omega: f64,
}

impl<V: Value> Ir<V> {
    /// Creates an IR solver with relaxation factor 1.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Ok(Ir {
            core: SolverCore::new("solver::Ir", system)?,
            omega: 1.0,
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

    /// Sets the relaxation factor omega.
    pub fn with_relaxation(mut self, omega: f64) -> Self {
        self.omega = omega;
        self
    }

    /// Sets the inner solver / preconditioner.
    pub fn with_solver(mut self, inner: Arc<dyn LinOp<V>>) -> Result<Self> {
        self.core.set_preconditioner(inner)?;
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

impl<V: Value> LinOp<V> for Ir<V> {
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
        let dim = Dim2::new(self.size().rows, 1);
        let mut r = Dense::zeros(&exec, dim);
        let mut d = Dense::zeros(&exec, dim);

        core.residual(b, x, &mut r)?;
        let baseline = r.compute_norm2();
        core.logger.begin(baseline);
        if let Some(reason) = core.check(0, baseline, baseline) {
            core.logger.finish(0, reason);
            return Ok(());
        }

        let mut iter = 0usize;
        loop {
            iter += 1;
            core.precondition(&r, &mut d)?;
            x.add_scaled(V::from_f64(self.omega), &d)?;
            core.residual(b, x, &mut r)?;
            let res = r.compute_norm2();
            core.logger.record_residual(iter, res);
            if let Some(reason) = core.check(iter, res, baseline) {
                core.logger.finish(iter, reason);
                return Ok(());
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "solver::Ir"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::Csr;
    use crate::preconditioner::jacobi::Jacobi;

    #[test]
    fn richardson_with_jacobi_converges_on_diagonally_dominant() {
        let exec = Executor::reference();
        let n = 40;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 10.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let solver = Ir::new(a.clone())
            .unwrap()
            .with_solver(Arc::new(Jacobi::new(&*a).unwrap()))
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(500, 1e-10));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::<f64>::vector(&exec, n, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert!(solver.logger().snapshot().converged());
    }

    #[test]
    fn plain_richardson_diverges_on_stiff_system_and_stops_at_limit() {
        let exec = Executor::reference();
        // Spectral radius of (I - A) > 1 for this A without damping.
        let a = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 5.0), (1, 1, 5.0)],
            )
            .unwrap(),
        );
        let solver = Ir::new(a).unwrap().with_criteria(Criteria::iterations(10));
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
        solver.apply(&b, &mut x).unwrap();
        let rec = solver.logger().snapshot();
        assert!(!rec.converged());
        assert_eq!(rec.iterations, 10);
    }

    #[test]
    fn relaxation_factor_controls_convergence() {
        let exec = Executor::reference();
        let a = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 1.5), (1, 1, 1.5)],
            )
            .unwrap(),
        );
        // omega = 2/3 makes (I - omega*A) = 0: converges in one step.
        let solver = Ir::new(a)
            .unwrap()
            .with_relaxation(2.0 / 3.0)
            .with_criteria(Criteria::iterations_and_reduction(50, 1e-12));
        let b = Dense::<f64>::vector(&exec, 2, 3.0);
        let mut x = Dense::<f64>::vector(&exec, 2, 0.0);
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(solver.logger().snapshot().iterations, 1);
        assert!((x.at(0, 0) - 2.0).abs() < 1e-12);
    }
}
