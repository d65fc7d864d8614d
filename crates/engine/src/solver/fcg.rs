//! Flexible Conjugate Gradient (Ginkgo's `solver::Fcg`).
//!
//! FCG replaces CG's fixed beta formula with the Polak–Ribière form
//! `beta = <r_new - r_old, z_new> / <r_old, z_old>`, which tolerates
//! preconditioners that change between iterations (e.g. inner iterative
//! solves) at the cost of one extra stored vector.

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

/// The flexible CG solver.
pub struct Fcg<V: Value> {
    core: SolverCore<V>,
}

impl<V: Value> Fcg<V> {
    /// Creates an FCG solver for the given system operator.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Ok(Fcg {
            core: SolverCore::new("solver::Fcg", system)?,
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

    /// Sets the (possibly nonlinear/varying) preconditioner.
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

impl<V: Value> LinOp<V> for Fcg<V> {
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
        let mut z = Dense::zeros(&exec, dim);
        core.precondition(&r, &mut z)?;
        let mut p = z.clone();
        let mut q = Dense::zeros(&exec, dim);
        let mut r_old = r.clone();

        let baseline = r.compute_norm2();
        core.logger.begin(baseline);
        if let Some(reason) = core.check(0, baseline, baseline) {
            core.logger.finish(0, reason);
            return Ok(());
        }

        let mut rho = r.compute_dot(&z)?;
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
            x.add_scaled(V::from_f64(alpha), &p)?;
            r_old.copy_from(&r)?;
            r.add_scaled(V::from_f64(-alpha), &q)?;

            let res_norm = r.compute_norm2();
            core.logger.record_residual(iter, res_norm);
            if let Some(reason) = core.check(iter, res_norm, baseline) {
                core.logger.finish(iter, reason);
                return Ok(());
            }

            core.precondition(&r, &mut z)?;
            // Polak-Ribière: beta = <r - r_old, z> / rho_old.
            let rz = r.compute_dot(&z)?;
            let r_old_z = r_old.compute_dot(&z)?;
            let beta = (rz - r_old_z) / rho;
            p.scale_add(V::one(), &z, V::from_f64(beta))?;
            rho = rz;
        }
    }

    fn op_name(&self) -> &'static str {
        "solver::Fcg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::csr::Csr;

    fn spd(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    #[test]
    fn matches_cg_on_fixed_preconditioner() {
        // With a constant preconditioner FCG and CG follow the same Krylov
        // space; iteration counts agree.
        use crate::solver::Cg;
        let exec = Executor::reference();
        let a = spd(&exec, 64);
        let criteria = Criteria::iterations_and_reduction(500, 1e-10);
        let b = Dense::<f64>::vector(&exec, 64, 1.0);

        let fcg = Fcg::new(a.clone()).unwrap().with_criteria(criteria);
        let mut x1 = Dense::<f64>::vector(&exec, 64, 0.0);
        fcg.apply(&b, &mut x1).unwrap();

        let cg = Cg::new(a).unwrap().with_criteria(criteria);
        let mut x2 = Dense::<f64>::vector(&exec, 64, 0.0);
        cg.apply(&b, &mut x2).unwrap();

        let (i1, i2) = (
            fcg.logger().snapshot().iterations,
            cg.logger().snapshot().iterations,
        );
        assert!(
            i1.abs_diff(i2) <= 2,
            "fcg {i1} vs cg {i2} should be nearly identical"
        );
        assert!(fcg.logger().snapshot().converged());
    }

    #[test]
    fn survives_a_varying_preconditioner() {
        // A deliberately iteration-dependent preconditioner: alternates
        // between identity-ish scalings. Plain CG's beta formula degrades;
        // FCG still converges.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Flip {
            exec: Executor,
            n: usize,
            count: AtomicUsize,
        }
        impl LinOp<f64> for Flip {
            fn size(&self) -> Dim2 {
                Dim2::square(self.n)
            }
            fn executor(&self) -> &Executor {
                &self.exec
            }
            fn apply(&self, b: &Dense<f64>, x: &mut Dense<f64>) -> Result<()> {
                let k = self.count.fetch_add(1, Ordering::Relaxed);
                let s = if k.is_multiple_of(2) { 0.5 } else { 0.25 };
                x.copy_from(b)?;
                x.scale(s);
                Ok(())
            }
        }
        let exec = Executor::reference();
        let a = spd(&exec, 48);
        let flip = Arc::new(Flip {
            exec: exec.clone(),
            n: 48,
            count: AtomicUsize::new(0),
        });
        let fcg = Fcg::new(a.clone())
            .unwrap()
            .with_preconditioner(flip)
            .unwrap()
            .with_criteria(Criteria::iterations_and_reduction(1000, 1e-9));
        let b = Dense::<f64>::vector(&exec, 48, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 48, 0.0);
        fcg.apply(&b, &mut x).unwrap();
        assert!(fcg.logger().snapshot().converged());

        // Verify the true residual.
        let mut r = Dense::zeros(&exec, Dim2::new(48, 1));
        r.copy_from(&b).unwrap();
        a.apply_advanced(-1.0, &x, 1.0, &mut r).unwrap();
        assert!(r.compute_norm2() < 1e-6, "residual {}", r.compute_norm2());
    }
}
