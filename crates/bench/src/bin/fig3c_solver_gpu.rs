//! Figure 3c: iterative solvers on the (simulated) A100 — pyGinkgo's
//! speedup in *time per iteration* relative to CuPy for CG, CGS, and
//! GMRES(30), double precision, no preconditioner, a fixed iteration cap
//! (time is divided by the iterations each solver completed), over the
//! 40-matrix solver suite.
//!
//! `cargo run -p pygko-bench --bin fig3c_solver_gpu --release`

use pygko_bench::{fig3c_speedups, fmt, maybe_shrink, solver_iters, Report};
use pygko_matgen::solver_suite;

fn main() {
    let iters = solver_iters();
    println!("fixed iterations per solve: {iters} (paper: 1000; metric is time/iteration)");

    let mut report = Report::new(
        "Figure 3c: solver time-per-iteration speedup vs CuPy on A100, fp64",
        &["matrix", "nnz", "CG x", "CGS x", "GMRES x"],
    );
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;

    for info in maybe_shrink(solver_suite()) {
        let gen = info.generate();
        let nnz = gen.nnz();
        let sp = fig3c_speedups(&gen, iters);
        for (acc, v) in sums.iter_mut().zip(sp) {
            *acc += v;
        }
        count += 1;

        rows.push((
            nnz,
            vec![
                gen.name.clone(),
                nnz.to_string(),
                fmt(sp[0]),
                fmt(sp[1]),
                fmt(sp[2]),
            ],
        ));
    }

    rows.sort_by_key(|(nnz, _)| *nnz);
    for (_, row) in rows {
        report.row(row);
    }
    report.print();
    report.write_csv("fig3c_solver_gpu").expect("csv");

    println!(
        "\npaper: CGS up to ~4x (best at low NNZ), CG ~2.5x, GMRES slightly below 1x; \
         speedups shrink as NNZ grows"
    );
    println!(
        "measured means: CG {:.2}x, CGS {:.2}x, GMRES {:.2}x over {count} matrices",
        sums[0] / count as f64,
        sums[1] / count as f64,
        sums[2] / count as f64
    );
}
