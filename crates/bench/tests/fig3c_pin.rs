//! Pins the committed Figure 3c CSV to the code: the rows of the three
//! smallest solver-suite matrices are recomputed and must match
//! `results/fig3c_solver_gpu.csv` byte for byte. A change to what a solver
//! charges the virtual timeline (a fused kernel, an elided copy) therefore
//! cannot drift the figure without the CSV being regenerated.

use pygko_bench::{fig3c_speedups, fmt};
use pygko_matgen::solver_suite;
use std::path::PathBuf;

/// The iteration cap the committed CSV was generated with (the
/// `PYGKO_SOLVER_ITERS` default).
const ITERS: usize = 100;

#[test]
fn smallest_fig3c_rows_match_the_committed_csv() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/fig3c_solver_gpu.csv");
    let csv = std::fs::read_to_string(&path).expect("committed Figure 3c CSV");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("matrix,nnz,CG x,CGS x,GMRES x"));
    // Rows are sorted by nnz, so the first three are the smallest matrices.
    let rows: Vec<&str> = lines.take(3).collect();
    assert_eq!(rows.len(), 3);
    let suite = solver_suite();
    for row in rows {
        let name = row.split(',').next().unwrap();
        let info = suite
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the solver suite"));
        let gen = info.generate();
        let sp = fig3c_speedups(&gen, ITERS);
        let got = format!(
            "{},{},{},{},{}",
            gen.name,
            gen.nnz(),
            fmt(sp[0]),
            fmt(sp[1]),
            fmt(sp[2])
        );
        assert_eq!(got, row, "regenerate results/fig3c_solver_gpu.csv");
    }
}
