//! Seeded input generation.
//!
//! Every input is derived from the `--seed` argument with `pygko-matgen` and
//! written to the run's work directory before any timing starts. The
//! generation runs in a child process (`perfbench --generate`), so the
//! generator's memory never shows in the measured process's peak resident
//! memory and the measured process only ever sees the generated files.

use crate::Kind;
use pygko_matgen::generators::{poisson2d, power_law, spd_tridiag_batch, GeneratedMatrix};
use pygko_sim::rng::Xoshiro256pp;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Grid side of the CG matrix (poisson2d_200: 40k rows).
pub const CG_GRID: usize = 200;
/// Grid side of the regular SpMV matrix (poisson2d_600: 360k rows).
pub const SPMV_GRID: usize = 600;
/// Rows of the skewed SpMV matrix (powerlaw_200000).
pub const POWERLAW_N: usize = 200_000;
/// Rows of each small batched system.
pub const BATCH_N: usize = 32;
/// Systems per batched solve.
pub const BATCH_SYSTEMS: usize = 1200;

/// The generated files of one workload.
pub struct Files {
    /// The work directory holding them.
    pub dir: PathBuf,
}

impl Files {
    /// Path of a generated file.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Reads a generated vector.
    pub fn vector(&self, name: &str) -> std::io::Result<Vec<f64>> {
        read_vec(&self.path(name))
    }
}

/// A seeded stream of values, independent per `tag`.
fn stream(seed: u64, tag: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
}

fn seeded_vector(seed: u64, tag: u64, n: usize) -> Vec<f64> {
    let mut rng = stream(seed, tag);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

fn write_matrix(dir: &Path, m: &GeneratedMatrix) -> std::io::Result<()> {
    pygko_mtx::write_mtx_file(
        dir.join(format!("{}.mtx", m.name)),
        m.rows,
        m.cols,
        &m.triplets,
    )
    .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Generates every input of `kind` from `seed` into `dir`.
pub fn generate(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match kind {
        Kind::CgPoisson => {
            let m = poisson2d("poisson2d_200", CG_GRID, CG_GRID);
            write_matrix(dir, &m)?;
            write_vec(&dir.join("rhs.vec"), &seeded_vector(seed, 1, m.rows))?;
        }
        Kind::SpmvStream => {
            let regular = poisson2d("poisson2d_600", SPMV_GRID, SPMV_GRID);
            write_matrix(dir, &regular)?;
            write_vec(
                &dir.join("poisson2d_600.vec"),
                &seeded_vector(seed, 2, regular.cols),
            )?;
            drop(regular);
            // avg 2 entries per row plus one row touching 90% of columns:
            // `Auto` resolves to merge-path on this structure.
            let skewed = power_law("powerlaw_200000", POWERLAW_N, 2, 0.9, seed);
            write_matrix(dir, &skewed)?;
            write_vec(
                &dir.join("powerlaw_200000.vec"),
                &seeded_vector(seed, 3, skewed.cols),
            )?;
        }
        Kind::BatchSmall => {
            let batch = spd_tridiag_batch("tridiag32", BATCH_N, BATCH_SYSTEMS, seed);
            write_matrix(dir, &batch.prototype)?;
            // Row-major (n, S): column s holds system s's right-hand side.
            let s_count = batch.rhs.len();
            let mut flat = vec![0.0; BATCH_N * s_count];
            for (s, rhs) in batch.rhs.iter().enumerate() {
                for (i, v) in rhs.iter().enumerate() {
                    flat[i * s_count + s] = *v;
                }
            }
            write_vec(&dir.join("rhs.vec"), &flat)?;
        }
    }
    Ok(())
}

/// Writes one value per line in shortest round-trip form.
pub fn write_vec(path: &Path, v: &[f64]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for x in v {
        writeln!(w, "{x:?}")?;
    }
    w.flush()
}

/// Reads a vector written by [`write_vec`].
pub fn read_vec(path: &Path) -> std::io::Result<Vec<f64>> {
    let r = std::io::BufReader::new(std::fs::File::open(path)?);
    r.lines()
        .map(|line| {
            line?
                .trim()
                .parse::<f64>()
                .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_round_trip_exactly_and_depend_on_the_seed() {
        let v = seeded_vector(7, 1, 100);
        assert_eq!(v, seeded_vector(7, 1, 100));
        assert_ne!(v, seeded_vector(8, 1, 100));
        assert_ne!(v, seeded_vector(7, 2, 100));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-vec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.vec");
        write_vec(&path, &v).unwrap();
        assert_eq!(read_vec(&path).unwrap(), v);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
