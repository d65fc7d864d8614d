//! Wall-clock benchmark of the pyginkgo facade, with per-layer attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cg_poisson --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` runs the workload closed-loop through the public facade and
//! prints the end-to-end metrics. `--trace 1` runs it again with the
//! benchmark's own spans around every facade op, engine-twin call, kernel
//! twin and pool probe, and prints the per-layer metrics. The last line of
//! standard output is always the JSON result; diagnostics go to stderr.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod batch;
mod calib;
mod cg;
mod check;
mod harness;
mod host;
mod inputs;
mod spans;
mod spmv;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload reports
/// every name; a layer the workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pyginkgo.calls_per_op", "count"),
    ("pyginkgo.overhead_us", "us"),
    ("pyginkgo.read_s", "s"),
    ("mtx.read_mb_per_s", "MB/s"),
    ("spmv_gflops.csr", "GF/s"),
    ("spmv_gflops.coo", "GF/s"),
    ("systems_per_s", "1/s"),
    ("solver.iters", "count"),
    ("batch.iters_max", "count"),
    ("solver.iter_us", "us"),
    ("solver.loop_self_us", "us"),
    ("solver.attributed_frac", "ratio"),
    ("matrix.spmv_us.main.csr", "us"),
    ("matrix.spmv_us.main.coo", "us"),
    ("matrix.spmv_us.skewed.csr", "us"),
    ("matrix.spmv_us.skewed.coo", "us"),
    ("matrix.spmv_gbps_computed.main.csr", "GB/s"),
    ("matrix.spmv_gbps_computed.main.coo", "GB/s"),
    ("matrix.spmv_gbps_computed.skewed.csr", "GB/s"),
    ("matrix.spmv_gbps_computed.skewed.coo", "GB/s"),
    ("matrix.blas_us.dot", "us"),
    ("matrix.blas_us.norm", "us"),
    ("matrix.blas_us.axpy", "us"),
    ("matrix.blas_us.scale_add", "us"),
    ("matrix.blas_us.copy", "us"),
    ("matrix.blas_share", "ratio"),
    ("matrix.spmv_speedup_vs_scipy.main", "x"),
    ("matrix.spmv_speedup_vs_scipy.skewed", "x"),
    ("plan.builds_per_op", "count"),
    ("plan.hits_per_op", "count"),
    ("plan.build_us.main", "us"),
    ("plan.build_us.skewed", "us"),
    ("pool.dispatches_per_op", "count"),
    ("pool.dispatch_us", "us"),
    ("pool.parks_per_dispatch", "ratio"),
    ("pool.wake_us", "us"),
    ("pool.steal_frac", "ratio"),
    ("pool.lane_busy_frac", "ratio"),
    ("pool.lane_imbalance", "ratio"),
    ("pool.speedup_vs_reference", "x"),
    ("mem.minor_faults_per_op", "count"),
    ("obs.armed_over_inert", "x"),
    ("obs.spans_per_solve", "count"),
    ("obs.truncated_spans", "count"),
    ("obs.flame_nodes", "count"),
    ("sim.virtual_over_wall", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Unpreconditioned CG on poisson2d_200.
    CgPoisson,
    /// CSR and COO SpMV on poisson2d_600 and powerlaw_200000.
    SpmvStream,
    /// Batched CG over 1200 tridiagonal systems of 32 rows.
    BatchSmall,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::CgPoisson, Kind::SpmvStream, Kind::BatchSmall];

    /// Workload name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CgPoisson => "cg_poisson",
            Kind::SpmvStream => "spmv_stream",
            Kind::BatchSmall => "batch_small",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload to run.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Functional pool threads of the workload's device.
    pub threads: usize,
    /// Perturb every other op's output before it is checked (demonstrates
    /// that a wrong answer is counted as a failure).
    pub inject_fault: bool,
    /// Child-process mode: only write the seeded inputs to this directory.
    pub generate_into: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <cg_poisson|spmv_stream|batch_small> \
--seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--inject-fault]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut inject_fault = false;
    let mut generate_into = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("seconds (expected 0 < s <= 120)"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace (expected 0 or 1)")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(|_| bad("threads"))?),
            "--generate" => generate_into = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let nproc = host::nproc();
    // Two pool threads, never more than the host has: more threads than
    // cores measures the OS scheduler, not the program.
    let threads = threads.unwrap_or(2.min(nproc));
    if threads == 0 || threads > nproc {
        return Err(format!(
            "refusing to run {threads} pool threads on a host with nproc = {nproc}"
        ));
    }
    Ok(Args {
        kind,
        seed,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        threads,
        inject_fault,
        generate_into,
    })
}

fn main() -> ExitCode {
    let pinned = host::pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.generate_into {
        return match inputs::generate(args.kind, args.seed, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: generating inputs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !pinned {
        eprintln!("perfbench: allocator policy not pinned; op times may vary between runs");
    }
    match harness::run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json` are the ones this program
    /// prints.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("end");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
        let workloads = &text[text.find("\"workloads\"").expect("workloads")..];
        let workloads = &workloads[..workloads.find(']').expect("closing bracket")];
        let names: Vec<&str> = workloads
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("end of name")])
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        for name in names {
            assert!(
                Kind::parse(name).is_some(),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
    }
}
