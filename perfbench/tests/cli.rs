//! End-to-end checks of the benchmark binary: a wrong answer is counted as
//! a failure on every workload kind, and more pool threads than the host
//! has are refused.

use std::process::Command;

fn perfbench(args: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args.split_whitespace())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

fn field(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

#[test]
fn injected_wrong_answers_are_counted_as_failures() {
    let out = perfbench("--workload batch_small --seed 3 --seconds 0.2 --trace 0 --inject-fault");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    let (attempted, failed) = (field(result, "attempted"), field(result, "failed"));
    assert_eq!(failed, attempted / 2, "{result}");
}

#[test]
fn injected_wrong_spmv_outputs_are_counted_as_failures() {
    let out = perfbench("--workload spmv_stream --seed 3 --seconds 0.2 --trace 0 --inject-fault");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": false"), "{result}");
    let (attempted, failed) = (field(result, "attempted"), field(result, "failed"));
    assert!(failed >= attempted / 2, "{result}");
    assert!(
        stderr.contains("ulps from the reference executor"),
        "{stderr}"
    );
}

#[test]
fn clean_run_is_correct() {
    let out = perfbench("--workload batch_small --seed 3 --seconds 0.2 --trace 0");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true"), "{result}");
    assert_eq!(field(result, "failed"), 0);
}

#[test]
fn more_threads_than_cores_are_refused() {
    let out = perfbench("--workload cg_poisson --seed 1 --seconds 1 --trace 0 --threads 100000");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("refusing"));
}
