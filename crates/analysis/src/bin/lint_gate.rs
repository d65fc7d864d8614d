//! The workspace lint gate.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pygko-analysis --bin lint_gate [--] [WORKSPACE_ROOT]
//! cargo run -p pygko-analysis --bin lint_gate -- --format=json
//! cargo run -p pygko-analysis --bin lint_gate -- --self-test
//! ```
//!
//! Scans every `.rs` file under `crates/`, `examples/`, and `tests/` and
//! prints one `path:line: [rule] message` diagnostic per violation (or, with
//! `--format=json`, a JSON document with the same diagnostics in the same
//! deterministic order, rendered by the engine's own config serializer).
//! Exit codes: 0 clean, 1 violations found, 2 I/O or self-test failure.

use gko::config::{json, Config};
use std::path::{Path, PathBuf};

fn main() {
    let mut root_arg: Option<PathBuf> = None;
    let mut self_test = false;
    let mut json_out = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--self-test" => self_test = true,
            "--format=json" => json_out = true,
            "--format=text" => json_out = false,
            "--help" | "-h" => {
                eprintln!("usage: lint_gate [--self-test] [--format=json] [WORKSPACE_ROOT]");
                return;
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }

    if self_test {
        match pygko_analysis::run_self_test() {
            Ok(report) => {
                for line in &report {
                    println!("{line}");
                }
                println!("lint_gate: self-test passed ({} cases)", report.len());
            }
            Err(failures) => {
                for line in &failures {
                    eprintln!("{line}");
                }
                eprintln!("lint_gate: self-test FAILED ({} cases)", failures.len());
                std::process::exit(2);
            }
        }
        return;
    }

    let root = root_arg.unwrap_or_else(find_workspace_root);
    match pygko_analysis::lint_workspace(&root) {
        Ok((diags, files)) => {
            if json_out {
                // Diagnostics arrive sorted by (path, line, rule, message),
                // so the JSON output is deterministic run-to-run.
                let entries: Vec<Config> = diags
                    .iter()
                    .map(|d| {
                        Config::map()
                            .with("path", d.path.as_str())
                            .with("line", d.line)
                            .with("rule", d.rule)
                            .with("message", d.message.as_str())
                    })
                    .collect();
                let doc = Config::map()
                    .with("files_scanned", files)
                    .with("violations", entries.len())
                    .with("diagnostics", entries);
                println!("{}", json::to_string_pretty(&doc));
                if !diags.is_empty() {
                    std::process::exit(1);
                }
                return;
            }
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                println!("lint_gate: {files} files clean");
            } else {
                println!("lint_gate: {} violation(s) in {files} files", diags.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("lint_gate: {e}");
            std::process::exit(2);
        }
    }
}

/// Locates the workspace root from the current directory, falling back to
/// the analysis crate's build-time location (see [`workspace_root_from`]).
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root_from(&cwd, Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// The nearest ancestor of `cwd` that looks like the workspace (has both
/// `Cargo.toml` and `crates/`); failing that, the grandparent of the
/// analysis crate's `manifest_dir`. The working directory wins so a binary
/// built in one checkout and run from another scans the tree it runs in.
fn workspace_root_from(cwd: &Path, manifest_dir: &Path) -> PathBuf {
    let is_workspace = |dir: &Path| dir.join("Cargo.toml").exists() && dir.join("crates").is_dir();
    if let Some(root) = cwd.ancestors().find(|dir| is_workspace(dir)) {
        return root.to_owned();
    }
    match manifest_dir.parent().and_then(Path::parent) {
        Some(root) if root.join("Cargo.toml").exists() => root.to_owned(),
        _ => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lint_gate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn current_directory_workspace_wins_over_manifest_dir() {
        let other = scratch_dir("cwd_wins");
        std::fs::create_dir_all(other.join("crates/engine/src")).unwrap();
        std::fs::write(other.join("Cargo.toml"), "[workspace]\n").unwrap();
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        // From the workspace root and from a subdirectory of it.
        assert_eq!(workspace_root_from(&other, manifest), other);
        assert_eq!(
            workspace_root_from(&other.join("crates/engine/src"), manifest),
            other
        );
        std::fs::remove_dir_all(&other).unwrap();
    }

    #[test]
    fn falls_back_to_manifest_dir_outside_any_workspace() {
        let bare = scratch_dir("fallback");
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let expected = manifest.parent().and_then(Path::parent).unwrap();
        assert_eq!(workspace_root_from(&bare, manifest), expected);
        std::fs::remove_dir_all(&bare).unwrap();
    }
}
