//! Facade-level observability: quick-size Poisson CG solves driven through
//! `pyginkgo` with the flight recorder, tracing, or profiling armed, then
//! scraped over raw TCP from the executor's telemetry server. Each test
//! checks that what the facade hands back (`flight_report()`,
//! `trace_report()`, `profile()`) agrees with what the endpoints serve, and
//! that the server shuts down cleanly. Endpoint grammar, tree structure and
//! detector behaviour are covered by the engine's own `telemetry`,
//! `tracing` and `profile` suites.

use gko::config::{json, Config};
use gko::telemetry::{prom, DetectorConfig, TelemetryServer};
use pyginkgo as pg;
use pygko_matgen::generators::poisson2d;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Grid edge of the quick Poisson system (1600 rows).
const GRID: usize = 40;

/// One raw HTTP/1.1 exchange; returns (status line, Content-Length, body).
fn http(addr: SocketAddr, method: &str, path: &str) -> (String, usize, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: facade\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let len = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, len, body.to_string())
}

/// `GET path`, asserting `200 OK`, parsed as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Config {
    let (status, _, body) = http(addr, "GET", path);
    assert_eq!(status, "HTTP/1.1 200 OK", "GET {path}");
    Config::from_json(&body).unwrap_or_else(|e| panic!("GET {path} is not JSON: {e:?}"))
}

/// Builds the quick Poisson system on `dev`; returns it with its row and
/// nonzero counts.
fn poisson(dev: &pg::Device) -> (pg::SparseMatrix, usize, usize) {
    let gen = poisson2d("poisson2d", GRID, GRID);
    let m = pg::SparseMatrix::from_triplets(
        dev,
        (gen.rows, gen.cols),
        &gen.triplets,
        "double",
        "int32",
        "Csr",
    )
    .expect("assemble matrix");
    (m, gen.rows, gen.nnz())
}

/// One CG solve from a zero initial guess; it must converge.
fn solve(dev: &pg::Device, solver: &pg::solver::Solver, rows: usize) {
    let b = pg::as_tensor_fill(dev, (rows, 1), "double", 1.0).expect("rhs");
    let mut x = pg::as_tensor_fill(dev, (rows, 1), "double", 0.0).expect("x0");
    let logger = solver.apply(&b, &mut x).expect("solve");
    assert!(
        logger.converged(),
        "stopped after {} iterations",
        logger.iterations()
    );
}

/// Wall-clock detectors fire spuriously on oversubscribed hosts; tests that
/// assert on structure rather than verdicts switch them off before tracing
/// or profiling arms the recorder (which keeps this config).
fn quiet_detectors(dev: &pg::Device) {
    dev.executor().enable_flight_recorder_with(DetectorConfig {
        drift_min_solves: u64::MAX,
        imbalance_ratio: f64::INFINITY,
        ..DetectorConfig::default()
    });
}

fn shutdown_cleanly(server: TelemetryServer) {
    let addr = server.addr();
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "port must stop accepting after shutdown"
    );
}

/// Flight-recorded solve: `/metrics` carries the solve and one series
/// triple per pool lane, `/healthz` reports the recorder, and the `/runs`
/// entry is annotated with the system matrix and matches the facade's
/// `flight_report()`.
#[test]
fn flight_recorded_solve_is_served_with_lane_series_and_matrix() {
    // Two lanes: max/mean lane busy time is then at most 2, below the
    // default imbalance threshold, so the default detectors stay quiet.
    let dev = pg::device_with_id("omp", 2).expect("omp device");
    let (m, rows, nnz) = poisson(&dev);
    let solver = pg::solver::cg(&dev, &m, None, 20 * GRID, 1e-8)
        .expect("build cg")
        .with_flight_recorder();
    let server = dev
        .executor()
        .serve_telemetry("127.0.0.1:0")
        .expect("serve");
    let addr = server.addr();
    solve(&dev, &solver, rows);

    let (status, _, metrics) = http(addr, "GET", "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    prom::validate(&metrics).expect("/metrics passes the strict validator");
    let lanes = dev.executor().pool_lane_stats().len();
    assert_eq!(lanes, 2, "omp-2 pool lanes");
    for lane in 0..lanes {
        for series in [
            "gko_pool_lane_chunks_total",
            "gko_pool_lane_steals_total",
            "gko_pool_lane_busy_ns_total",
        ] {
            let needle = format!("{series}{{lane=\"{lane}\"}}");
            assert!(metrics.contains(&needle), "missing {needle}");
        }
    }
    assert!(metrics.contains("gko_solves_total 1\n"), "solve counted");
    assert!(
        !metrics.contains("gko_anomalies_total{"),
        "healthy solve flagged"
    );

    let health = get_json(addr, "/healthz");
    let flight = health
        .get("flight_recorder")
        .expect("flight_recorder block");
    assert_eq!(flight.get("enabled"), Some(&Config::Bool(true)));
    assert_eq!(flight.get("anomalies").and_then(Config::as_int), Some(0));

    let runs = get_json(addr, "/runs");
    let reports = runs
        .get("reports")
        .and_then(Config::as_array)
        .expect("reports");
    assert_eq!(reports.len(), 1, "exactly this solve");
    let entry = &reports[0];
    assert_eq!(entry.get("converged"), Some(&Config::Bool(true)));
    let matrix = entry
        .get("matrix")
        .expect("annotated with the system matrix");
    assert_eq!(matrix.get("nnz").and_then(Config::as_int), Some(nnz as i64));
    assert_eq!(
        matrix.get("rows").and_then(Config::as_int),
        Some(rows as i64)
    );
    assert!(!entry
        .get("kernels")
        .and_then(Config::as_array)
        .expect("kernels")
        .is_empty());

    let report = solver.flight_report().expect("facade report");
    assert!(report.converged && report.anomalies.is_empty());
    assert_eq!(
        entry.get("seq").and_then(Config::as_int),
        Some(report.seq as i64),
        "/runs serves the facade's report"
    );
    shutdown_cleanly(server);
}

/// Traced solve: the facade's `trace_report()` is exactly what
/// `/traces/<id>` and `/traces/<id>?format=chrome` serve, the index lists
/// it, and the `/runs` entry links back to it.
#[test]
fn traced_solve_matches_traces_endpoints_and_runs_link() {
    let dev = pg::device_with_id("omp", 4).expect("omp device");
    quiet_detectors(&dev);
    let (m, rows, nnz) = poisson(&dev);
    let solver = pg::solver::cg(&dev, &m, None, 20 * GRID, 1e-8)
        .expect("build cg")
        .with_tracing(1)
        .expect("arm tracing");
    let server = dev
        .executor()
        .serve_telemetry("127.0.0.1:0")
        .expect("serve");
    let addr = server.addr();
    solve(&dev, &solver, rows);

    let report = solver.trace_report().expect("sample_n=1 retains the solve");
    assert_eq!(report.annotation, "solver::Cg");
    assert!(report.converged);
    assert!(report.iterations > 0);
    assert_eq!(report.truncated_spans, 0);
    let id = report.trace_id as i64;

    let index = get_json(addr, "/traces");
    assert_eq!(index.get("armed"), Some(&Config::Bool(true)));
    assert_eq!(index.get("drops_total").and_then(Config::as_int), Some(0));
    let traces = index
        .get("traces")
        .and_then(Config::as_array)
        .expect("traces");
    assert!(
        traces
            .iter()
            .any(|t| t.get("trace_id").and_then(Config::as_int) == Some(id)),
        "index lists the solve's trace"
    );

    let doc = get_json(addr, &format!("/traces/{id}"));
    assert_eq!(doc, report.to_config(), "scrape matches the facade report");

    let (status, _, chrome) = http(addr, "GET", &format!("/traces/{id}?format=chrome"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(chrome, report.to_chrome_trace());

    let runs = get_json(addr, "/runs");
    let reports = runs
        .get("reports")
        .and_then(Config::as_array)
        .expect("reports");
    let entry = reports
        .iter()
        .find(|r| r.get("trace_id").and_then(Config::as_int) == Some(id))
        .expect("/runs links the trace id");
    let matrix = entry
        .get("matrix")
        .expect("annotated with the system matrix");
    assert_eq!(matrix.get("nnz").and_then(Config::as_int), Some(nnz as i64));
    shutdown_cleanly(server);
}

/// Profiled solve: the facade's `profile()` is exactly what `/profile`
/// and its folded form serve (HEAD advertising the same length), the tree
/// is rooted at the CG solve with csr paths, and further solves after a
/// committed baseline show self-time growth on `/profile/diff`.
#[test]
fn profiled_solve_matches_profile_endpoints_and_diff_growth() {
    let dev = pg::device_with_id("omp", 4).expect("omp device");
    quiet_detectors(&dev);
    let (m, rows, _) = poisson(&dev);
    let solver = pg::solver::cg(&dev, &m, None, 20 * GRID, 1e-8)
        .expect("build cg")
        .with_profiling();
    let server = dev
        .executor()
        .serve_telemetry("127.0.0.1:0")
        .expect("serve");
    let addr = server.addr();
    solve(&dev, &solver, rows);

    let snap = solver.profile().expect("with_profiling was called");
    assert_eq!(snap.solves, 1);
    let root = &snap.nodes[0];
    assert_eq!((root.depth, root.kind.as_str()), (0, "solve"));
    assert_eq!(root.name, "solver::Cg");
    assert!(root.self_wall_ns <= root.wall_ns);
    assert!(snap.nodes.len() <= snap.max_nodes);
    assert!(
        snap.nodes.iter().any(|n| n.path.contains("csr")),
        "csr paths"
    );

    let doc = get_json(addr, "/profile");
    assert_eq!(doc, snap.to_config(), "scrape matches the facade snapshot");
    let (status, _, folded) = http(addr, "GET", "/profile?format=folded");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(folded, snap.folded());
    for path in ["/profile", "/profile?format=folded"] {
        let (get_status, get_len, get_body) = http(addr, "GET", path);
        let (head_status, head_len, head_body) = http(addr, "HEAD", path);
        assert_eq!(head_status, get_status, "HEAD status parity on {path}");
        assert!(head_body.is_empty(), "HEAD {path} carries no body");
        assert_eq!(
            (head_len, get_len),
            (get_body.len(), get_body.len()),
            "{path}"
        );
    }

    dev.executor().profile_commit_baseline("main");
    for _ in 0..2 {
        solve(&dev, &solver, rows);
    }
    let diff = get_json(addr, "/profile/diff?base=main");
    assert_eq!(diff.get("base").and_then(Config::as_str), Some("main"));
    let diff_rows = diff.get("rows").and_then(Config::as_array).expect("rows");
    assert!(
        diff_rows.iter().any(|r| r
            .get("delta_pct")
            .and_then(Config::as_float)
            .is_some_and(|d| d > 0.0)),
        "post-baseline solves show self-time growth: {}",
        json::to_string(&diff)
    );
    shutdown_cleanly(server);
}
