//! The closed-loop harness shared by every workload: input generation,
//! repeated set-up, the untraced end-to-end run, and the traced per-layer
//! run with its facade phase and generic pool, reference and observability
//! probes.

use crate::inputs::Files;
use crate::spans::Recorder;
use crate::stats::{fold, median, quantile, tail};
use crate::{calib, host, Args, Kind, END_TO_END, PER_LAYER};
use gko::{Executor, LaneStats, PoolStats};
use pyginkgo as pg;
use pygko_sim::TimelineSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Result type of the harness: errors are reported as text.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the harness error.
pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Ops an end-to-end run makes at least. It also fixes the tail level: the
/// highest percentile leaving 10 of these ops beyond it is p75. Higher
/// levels (p90 and up) moved 20-40% from run to run on a shared 2-vCPU
/// host, which no bound could tell from a regression.
const MIN_OPS: usize = 40;
/// Traced ops a traced run makes at least.
const MIN_TRACED_OPS: u64 = 11;

/// Per-layer metric values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload's per-layer probes get to work with.
pub struct Ctx<'a, P> {
    /// The run's span recorder.
    pub rec: &'a mut Recorder,
    /// Metric sink.
    pub out: &'a mut Layers,
    /// The generated inputs.
    pub files: &'a Files,
    /// Harness data loaded before timing.
    pub prep: &'a P,
    /// Soft time budget per probe.
    pub budget: Duration,
}

/// One benchmark workload driven through the public facade.
pub trait Workload: Sized {
    /// Harness data loaded before any timing (reference outputs for checks).
    type Prep;
    /// Whether the facade's observability planes can be armed on it.
    const ARMABLE: bool;
    /// Linear systems solved per op (0 for SpMV).
    const SYSTEMS_PER_OP: usize;
    /// Set-ups per run, each on a fresh device; the median is reported. The
    /// end-to-end run spreads its ops over them in as many rounds.
    const SETUP_REPS: usize;

    /// Loads the reference data the checks compare against.
    fn prepare(files: &Files, threads: usize) -> Res<Self::Prep>;
    /// The timed set-up: from the generated input to a warmed operator.
    fn setup(prep: &Self::Prep, files: &Files, dev: pg::Device, armed: bool) -> pg::PyResult<Self>;
    /// Seconds the set-up spent reading the input through the facade.
    fn read_s(&self) -> f64;
    /// The device the workload runs on.
    fn device(&self) -> &pg::Device;
    /// Untimed preparation before an op (resets the initial guess).
    fn reset(&mut self);
    /// The timed op. With a recorder, per-call spans go inside the op.
    fn op(&mut self, rec: Option<&mut Recorder>) -> pg::PyResult<()>;
    /// Untimed correctness check of the last op's output.
    fn check(&self, prep: &Self::Prep) -> bool;
    /// Perturbs the last op's output (fault-injection mode).
    fn inject_fault(&mut self);
    /// `(spans per solve, truncated spans, flame nodes)` of an armed
    /// workload's latest solve.
    fn observed(&self) -> Option<(f64, f64, f64)> {
        None
    }
    /// Engine twins, kernel twins and baselines of the traced run.
    fn layers(&mut self, ctx: &mut Ctx<'_, Self::Prep>) -> Res<()>;
}

/// Runs the workload named in `args` and returns the result line.
pub fn run(args: &Args) -> Res<String> {
    let name = args.kind.name();
    let work = PathBuf::from(".bench_work");
    let dir = work.join(format!("{name}-s{}-p{}", args.seed, std::process::id()));
    generate(args, &dir)?;
    let files = Files { dir: dir.clone() };
    let out = match args.kind {
        Kind::CgPoisson => measure::<crate::cg::CgWorkload>(args, &files, &work),
        Kind::SpmvStream => measure::<crate::spmv::SpmvWorkload>(args, &files, &work),
        Kind::BatchSmall => measure::<crate::batch::BatchWorkload>(args, &files, &work),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Writes the seeded inputs from a child process and waits for it.
fn generate(args: &Args, dir: &Path) -> Res<()> {
    let exe = std::env::current_exe().map_err(err)?;
    let status = std::process::Command::new(exe)
        .arg("--workload")
        .arg(args.kind.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--threads")
        .arg(args.threads.to_string())
        .arg("--generate")
        .arg(dir)
        .status()
        .map_err(err)?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }
    Ok(())
}

fn fingerprint(args: &Args, functional: usize) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \
         \"functional_threads\": {functional}, \"l3_kib\": {}}}}}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::l3_kib()
    )
}

/// Counters the program exposes, read at op boundaries.
struct Counters {
    calls: u64,
    faults: u64,
    pool: PoolStats,
    lanes: Vec<LaneStats>,
    timeline: TimelineSnapshot,
}

impl Counters {
    fn read(exec: &Executor) -> Self {
        Counters {
            calls: pg::gil::total_calls(),
            faults: host::minor_faults(),
            pool: exec.pool_stats(),
            lanes: exec.pool_lane_stats(),
            timeline: exec.timeline().snapshot(),
        }
    }
}

/// Outcome tally of a closed loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<W: Workload>(&mut self, w: &mut W, prep: &W::Prep, ok: bool, inject: bool) {
        self.attempted += 1;
        if inject && self.attempted.is_multiple_of(2) {
            w.inject_fault();
        }
        if !(ok && w.check(prep)) {
            self.failed += 1;
        }
    }
}

/// Sets `W` up on a fresh device of the run's kind and returns it with the
/// set-up's wall seconds, device creation included.
fn set_up<W: Workload>(args: &Args, prep: &W::Prep, files: &Files, armed: bool) -> Res<(W, f64)> {
    let t0 = Instant::now();
    let dev = pg::device_with_id("omp", args.threads).map_err(err)?;
    let w = W::setup(prep, files, dev, armed).map_err(err)?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

fn measure<W: Workload>(args: &Args, files: &Files, work: &Path) -> Res<String> {
    let prep = W::prepare(files, args.threads)?;
    let functional = pg::device_with_id("omp", args.threads)
        .map_err(err)?
        .executor()
        .functional_threads();
    if functional > host::nproc() {
        return Err(format!(
            "device runs {functional} threads on nproc = {}",
            host::nproc()
        ));
    }
    println!("{}", fingerprint(args, functional));
    let (tally, metrics) = if args.trace {
        traced::<W>(&prep, args, files, work)?
    } else {
        untraced::<W>(&prep, args, files)?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics
    ))
}

fn metric_json(list: &[(&str, &str)], value: impl Fn(&str) -> f64) -> String {
    list.iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Calibration samples taken after every round of the end-to-end run.
const CAL_PER_ROUND: usize = 5;

/// The end-to-end run. It is split into rounds, one per set-up: each round
/// sets the workload up on a fresh device, timed, runs its share of the
/// ops on it, and then times the calibration kernel. Within one run, the
/// median op time of a round moved by up to 40% from one round to the
/// next, so a run on a single device reads what that device and moment
/// happened to give; a run spread over many devices does not. The reported
/// times are scaled by the median calibration sample of the whole run (see
/// [`crate::calib`]); the wall times are printed beside the result.
fn untraced<W: Workload>(prep: &W::Prep, args: &Args, files: &Files) -> Res<(Tally, String)> {
    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_peak_mb = 0.0;
    let mut round_p50 = Vec::new();
    let mut cal = Vec::new();
    let rounds = W::SETUP_REPS;
    let share = Duration::from_secs_f64(args.seconds / rounds as f64);
    for round in 1..=rounds {
        let (mut w, s) = set_up::<W>(args, prep, files, false)?;
        setup_s.push(s);
        if round == 1 {
            setup_peak_mb = host::peak_rss_mb();
        }
        let deadline = Instant::now() + share;
        let first = times.len();
        while Instant::now() < deadline || times.len() - first < MIN_OPS.div_ceil(rounds) {
            w.reset();
            let t0 = Instant::now();
            let ok = w.op(None).is_ok();
            times.push(t0.elapsed().as_secs_f64());
            tally.record(&mut w, prep, ok, args.inject_fault);
        }
        round_p50.push(format!("{:.6}", median(&times[first..])));
        drop(w); // its pool threads go before the calibration runs
        cal.extend((0..CAL_PER_ROUND).map(|_| calib::sample()));
    }
    let cal_s = median(&cal);
    let t = tail(&times, MIN_OPS);
    let quantiles = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0]
        .map(|p| format!("\"p{p}\": {}", quantile(&times, p)))
        .join(", ");
    println!(
        "{{\"op_s.tail\": {{\"percentile\": {}, \"n\": {}, \"beyond\": {}}}, \
         \"wall_op_s.quantiles\": {{{quantiles}}}, \"wall_round_p50\": [{}], \"wall_round_setup_s\": [{}], \
         \"calibration_s\": {{\"p25\": {}, \"median\": {cal_s}, \"p75\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"nominal\": {}}}, \
         \"peak_mb_after_setup\": {}}}",
        t.percentile,
        t.n,
        t.beyond,
        round_p50.join(", "),
        setup_s
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(", "),
        quantile(&cal, 25.0),
        quantile(&cal, 75.0),
        cal.iter().copied().fold(f64::INFINITY, f64::min),
        cal.iter().copied().fold(0.0, f64::max),
        cal.len(),
        calib::NOMINAL_S,
        setup_peak_mb
    );
    let peak = host::peak_rss_mb();
    let metrics = metric_json(END_TO_END, |name| match name {
        "setup_s" => calib::at_nominal(median(&setup_s), cal_s),
        "op_s.p50" => calib::at_nominal(median(&times), cal_s),
        "op_s.tail" => calib::at_nominal(t.value, cal_s),
        "peak_mb" => peak,
        other => unreachable!("end-to-end metric {other} has no value"),
    });
    Ok((tally, metrics))
}

/// The kernel spans of a replayed solver loop that count as BLAS, with the
/// per-layer metric each one's median call time goes to.
const BLAS: [(&str, &str); 5] = [
    ("kernel.dot", "matrix.blas_us.dot"),
    ("kernel.norm", "matrix.blas_us.norm"),
    ("kernel.axpy", "matrix.blas_us.axpy"),
    ("kernel.scale_add", "matrix.blas_us.scale_add"),
    ("kernel.copy", "matrix.blas_us.copy"),
];

/// Folds the kernel-twin replays recorded since op `first` against the
/// engine-twin solves that alternated with them (`twin.solve` spans), sets
/// the solver-loop and BLAS metrics, prints the attribution and its
/// remainder, and returns the median seconds of one replayed SpMV.
///
/// A replay is a `twin.loop` span holding `solver.iteration` spans, which
/// hold one `kernel.*` span per kernel call; `iters` is the number of
/// iterations of one solve.
pub fn attribute<P>(ctx: &mut Ctx<'_, P>, first: u64, iters: usize, same_solution: bool) -> f64 {
    let solves = ctx.rec.seconds_since("twin.solve", first);
    let loops = solves.len().max(1) as f64;
    let solve_s = solves.iter().sum::<f64>() / loops;
    let f = fold(ctx.rec.spans(), |s| s.op >= first);
    let self_s = |name: &str| f.get(name).map_or(0.0, |v| v.self_ns as f64 * 1e-9) / loops;
    let spmv_s = self_s("kernel.spmv");
    let blas_s: f64 = BLAS.iter().map(|(span, _)| self_s(span)).sum();
    let loop_s = self_s("solver.iteration") + self_s("twin.loop");
    let sum = spmv_s + blas_s + loop_s;
    eprintln!(
        "attribution per solve: spmv {spmv_s:.6} s + blas {blas_s:.6} s + loop {loop_s:.6} s \
         = {sum:.6} s vs engine twin {solve_s:.6} s; remainder {:+.6} s ({:+.1}%); \
         replayed solution {} the solver's",
        solve_s - sum,
        (solve_s - sum) / solve_s * 100.0,
        if same_solution {
            "equals"
        } else {
            "differs from"
        }
    );
    ctx.out
        .set("solver.loop_self_us", loop_s / iters as f64 * 1e6);
    ctx.out.set("solver.attributed_frac", sum / solve_s);
    ctx.out.set("matrix.blas_share", blas_s / solve_s);
    for (span, metric) in BLAS {
        ctx.out
            .set(metric, median(&ctx.rec.seconds_since(span, first)) * 1e6);
    }
    median(&ctx.rec.seconds_since("kernel.spmv", first))
}

/// Spans `name` up to `max` times (at least 3), until `budget` is spent;
/// returns the median seconds.
pub fn sample(
    rec: &mut Recorder,
    name: &'static str,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Res<()>,
) -> Res<f64> {
    let op = rec.next_op();
    let start = Instant::now();
    for i in 0..max {
        rec.span(name, &mut f)?;
        if i >= 2 && start.elapsed() > budget {
            break;
        }
    }
    Ok(median(&rec.seconds_since(name, op)))
}

/// Alternates a facade op and its engine twin (which must record a
/// `pair.engine` span); returns the twin's median seconds and the median of
/// the per-pair differences, facade minus twin. Pairing the two sides in
/// time keeps host drift out of the difference.
pub fn pairs<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    max: usize,
    budget: Duration,
    mut twin: impl FnMut(&mut Recorder) -> Res<()>,
) -> Res<(f64, f64)> {
    let op = rec.next_op();
    let start = Instant::now();
    for i in 0..max {
        w.reset();
        rec.span("pair.facade", || w.op(None)).map_err(err)?;
        twin(rec)?;
        if i >= 2 && start.elapsed() > budget {
            break;
        }
    }
    let facade = rec.seconds_since("pair.facade", op);
    let engine = rec.seconds_since("pair.engine", op);
    let diffs: Vec<f64> = facade.iter().zip(&engine).map(|(f, e)| f - e).collect();
    Ok((median(&engine), median(&diffs)))
}

/// The per-layer run: the set-ups again (for the facade read time), then
/// the facade phase and the probes on the last set-up's device.
fn traced<W: Workload>(
    prep: &W::Prep,
    args: &Args,
    files: &Files,
    work: &Path,
) -> Res<(Tally, String)> {
    let mut read_s = Vec::new();
    let mut current: Option<W> = None;
    for _ in 0..W::SETUP_REPS {
        drop(current.take()); // the previous device and its pool go first
        let (w, _) = set_up::<W>(args, prep, files, false)?;
        read_s.push(w.read_s());
        current = Some(w);
    }
    let w = &mut current.ok_or("no set-up ran")?;
    let mut rec = Recorder::new();
    let mut out = Layers::default();
    let exec = w.device().executor().clone();

    // Facade phase: untraced and traced ops alternate, so the traced run
    // measures its own overhead against ops that share its conditions.
    let mut tally = Tally::default();
    let mut plain = Vec::new();
    let mut traced_ops = 0u64;
    let (mut calls, mut faults, mut virt_ns) = (0u64, 0u64, 0u64);
    let mut pool = PoolStats::default();
    let mut lanes: Vec<LaneStats> = Vec::new();
    let first_op = rec.next_op();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.4);
    while Instant::now() < deadline || traced_ops < MIN_TRACED_OPS {
        w.reset();
        let t0 = Instant::now();
        let ok = w.op(None).is_ok();
        plain.push(t0.elapsed().as_secs_f64());
        tally.record(w, prep, ok, args.inject_fault);

        w.reset();
        rec.next_op();
        let root = rec.begin("op");
        let before = rec.span("counters.read", || Counters::read(&exec));
        let facade = rec.begin("facade.op");
        let ok = w.op(Some(&mut rec)).is_ok();
        rec.end(facade);
        let after = rec.span("counters.read", || Counters::read(&exec));
        rec.end(root);
        tally.record(w, prep, ok, args.inject_fault);
        traced_ops += 1;
        calls += after.calls - before.calls;
        faults += after.faults.saturating_sub(before.faults);
        virt_ns += after.timeline.since(&before.timeline).ns;
        let d = after.pool.since(&before.pool);
        pool.dispatches += d.dispatches;
        pool.chunks += d.chunks;
        pool.steals += d.steals;
        pool.parks += d.parks;
        pool.dispatch_ns += d.dispatch_ns;
        let dl = gko::executor::pool::lane_stats_since(&after.lanes, &before.lanes);
        lanes.resize(dl.len(), LaneStats::default());
        for (acc, l) in lanes.iter_mut().zip(&dl) {
            acc.busy_ns += l.busy_ns;
        }
    }
    let facade_s = rec.seconds_since("facade.op", first_op);
    let facade_total: f64 = facade_s.iter().sum();
    let facade_op_s = median(&facade_s);
    let n = traced_ops as f64;
    let per = |x: u64, by: u64| if by == 0 { 0.0 } else { x as f64 / by as f64 };
    out.set("pyginkgo.calls_per_op", calls as f64 / n);
    out.set("mem.minor_faults_per_op", faults as f64 / n);
    out.set("pool.dispatches_per_op", pool.dispatches as f64 / n);
    out.set(
        "pool.dispatch_us",
        per(pool.dispatch_ns, pool.dispatches) / 1e3,
    );
    out.set("pool.parks_per_dispatch", per(pool.parks, pool.dispatches));
    out.set("pool.steal_frac", per(pool.steals, pool.chunks));
    if !lanes.is_empty() {
        let busy: Vec<f64> = lanes.iter().map(|l| l.busy_ns as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        out.set("pool.lane_busy_frac", mean * 1e-9 / facade_total);
        out.set(
            "pool.lane_imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    out.set(
        "sim.virtual_over_wall",
        virt_ns as f64 * 1e-9 / facade_total,
    );
    out.set(
        "trace.overhead_frac",
        median(&rec.seconds_since("op", first_op)) / median(&plain) - 1.0,
    );
    out.set("systems_per_s", W::SYSTEMS_PER_OP as f64 / facade_op_s);
    out.set("pyginkgo.read_s", median(&read_s));

    let budget = Duration::from_secs_f64((args.seconds * 0.05).clamp(0.2, 2.0));
    if let Some(p) = exec.worker_pool() {
        let wake = sample(&mut rec, "pool.wake", 2000, budget, || {
            p.run(2, &|_| {});
            Ok(())
        })?;
        out.set("pool.wake_us", wake * 1e6);
    }

    // The same op on a single-threaded reference device.
    {
        let mut r =
            W::setup(prep, files, pg::device("reference").map_err(err)?, false).map_err(err)?;
        let reference = sample(&mut rec, "reference.op", 20, budget, || {
            r.reset();
            r.op(None).map_err(err)
        })?;
        if !r.check(prep) {
            return Err("reference-device op failed its check".into());
        }
        out.set("pool.speedup_vs_reference", reference / median(&plain));
    }

    // Observability planes: armed against inert, each on a fresh device of
    // its own, ops alternating. Every armed op is checked like any other, so
    // a plane that changes the numerics is counted as a failure.
    if W::ARMABLE {
        let (mut armed, _) = set_up::<W>(args, prep, files, true)?;
        let (mut inert, _) = set_up::<W>(args, prep, files, false)?;
        let op = rec.next_op();
        let start = Instant::now();
        for i in 0..10 {
            armed.reset();
            let ok = rec.span("obs.armed", || armed.op(None)).is_ok();
            tally.record(&mut armed, prep, ok, args.inject_fault);
            inert.reset();
            rec.span("obs.inert", || inert.op(None)).map_err(err)?;
            if i >= 2 && start.elapsed() > budget * 4 {
                break;
            }
        }
        let on = rec.seconds_since("obs.armed", op);
        let off = rec.seconds_since("obs.inert", op);
        let ratios: Vec<f64> = on.iter().zip(&off).map(|(a, i)| a / i).collect();
        out.set("obs.armed_over_inert", median(&ratios));
        if let Some((spans, truncated, nodes)) = armed.observed() {
            out.set("obs.spans_per_solve", spans);
            out.set("obs.truncated_spans", truncated);
            out.set("obs.flame_nodes", nodes);
        }
    }
    out.set("fail_frac", tally.failed as f64 / tally.attempted as f64);

    let mut ctx = Ctx {
        rec: &mut rec,
        out: &mut out,
        files,
        prep,
        budget,
    };
    w.layers(&mut ctx)?;

    let path = work.join(format!("spans-{}-s{}.jsonl", args.kind.name(), args.seed));
    rec.write_jsonl(&path, &fingerprint(args, exec.functional_threads()))
        .map_err(err)?;
    report_self_times(&rec);
    eprintln!("spans written to {}", path.display());
    Ok((tally, metric_json(PER_LAYER, |name| out.get(name))))
}

/// Prints the folded self time per span name to stderr.
fn report_self_times(rec: &Recorder) {
    let folded = crate::stats::fold(rec.spans(), |_| true);
    let mut rows: Vec<_> = folded.into_iter().collect();
    rows.sort_by_key(|(_, f)| std::cmp::Reverse(f.self_ns));
    eprintln!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, f) in rows {
        eprintln!(
            "{name:<34} {:>8} {:>12.3} {:>12.3}",
            f.calls,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6
        );
    }
}
