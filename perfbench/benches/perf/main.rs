//! The MDAgent benchmark program.
//!
//! ```text
//! perf --workload <city-follow-me|cargo-shuttle|registry-churn>
//!      --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--build-id <id>]
//! ```
//!
//! One process runs one workload, closed loop: a single thread keeps one
//! operation in flight. The timed phase runs a fixed number of steps
//! (`seconds` × the workload's nominal rate), so every simulated count is
//! a pure function of the seed and the determinism guard can compare runs
//! exactly. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same steps on an untraced and a traced world, alternating, and
//! prints the per-layer metrics. The last stdout line is the JSON result.

mod churn;
mod city;
mod counts;
mod host;
mod shuttle;
mod trace;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mdagent_core::ComponentSet;
use mdagent_perfbench::{
    chunk_stats, mean, median, result_line, FailCount, Metric, PerOp, SpanLog,
};

use crate::counts::Counts;
use crate::trace::Tracer;

/// One benchmark workload: a world, its step, and the step's output check.
pub trait Workload: Sized {
    /// Timed steps per second of `--seconds`: the rate a 2-vCPU VM
    /// sustains, so a run takes about `--seconds` there.
    const STEPS_PER_SECOND: u64;
    /// Set-ups per untraced run, half before and half after the timed
    /// phase; `setup_s` is their median. About 3 s of set-up on a
    /// 2-vCPU VM, so the median spans the host's second-to-second drift.
    const SETUP_REPEATS: usize;
    /// Builds the world from the seed and warms it up.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// Runs one operation; `Ok(true)` when it hit its simulated-time cap.
    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String>;
    /// Prepares the next step's inputs (untimed).
    fn prepare(&mut self) {}
    /// Checks the last step's output (untimed).
    fn check(&mut self) -> bool;
    /// End-of-run check (untimed).
    fn finish(&mut self) -> bool;
    /// Traced runs only, after the timed loop: pure calls whose cost the
    /// per-layer metrics report without touching the simulation. Returns
    /// the bytes handled.
    fn probe(&mut self, _tr: &mut Tracer) -> u64 {
        0
    }
    /// Simulated counts; exact functions of the seed.
    fn counts(&self) -> Counts;
}

/// Encodes, decodes and digests a component set under `wire.*` spans.
pub fn probe_wire(components: &ComponentSet, tr: &mut Tracer) -> u64 {
    let span = tr.open("wire.encode");
    let bytes = mdagent_wire::to_bytes(components);
    tr.close(span);
    let span = tr.open("wire.decode");
    let back = mdagent_wire::from_bytes::<ComponentSet>(&bytes);
    tr.close(span);
    let span = tr.open("wire.digest");
    let digest = mdagent_wire::digest_of(components);
    tr.close(span);
    black_box((back.is_ok(), digest));
    bytes.len() as u64
}

const WORKLOADS: [&str; 3] = ["city-follow-me", "cargo-shuttle", "registry-churn"];
/// Wire probes after a traced run's timed loop.
const PROBES: u64 = 64;
/// Lowest share of a traced run's timed loop its step and check spans
/// must cover.
const MIN_SPAN_COVERAGE_PCT: f64 = 90.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    build_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
        build_id: "dev".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--build-id" => args.build_id = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

/// What one timed phase measured.
struct Phase {
    step_ns: Vec<u64>,
    /// Whether each step completed and passed its check.
    passed: Vec<bool>,
    fails: FailCount,
    start: Counts,
    end: Counts,
    /// Wall time of the timed loop: steps and their checks.
    loop_ns: u64,
}

impl Phase {
    fn begin<W: Workload>(w: &W, steps: u64) -> Phase {
        Phase {
            step_ns: Vec::with_capacity(steps as usize),
            passed: Vec::with_capacity(steps as usize),
            fails: FailCount::default(),
            start: w.counts(),
            end: Counts::new(),
            loop_ns: 0,
        }
    }

    /// Runs, times and checks step `i` of `w`.
    fn step<W: Workload>(&mut self, w: &mut W, i: u64, tr: &mut Tracer) {
        let began = Instant::now();
        w.prepare();
        tr.set_step(i);
        let root = tr.open("bench.step");
        let t = Instant::now();
        let outcome = w.step(tr);
        self.step_ns.push(t.elapsed().as_nanos() as u64);
        tr.close(root);
        let span = tr.open("check.step");
        let passed = w.check();
        tr.close(span);
        let hit_cap = match outcome {
            Ok(hit_cap) => hit_cap,
            Err(e) => {
                eprintln!("step {i}: {e}");
                true
            }
        };
        if hit_cap || !passed {
            eprintln!("step {i} failed: hit its cap or errored {hit_cap}, check passed {passed}");
        }
        self.fails.record(passed, hit_cap);
        self.passed.push(passed && !hit_cap);
        self.loop_ns += began.elapsed().as_nanos() as u64;
    }

    /// Reads the final counts and runs the end-of-run check.
    fn end<W: Workload>(mut self, w: &mut W) -> Phase {
        self.end = w.counts();
        if !w.finish() {
            eprintln!("end-of-run check failed");
            self.fails.fail_recorded();
        }
        self
    }

    fn delta(&self, key: &str) -> u64 {
        let end = self.end.get(key).copied().unwrap_or(0);
        end.saturating_sub(self.start.get(key).copied().unwrap_or(0))
    }

    fn ops(&self) -> u64 {
        self.fails.attempted
    }

    fn per_op(&self, key: &str) -> PerOp {
        PerOp::new(self.delta(key) as f64, self.ops())
    }

    /// Completed operations per second of step time.
    fn ops_per_s(&self) -> f64 {
        let secs = self.step_ns.iter().sum::<u64>() as f64 / 1e9;
        self.fails.completed() as f64 / secs
    }
}

/// Runs `steps` steps of `w`, or as many as fit in `budget`.
fn run_phase<W: Workload>(w: &mut W, steps: u64, budget: Duration) -> Phase {
    let mut phase = Phase::begin(w, steps);
    let began = Instant::now();
    for i in 0..steps {
        if began.elapsed() > budget {
            eprintln!("time budget spent after {i} of {steps} steps");
            break;
        }
        phase.step(w, i, &mut Tracer::off());
    }
    phase.end(w)
}

/// Runs the same steps on two worlds built from one seed, alternating an
/// untraced step of `plain` with a traced step of `traced`, so both see
/// the same host conditions and the difference is the tracing overhead.
fn run_pair<W: Workload>(
    plain: &mut W,
    traced: &mut W,
    steps: u64,
    budget: Duration,
    tr: &mut Tracer,
) -> (Phase, Phase) {
    let mut a = Phase::begin(plain, steps);
    let mut b = Phase::begin(traced, steps);
    let began = Instant::now();
    for i in 0..steps {
        if began.elapsed() > budget {
            eprintln!("time budget spent after {i} of {steps} steps");
            break;
        }
        a.step(plain, i, &mut Tracer::off());
        b.step(traced, i, tr);
    }
    (a.end(plain), b.end(traced))
}

fn fingerprint(counts: &Counts) -> String {
    counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Compares a run's final counts with the ones an earlier process of the
/// same build recorded for the same workload, seed and step count (and
/// records them when none exist). Returns false on a difference.
fn cross_run_guard(args: &Args, steps: usize, counts: &Counts) -> bool {
    let path = args.out_dir.join(format!(
        "guard-{}-s{}-n{}-{}.txt",
        args.workload, args.seed, steps, args.build_id
    ));
    let mine = fingerprint(counts);
    match std::fs::read_to_string(&path) {
        Ok(theirs) if theirs == mine => true,
        Ok(theirs) => {
            eprintln!(
                "determinism guard: counts differ from {}:\n{theirs}---\n{mine}",
                path.display()
            );
            false
        }
        Err(_) => {
            if let Err(e) =
                std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &mine))
            {
                eprintln!("cannot record {}: {e}", path.display());
            }
            true
        }
    }
}

/// A metric plus, for ratios, its base.
struct Row {
    metric: Metric,
    base: Option<u64>,
}

fn row(name: &str, value: f64, unit: &'static str) -> Row {
    Row {
        metric: Metric {
            name: name.to_owned(),
            value,
            unit,
        },
        base: None,
    }
}

/// A per-op ratio, reported with its base.
fn ratio(name: &str, r: PerOp, unit: &'static str) -> Row {
    row(name, r.value(), unit).over(r.base)
}

impl Row {
    /// Records the sample count or base the value was computed over.
    fn over(mut self, base: u64) -> Row {
        self.base = Some(base);
        self
    }
}

/// Sets `W` up `n` times from one seed, one world alive at a time, and
/// returns the last world. Records each set-up's time and final counts.
fn set_up_repeatedly<W: Workload>(
    seed: u64,
    n: usize,
    secs: &mut Vec<f64>,
    counts: &mut Vec<Counts>,
) -> Result<W, String> {
    let mut world = None;
    for _ in 0..n {
        drop(world.take());
        let t = Instant::now();
        let w = W::setup(seed, &mut Tracer::off())?;
        secs.push(t.elapsed().as_secs_f64());
        counts.push(w.counts());
        world = Some(w);
    }
    world.ok_or_else(|| "no set-up ran".to_owned())
}

/// Whether the timed phase fell back to full materialisation, which the
/// registry's incremental path must make unnecessary.
fn full_materialized(phase: &Phase) -> bool {
    let n = phase.delta("ontology.full_materializations");
    if n > 0 {
        eprintln!("registry ran {n} full materialisations in the timed phase");
    }
    n > 0
}

fn end_to_end<W: Workload>(
    args: &Args,
    steps: u64,
    budget: Duration,
) -> Result<(bool, FailCount, Vec<Row>), String> {
    let mut setup_s = Vec::with_capacity(W::SETUP_REPEATS);
    let mut setup_counts = Vec::with_capacity(W::SETUP_REPEATS);
    let half = W::SETUP_REPEATS / 2;
    let mut w = set_up_repeatedly::<W>(args.seed, half, &mut setup_s, &mut setup_counts)?;
    let phase = run_phase(&mut w, steps, budget);
    let peak_rss = host::peak_rss_mb();
    drop(w);
    set_up_repeatedly::<W>(
        args.seed,
        W::SETUP_REPEATS - half,
        &mut setup_s,
        &mut setup_counts,
    )?;

    let mut correct = setup_counts.windows(2).all(|p| p[0] == p[1]);
    if !correct {
        eprintln!("determinism guard: set-up repeats differ");
    }
    correct &= cross_run_guard(args, phase.step_ns.len(), &phase.end);
    correct &= !full_materialized(&phase);

    let Some(chunks) = chunk_stats(&phase.step_ns, &phase.passed) else {
        return Err(format!(
            "{} steps are too few to report p90",
            phase.step_ns.len()
        ));
    };
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("chunks: ops_per_s {}", show(&chunks.ops_per_s));
    println!("chunks: step_p50_ms {}", show(&chunks.p50_ms));
    println!("chunks: step_p90_ms {}", show(&chunks.p90_ms));
    println!("setups: setup_s {}", show(&setup_s));
    let n = chunks.p50_ms.len() as u64;
    let rows = vec![
        row("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s").over(setup_s.len() as u64),
        row("ops_per_s", phase.ops_per_s(), "1/s").over(phase.ops()),
        row(
            "step_p50_ms",
            mean(&chunks.p50_ms).unwrap_or(f64::NAN),
            "ms",
        )
        .over(n),
        row(
            "step_p90_ms",
            mean(&chunks.p90_ms).unwrap_or(f64::NAN),
            "ms",
        )
        .over(n),
        row("peak_rss_mb", peak_rss, "MiB"),
        row("success_ratio", phase.fails.success_ratio(), "ratio").over(phase.ops()),
    ];
    Ok((correct, phase.fails, rows))
}

/// Layers the benchmark calls inside its steps, whose self time the traced
/// run reports. `bench` is the benchmark's own share of the step.
const LAYERS: [&str; 5] = ["bench", "core", "simnet", "registry", "ontology"];

fn mean_ms(log: &SpanLog, name: &str) -> f64 {
    let (ns, n) = log.total_of(name);
    PerOp::new(ns as f64 / 1e6, n).value()
}

fn per_layer<W: Workload>(
    args: &Args,
    steps: u64,
    budget: Duration,
) -> Result<(bool, FailCount, Vec<Row>), String> {
    let mut plain_world = W::setup(args.seed, &mut Tracer::off())?;
    let mut tr = Tracer::on();
    let mut traced_world = W::setup(args.seed, &mut tr)?;
    let (plain, traced) = run_pair(&mut plain_world, &mut traced_world, steps, budget, &mut tr);
    tr.set_step(steps);
    let probe_bytes: u64 = (0..PROBES).map(|_| traced_world.probe(&mut tr)).sum();
    drop((plain_world, traced_world));

    let mut correct = plain.end == traced.end && plain.start == traced.start;
    if !correct {
        eprintln!(
            "determinism guard: traced run differs:\n{}---\n{}",
            fingerprint(&plain.end),
            fingerprint(&traced.end)
        );
    }
    correct &= cross_run_guard(args, traced.step_ns.len(), &traced.end);
    correct &= !full_materialized(&traced);
    let log = tr.log().ok_or("tracer recorded nothing")?;
    let path = args
        .out_dir
        .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, log.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());

    let p = &traced;
    let ops = p.ops();
    let events = p.delta("sim.events");
    let (run_ns, _) = log.total_of("simnet.run");
    let (enc_ns, _) = log.total_of("wire.encode");
    let (dec_ns, _) = log.total_of("wire.decode");
    let self_ns = log.self_time_by_layer();
    let end = |key: &str| p.end.get(key).copied().unwrap_or(0) as f64;
    let mut rows = vec![
        ratio("simnet.events_per_op", p.per_op("sim.events"), "1/op"),
        ratio(
            "simnet.dispatch_ns_per_event",
            PerOp::new(run_ns as f64, events),
            "ns",
        ),
        ratio("simnet.spans_per_op", p.per_op("telemetry.spans"), "1/op"),
        ratio(
            "simnet.trace_entries_per_op",
            p.per_op("trace.entries"),
            "1/op",
        ),
        row("simnet.samples_retained", end("metrics.samples"), "count"),
        ratio("agent.acl_per_op", p.per_op("acl.delivered"), "1/op"),
        ratio("agent.moves_per_op", p.per_op("platform.moves"), "1/op"),
        ratio(
            "context.events_per_op",
            p.per_op("context.published"),
            "1/op",
        ),
        ratio(
            "core.migrations_per_op",
            p.per_op("core.migrations"),
            "1/op",
        ),
        row("core.wrap_ms", mean_ms(log, "core.migrate_now"), "ms"),
        ratio(
            "core.shipped_bytes_per_op",
            p.per_op("core.shipped_bytes"),
            "B/op",
        ),
        row(
            "core.build_s",
            log.setup_total_of("core.build") as f64 / 1e9,
            "s",
        ),
        row(
            "core.deploy_s",
            log.setup_total_of("core.deploy") as f64 / 1e9,
            "s",
        ),
        row(
            "core.spawn_aa_s",
            log.setup_total_of("core.spawn_aa") as f64 / 1e9,
            "s",
        ),
        row(
            "core.sim_migration_p50_ms",
            end("core.sim_migration_p50_us") / 1e3,
            "ms",
        ),
        row(
            "core.sim_migration_p90_ms",
            end("core.sim_migration_p90_us") / 1e3,
            "ms",
        ),
        row("wire.encode_ms", mean_ms(log, "wire.encode"), "ms"),
        row("wire.decode_ms", mean_ms(log, "wire.decode"), "ms"),
        row("wire.digest_ms", mean_ms(log, "wire.digest"), "ms"),
        // Bytes encoded plus bytes decoded, per second of both.
        row(
            "wire.mb_per_s",
            PerOp::new(2.0 * probe_bytes as f64 * 1e3, enc_ns + dec_ns).value(),
            "MB/s",
        ),
        row(
            "registry.lookup_us",
            mean_ms(log, "registry.lookup") * 1e3,
            "us",
        ),
        row(
            "registry.write_us",
            mean_ms(log, "registry.write") * 1e3,
            "us",
        ),
        ratio(
            "registry.hits_per_lookup",
            PerOp::new(p.delta("registry.hits") as f64, p.delta("registry.lookups")),
            "1/lookup",
        ),
        ratio(
            "registry.hit_ratio",
            PerOp::new(
                p.delta("registry.hits") as f64,
                p.delta("registry.candidates"),
            ),
            "ratio",
        ),
        row("ontology.flush_ms", mean_ms(log, "ontology.flush"), "ms"),
        row(
            "ontology.incremental_runs",
            p.delta("ontology.incremental_runs") as f64,
            "count",
        )
        .over(ops),
        row(
            "ontology.retraction_flushes",
            p.delta("ontology.retraction_flushes") as f64,
            "count",
        )
        .over(ops),
        row(
            "ontology.full_materializations",
            end("ontology.full_materializations"),
            "count",
        ),
        ratio(
            "ontology.rederive_ratio",
            PerOp::new(
                p.delta("ontology.rederived") as f64,
                p.delta("ontology.overdeleted"),
            ),
            "ratio",
        ),
    ];
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        rows.push(ratio(
            &format!("{layer}.self_ms_per_op"),
            PerOp::new(ns as f64 / 1e6, ops),
            "ms",
        ));
    }
    rows.push(row(
        "bench.trace_overhead_pct",
        (1.0 - traced.ops_per_s() / plain.ops_per_s()) * 100.0,
        "%",
    ));
    let covered = log.total_of("bench.step").0 + log.total_of("check.step").0;
    let coverage_pct = covered as f64 / traced.loop_ns as f64 * 100.0;
    if coverage_pct.is_nan() || coverage_pct < MIN_SPAN_COVERAGE_PCT {
        eprintln!(
            "spans cover {coverage_pct:.2}% of the timed loop, under {MIN_SPAN_COVERAGE_PCT}%"
        );
        correct = false;
    }
    rows.push(row("bench.span_coverage_pct", coverage_pct, "%"));
    let mut fails = plain.fails;
    fails.attempted += traced.fails.attempted;
    fails.failed += traced.fails.failed;
    Ok((correct, fails, rows))
}

fn run<W: Workload>(args: &Args) -> Result<(bool, FailCount, Vec<Row>), String> {
    let steps = W::STEPS_PER_SECOND * args.seconds;
    // Generous against a slower host, yet inside the 180 s a run may
    // take; a traced run steps two worlds.
    let passes = if args.trace { 2 } else { 1 };
    let budget = Duration::from_secs((args.seconds * passes * 5 / 2).min(150));
    if args.trace {
        per_layer::<W>(args, steps, budget)
    } else {
        end_to_end::<W>(args, steps, budget)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "host: load_avg_1m={:.2} calibration_ms={:.2} workload={} seed={} seconds={} trace={}",
        host::load_average(),
        host::calibration_ms(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "city-follow-me" => run::<city::City>(&args),
        "cargo-shuttle" => run::<shuttle::Shuttle>(&args),
        _ => run::<churn::Churn>(&args),
    };
    let (correct, fails, rows) = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "host: load_avg_1m={:.2} calibration_ms={:.2} (after)",
        host::load_average(),
        host::calibration_ms()
    );
    for r in &rows {
        let base = r.base.map_or(String::new(), |b| format!("  (over {b})"));
        println!(
            "{:<34} {:>16.6} {}{base}",
            r.metric.name, r.metric.value, r.metric.unit
        );
    }
    let metrics: Vec<Metric> = rows.into_iter().map(|r| r.metric).collect();
    match result_line(correct, fails, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(1);
        }
    }
}
