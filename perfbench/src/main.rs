//! `perfbench`: the repository benchmark. It measures the `harness`
//! program from outside (CLI workloads) and in process (`serve-mix`, and
//! the traced run that gives the per-layer numbers). See README.md.
//!
//! ```text
//! perfbench --harness BIN --workload W --seed N --seconds S --trace 0|1
//! perfbench --harness BIN --quick [--seed N]
//! perfbench --harness BIN --write-reference
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). Any failed check prints its reason on stderr and makes the
//! exit status 1.

mod check;
mod cli;
mod replica;
mod serve_mix;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use multiscalar_harness::cache::ArtifactCache;
use multiscalar_harness::pool::Pool;
use multiscalar_sim::measure::lane_packed_sweeps;
use multiscalar_sim::timing::TimingConfig;
use multiscalar_workloads::{Spec92, WorkloadParams};

use check::{digest, Checker};
use serve_mix::Mix;
use trace::Tracer;
use workload::{cli_ops, Workload, CLI_SCALE, DEFAULT_SEED};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Where the traced run writes its spans, relative to the checkout root.
const SPANS_DIR: &str = ".perfbench-out";

/// Parent of every run's scratch directory, relative to the checkout root.
const RUNS_DIR: &str = ".perfbench-run";

enum Mode {
    Measure { workload: Workload, trace: bool },
    Quick,
    WriteReference,
}

struct Args {
    harness: PathBuf,
    mode: Mode,
    seed: u64,
    seconds: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut harness = None;
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut quick = false;
    let mut write_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--harness" => harness = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload `{name}` (timing-walk|predictor-sweep|serve-mix)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0|1)")),
                }
            }
            "--quick" => quick = true,
            "--write-reference" => write_reference = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let harness = harness.ok_or("--harness BIN is required")?;
    let mode = match (quick, write_reference, workload) {
        (true, false, _) => Mode::Quick,
        (false, true, _) if seed == DEFAULT_SEED => Mode::WriteReference,
        (false, true, _) => return Err("the reference is for the default seed".to_string()),
        (false, false, Some(workload)) => Mode::Measure { workload, trace },
        _ => return Err("give --workload W, --quick or --write-reference".to_string()),
    };
    Ok(Args {
        harness,
        mode,
        seed,
        seconds,
    })
}

/// The run's scratch directory (artifact caches, `profile.json`), under
/// the checkout and unique to this process. It is removed when the run
/// ends, so no run reads another's state.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let dir = Path::new(RUNS_DIR).join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(std::fs::canonicalize(dir)?))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(RUNS_DIR);
    }
}

/// Writes a directory's files through to disk, so that write-back of a
/// cold fill does not land in the timed phase.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        std::fs::File::open(entry?.path())?.sync_all()?;
    }
    Ok(())
}

/// Spreads a run's timed work over every CPU the run may use: unit `k`
/// (a CLI op, a `serve-mix` cycle, a set-up) runs pinned to CPU `k mod n`,
/// and dropping the spread lifts the pin. Left alone, the scheduler keeps
/// consecutive ops on one CPU, so a run's timings would follow that CPU's
/// slow periods; on a shared host the CPUs slow down independently, and
/// spreading averages them.
struct Spread(Vec<usize>);

impl Spread {
    fn new() -> Spread {
        Spread(cli::allowed_cpus())
    }

    /// Pins this thread, and what it starts, to unit `k`'s CPU.
    fn pin(&self, k: usize) {
        if !self.0.is_empty() {
            cli::pin(&[self.0[k % self.0.len()]]);
        }
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            cli::pin(&self.0);
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a mode produced: its checks, its metrics, and report lines.
struct Outcome {
    checker: Checker,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host seconds a fixed integer loop takes: a probe of host speed drift,
/// recorded beside the metrics and never folded into them.
fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..2_000_000u64 {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn drift_note(probes: &[f64]) -> String {
    let lo = probes.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = probes.iter().copied().fold(0.0, f64::max);
    format!(
        "host speed drift: {} probes of a fixed loop took {lo:.3}..{hi:.3} ms (median {:.3}, max/min {:.3})",
        probes.len(),
        median(probes),
        hi / lo
    )
}

/// The per-cycle rates whose median is `ops_per_s`.
fn rate_note(rates: &[f64]) -> String {
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.4}")).collect();
    format!("ops_per_s per timed cycle: {}", list.join(" "))
}

/// Runs `harness` at one parameter point, always with a one-worker pool.
struct Harness<'a> {
    bin: &'a Path,
    cwd: &'a Path,
    seed: u64,
    scale: u32,
}

impl Harness<'_> {
    fn run(
        &self,
        exp: &str,
        bench: Option<Spec92>,
        cache_dir: &Path,
    ) -> std::io::Result<cli::Outcome> {
        let mut args = vec![exp.to_string()];
        if let Some(b) = bench {
            args.extend(["--bench".to_string(), b.name().to_string()]);
        }
        args.extend([
            "--threads".to_string(),
            "1".to_string(),
            "--scale".to_string(),
            self.scale.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--cache-dir".to_string(),
            cache_dir.display().to_string(),
        ]);
        cli::run(self.bin, &args, self.cwd)
    }

    /// The reference key of an op's stdout.
    fn key(&self, exp: &str, bench: Option<Spec92>) -> String {
        let bench = bench.map_or("all", |b| b.name());
        format!("s{}/{exp}/{bench}", self.scale)
    }
}

/// Checks one CLI op: it must exit 0, and its cache traffic must be
/// `(hits, misses)`. Returns whether it passed.
fn check_cli(
    checker: &mut Checker,
    key: &str,
    out: &std::io::Result<cli::Outcome>,
    traffic: (u64, u64),
) -> bool {
    match out {
        Err(e) => checker.op(key, Err(format!("could not run: {e}")), ""),
        Ok(o) => {
            let seen = cli::cache_traffic(&o.stderr);
            let verdict = if !o.success {
                Err(format!("failed: {}", o.stderr.trim_end()))
            } else if seen != Some(traffic) {
                Err(format!(
                    "cache traffic {seen:?}, expected (hits, misses) = {traffic:?}"
                ))
            } else {
                Ok(())
            };
            checker.op(key, verdict, &digest(&o.stdout))
        }
    }
}

/// `SETUP_REPEATS` cold fills into fresh directories; keeps the last one
/// (written through to disk) as the run's warm cache. Returns it and the
/// fill times.
fn cold_fills(h: &Harness, run_dir: &Path, checker: &mut Checker) -> (PathBuf, Vec<f64>) {
    let key = h.key("table2", None);
    let mut times = Vec::new();
    let mut kept: Option<PathBuf> = None;
    let spread = Spread::new();
    for i in 0..SETUP_REPEATS {
        spread.pin(i);
        let dir = run_dir.join(format!("cache{i}"));
        let out = h.run("table2", None, &dir);
        check_cli(checker, &key, &out, (0, Spec92::ALL.len() as u64));
        if let Ok(o) = &out {
            times.push(o.wall_s);
        }
        if let Some(old) = kept.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let dir = kept.expect("at least one fill");
    if let Err(e) = sync_dir(&dir) {
        checker.fail(format!("could not sync {}: {e}", dir.display()));
    }
    (dir, times)
}

/// `timing-walk` or `predictor-sweep`, untraced: cold fills, one untimed
/// warm-up cycle, then the timed cycles.
fn measure_cli(args: &Args, w: Workload, run_dir: &Path, checker: Checker) -> Outcome {
    let mut checker = checker;
    let h = Harness {
        bin: &args.harness,
        cwd: run_dir,
        seed: args.seed,
        scale: CLI_SCALE,
    };
    let (cache, setup) = cold_fills(&h, run_dir, &mut checker);
    let ops = cli_ops(w);
    for op in &ops {
        let out = h.run(op.exp, Some(op.bench), &cache);
        check_cli(&mut checker, &h.key(op.exp, Some(op.bench)), &out, (1, 0));
    }
    let cycles = w.cycles_for(args.seconds);
    // The ops of a cycle differ by design (20 ms sweeps to 900 ms walks),
    // so one op's latency says little; a latency sample is a cycle's mean
    // op latency.
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut probes = Vec::new();
    let mut peak_kb = 0;
    let mut verified = 0u64;
    let spread = Spread::new();
    for c in 0..cycles {
        let (mut busy, mut ran, mut passed) = (0.0, 0u64, 0u64);
        for (i, op) in ops.iter().enumerate() {
            spread.pin(c * ops.len() + i);
            probes.push(host_probe_ms());
            let out = h.run(op.exp, Some(op.bench), &cache);
            let key = h.key(op.exp, Some(op.bench));
            passed += check_cli(&mut checker, &key, &out, (1, 0)) as u64;
            if let Ok(o) = out {
                busy += o.wall_s;
                ran += 1;
                peak_kb = peak_kb.max(o.peak_rss_kb);
            }
        }
        verified += passed;
        rates.push(passed as f64 / busy);
        if ran > 0 {
            latencies.push(busy / ran as f64);
        }
    }
    drop(spread);
    let notes = vec![
        format!(
            "{}: {cycles} timed cycle(s) of {} ops, {verified} verified",
            w.name(),
            ops.len(),
        ),
        rate_note(&rates),
        drift_note(&probes),
    ];
    let metrics = if latencies.is_empty() {
        Vec::new()
    } else {
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("ops_per_s", median(&rates), "1/s"),
            metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
            metric("latency_p50_ms", median(&latencies) * 1e3, "ms"),
            metric("latency_p99_ms", quantile(&latencies, 0.99) * 1e3, "ms"),
        ]
    };
    Outcome {
        checker,
        metrics,
        notes,
    }
}

/// Records a `serve-mix` cycle's exact counts; they must repeat in every
/// cycle after the warm-up one, and match the reference at the default
/// seed.
fn check_serve_counts(checker: &mut Checker, cycle: &serve_mix::Cycle) {
    checker.count("serve/count/hits", cycle.traffic.hits);
    checker.count("serve/count/misses", cycle.traffic.misses);
    checker.count("serve/count/evictions", cycle.traffic.evictions);
    checker.count("serve/count/errors", cycle.errors);
}

/// `serve-mix`, untraced: a set-up, one untimed warm-up cycle, the timed
/// cycles, then the remaining set-ups. Those come last because each
/// set-up leaves the heap larger, and the peak resident set must be the
/// measured server's alone.
fn measure_serve(args: &Args, run_dir: &Path, checker: Checker) -> Outcome {
    let mut checker = checker;
    let spread = Spread::new();
    spread.pin(0);
    let (mut mix, first_setup) = Mix::setup(run_dir, args.seed);
    mix.cycle(&mut checker);
    let cycles = Workload::ServeMix.cycles_for(args.seconds);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut probes = Vec::new();
    let mut verified = 0u64;
    let mut last = serve_mix::Cycle::default();
    for c in 0..cycles {
        spread.pin(c);
        probes.push(host_probe_ms());
        let failed_before = checker.failed;
        let cycle = mix.cycle(&mut checker);
        check_serve_counts(&mut checker, &cycle);
        let passed = cycle.latencies_s.len() as u64 - (checker.failed - failed_before);
        verified += passed;
        rates.push(passed as f64 / cycle.latencies_s.iter().sum::<f64>());
        latencies.extend_from_slice(&cycle.latencies_s);
        last = cycle;
    }
    probes.push(host_probe_ms());
    let peak_kb = cli::self_peak_rss_kb();
    drop(mix);
    let mut setup = vec![first_setup];
    setup.extend((1..SETUP_REPEATS).map(|k| {
        spread.pin(k);
        Mix::setup(run_dir, args.seed).1
    }));
    drop(spread);
    let t = last.traffic;
    let notes = vec![
        format!(
            "serve-mix: {cycles} timed cycle(s), {} latency samples, {verified} verified; \
             per cycle {} hits, {} misses, {} evictions, {} error responses",
            latencies.len(),
            t.hits,
            t.misses,
            t.evictions,
            last.errors
        ),
        rate_note(&rates),
        drift_note(&probes),
    ];
    let metrics = vec![
        metric("setup_s", median(&setup), "s"),
        metric("ops_per_s", median(&rates), "1/s"),
        metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
        metric("latency_p50_ms", median(&latencies) * 1e3, "ms"),
        metric("latency_p99_ms", quantile(&latencies, 0.99) * 1e3, "ms"),
    ];
    Outcome {
        checker,
        metrics,
        notes,
    }
}

/// The traced run: one cycle of every workload untraced, the same calls in
/// process with tracing off, then traced, at `scale` (the CLI workloads;
/// `serve-mix` is always at scale 1). Gives the per-layer metrics, each
/// workload's self-time share per layer group, the share of op time the
/// spans cover, and the tracing overhead (traced over in-process
/// untraced; the CLI's untraced time also pays for process start).
fn measure_traced(args: &Args, scale: u32, run_dir: &Path, checker: Checker) -> Outcome {
    let mut checker = checker;
    let mut notes = Vec::new();
    let h = Harness {
        bin: &args.harness,
        cwd: run_dir,
        seed: args.seed,
        scale,
    };
    // One untraced cold fill, checked like every set-up.
    let fill = run_dir.join("fill");
    let out = h.run("table2", None, &fill);
    check_cli(
        &mut checker,
        &h.key("table2", None),
        &out,
        (0, Spec92::ALL.len() as u64),
    );
    let _ = std::fs::remove_dir_all(&fill);

    let mut t = Tracer::new();
    let cache = ArtifactCache::new(run_dir.join("cache"));
    let pool = Pool::new(1);
    let mut env = replica::Env {
        params: WorkloadParams {
            seed: args.seed,
            scale,
        },
        cache: &cache,
        pool: &pool,
        config: TimingConfig::paper(),
        sims: replica::SimCounts::default(),
    };
    let table2 = replica::setup(&mut t, &env);
    checker.op(&h.key("table2", None), Ok(()), &digest(table2.as_bytes()));
    if let Err(e) = sync_dir(cache.dir()) {
        checker.fail(format!("could not sync {}: {e}", cache.dir().display()));
    }

    let mut untraced_ms = BTreeMap::new();
    let mut inproc_ms = BTreeMap::new();
    let (mut hits, mut misses) = (0, 0);
    let mut sweeps = 0;
    let mut probes = Vec::new();
    for w in [Workload::TimingWalk, Workload::PredictorSweep] {
        let ops = cli_ops(w);
        let mut busy = 0.0;
        for op in &ops {
            probes.push(host_probe_ms());
            let out = h.run(op.exp, Some(op.bench), cache.dir());
            check_cli(&mut checker, &h.key(op.exp, Some(op.bench)), &out, (1, 0));
            if let Ok(o) = &out {
                busy += o.wall_s;
                if let Some((hit, miss)) = cli::cache_traffic(&o.stderr) {
                    hits += hit;
                    misses += miss;
                }
            }
        }
        untraced_ms.insert(w.name(), busy * 1e3);
        // Each op runs twice in process, with tracing off and traced, back
        // to back so both see the same host speed, in alternating order.
        // The traced cycle's excess over the untraced one is the tracing
        // overhead alone. The exact counts are the traced runs' only.
        let mut quiet = replica::Env {
            sims: replica::SimCounts::default(),
            ..env
        };
        let mut off = Tracer::off();
        let mut inproc = 0.0;
        let mut lanes = 0;
        t.set_phase(w.name());
        for (i, op) in ops.iter().enumerate() {
            let key = h.key(op.exp, Some(op.bench));
            let mut run_quiet = |checker: &mut Checker| {
                let start = Instant::now();
                let text = replica::run_op(&mut off, op, &mut quiet);
                inproc += start.elapsed().as_secs_f64();
                checker.op(&key, Ok(()), &digest(text.as_bytes()));
            };
            if i % 2 == 0 {
                run_quiet(&mut checker);
            }
            let before = lane_packed_sweeps();
            let text = replica::run_op(&mut t, op, &mut env);
            lanes += lane_packed_sweeps() - before;
            checker.op(&key, Ok(()), &digest(text.as_bytes()));
            if i % 2 == 1 {
                run_quiet(&mut checker);
            }
        }
        inproc_ms.insert(w.name(), inproc * 1e3);
        if w == Workload::PredictorSweep {
            sweeps = lanes;
            let fig10 = ops.iter().filter(|op| op.exp == "fig10").count() as u64;
            if sweeps != fig10 {
                checker.fail(format!(
                    "sweep.lane_packed.sweeps: {sweeps} lane-packed sweeps for {fig10} fig10 ops"
                ));
            }
        }
    }
    if misses != 0 {
        checker.fail(format!(
            "harness.cache.misses: {misses} misses after set-up"
        ));
    }

    let (mut mix, _) = Mix::setup(run_dir, args.seed);
    mix.cycle(&mut checker);
    probes.push(host_probe_ms());
    let untraced = mix.cycle(&mut checker);
    probes.push(host_probe_ms());
    notes.push(drift_note(&probes));
    check_serve_counts(&mut checker, &untraced);
    untraced_ms.insert(
        Workload::ServeMix.name(),
        untraced.latencies_s.iter().sum::<f64>() * 1e3,
    );
    let quiet = mix.traced_cycle(&mut Tracer::off(), &mut checker);
    check_serve_counts(&mut checker, &quiet);
    inproc_ms.insert(
        Workload::ServeMix.name(),
        quiet.latencies_s.iter().sum::<f64>() * 1e3,
    );
    t.set_phase(Workload::ServeMix.name());
    let traced = mix.traced_cycle(&mut t, &mut checker);
    check_serve_counts(&mut checker, &traced);

    let sims = env.sims;
    for (name, value) in [
        ("sim.timing.instructions", sims.instructions),
        ("sim.timing.cycles", sims.cycles),
        ("sim.timing.task_mispredicts", sims.task_mispredicts),
        ("sim.timing.squash_cycles", sims.squash_cycles),
    ] {
        checker.count(&format!("s{scale}/count/{name}"), value);
    }

    let spans = t.spans();
    let _ = std::fs::create_dir_all(SPANS_DIR);
    let spans_path = Path::new(SPANS_DIR).join(format!("spans-s{scale}-{}.jsonl", args.seed));
    match std::fs::write(&spans_path, t.to_jsonl()) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            spans_path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", spans_path.display())),
    }

    let mut m: Vec<Metric> = trace::layer_metrics(spans)
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect();
    for (name, value) in [
        ("sim.timing.instructions", sims.instructions),
        ("sim.timing.cycles", sims.cycles),
        ("sim.timing.task_mispredicts", sims.task_mispredicts),
        ("sim.timing.squash_cycles", sims.squash_cycles),
        ("sweep.lane_packed.sweeps", sweeps),
        ("harness.cache.hits", hits),
        ("harness.cache.misses", misses),
        ("harness.serve.evictions", traced.traffic.evictions),
        ("harness.serve.errors", traced.errors),
    ] {
        m.push(metric(name, value as f64, "count"));
    }
    let tr = traced.traffic;
    let hit_ratio = tr.hits as f64 / (tr.hits + tr.misses).max(1) as f64;
    m.push(metric("harness.serve.hit_ratio", hit_ratio, "ratio"));
    for w in Workload::ALL {
        let (ops_ns, covered_ns) = trace::phase_cover(spans, w.name());
        let untraced = untraced_ms[w.name()];
        let inproc = inproc_ms[w.name()];
        let traced = ops_ns as f64 / 1e6;
        let name = |what: &str| format!("trace.{}.{what}", w.name());
        m.push(metric(name("untraced_ms"), untraced, "ms"));
        m.push(metric(name("inproc_ms"), inproc, "ms"));
        m.push(metric(name("traced_ms"), traced, "ms"));
        let coverage = covered_ns as f64 / 1e6 / untraced;
        m.push(metric(name("span_coverage"), coverage, "ratio"));
        let shares = trace::phase_shares(spans, w.name());
        for &(group, share) in &shares {
            m.push(metric(name(&format!("share.{group}")), share, "ratio"));
        }
        let listed: Vec<String> = shares
            .iter()
            .map(|(group, share)| format!("{group} {share:.3}"))
            .collect();
        notes.push(format!(
            "{}: untraced {untraced:.1} ms ({}), in process untraced {inproc:.1} ms, \
             traced {traced:.1} ms (tracing overhead {:+.1}%); span coverage {coverage:.3}; \
             self-time share of traced op time: {}",
            w.name(),
            if w == Workload::ServeMix {
                "in process"
            } else {
                "CLI processes"
            },
            (traced / inproc - 1.0) * 100.0,
            listed.join(", ")
        ));
    }
    Outcome {
        checker,
        metrics: m,
        notes,
    }
}

fn print_result(out: &Outcome) -> bool {
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.checker.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    // A failed exact count fails `correct` without failing an op.
    let correct = out.checker.failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.checker.attempted, out.checker.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Ops run inside the run directory, so the binary's path must not be
    // relative to the checkout.
    let args = match std::fs::canonicalize(&args.harness) {
        Ok(harness) if harness.is_file() => Args { harness, ..args },
        _ => {
            eprintln!("perfbench: no harness binary at {}", args.harness.display());
            return ExitCode::from(2);
        }
    };
    let reference = if args.seed == DEFAULT_SEED && !matches!(args.mode, Mode::WriteReference) {
        match check::load_reference(Path::new(".")) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let run_dir = match RunDir::create() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let checker = Checker::new(reference);
    let outcome = match args.mode {
        Mode::Measure {
            workload: Workload::ServeMix,
            trace: false,
        } => measure_serve(&args, &run_dir.0, checker),
        Mode::Measure {
            workload,
            trace: false,
        } => measure_cli(&args, workload, &run_dir.0, checker),
        Mode::Measure { trace: true, .. } => measure_traced(&args, CLI_SCALE, &run_dir.0, checker),
        Mode::Quick => measure_traced(&args, 1, &run_dir.0, checker),
        Mode::WriteReference => {
            let quick = measure_traced(&args, 1, &run_dir.0, checker);
            let full = measure_traced(&args, CLI_SCALE, &run_dir.0, quick.checker);
            let text = full.checker.reference_text(&format!(
                "Output digests (FNV-1a 64) and exact counts at seed {DEFAULT_SEED},\n\
                 written by `bash perfbench/run.sh --write-reference`."
            ));
            if full.checker.failures.is_empty() {
                if let Err(e) = std::fs::write(check::REFERENCE_PATH, text) {
                    eprintln!("perfbench: cannot write {}: {e}", check::REFERENCE_PATH);
                    return ExitCode::FAILURE;
                }
                eprintln!("perfbench: wrote {}", check::REFERENCE_PATH);
            }
            full
        }
    };
    drop(run_dir);
    if print_result(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
