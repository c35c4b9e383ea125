//! The three workloads: what each one runs, and why it exists.
//!
//! Every workload is a closed loop with one client: the next operation is
//! sent only after the previous one has answered. A run executes a fixed
//! sequence of whole cycles, so two runs with the same arguments do the
//! same work and produce the same exact counts.

use multiscalar_workloads::Spec92;

/// The benchmark's default workload seed (the harness's own default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Benchmark scale of the CLI workloads. Half the harness default (4):
/// a run pays for its set-up and its untimed warm-up cycle before it
/// times anything, and at scale 2 both cost half as much, so a run of the
/// same length times twice as many cycles. The host's speed drifts over
/// seconds to minutes, and timed length is what averages that drift out.
pub const CLI_SCALE: u32 = 2;

/// Benchmark scale of every `serve-mix` parameter point.
pub const SERVE_SCALE: u32 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Why: timing-model walks do about 95% of this workload's traced op
    /// time (`sim.timing.*` self time at scale 2), so work on the Table 4
    /// walk (`sim::timing`, `sim::replay`) shows here and predictor-sweep
    /// work does not. The walks come in all three forms: replay-fed with
    /// the no-op sink (`table4`), replay-fed with the cycle-attribution
    /// sink (`profile`), and interpreter-fed (`ext-memory`, `ext-intra`,
    /// `ext-confidence`). No predictor sweep runs.
    TimingWalk,
    /// Why: lane-packed, ideal and scalar predictor sweeps (`core::lane`,
    /// `core::ideal`, `core::target`, `sim::measure`) do about 88% of the
    /// traced op time and per-invocation warm preparation (cache read,
    /// codec decode, trace derivation) about 12%. No timing walk runs, so
    /// this workload bypasses `timing-walk`'s layer and `timing-walk`
    /// bypasses its own.
    PredictorSweep,
    /// Why: one resident `serve::Server` keeps benchmarks prepared, so
    /// preparation and the codec drop out. About two thirds of requests
    /// are memo hits, dominated by `proto`, `registry::result_key` and the
    /// LRU; the misses rerun the same experiment code as the CLI
    /// workloads on a working set about 2x smaller (scale 1).
    ServeMix,
}

impl Workload {
    /// Every workload, in the order the traced run executes them.
    pub const ALL: [Workload; 3] = [
        Workload::TimingWalk,
        Workload::PredictorSweep,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TimingWalk => "timing-walk",
            Workload::PredictorSweep => "predictor-sweep",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one cycle took when the benchmark was defined (2-vCPU
    /// container). Used only to turn `--seconds` into a fixed cycle count,
    /// so that every run with the same arguments executes the same
    /// operations whatever the host speed.
    pub fn nominal_cycle_s(self) -> f64 {
        match self {
            Workload::TimingWalk => 8.5,
            Workload::PredictorSweep => 3.7,
            Workload::ServeMix => 4.5,
        }
    }

    /// Timed cycles for a run asked to measure about `seconds`. A
    /// `serve-mix` run times at least 1,000 requests, which leaves ten
    /// samples beyond its p99.
    pub fn cycles_for(self, seconds: u64) -> usize {
        let cycles = (seconds as f64 / self.nominal_cycle_s()).round() as usize;
        match self {
            Workload::ServeMix => cycles.max(1000usize.div_ceil(serve_lines())),
            _ => cycles.max(1),
        }
    }
}

/// One CLI operation: `harness <exp> --bench <bench> --threads 1`.
#[derive(Debug, Clone, Copy)]
pub struct CliOp {
    /// The registry experiment.
    pub exp: &'static str,
    /// The benchmark it is narrowed to.
    pub bench: Spec92,
}

/// The timing-walk cycle: five experiments on each of the five paper
/// benchmarks, 25 ops.
const TIMING_WALK_EXPS: [&str; 5] = [
    "table4",
    "profile",
    "ext-memory",
    "ext-intra",
    "ext-confidence",
];

/// Predictor-sweep experiments that run on all five benchmarks.
const SWEEP_ALL_EXPS: [&str; 6] = [
    "fig7",
    "fig10",
    "table3",
    "ext-staleness",
    "ext-hybrid",
    "ext-pollution",
];

/// One cycle of a CLI workload, in execution order (`serve-mix` has none).
pub fn cli_ops(w: Workload) -> Vec<CliOp> {
    let across = |exps: &[&'static str], benches: &[Spec92]| -> Vec<CliOp> {
        exps.iter()
            .flat_map(|&exp| benches.iter().map(move |&bench| CliOp { exp, bench }))
            .collect()
    };
    match w {
        Workload::TimingWalk => across(&TIMING_WALK_EXPS, &Spec92::ALL),
        // 35 ops: fig6 on gcc, six studies on all five benchmarks, and the
        // two indirect-target figures on the two indirect-heavy benchmarks
        // (the sets the paper uses).
        Workload::PredictorSweep => {
            let mut ops = vec![CliOp {
                exp: "fig6",
                bench: Spec92::Gcc,
            }];
            ops.extend(across(&SWEEP_ALL_EXPS, &Spec92::ALL));
            ops.extend(across(&["fig8", "fig12"], &[Spec92::Gcc, Spec92::Xlisp]));
            ops
        }
        Workload::ServeMix => Vec::new(),
    }
}

/// The paper experiments `serve-mix` requests.
pub const PAPER_EXPERIMENTS: [&str; 11] = [
    "table2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "table3", "table4",
];

/// Parameter points (workload seeds) per `serve-mix` run.
pub const PARAM_POINTS: u64 = 4;

/// Hot keys per cycle: requested often enough to stay in the result cache.
const HOT_KEYS: usize = 10;

/// `run` lines on hot keys per cycle, split over them by Zipf popularity.
const HOT_REQUESTS: usize = 110;

/// Lines of each special kind per cycle.
const SPECIALS_EACH: usize = 2;

/// `run` requests per `batch` line.
const BATCH_SIZE: u64 = 3;

/// Lines in one `serve-mix` cycle: one cold request per (experiment,
/// benchmark) pair, the hot requests, and five kinds of special line.
pub fn serve_lines() -> usize {
    PAPER_EXPERIMENTS.len() * Spec92::ALL.len() + HOT_REQUESTS + 5 * SPECIALS_EACH
}

/// The workload seeds of the `serve-mix` parameter points.
pub fn param_seeds(seed: u64) -> Vec<u64> {
    (0..PARAM_POINTS).map(|k| seed.wrapping_add(k)).collect()
}

/// What a `serve-mix` line is, and so how its response is checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineKind {
    /// One `run` request.
    Run,
    /// A `batch` of this many `run` requests.
    Batch(u64),
    /// A `stats` request.
    Stats,
    /// A line that must be answered with exactly this error response.
    Error(String),
}

/// One request line of the `serve-mix` stream.
#[derive(Debug, Clone)]
pub struct ServeLine {
    /// The wire text (no trailing newline).
    pub text: String,
    /// How the response is checked.
    pub kind: LineKind,
}

/// splitmix64: the benchmark's own generator, so the request stream does
/// not change when the program's generators do.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// One request key: experiment, benchmark, parameter seed.
type Key = (&'static str, Spec92, u64);

/// `total` split over Zipf weights `1/rank` (largest remainder), so the
/// split is exact and the same for every seed.
fn zipf_counts(total: usize, ranks: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / r as f64).collect();
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    counts
}

fn request_fields((exp, bench, seed): Key) -> String {
    format!(
        "\"experiment\":\"{exp}\",\"bench\":\"{}\",\"seed\":{seed},\"scale\":{SERVE_SCALE}",
        bench.name()
    )
}

/// A line before its position (and so its id) is known.
enum Draft {
    Run(Key),
    Batch(Vec<Key>),
    Stats,
    BadCmd,
    UnknownBench,
    Truncated,
}

/// One `serve-mix` cycle, generated from `seed`. The keys are the 11 paper
/// experiments x 5 benchmarks x 4 parameter seeds, at scale 1:
///
/// - cold: every (experiment, benchmark) pair once, at a parameter point
///   picked per pair. Each is requested once a cycle, so it has left the
///   result cache by its next request and misses;
/// - hot: one other key of each of the first ten experiments, benchmark
///   and parameter point picked by seed, sharing 110 requests by Zipf
///   popularity (38 down to 4). They stay resident and hit;
/// - special: two each of a 3-request `batch` of hot keys, `stats`, an
///   unknown `cmd`, an unknown benchmark and a truncated envelope.
///
/// The lines are shuffled by seed; a line's id is its position. Misses
/// are about a third of the requests, and because every pair misses once
/// a cycle whatever the seed, the miss work (most of the cycle's time)
/// barely moves from seed to seed. A plain Zipf draw over all 220 keys
/// left it to chance which expensive pairs missed: its `ops_per_s` spread
/// 29% and its `latency_p99_ms` 70% over five seeds.
pub fn serve_stream(seed: u64) -> Vec<ServeLine> {
    let mut rng = Rng::new(seed);
    let seeds = param_seeds(seed);
    let pairs: Vec<(&'static str, Spec92)> = PAPER_EXPERIMENTS
        .iter()
        .flat_map(|&e| Spec92::ALL.iter().map(move |&b| (e, b)))
        .collect();
    let offset = rng.next_u64();
    let cold_point = |j: usize| (j as u64).wrapping_add(offset) % PARAM_POINTS;
    let mut drafts: Vec<Draft> = pairs
        .iter()
        .enumerate()
        .map(|(j, &(e, b))| Draft::Run((e, b, seeds[cold_point(j) as usize])))
        .collect();
    let mut others: Vec<Key> = Vec::new();
    for (j, &(e, b)) in pairs.iter().enumerate() {
        for k in (0..PARAM_POINTS).filter(|&k| k != cold_point(j)) {
            others.push((e, b, seeds[k as usize]));
        }
    }
    // Hot rank r is always experiment r, so the hits' response sizes (and
    // so the hit latency) do not move with the seed; its benchmark and
    // parameter point are drawn.
    let hot: Vec<Key> = PAPER_EXPERIMENTS[..HOT_KEYS]
        .iter()
        .map(|&exp| {
            let choices: Vec<Key> = others.iter().copied().filter(|k| k.0 == exp).collect();
            choices[(rng.next_u64() % choices.len() as u64) as usize]
        })
        .collect();
    for (key, n) in hot.iter().zip(zipf_counts(HOT_REQUESTS, HOT_KEYS)) {
        drafts.extend((0..n).map(|_| Draft::Run(*key)));
    }
    for i in 0..SPECIALS_EACH {
        let batch = (0..BATCH_SIZE as usize)
            .map(|k| hot[(i * BATCH_SIZE as usize + k) % HOT_KEYS])
            .collect();
        drafts.extend([
            Draft::Batch(batch),
            Draft::Stats,
            Draft::BadCmd,
            Draft::UnknownBench,
            Draft::Truncated,
        ]);
    }
    let order = rng.permutation(drafts.len());
    let mut drafts: Vec<Option<Draft>> = drafts.into_iter().map(Some).collect();
    order
        .into_iter()
        .enumerate()
        .map(|(id, i)| {
            match drafts[i].take().expect("each draft placed once") {
                Draft::Run(key) => ServeLine {
                    text: format!("{{\"id\":{id},\"cmd\":\"run\",{}}}", request_fields(key)),
                    kind: LineKind::Run,
                },
                Draft::Batch(keys) => {
                    let reqs: Vec<String> = keys
                        .into_iter()
                        .map(|k| format!("{{{}}}", request_fields(k)))
                        .collect();
                    ServeLine {
                        text: format!(
                            "{{\"id\":{id},\"cmd\":\"batch\",\"requests\":[{}]}}",
                            reqs.join(",")
                        ),
                        kind: LineKind::Batch(BATCH_SIZE),
                    }
                }
                Draft::Stats => ServeLine {
                    text: format!("{{\"id\":{id},\"cmd\":\"stats\"}}"),
                    kind: LineKind::Stats,
                },
                Draft::BadCmd => ServeLine {
                    text: format!("{{\"id\":{id},\"cmd\":\"frobnicate\"}}"),
                    kind: LineKind::Error(format!(
                        "{{\"id\":{id},\"ok\":false,\"error\":\"unknown cmd `frobnicate` \
                         (run|batch|stats|ping|shutdown)\"}}"
                    )),
                },
                Draft::UnknownBench => ServeLine {
                    text: format!(
                        "{{\"id\":{id},\"cmd\":\"run\",\"experiment\":\"fig7\",\
                         \"bench\":\"nosuch\",\"scale\":{SERVE_SCALE}}}"
                    ),
                    kind: LineKind::Error(format!(
                        "{{\"id\":{id},\"ok\":false,\"error\":\"unknown benchmark `nosuch`\"}}"
                    )),
                },
                Draft::Truncated => {
                    // Not JSON at all, so no id can be salvaged; the
                    // parser names the byte where the object breaks off.
                    let text = format!("{{\"id\":{id},\"cmd\":\"run\",\"experiment\":\"fig7\"");
                    let at = text.len();
                    ServeLine {
                        text,
                        kind: LineKind::Error(format!(
                            "{{\"id\":null,\"ok\":false,\"error\":\"expected `,` or `}}` at byte {at}\"}}"
                        )),
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_have_the_documented_sizes() {
        assert_eq!(cli_ops(Workload::TimingWalk).len(), 25);
        assert_eq!(cli_ops(Workload::PredictorSweep).len(), 35);
        assert_eq!(serve_stream(DEFAULT_SEED).len(), serve_lines());
        assert_eq!(Workload::ServeMix.cycles_for(1), 6);
        assert_eq!(
            zipf_counts(HOT_REQUESTS, HOT_KEYS),
            [38, 19, 13, 9, 7, 6, 5, 5, 4, 4]
        );
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let text = |s| -> Vec<String> { serve_stream(s).into_iter().map(|l| l.text).collect() };
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
    }
}
