//! Extension experiments beyond the paper's artifacts:
//!
//! * [`ext_staleness`] — the cost of the paper's §3.1 update-timing
//!   idealisation, measured with delayed PHT training;
//! * [`ext_hybrid`] — a PATH/PER tournament predictor against its
//!   components (the follow-on design Figure 7 invites);
//! * [`ext_taskform`] — the paper's §3.2 claim that the *relative*
//!   performance of predictors is consistent across compilations, tested
//!   by re-partitioning every benchmark with three task-former budgets;
//! * [`ext_memory`] — the timing simulator's ARB and register-forwarding
//!   substrate models (violations, overflow stalls, release-at-end cost).

use crate::cache::{load_or_record, replay_key, ArtifactCache};
use crate::dispatch::{measure_ideal, with_table4_targets, Scheme, Table4Column};
use crate::Bench;
use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{PathPredictor, PerTaskPredictor};
use multiscalar_core::pollution::{PollutedExitAdapter, PollutedPathPredictor};
use multiscalar_core::predictor::{ExitPredictor, TaskDesc};
use multiscalar_core::stale::StalePathPredictor;
use multiscalar_core::tournament::TournamentPredictor;
use multiscalar_isa::Fingerprint;
use multiscalar_sim::measure::{
    measure_exits_fused, measure_outcomes, task_descs, MissStats, Outcomes,
};
use multiscalar_sim::metrics::{Cause, CycleBreakdown, NoopSink};
use multiscalar_sim::replay::{derive_trace, record_replay, walk_lanes, InstrReplay, Lane};
use multiscalar_sim::timing::{ForwardingModel, TimingConfig, TimingResult};
use multiscalar_sim::trace::SharedTrace;
use multiscalar_taskform::{TaskFormConfig, TaskFormer, TaskProgram};
use multiscalar_workloads::{Spec92, Workload, WorkloadParams};

type Leh2 = LastExitHysteresis<2>;

/// Training delays swept by [`ext_staleness`].
pub const STALENESS_DELAYS: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// One row of the staleness study.
#[derive(Debug, Clone)]
pub struct StalenessRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Miss rate per delay in [`STALENESS_DELAYS`].
    pub miss: Vec<f64>,
}

/// Measures how much accuracy delayed (realistic) PHT training costs,
/// using the paper's 8 KB `6-5-8-9 (3)` PATH configuration. Every delay
/// rides one trace walk per benchmark.
pub fn ext_staleness(benches: &[Bench]) -> Vec<StalenessRow> {
    benches
        .iter()
        .map(|b| {
            let mut ps: Vec<StalePathPredictor<Leh2>> = STALENESS_DELAYS
                .iter()
                .map(|&d| StalePathPredictor::new(Dolc::new(6, 5, 8, 9, 3), d))
                .collect();
            StalenessRow {
                name: b.name(),
                miss: miss_rates(&mut ps, b),
            }
        })
        .collect()
}

/// Exit miss rates of `predictors`, measured in one fused walk of the
/// benchmark's trace.
fn miss_rates<P: ExitPredictor>(predictors: &mut [P], b: &Bench) -> Vec<f64> {
    measure_exits_fused(predictors, &b.descs, &b.trace.events)
        .iter()
        .map(|s| s.miss_rate())
        .collect()
}

/// One row of the hybrid study.
#[derive(Debug, Clone)]
pub struct HybridRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Real PATH component alone (8 KB).
    pub path: f64,
    /// Real PER component alone (8 KB).
    pub per: f64,
    /// The tournament of both (16 KB + 0.25 KB chooser).
    pub hybrid: f64,
}

/// Measures the PATH/PER tournament predictor against its components.
pub fn ext_hybrid(benches: &[Bench]) -> Vec<HybridRow> {
    benches
        .iter()
        .map(|b| {
            let [path, per, hybrid] = hybrid_stats(b).map(|s| s.miss_rate());
            HybridRow {
                name: b.name(),
                path,
                per,
                hybrid,
            }
        })
        .collect()
}

/// Exit miss stats of `ext-hybrid`'s three columns, `[PATH, PER,
/// tournament]`, from one walk of the tournament: the real PATH predictor
/// `6-5-8-9 (3)`, the real PER predictor `(7, 8, 6)`, and a 10-bit chooser
/// over the two. Both components train on every event and LEH-2 draws no
/// tie bits, so each predicts exactly what it would alone.
pub fn hybrid_stats(b: &Bench) -> [MissStats; 3] {
    let mut hybrid = TournamentPredictor::new(
        PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
        PerTaskPredictor::<Leh2>::new(7, 8, 6),
        10,
    );
    let mut stats = [MissStats::default(); 3];
    for e in b.trace.events.iter() {
        let desc = &b.descs[e.task.index()];
        let (path, per, chosen) = hybrid.predict_each(desc);
        for (s, predicted) in stats.iter_mut().zip([path, per, chosen]) {
            s.record(predicted != e.exit);
        }
        hybrid.update(desc, e.exit);
    }
    stats
}

/// Task-former budgets compared by [`ext_taskform`]: small, default, large
/// tasks.
pub const TASKFORM_CONFIGS: [(&str, TaskFormConfig); 3] = [
    (
        "small (8/2)",
        TaskFormConfig {
            max_instrs: 8,
            max_blocks: 2,
        },
    ),
    (
        "default (32/12)",
        TaskFormConfig {
            max_instrs: 32,
            max_blocks: 12,
        },
    ),
    (
        "large (64/24)",
        TaskFormConfig {
            max_instrs: 64,
            max_blocks: 24,
        },
    ),
];

/// One row of the cross-compilation study: miss rates of the three ideal
/// schemes (depth 7) under one task-former budget.
#[derive(Debug, Clone)]
pub struct TaskformRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Former configuration label.
    pub config: &'static str,
    /// Dynamic tasks under this partition.
    pub dynamic_tasks: u64,
    /// Ideal miss rates at depth 7: `[GLOBAL, PER, PATH]`.
    pub miss: [f64; 3],
}

/// One of [`ext_taskform`]'s fifteen partitions: a benchmark formed under
/// one of [`TASKFORM_CONFIGS`], and the cache key its recording lives under.
pub(crate) struct TaskformPartition {
    spec: Spec92,
    label: &'static str,
    workload: Workload,
    tasks: TaskProgram,
    /// The partition recording's [`replay_key`].
    pub(crate) key: Fingerprint,
}

/// [`ext_taskform`]'s partitions, benchmark by benchmark in
/// [`TASKFORM_CONFIGS`] order, built one at a time: the one derivation of
/// their cache keys, shared by the study and `harness cache stats`.
pub(crate) fn taskform_partitions(
    params: &WorkloadParams,
) -> impl Iterator<Item = TaskformPartition> + '_ {
    Spec92::ALL.into_iter().flat_map(move |spec| {
        let w = spec.build(params);
        TASKFORM_CONFIGS.into_iter().map(move |(label, config)| {
            let tasks = TaskFormer::new(config).form(&w.program).expect("formation");
            let key = replay_key(spec, params, &w.program, &tasks, w.max_steps);
            TaskformPartition {
                spec,
                label,
                workload: w.clone(),
                tasks,
                key,
            }
        })
    })
}

/// Re-partitions every benchmark with three task budgets and re-measures
/// the three history schemes — the paper's "relative performance of
/// predictors is very consistent across ... compilations" (§3.2).
///
/// Each partition's recording goes through [`load_or_record`] under its
/// own [`replay_key`], so with a warm `store` the study reads fifteen
/// boundary sections and records nothing (the default budget's entry is
/// the one benchmark preparation stores).
pub fn ext_taskform(params: &WorkloadParams, store: Option<&ArtifactCache>) -> Vec<TaskformRow> {
    taskform_partitions(params)
        .map(|p| {
            let w = &p.workload;
            let replay = load_or_record(store, p.key, &w.program, &p.tasks, w.max_steps)
                .expect("recording succeeds");
            let trace = derive_trace(&replay, &p.tasks);
            let bench = Bench {
                spec: p.spec,
                descs: task_descs(&p.tasks),
                workload: p.workload,
                tasks: p.tasks,
                replay: replay.into_shared(),
                key: p.key,
                trace,
            };
            let miss = [
                measure_ideal(Scheme::Global, 7, &bench).miss_rate(),
                measure_ideal(Scheme::Per, 7, &bench).miss_rate(),
                measure_ideal(Scheme::Path, 7, &bench).miss_rate(),
            ];
            TaskformRow {
                name: bench.name(),
                config: p.label,
                dynamic_tasks: bench.trace.stats.dynamic_tasks,
                miss,
            }
        })
        .collect()
}

/// One row of the memory-substrate study.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with eager forwarding + default ARB (perfect task prediction).
    pub eager_ipc: f64,
    /// IPC with release-at-end register forwarding.
    pub release_ipc: f64,
    /// IPC with an ideal (conflict-free) memory system.
    pub ideal_mem_ipc: f64,
    /// IPC with a deliberately undersized ARB (1 bank x 1 entry).
    pub tiny_arb_ipc: f64,
    /// ARB memory-order violations under the default configuration.
    pub violations: u64,
    /// ARB bank-overflow stalls under the default configuration.
    pub full_stalls: u64,
    /// ARB bank-overflow stalls under the undersized configuration.
    pub tiny_full_stalls: u64,
}

/// Measures the substrate models: register-forwarding policy and the ARB.
/// The four machines are four lanes of one walk over one Perfect outcome
/// pass.
pub fn ext_memory(benches: &[Bench]) -> Vec<MemoryRow> {
    let default = TimingConfig::paper();
    // Per-retirement head commit drains the ARB fast enough that a
    // 4-entry bank no longer overflows everywhere; a single entry still
    // demonstrates overflow stalls on every benchmark.
    let tiny = multiscalar_sim::arb::ArbConfig {
        banks: 1,
        entries_per_bank: 1,
    };
    let configs = [
        default,
        default.forwarding(ForwardingModel::ReleaseAtEnd),
        default.arb(None),
        default.arb(Some(tiny)),
    ];
    benches
        .iter()
        .map(|b| {
            let [eager, release, ideal_mem, tiny] = walk_machines(b, &configs);
            MemoryRow {
                name: b.name(),
                eager_ipc: eager.ipc(),
                release_ipc: release.ipc(),
                ideal_mem_ipc: ideal_mem.ipc(),
                tiny_arb_ipc: tiny.ipc(),
                violations: eager.arb_violations,
                full_stalls: eager.arb_full_stalls,
                tiny_full_stalls: tiny.arb_full_stalls,
            }
        })
        .collect()
}

/// Times `b` under perfect task prediction on each of `configs`, as the
/// lanes of one walk.
fn walk_machines<const N: usize>(b: &Bench, configs: &[TimingConfig; N]) -> [TimingResult; N] {
    let perfect = Table4Column::Perfect.outcomes(b);
    let lanes = configs.map(|config| Lane {
        outcomes: &perfect,
        config,
    });
    let results = walk_lanes(&b.replay, &lanes, &mut [NoopSink; N]);
    results.try_into().expect("one result per machine")
}

/// Wrong-path excursion depths swept by [`ext_pollution`].
pub const POLLUTION_DEPTHS: [usize; 4] = [0, 1, 2, 4];

/// One row of the pollution study.
#[derive(Debug, Clone)]
pub struct PollutionRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Miss rate per unrepaired wrong-path depth in [`POLLUTION_DEPTHS`].
    pub unrepaired: Vec<f64>,
    /// Miss rate with perfect repair (the paper's assumption), depth 4.
    pub repaired: f64,
}

/// Measures the paper's second §3.1 idealisation: wrong-path pollution of
/// the speculative path register, with and without recovery repair. Every
/// unrepaired depth rides one trace walk per benchmark.
pub fn ext_pollution(benches: &[Bench]) -> Vec<PollutionRow> {
    benches
        .iter()
        .map(|b| {
            let mut ps: Vec<_> = POLLUTION_DEPTHS
                .iter()
                .map(|&depth| polluted(depth, false))
                .collect();
            let unrepaired = miss_rates(&mut ps, b);
            // A repaired predictor restores its saved path after every
            // excursion, so it evolves exactly like the depth-0 one, which
            // takes none: same path, PHT and tie bits. The repaired column
            // is that run.
            let repaired = unrepaired[0];
            PollutionRow {
                name: b.name(),
                unrepaired,
                repaired,
            }
        })
        .collect()
}

/// `ext-pollution`'s PATH predictor, `6-5-8-9 (3)`, taking wrong-path
/// excursions of `depth` tasks, repaired after each one when `repair` is
/// set.
fn polluted(depth: usize, repair: bool) -> PollutedExitAdapter<Leh2> {
    PollutedExitAdapter::new(PollutedPathPredictor::new(
        Dolc::new(6, 5, 8, 9, 3),
        depth,
        repair,
    ))
}

/// One row of the intra-task predictor ablation.
#[derive(Debug, Clone)]
pub struct IntraRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC and intra-task mispredicts per predictor kind
    /// `[bimodal, gshare, mcfarling]`.
    pub ipc: [f64; 3],
    /// Intra-task misprediction counts in the same order.
    pub mispredicts: [u64; 3],
}

/// Ablates the processing units' intra-task branch predictor (the paper
/// uses a bimodal and reports "minimal accuracy loss"; §2.2). The three
/// machines are three lanes of one walk.
pub fn ext_intra(benches: &[Bench]) -> Vec<IntraRow> {
    use multiscalar_sim::timing::IntraPredictorKind;
    let configs = [
        IntraPredictorKind::Bimodal,
        IntraPredictorKind::Gshare,
        IntraPredictorKind::McFarling,
    ]
    .map(|kind| TimingConfig::paper().intra_predictor(kind));
    benches
        .iter()
        .map(|b| {
            let [bi, gs, mc] = walk_machines(b, &configs);
            IntraRow {
                name: b.name(),
                ipc: [bi.ipc(), gs.ipc(), mc.ipc()],
                mispredicts: [
                    bi.intra_mispredicts,
                    gs.intra_mispredicts,
                    mc.intra_mispredicts,
                ],
            }
        })
        .collect()
}

/// One row of the confidence-gating study.
#[derive(Debug, Clone)]
pub struct ConfidenceRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with unconditional speculation (PATH predictor).
    pub always_ipc: f64,
    /// IPC with CIR confidence gating (threshold 8).
    pub gated_ipc: f64,
    /// Fraction of boundaries the gate withheld speculation on.
    pub gated_frac: f64,
    /// Task misprediction rate (ungated run).
    pub miss_rate: f64,
}

/// Measures confidence-gated speculation (Jacobson/Rotenberg/Smith's CIR
/// estimator on task predictions): low-confidence boundaries stall instead
/// of risking a squash. The gate decides only the gated bits, so one gated
/// PATH outcome pass serves both runs; the always-speculate run walks the
/// same miss bits with the gated bits cleared. Both runs are lanes of one
/// walk.
pub fn ext_confidence(benches: &[Bench]) -> Vec<ConfidenceRow> {
    let config = TimingConfig::paper();
    benches
        .iter()
        .map(|b| {
            let mut p = Table4Column::Path.predictor().expect("PATH predicts");
            let gated = measure_outcomes(Some(&mut p), &b.descs, &b.trace.events, Some(8));
            let always = gated.ungated();
            let lanes = [&always, &gated].map(|outcomes| Lane { outcomes, config });
            let [always, gated]: [TimingResult; 2] =
                walk_lanes(&b.replay, &lanes, &mut [NoopSink; 2])
                    .try_into()
                    .expect("one result per lane");
            ConfidenceRow {
                name: b.name(),
                always_ipc: always.ipc(),
                gated_ipc: gated.ipc(),
                gated_frac: gated.gated_boundaries as f64 / gated.dynamic_tasks.max(1) as f64,
                miss_rate: always.task_miss_rate(),
            }
        })
        .collect()
}

/// Pinned fuzz-corpus seeds the zoo ranking aggregates into one row
/// alongside the five paper benchmarks — predictor families are ranked on
/// adversarially random control flow too, not just the SPEC92 analogs.
pub const ZOO_CORPUS_SEEDS: std::ops::Range<u64> = 0..32;

/// Predictor families ranked by [`ext_zoo`], in column order: the paper's
/// PATH baseline, the PATH/PER tournament, and the two beyond-the-paper
/// families from `multiscalar_core::zoo`.
pub const ZOO_FAMILIES: [&str; 4] = ["PATH", "TOURN", "GSHARE", "GATED"];

/// One family's scores on one input.
#[derive(Debug, Clone, Copy)]
pub struct ZooCell {
    /// Exit miss rate over the task trace.
    pub miss: f64,
    /// Fraction of timing cycles lost to mispredict squash/refill
    /// ([`multiscalar_sim::metrics::Cause::SquashRefill`]) with this
    /// family driving the sequencer.
    pub squash: f64,
}

/// One row of the zoo ranking: an input (benchmark or the fuzz corpus)
/// scored by every family in [`ZOO_FAMILIES`].
#[derive(Debug, Clone)]
pub struct ZooRow {
    /// Benchmark name, or `"fuzz-corpus"`.
    pub name: String,
    /// Dynamic tasks in the input's trace.
    pub dynamic_tasks: u64,
    /// Per-family scores, in [`ZOO_FAMILIES`] order.
    pub cells: Vec<ZooCell>,
}

/// Builds one zoo family's exit predictor at roughly the paper's 8 KB PHT
/// point (16K two-bit-hysteresis entries / 14-bit index), so the ranking
/// compares prediction quality, not table size.
fn zoo_exit(family: usize) -> Box<dyn ExitPredictor> {
    use multiscalar_core::zoo::{GatedHybridPredictor, GshareExitPredictor};
    match family {
        0 => Box::new(PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3))),
        1 => Box::new(TournamentPredictor::new(
            PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
            PerTaskPredictor::<Leh2>::new(7, 8, 6),
            10,
        )),
        2 => Box::new(GshareExitPredictor::<Leh2>::new(7, 14)),
        _ => Box::new(GatedHybridPredictor::<Leh2>::new(
            10,
            Dolc::new(6, 5, 8, 9, 3),
            10,
            3,
        )),
    }
}

/// Every family's raw scores on one recorded input, in [`ZOO_FAMILIES`]
/// order: exit misses over the trace (one walk of all four exit
/// predictors), then the squash-refill and total cycles of a timing run on
/// the recording (Table 4's CTTB/RAS sizing, so only the exit predictor
/// varies between columns; the four runs are the lanes of one walk).
fn zoo_counts(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, u64, u64)> {
    let families = 0..ZOO_FAMILIES.len();
    let mut exits: Vec<_> = families.clone().map(zoo_exit).collect();
    let stats = measure_exits_fused(&mut exits, descs, events);
    let outcomes: Vec<Outcomes> = families
        .map(|family| {
            let mut tp = with_table4_targets(zoo_exit(family));
            measure_outcomes(Some(&mut tp), descs, events, None)
        })
        .collect();
    let lanes: Vec<Lane> = outcomes
        .iter()
        .map(|outcomes| Lane {
            outcomes,
            config: TimingConfig::paper(),
        })
        .collect();
    let mut breakdowns = vec![CycleBreakdown::new(); lanes.len()];
    let results = walk_lanes(replay, &lanes, &mut breakdowns);
    stats
        .into_iter()
        .zip(breakdowns)
        .zip(results)
        .map(|((stats, bd), result)| (stats, bd.get(Cause::SquashRefill), result.cycles))
        .collect()
}

/// A zoo cell from raw counts (summed over every program for the corpus
/// row).
fn zoo_cell((stats, squash, cycles): (MissStats, u64, u64)) -> ZooCell {
    ZooCell {
        miss: stats.misses as f64 / stats.predictions.max(1) as f64,
        squash: squash as f64 / cycles.max(1) as f64,
    }
}

/// Ranks the predictor zoo on the five paper benchmarks plus the pinned
/// fuzz corpus ([`ZOO_CORPUS_SEEDS`]): for each input and family, exit
/// miss rate and the squash-cycle fraction of a full timing run. The
/// corpus row aggregates misses and cycles across all corpus programs
/// (predictions and cycles summed before the division, so longer programs
/// weigh more, exactly as in a merged trace).
pub fn ext_zoo(benches: &[Bench]) -> Vec<ZooRow> {
    use multiscalar_workloads::fuzz::{fuzz_program, FuzzShape, MAX_STEPS};

    let mut rows: Vec<ZooRow> = benches
        .iter()
        .map(|b| ZooRow {
            name: b.name().to_string(),
            dynamic_tasks: b.trace.stats.dynamic_tasks,
            cells: zoo_counts(&b.replay, &b.descs, &b.trace.events)
                .into_iter()
                .map(zoo_cell)
                .collect(),
        })
        .collect();

    // The fuzz corpus: one aggregate row over every pinned seed.
    let mut dynamic_tasks = 0u64;
    let mut agg = vec![(MissStats::default(), 0u64, 0u64); ZOO_FAMILIES.len()];
    for seed in ZOO_CORPUS_SEEDS {
        let program = fuzz_program(seed, &FuzzShape::from_seed(seed));
        let tasks = TaskFormer::default()
            .form(&program)
            .expect("fuzz programs always form");
        let replay =
            record_replay(&program, &tasks, MAX_STEPS).expect("fuzz programs always record");
        let trace = derive_trace(&replay, &tasks);
        let descs = task_descs(&tasks);
        dynamic_tasks += trace.stats.dynamic_tasks;
        let counts = zoo_counts(&replay, &descs, &trace.events);
        for (slot, (stats, squash, cycles)) in agg.iter_mut().zip(counts) {
            slot.0.merge(stats);
            slot.1 += squash;
            slot.2 += cycles;
        }
    }
    rows.push(ZooRow {
        name: "fuzz-corpus".to_string(),
        dynamic_tasks,
        cells: agg.into_iter().map(zoo_cell).collect(),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;

    /// `ext-pollution`'s repaired column is its unrepaired depth-0 run: a
    /// separately walked repaired depth-4 predictor misses exactly as
    /// often on every benchmark.
    #[test]
    fn repaired_pollution_is_the_depth_zero_run() {
        let benches: Vec<Bench> = Spec92::ALL
            .iter()
            .map(|&s| prepare(s, &WorkloadParams::small(1)))
            .collect();
        for (b, row) in benches.iter().zip(ext_pollution(&benches)) {
            let walked = miss_rates(&mut [polluted(4, true)], b)[0];
            assert_eq!(walked, row.unrepaired[0], "{}", b.name());
            assert_eq!(row.repaired, walked, "{}", b.name());
        }
    }

    /// The gate decides only the gated bits: on a real workload the PATH
    /// miss bits with and without a gate are identical, which is what lets
    /// `ext_confidence` serve both of its walks from one pass.
    #[test]
    fn the_confidence_gate_never_changes_a_miss_bit() {
        use multiscalar_sim::measure::Outcomes;
        let b = prepare(Spec92::Gcc, &WorkloadParams::small(1));
        let path = |gate| {
            let mut p = Table4Column::Path.predictor().expect("PATH predicts");
            measure_outcomes(Some(&mut p), &b.descs, &b.trace.events, gate)
        };
        let (gated, ungated) = (path(Some(8)), path(None));
        assert_eq!(gated.ungated(), ungated);
        let any = |o: &Outcomes, bit| o.bits().iter().any(|&b| b & bit != 0);
        assert!(any(&gated, Outcomes::MISS) && any(&gated, Outcomes::GATED));
        assert!(!any(&ungated, Outcomes::GATED));
    }
}
