//! One function per paper table/figure. Each returns plain data; rendering
//! lives in [`crate::report`].
//!
//! Every sweep-shaped experiment takes a [`Pool`] and fans its (benchmark ×
//! scheme × depth) grid out as independent jobs, with the per-depth
//! dimension **fused**: one trace walk drives every depth's predictor
//! instance (see `multiscalar_sim::measure::measure_exits_fused`; the ideal
//! sweeps intern each event's state once for all depths, see
//! `multiscalar_sim::measure::measure_ideal_path`). Figure 6 is one walk
//! for its whole grid. Results come back in submission order, so any pool
//! width produces byte-identical output.

use crate::dispatch::{
    cttb_ideal_sweep, cttb_ladder, cttb_real_sweep, exit_ladder, measure_ideal_path_automata,
    measure_ideal_sweep, path_ideal_sweep, path_real_sweep, with_table4_targets, Scheme,
    Table4Column,
};
use crate::pool::{Job, Pool};
use crate::Bench;
use multiscalar_core::automata::{AutomatonKind, LastExitHysteresis};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::CttbOnlyPredictor;
use multiscalar_isa::ExitKind;
use multiscalar_sim::measure::{measure_table3, MissStats};
use multiscalar_sim::metrics::{MetricsSink, NoopSink};
use multiscalar_sim::replay::{walk_lanes, Lane};
use multiscalar_sim::timing::{TimingConfig, TimingResult};

type Leh2 = LastExitHysteresis<2>;

/// Depths swept by the history-depth figures (the paper plots 0..=7/8).
pub const DEPTHS: std::ops::RangeInclusive<u32> = 0..=8;

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One row of Table 2: benchmark task statistics.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Static tasks in the binary.
    pub static_tasks: usize,
    /// Dynamic task instances executed.
    pub dynamic_tasks: u64,
    /// Distinct static tasks seen at run time.
    pub distinct_tasks: usize,
    /// Dynamic instructions (not in the paper's table; useful context).
    pub instructions: u64,
}

/// Reproduces Table 2: benchmarks, inputs and task information.
pub fn table2(benches: &[Bench]) -> Vec<Table2Row> {
    benches
        .iter()
        .map(|b| Table2Row {
            name: b.name(),
            static_tasks: b.tasks.static_task_count(),
            dynamic_tasks: b.trace.stats.dynamic_tasks,
            distinct_tasks: b.trace.stats.distinct_tasks,
            instructions: b.trace.stats.instructions,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 3 & 4
// ---------------------------------------------------------------------------

/// Exit-count distribution for one benchmark (Figure 3): fraction of tasks
/// with 1, 2, 3, 4 exits, statically and dynamically.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `static_frac[k-1]` = fraction of static tasks with `k` exits.
    pub static_frac: [f64; 4],
    /// Same, weighted by dynamic execution.
    pub dynamic_frac: [f64; 4],
}

/// Reproduces Figure 3: number of exits per task.
pub fn fig3(benches: &[Bench]) -> Vec<Fig3Row> {
    benches
        .iter()
        .map(|b| {
            let mut stat = [0u64; 4];
            for t in b.tasks.tasks() {
                stat[(t.header().num_exits() - 1).min(3)] += 1;
            }
            let total: u64 = stat.iter().sum();
            let static_frac = std::array::from_fn(|i| stat[i] as f64 / total.max(1) as f64);
            let dyn_total = b.trace.stats.dynamic_tasks.max(1) as f64;
            let dynamic_frac =
                std::array::from_fn(|i| b.trace.stats.by_num_exits[i + 1] as f64 / dyn_total);
            Fig3Row {
                name: b.name(),
                static_frac,
                dynamic_frac,
            }
        })
        .collect()
}

/// Exit-kind distribution for one benchmark (Figure 4), in Table 1 order:
/// branch, call, return, indirect branch, indirect call.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Fraction of *static exit specifiers* of each kind.
    pub static_frac: [f64; 5],
    /// Fraction of *dynamic exits* of each kind.
    pub dynamic_frac: [f64; 5],
}

/// Reproduces Figure 4: types of exit instructions.
pub fn fig4(benches: &[Bench]) -> Vec<Fig4Row> {
    let slot = |k: ExitKind| ExitKind::TABLE1.iter().position(|&x| x == k);
    benches
        .iter()
        .map(|b| {
            let mut stat = [0u64; 5];
            for t in b.tasks.tasks() {
                for e in t.header().exits() {
                    if let Some(i) = slot(e.kind) {
                        stat[i] += 1;
                    }
                }
            }
            let stotal: u64 = stat.iter().sum();
            let static_frac = std::array::from_fn(|i| stat[i] as f64 / stotal.max(1) as f64);
            let dtotal: u64 = b.trace.stats.by_kind.iter().sum();
            let dynamic_frac =
                std::array::from_fn(|i| b.trace.stats.by_kind[i] as f64 / dtotal.max(1) as f64);
            Fig4Row {
                name: b.name(),
                static_frac,
                dynamic_frac,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Miss-rate curve of one automaton across history depths (Figure 6).
#[derive(Debug, Clone)]
pub struct Fig6Curve {
    /// Automaton under test.
    pub kind: AutomatonKind,
    /// `miss[d]` = miss rate at history depth `d`.
    pub miss: Vec<f64>,
}

/// Reproduces Figure 6: the seven prediction automata under an aggressive
/// (ideal alias-free) path-based predictor, on the gcc analog. One trace
/// walk interns each event's (task, path) state once and steps all 63
/// columns (7 automata × 9 depths) on it, so the pool goes unused: seven
/// jobs would each intern the whole trace again.
pub fn fig6(gcc: &Bench, _pool: &Pool) -> Vec<Fig6Curve> {
    let depths: Vec<u32> = DEPTHS.collect();
    measure_ideal_path_automata(&AutomatonKind::ALL, &depths, gcc)
        .into_iter()
        .zip(AutomatonKind::ALL)
        .map(|(stats, kind)| Fig6Curve {
            kind,
            miss: stats.iter().map(|s| s.miss_rate()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Ideal history-scheme comparison for one benchmark (Figure 7).
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Scheme under test.
    pub scheme: Scheme,
    /// `miss[d]` = ideal miss rate at depth `d`.
    pub miss: Vec<f64>,
}

/// Reproduces Figure 7: ideal (alias-free) GLOBAL vs PER vs PATH across
/// history depths, for every benchmark. One job per (benchmark, scheme);
/// each job walks the trace once for the whole depth sweep.
pub fn fig7(benches: &[Bench], pool: &Pool) -> Vec<Fig7Row> {
    let depths: Vec<u32> = DEPTHS.collect();
    let mut jobs: Vec<Job<'_, Vec<MissStats>>> = Vec::new();
    for b in benches {
        for scheme in Scheme::ALL {
            let ds = depths.clone();
            jobs.push(Box::new(move || measure_ideal_sweep(scheme, &ds, b)));
        }
    }
    let mut results = pool.run(jobs).into_iter();
    let mut rows = Vec::new();
    for b in benches {
        for scheme in Scheme::ALL {
            let stats = results.next().expect("one result per job");
            rows.push(Fig7Row {
                name: b.name(),
                scheme,
                miss: stats.iter().map(|s| s.miss_rate()).collect(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Ideal CTTB miss curve for one benchmark (Figure 8) — indirect branches
/// and calls only.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `miss[d]` = ideal CTTB miss rate at path depth `d`; depth 0 is the
    /// plain (ideal, infinite) TTB.
    pub miss: Vec<f64>,
    /// Number of indirect-exit events measured.
    pub events: u64,
}

/// Reproduces Figure 8: ideal (alias-free) CTTB accuracy vs path depth on
/// the indirect-heavy benchmarks. One fused job per benchmark.
pub fn fig8(benches: &[Bench], pool: &Pool) -> Vec<Fig8Row> {
    let depths: Vec<usize> = DEPTHS.map(|d| d as usize).collect();
    let jobs: Vec<Job<'_, Vec<MissStats>>> = benches
        .iter()
        .map(|b| {
            let ds = depths.clone();
            Box::new(move || cttb_ideal_sweep(&ds, b)) as Job<'_, _>
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .zip(benches)
        .map(|(stats, b)| Fig8Row {
            name: b.name(),
            events: stats.first().map_or(0, |s| s.predictions),
            miss: stats.iter().map(|s| s.miss_rate()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 10 & 11
// ---------------------------------------------------------------------------

/// Real-vs-ideal exit prediction for one benchmark (Figure 10).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The DOLC configurations measured (label of the x axis).
    pub configs: Vec<Dolc>,
    /// Real (8 KB PHT) miss rate per configuration.
    pub real: Vec<f64>,
    /// Ideal (alias-free) miss rate at the same depth.
    pub ideal: Vec<f64>,
}

/// PHT states touched, ideal vs real (Figure 11).
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Distinct (task, path) states seen by the ideal predictor, per depth.
    pub ideal_states: Vec<usize>,
    /// Distinct PHT entries touched by the real implementation, per depth.
    pub real_states: Vec<usize>,
}

/// Figures 10 and 11 measure the exact same predictor runs (miss rates for
/// one, states touched for the other), so they are produced together: one
/// real and one ideal fused-ladder job per benchmark.
pub fn fig10_fig11(benches: &[Bench], pool: &Pool) -> (Vec<Fig10Row>, Vec<Fig11Row>) {
    let configs = exit_ladder();
    let depths: Vec<u32> = configs.iter().map(|d| d.depth() as u32).collect();
    let mut jobs: Vec<Job<'_, Vec<(MissStats, usize)>>> = Vec::new();
    for b in benches {
        let cfgs = configs.clone();
        jobs.push(Box::new(move || path_real_sweep(&cfgs, b)));
        let ds = depths.clone();
        jobs.push(Box::new(move || path_ideal_sweep(&ds, b)));
    }
    let results = pool.run(jobs);
    let mut rows10 = Vec::with_capacity(benches.len());
    let mut rows11 = Vec::with_capacity(benches.len());
    for (i, b) in benches.iter().enumerate() {
        let real = &results[2 * i];
        let ideal = &results[2 * i + 1];
        rows10.push(Fig10Row {
            name: b.name(),
            configs: configs.clone(),
            real: real.iter().map(|(s, _)| s.miss_rate()).collect(),
            ideal: ideal.iter().map(|(s, _)| s.miss_rate()).collect(),
        });
        rows11.push(Fig11Row {
            name: b.name(),
            ideal_states: ideal.iter().map(|&(_, n)| n).collect(),
            real_states: real.iter().map(|&(_, n)| n).collect(),
        });
    }
    (rows10, rows11)
}

/// Reproduces Figure 10: real DOLC implementations against the ideal
/// path-based predictor, 8 KB tables.
pub fn fig10(benches: &[Bench], pool: &Pool) -> Vec<Fig10Row> {
    fig10_fig11(benches, pool).0
}

/// Reproduces Figure 11: states touched in the PHT across history depths.
pub fn fig11(benches: &[Bench], pool: &Pool) -> Vec<Fig11Row> {
    fig10_fig11(benches, pool).1
}

// ---------------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------------

/// Real-vs-ideal CTTB target prediction for one benchmark (Figure 12).
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The DOLC configurations measured.
    pub configs: Vec<Dolc>,
    /// Real (8 KB CTTB) miss rate per configuration.
    pub real: Vec<f64>,
    /// Ideal (alias-free) miss rate at the same depth.
    pub ideal: Vec<f64>,
}

/// Reproduces Figure 12: real CTTB implementations (8 KB) against the
/// ideal, for indirect branches and calls. One real and one ideal
/// fused-ladder job per benchmark.
pub fn fig12(benches: &[Bench], pool: &Pool) -> Vec<Fig12Row> {
    let configs = cttb_ladder();
    let depths: Vec<usize> = configs.iter().map(|d| d.depth()).collect();
    let mut jobs: Vec<Job<'_, Vec<MissStats>>> = Vec::new();
    for b in benches {
        let cfgs = configs.clone();
        jobs.push(Box::new(move || cttb_real_sweep(&cfgs, b)));
        let ds = depths.clone();
        jobs.push(Box::new(move || cttb_ideal_sweep(&ds, b)));
    }
    let results = pool.run(jobs);
    benches
        .iter()
        .enumerate()
        .map(|(i, b)| Fig12Row {
            name: b.name(),
            configs: configs.clone(),
            real: results[2 * i].iter().map(|s| s.miss_rate()).collect(),
            ideal: results[2 * i + 1].iter().map(|s| s.miss_rate()).collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// One column of Table 3: next-task-address miss rates for the two
/// predictor organisations.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// CTTB-only predictor (64 KB storage, 14-bit index, depth 7).
    pub cttb_only: f64,
    /// Exit predictor (8 KB PHT) with RAS & small CTTB (8 KB) — 16 KB total.
    pub exit_with_ras_cttb: f64,
}

/// Reproduces Table 3: CTTB-only vs exit predictor with RAS & CTTB,
/// predicting the actual address of the next task. One *fused* job per
/// benchmark: both predictors ride a single trace walk
/// (`measure_table3`), with results bit-identical to separate walks.
pub fn table3(benches: &[Bench], pool: &Pool) -> Vec<Table3Row> {
    let jobs: Vec<Job<'_, (f64, f64)>> = benches
        .iter()
        .map(|b| {
            Box::new(move || {
                // CTTB-only: 14-bit index, depth 7 → 2^14 entries * 4 B = 64 KB.
                let mut only = CttbOnlyPredictor::new(Dolc::new(7, 4, 9, 9, 3));
                // Full predictor: 14-bit exit PHT + RAS(64) + 11-bit CTTB.
                let mut full =
                    with_table4_targets(PathPredictor::<Leh2>::new(Dolc::new(7, 4, 9, 9, 3)));
                let (full_stats, only_stats) =
                    measure_table3(&mut full, &mut only, &b.descs, &b.trace.events);
                (only_stats.miss_rate(), full_stats.next_task.miss_rate())
            }) as Job<'_, _>
        })
        .collect();
    let results = pool.run(jobs);
    benches
        .iter()
        .zip(results)
        .map(|(b, (cttb_only, exit_with_ras_cttb))| Table3Row {
            name: b.name(),
            cttb_only,
            exit_with_ras_cttb,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// IPC results for one benchmark (one column of Table 4).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC with the Simple (task-address-indexed, depth 0) predictor.
    pub simple: TimingResult,
    /// IPC with the GLOBAL scheme.
    pub global: TimingResult,
    /// IPC with the PER scheme.
    pub per: TimingResult,
    /// IPC with the PATH scheme.
    pub path: TimingResult,
    /// IPC with perfect inter-task prediction.
    pub perfect: TimingResult,
}

/// Reproduces Table 4: IPC from the timing simulator with Simple / GLOBAL /
/// PER / PATH / Perfect inter-task prediction. All real predictors use a
/// 16 KB PHT, depth 7 (depth 0 for Simple), a CTTB for indirects and a RAS
/// for returns, matching the paper's setup.
///
/// One job per benchmark ([`walk_table4`]): the four real columns' outcome
/// passes over the task trace, then one 5-lane walk of the benchmark's
/// recorded [`InstrReplay`](multiscalar_sim::replay::InstrReplay)
/// ([`Bench::replay`] — served from the artifact cache when warm), which
/// decodes each instruction once for all five columns. `tests/replay.rs`
/// checks these rows cell by cell against the interpreter-fed timing
/// oracle.
pub fn table4(benches: &[Bench], pool: &Pool) -> Vec<Table4Row> {
    let jobs: Vec<Job<'_, [TimingResult; 5]>> = benches
        .iter()
        .map(|b| Box::new(move || walk_table4(b, &mut [NoopSink; 5])) as Job<'_, _>)
        .collect();
    benches
        .iter()
        .zip(pool.run(jobs))
        .map(|(b, [simple, global, per, path, perfect])| Table4Row {
            name: b.name(),
            simple,
            global,
            per,
            path,
            perfect,
        })
        .collect()
}

/// Times `b` under Table 4's five columns ([`Table4Column::ALL`] order) on
/// the paper machine, column `i` reporting to `sinks[i]`: the columns'
/// outcome passes over the task trace, then one 5-lane walk of the
/// recording.
pub fn walk_table4<M: MetricsSink>(b: &Bench, sinks: &mut [M; 5]) -> [TimingResult; 5] {
    let outcomes = Table4Column::ALL.map(|c| c.outcomes(b));
    let lanes = outcomes.each_ref().map(|outcomes| Lane {
        outcomes,
        config: TimingConfig::paper(),
    });
    walk_lanes(&b.replay, &lanes, sinks)
        .try_into()
        .expect("one result per column")
}
