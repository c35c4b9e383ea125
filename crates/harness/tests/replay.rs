//! Replay-vs-interpreter equivalence: `simulate_replay()` must return a
//! bit-identical `TimingResult` to `simulate()` for every Table 4 predictor
//! column on every in-tree workload, and across every timing-model config
//! the ablations (`ext-memory`, `ext-intra`) run — the contract that lets
//! one recording stand in for every interpreter pass. Gated walks
//! (`ext-confidence`) count exactly the bits of their outcome pass.

use multiscalar_harness::dispatch::Table4Column;
use multiscalar_harness::prepare;
use multiscalar_sim::replay::{record_replay, simulate_replay};
use multiscalar_sim::timing::{
    simulate, ForwardingModel, IntraPredictorKind, NextTaskPredictor, TimingConfig, TimingResult,
};
use multiscalar_workloads::{Spec92, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams {
        seed: 0xC0FFEE,
        scale: 1,
    }
}

fn legacy(
    b: &multiscalar_harness::Bench,
    column: Table4Column,
    config: &TimingConfig,
) -> TimingResult {
    let mut pred = column.predictor();
    simulate(
        &b.workload.program,
        &b.tasks,
        &b.descs,
        pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
        config,
        b.workload.max_steps,
    )
    .expect("legacy simulation succeeds")
}

fn replayed(
    replay: &multiscalar_sim::replay::InstrReplay,
    b: &multiscalar_harness::Bench,
    column: Table4Column,
    config: &TimingConfig,
) -> TimingResult {
    let mut pred = column.predictor();
    simulate_replay(
        replay,
        &b.descs,
        pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
        config,
    )
}

#[test]
fn replay_matches_interpreter_for_all_columns_on_all_workloads() {
    let config = TimingConfig::default();
    for spec in Spec92::ALL {
        let b = prepare(spec, &params());
        let replay = record_replay(&b.workload.program, &b.tasks, b.workload.max_steps)
            .expect("recording succeeds");
        for column in Table4Column::ALL {
            let slow = legacy(&b, column, &config);
            let fast = replayed(&replay, &b, column, &config);
            assert_eq!(
                slow,
                fast,
                "{spec}/{}: replay must be bit-identical",
                column.name()
            );
        }
    }
}

#[test]
fn replay_matches_interpreter_across_ablation_configs() {
    use multiscalar_sim::arb::ArbConfig;

    let b = prepare(Spec92::Compress, &params());
    let replay = record_replay(&b.workload.program, &b.tasks, b.workload.max_steps)
        .expect("recording succeeds");

    let configs = [
        TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
        TimingConfig::paper().intra_predictor(IntraPredictorKind::Gshare),
        TimingConfig::paper().intra_predictor(IntraPredictorKind::McFarling),
        TimingConfig::paper().arb(None),
        TimingConfig::paper().arb(Some(ArbConfig {
            banks: 1,
            entries_per_bank: 4,
        })),
        // `ext-memory`'s undersized ARB.
        TimingConfig::paper().arb(Some(ArbConfig {
            banks: 1,
            entries_per_bank: 1,
        })),
    ];
    for config in &configs {
        for column in [Table4Column::Path, Table4Column::Perfect] {
            let slow = legacy(&b, column, config);
            let fast = replayed(&replay, &b, column, config);
            assert_eq!(
                slow,
                fast,
                "{:?}/{}: replay must be bit-identical",
                config,
                column.name()
            );
        }
    }
}

/// `experiments::table4` — replay-fed, one lanes walk per benchmark —
/// equals the interpreter-fed oracle cell by cell, so the rendered table
/// is the one the interpreter would give.
#[test]
fn table4_replay_rows_match_legacy_rows() {
    use multiscalar_harness::experiments::table4;
    use multiscalar_harness::pool::Pool;

    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let config = TimingConfig::paper();
    let rows = table4(&benches, &pool);
    assert_eq!(rows.len(), benches.len());
    for (row, b) in rows.iter().zip(&benches) {
        assert_eq!(row.name, b.name());
        let cells = [
            (Table4Column::Simple, &row.simple),
            (Table4Column::Global, &row.global),
            (Table4Column::Per, &row.per),
            (Table4Column::Path, &row.path),
            (Table4Column::Perfect, &row.perfect),
        ];
        for (column, cell) in cells {
            assert_eq!(
                *cell,
                legacy(b, column, &config),
                "{}/{}: table4 must match the interpreter",
                b.name(),
                column.name()
            );
        }
    }
}

/// The ablation experiments — each one lanes walk per benchmark — equal
/// the interpreter-fed oracle field by field: `ext_memory`'s four machines
/// and `ext_intra`'s three under perfect prediction, and `ext_confidence`'s
/// ungated PATH run. This pins each experiment's lane-to-field mapping.
#[test]
fn ablation_rows_match_the_interpreter() {
    use multiscalar_harness::extensions::{ext_confidence, ext_intra, ext_memory};
    use multiscalar_sim::arb::ArbConfig;

    let benches = vec![prepare(Spec92::Compress, &params())];
    let b = &benches[0];
    let perfect = |config: TimingConfig| legacy(b, Table4Column::Perfect, &config);
    let paper = TimingConfig::paper();

    let [memory] = &ext_memory(&benches)[..] else {
        panic!("one row per benchmark")
    };
    let eager = perfect(paper);
    let release = perfect(paper.forwarding(ForwardingModel::ReleaseAtEnd));
    let ideal_mem = perfect(paper.arb(None));
    let tiny = perfect(paper.arb(Some(ArbConfig {
        banks: 1,
        entries_per_bank: 1,
    })));
    assert_eq!(memory.name, b.name());
    assert_eq!(memory.eager_ipc, eager.ipc());
    assert_eq!(memory.release_ipc, release.ipc());
    assert_eq!(memory.ideal_mem_ipc, ideal_mem.ipc());
    assert_eq!(memory.tiny_arb_ipc, tiny.ipc());
    assert_eq!(memory.violations, eager.arb_violations);
    assert_eq!(memory.full_stalls, eager.arb_full_stalls);
    assert_eq!(memory.tiny_full_stalls, tiny.arb_full_stalls);
    assert!(tiny.arb_full_stalls > 0, "the 1x1 ARB overflows");

    let [intra] = &ext_intra(&benches)[..] else {
        panic!("one row per benchmark")
    };
    let runs = [
        IntraPredictorKind::Bimodal,
        IntraPredictorKind::Gshare,
        IntraPredictorKind::McFarling,
    ]
    .map(|kind| perfect(paper.intra_predictor(kind)));
    assert_eq!(intra.name, b.name());
    assert_eq!(intra.ipc, runs.map(|r| r.ipc()));
    assert_eq!(intra.mispredicts, runs.map(|r| r.intra_mispredicts));

    let [confidence] = &ext_confidence(&benches)[..] else {
        panic!("one row per benchmark")
    };
    let always = legacy(b, Table4Column::Path, &paper);
    assert_eq!(confidence.name, b.name());
    assert_eq!(confidence.always_ipc, always.ipc());
    assert_eq!(confidence.miss_rate, always.task_miss_rate());
}

/// The outcome contract: for every Table 4 column, gated or not, the walk
/// counts exactly the miss and gated bits the outcome pass produced, and
/// Perfect produces neither. Ungated, the walk is the oracle's run; gated
/// (`ext-confidence`'s threshold), it misses exactly as often.
#[test]
fn walks_count_exactly_the_outcome_bits() {
    use multiscalar_sim::measure::{measure_outcomes, Outcomes};
    use multiscalar_sim::metrics::NoopSink;
    use multiscalar_sim::replay::walk_replay;

    let b = prepare(Spec92::Compress, &params());
    let config = TimingConfig::paper();
    for column in Table4Column::ALL {
        let oracle = legacy(&b, column, &config);
        for gate in [None, Some(8)] {
            let mut pred = column.predictor();
            let pred = pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
            let outcomes = measure_outcomes(pred, &b.descs, &b.trace.events, gate);
            let r = walk_replay(&b.replay, &outcomes, &config, &mut NoopSink);
            let label = format!("{}/{gate:?}", column.name());
            let count = |bit: u8| outcomes.bits().iter().filter(|&&o| o & bit != 0).count();
            assert_eq!(outcomes.bits().len() as u64, r.dynamic_tasks, "{label}");
            assert_eq!(count(Outcomes::MISS) as u64, r.task_mispredicts, "{label}");
            assert_eq!(count(Outcomes::GATED) as u64, r.gated_boundaries, "{label}");
            assert_eq!(r.task_mispredicts, oracle.task_mispredicts, "{label}");
            if gate.is_none() {
                assert_eq!(r, oracle, "{label}");
            }
            if column == Table4Column::Perfect {
                assert_eq!((r.task_mispredicts, r.gated_boundaries), (0, 0));
            } else {
                assert!(r.task_mispredicts > 0, "{label}: real predictors miss");
                assert_eq!(r.gated_boundaries > 0, gate.is_some(), "{label}");
            }
        }
    }
}
