//! Replay-vs-interpreter equivalence: `simulate_replay()` must return a
//! bit-identical `TimingResult` to `simulate()` for every Table 4 predictor
//! column on every in-tree workload, and across every timing-model config
//! the ablations (`ext-memory`, `ext-intra`, `ext-confidence`) run — the
//! contract that lets one recording stand in for every interpreter pass.

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
            stages: 4,
        })),
        // `ext-memory`'s undersized ARB.
        TimingConfig::paper().arb(Some(ArbConfig {
            banks: 1,
            entries_per_bank: 1,
            stages: 4,
        })),
        TimingConfig::paper()
            .n_units(8)
            .issue_width(4)
            .confidence_gate(Some(2)),
        // `ext-confidence`'s gate on the paper's 4-unit ring.
        TimingConfig::paper().confidence_gate(Some(8)),
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

/// `experiments::table4` — replay-fed, one pool job per column — equals
/// the interpreter-fed oracle cell by cell, so the rendered table is the
/// one the interpreter would give.
#[test]
fn table4_replay_rows_match_legacy_rows() {
    use multiscalar_harness::experiments::table4;
    use multiscalar_harness::pool::Pool;

    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let config = TimingConfig::paper();
    let rows = table4(&benches, &config, &pool);
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
