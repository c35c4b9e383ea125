//! Integration tests for the `sanitize` runtime sanitizer
//! (`cargo test --features sanitize -p multiscalar-sim`).

#![cfg(feature = "sanitize")]

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::TaskPredictor;
use multiscalar_sim::sanitize::{check_fused_agreement, check_replay_agreement};
use multiscalar_sim::timing::{simulate, NextTaskPredictor, TimingConfig};
use multiscalar_sim::{record_replay, simulate_replay, task_descs};
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// The two step feeds agree in lockstep on every built-in workload — the
/// strongest form of the "replay is bit-identical" claim, checked step by
/// step rather than only on the final result.
#[test]
fn replay_agrees_with_interpreter_on_all_workloads() {
    for &spec in Spec92::ALL.iter() {
        let w = spec.build(&WorkloadParams::small(3));
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let steps = check_replay_agreement(&w.program, &tasks, w.max_steps)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(steps > 0, "{spec}: empty execution");
    }
}

/// A full sanitized timing run: every armed assertion (monotone commit and
/// ring-unit clocks) must hold over a real workload, and the replay engine
/// must still match the interpreter bit for bit.
#[test]
fn sanitized_timing_run_holds_all_invariants() {
    let w = Spec92::Compress.build(&WorkloadParams::small(5));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let descs = task_descs(&tasks);
    let config = TimingConfig::default();
    let legacy = simulate(&w.program, &tasks, &descs, None, &config, w.max_steps).unwrap();
    let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let fast = simulate_replay(&replay, &descs, None, &config);
    assert_eq!(legacy, fast);
    assert!(legacy.instructions > 0);
}

/// The fused sweep engine agrees with solo runs in one process: same
/// recording, each predictor slot run solo and fused, results and cycle
/// breakdowns bit-identical per slot (the breakdown sink additionally
/// asserts its attribution sums to the run's cycle count).
#[test]
fn fused_sweep_agrees_with_solo_runs_and_breakdowns() {
    let w = Spec92::Compress.build(&WorkloadParams::small(7));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let descs = task_descs(&tasks);
    let config = TimingConfig::paper();
    let make = |slot: usize| -> Option<Box<dyn NextTaskPredictor>> {
        match slot {
            // Slot 0 is perfect prediction; the rest are identical real
            // PATH predictors (so their results must also match each other).
            0 => None,
            _ => Some(Box::new(TaskPredictor::<
                PathPredictor<LastExitHysteresis<2>>,
            >::path(
                Dolc::new(4, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            ))),
        }
    };
    let slots = (0..3).map(make).collect();
    let results =
        check_fused_agreement(&w.program, &tasks, &descs, &config, w.max_steps, slots).unwrap();
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|r| r.instructions > 0));
    assert_eq!(results[1], results[2], "identical slots must agree");
    assert!(
        results[0].cycles <= results[1].cycles,
        "perfect prediction can never be slower than a real predictor"
    );
}
