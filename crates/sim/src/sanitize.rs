//! Runtime sanitizer for the timing simulator. The lockstep checkers here
//! compile unconditionally (the differential fuzzer drives them in every
//! build); `--features sanitize` additionally arms the assertions *inside*
//! the model described below.
//!
//! The timing model has two step feeds — the live interpreter feed (the
//! oracle, [`crate::timing::simulate`]) and the recorded replay
//! ([`crate::replay::simulate_replay`], production) — that are
//! bit-identical *by construction*: the recording keeps the interpreter
//! feed's control flow and memory addresses, the cursor regenerates every
//! other field from the program's code table, and neither walk predicts —
//! both read the per-boundary miss/gated bits of one trace pass
//! ([`crate::measure::measure_outcomes`]). This module turns that
//! construction argument into a checked invariant:
//! [`check_replay_agreement`] records an execution, then steps a fresh
//! interpreter feed and the replay cursor over the recording in lockstep
//! and asserts that every step they produce is equal — same pc,
//! instruction class and register operands, same memory address, same
//! intra-task branch outcome, and, crucially, the **same task-boundary
//! events** (retiring task, header exit, next-task entry). That covers the
//! recorder, the code table and the cursor's regeneration of the path.
//!
//! [`check_fused_agreement`] closes the remaining gap: it runs one
//! lockstep lanes walk ([`crate::replay::walk_lanes`]) of a recording, one
//! lane per slot, each slot with its own outcome pass
//! ([`crate::measure::measure_outcomes`]) and its own machine, and solo
//! runs of the scalar core fed by the interpreter (`timing::simulate_core`)
//! in one process, and asserts bit-identical
//! [`crate::timing::TimingResult`]s *and* cycle attributions per slot. The
//! lanes and the scalar core are two independent implementations of the
//! cycle arithmetic, and the scalar core never reads the recording, so
//! each comparison checks the lanes core and the cursor's regenerated
//! steps against the interpreter's execution.
//!
//! Enabling the feature also arms assertions inside the model itself: the
//! boundary-retirement code of both cores asserts the commit clock and
//! every ring unit's free time only move forward. They compile away when
//! the feature is off.

use crate::codec::CodecError;
use crate::measure::{measure_outcomes, Outcomes};
use crate::metrics::CycleBreakdown;
use crate::replay::{record_replay, walk_lanes, Lane, ReplayCursor};
use crate::timing::{simulate_core, InterpSource, NextTaskPredictor, TimingConfig, TimingResult};
use crate::trace::TraceError;
use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{memory_words, Program};
use multiscalar_taskform::TaskProgram;

/// Records `program`'s execution, then re-executes it while stepping the
/// replay cursor over the recording in lockstep, chunk by chunk as a walk
/// reads it, asserting the two step feeds are equal step for step — in
/// particular at every task boundary and chunk edge — and that the
/// cursor's steps break none of the rules a walk checks.
/// Returns the number of steps checked (= committed instructions).
///
/// # Errors
///
/// Propagates the interpreter feed's failure modes: execution faults,
/// unmatched boundary crossings, intra-task transfers without a static
/// successor, and step-budget exhaustion.
///
/// # Panics
///
/// Panics on the first step where the feeds disagree — that is the
/// sanitizer finding a bug in the recording or the cursor.
pub fn check_replay_agreement(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<u64, TraceError> {
    let replay = record_replay(program, tasks, max_steps)?;
    fn broken<T>(e: CodecError) -> T {
        panic!("sanitize: the recording breaks a rule of its path: {e}")
    }
    let mut chunks = replay.chunks().unwrap_or_else(broken);
    let mut cursor = ReplayCursor::new(&replay);
    let mut interp = InterpSource::new(program, tasks, max_steps);
    let mut steps = 0u64;
    // The replay's last op is the halt, so equal steps end both feeds
    // together.
    while let Some(mut chunk) = chunks.next_chunk().unwrap_or_else(broken) {
        while let Some(b) = cursor.step(&mut chunk) {
            let a = interp.next_step()?;
            assert!(
                a == b,
                "sanitize: step {steps} diverges\n  interpreter: {a:?}\n  replay:      {b:?}"
            );
            steps += 1;
        }
        cursor.check(&chunk).unwrap_or_else(broken);
    }
    assert_eq!(
        steps,
        replay.instructions(),
        "sanitize: replay length disagrees with the interpreter"
    );
    Ok(steps)
}

/// One slot of [`check_fused_agreement`]: its next-task predictor (`None`
/// = perfect prediction) and the machine it times.
pub type FusedSlot = (Option<Box<dyn NextTaskPredictor>>, TimingConfig);

/// Cross-checks the lockstep lanes walk against the scalar core **in one
/// process**: records `program` once, runs each slot's predictor once,
/// ungated, through [`measure_outcomes`], walks every slot as one lane of
/// a single [`walk_lanes`] of the recording and each slot solo through the
/// scalar core fed by the interpreter, and asserts per slot that the
/// [`TimingResult`]s are bit-identical *and* that the [`CycleBreakdown`]s
/// agree cause by cause (each breakdown also self-asserts that it sums to
/// the run's cycle count). Returns the per-slot results.
///
/// # Errors
///
/// Propagates the interpreter's failures (execution faults, step-budget
/// exhaustion), in recording or in a solo run.
///
/// # Panics
///
/// Panics on the first slot where the lane and the scalar core disagree —
/// that is the sanitizer finding a bug in one of the two cores — and on
/// more than five slots, the most one walk carries.
pub fn check_fused_agreement(
    program: &Program,
    tasks: &TaskProgram,
    descs: &[TaskDesc],
    max_steps: u64,
    slots: Vec<FusedSlot>,
) -> Result<Vec<TimingResult>, TraceError> {
    let replay = record_replay(program, tasks, max_steps)?;
    let runs: Vec<(Outcomes, TimingConfig)> = slots
        .into_iter()
        .map(|(mut pred, config)| {
            let pred = pred.as_deref_mut().map(|p| p as &mut dyn NextTaskPredictor);
            (measure_outcomes(pred, descs, &replay.bounds, None), config)
        })
        .collect();

    let mem_words = memory_words(program);
    let solo = runs
        .iter()
        .map(|(outcomes, config)| {
            let mut feed = InterpSource::new(program, tasks, max_steps);
            let mut breakdown = CycleBreakdown::new();
            let result = simulate_core(&mut feed, outcomes, config, mem_words, &mut breakdown)?;
            Ok((result, breakdown))
        })
        .collect::<Result<Vec<_>, TraceError>>()?;

    let lanes: Vec<Lane> = runs
        .iter()
        .map(|(outcomes, config)| Lane {
            outcomes,
            config: *config,
        })
        .collect();
    let mut lane_breakdowns = vec![CycleBreakdown::new(); lanes.len()];
    let walked = walk_lanes(&replay, &lanes, &mut lane_breakdowns);

    for (i, ((solo_result, solo_breakdown), (lane_result, lane_breakdown))) in solo
        .iter()
        .zip(walked.iter().zip(&lane_breakdowns))
        .enumerate()
    {
        assert_eq!(
            solo_result, lane_result,
            "sanitize: lane {i} result diverges from the scalar core"
        );
        assert_eq!(
            solo_breakdown, lane_breakdown,
            "sanitize: lane {i} cycle breakdown diverges from the scalar core"
        );
    }
    Ok(walked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arb::ArbConfig;
    use crate::measure::task_descs;
    use multiscalar_core::automata::{Automaton, LastExit, LastExitHysteresis, VotingCounters};
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_core::predictor::TaskPredictor;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;
    use multiscalar_workloads::{Spec92, WorkloadParams};

    #[test]
    fn lockstep_feeds_agree_on_a_mixed_program() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 300);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 7);
        b.store(Reg(1), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        let skip = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), skip);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(skip);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tasks = TaskFormer::default().form(&p).unwrap();
        let steps = check_replay_agreement(&p, &tasks, 1_000_000).unwrap();
        assert!(steps > 300, "the loop body runs 300 times: {steps}");
    }

    /// Lanes/scalar agreement for each of Figure 6's seven automata on a
    /// real paper workload — the lanes walk must stay bit-identical
    /// (results *and* cycle breakdowns) no matter which automaton drives
    /// the inter-task predictor. Each family's PATH predictor times the
    /// paper machine and a 1x1-ARB machine, whose ARB fills on the second
    /// distinct word a task touches, so every memory address counts.
    #[test]
    fn fused_agreement_holds_for_every_automaton_family() {
        fn check_family<A: Automaton + 'static>() {
            let w = Spec92::Compress.build(&WorkloadParams::small(7));
            let tasks = TaskFormer::default().form(&w.program).unwrap();
            let descs = task_descs(&tasks);
            let path = || -> Option<Box<dyn NextTaskPredictor>> {
                Some(Box::new(TaskPredictor::<PathPredictor<A>>::path(
                    Dolc::new(4, 4, 6, 6, 2),
                    Dolc::new(4, 3, 4, 4, 2),
                    16,
                )))
            };
            let config = TimingConfig::default();
            let tiny = ArbConfig {
                banks: 1,
                entries_per_bank: 1,
            };
            let results = check_fused_agreement(
                &w.program,
                &tasks,
                &descs,
                w.max_steps,
                vec![(path(), config), (path(), config.arb(Some(tiny)))],
            )
            .unwrap();
            assert_eq!(results.len(), 2, "{}", A::NAME);
            assert!(results[0].dynamic_tasks > 0, "{}", A::NAME);
            assert!(results[1].arb_full_stalls > 0, "{}", A::NAME);
        }
        check_family::<LastExit>();
        check_family::<LastExitHysteresis<1>>();
        check_family::<LastExitHysteresis<2>>();
        check_family::<VotingCounters<2, true>>();
        check_family::<VotingCounters<2, false>>();
        check_family::<VotingCounters<3, true>>();
        check_family::<VotingCounters<3, false>>();
    }
}
