//! Runtime sanitizer for the timing simulator. The lockstep checkers here
//! compile unconditionally (the differential fuzzer drives them in every
//! build); `--features sanitize` additionally arms the assertions *inside*
//! the model listed below.
//!
//! The timing model has two step feeds — the live interpreter feed (the
//! oracle, [`crate::timing::simulate`]) and the recorded replay
//! ([`crate::replay::simulate_replay`], production) — that are
//! bit-identical *by construction*: the recording is the interpreter feed,
//! packed into columns. This module turns that construction argument into
//! a checked invariant: [`check_replay_agreement`] records an execution,
//! then walks a fresh interpreter feed and the replay cursor in lockstep
//! and asserts that every step they produce agrees — same instruction
//! class, same register operands, same memory address, same intra-task
//! branch outcome, and, crucially, the **same task-boundary events**
//! (retiring task, header exit, next-task entry). That covers the packing,
//! the side columns and the cursor's unpacking.
//!
//! [`check_fused_agreement`] closes the remaining gap: it runs the fused
//! multi-column sweep ([`crate::replay::simulate_replay_fused`]) and the
//! equivalent solo runs in one process and asserts bit-identical
//! [`crate::timing::TimingResult`]s *and* cycle attributions per column.
//!
//! Enabling the feature also arms assertions inside the model itself:
//!
//! * [`crate::arb::Arb::commit_head`] asserts commit order is strictly
//!   FIFO across the whole run;
//! * the boundary-retirement code in `timing.rs` asserts the commit clock
//!   and every ring unit's free time only move forward.
//!
//! Those in-model assertions compile away when the feature is off.

use crate::metrics::CycleBreakdown;
use crate::replay::{
    record_replay, simulate_replay_fused_with_sinks, simulate_replay_with_sink, ReplayCursor,
};
use crate::timing::{
    CoreStep, InterpSource, NextTaskPredictor, OpClass, StepSource, TimingConfig, TimingResult,
};
use crate::trace::TraceError;
use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::Program;
use multiscalar_taskform::TaskProgram;

/// `true` when two steps agree on every field that is *valid* for their
/// instruction class.
///
/// The feeds differ harmlessly on don't-care fields: the interpreter puts
/// the instruction's own pc in `branch_pc` for every step while the replay
/// stores branch pcs only for intra-task branches, so `branch_pc`/`taken`
/// are compared only for [`OpClass::Branch`] and `mem_addr` only for memory
/// operations.
fn steps_agree(a: &CoreStep, b: &CoreStep) -> bool {
    if (a.src1, a.src2, a.dest, a.class, a.halt) != (b.src1, b.src2, b.dest, b.class, b.halt) {
        return false;
    }
    if a.boundary != b.boundary {
        return false;
    }
    match a.class {
        OpClass::Load | OpClass::Store => a.mem_addr == b.mem_addr,
        OpClass::Branch => a.branch_pc == b.branch_pc && a.taken == b.taken,
        OpClass::Other => true,
    }
}

/// Records `program`'s execution, then re-executes it while walking the
/// recording in lockstep, asserting the two step feeds agree everywhere —
/// in particular at every task boundary. Returns the number of steps
/// checked (= committed instructions).
///
/// # Errors
///
/// Propagates the interpreter feed's failure modes: execution faults,
/// unmatched boundary crossings, step-budget exhaustion.
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
    let mut interp = InterpSource::new(program, tasks, max_steps);
    let mut cursor = ReplayCursor::new(&replay);
    let mut steps = 0u64;
    loop {
        let a = interp.next_step()?;
        let b = cursor.next_step().expect("replay cursor never errors");
        assert!(
            steps_agree(&a, &b),
            "sanitize: step {steps} diverges\n  interpreter: {a:?}\n  replay:      {b:?}"
        );
        steps += 1;
        if a.halt {
            break;
        }
    }
    assert_eq!(
        steps,
        replay.instructions(),
        "sanitize: replay length disagrees with the interpreter"
    );
    Ok(steps)
}

/// Cross-checks the fused sweep engine against solo runs **in one
/// process**: records `program` once, runs each predictor slot solo and
/// all slots fused over the same recording, and asserts per slot that the
/// [`TimingResult`]s are bit-identical *and* that the [`CycleBreakdown`]s
/// agree cause by cause (each breakdown also self-asserts that it sums to
/// the run's cycle count). Returns the per-slot results.
///
/// `make_predictor` is called twice per slot — once for the solo pass,
/// once for the fused pass — and must return an identically fresh
/// predictor both times (`None` = perfect prediction).
///
/// # Errors
///
/// Propagates recording failures (execution faults, step-budget
/// exhaustion).
///
/// # Panics
///
/// Panics on the first slot where fused and solo disagree — that is the
/// sanitizer finding a bug in the fused lockstep walk.
pub fn check_fused_agreement<F>(
    program: &Program,
    tasks: &TaskProgram,
    descs: &[TaskDesc],
    config: &TimingConfig,
    max_steps: u64,
    n_slots: usize,
    mut make_predictor: F,
) -> Result<Vec<TimingResult>, TraceError>
where
    F: FnMut(usize) -> Option<Box<dyn NextTaskPredictor>>,
{
    let replay = record_replay(program, tasks, max_steps)?;

    let mut solo = Vec::with_capacity(n_slots);
    for i in 0..n_slots {
        let mut pred = make_predictor(i);
        let mut breakdown = CycleBreakdown::new();
        let result = simulate_replay_with_sink(
            &replay,
            descs,
            pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
            config,
            &mut breakdown,
        );
        solo.push((result, breakdown));
    }

    let mut predictors: Vec<_> = (0..n_slots).map(&mut make_predictor).collect();
    let mut fused_breakdowns = vec![CycleBreakdown::new(); n_slots];
    let fused = simulate_replay_fused_with_sinks(
        &replay,
        descs,
        &mut predictors,
        config,
        &mut fused_breakdowns,
    );

    for (i, ((solo_result, solo_breakdown), (fused_result, fused_breakdown))) in solo
        .iter()
        .zip(fused.iter().zip(&fused_breakdowns))
        .enumerate()
    {
        assert_eq!(
            solo_result, fused_result,
            "sanitize: fused slot {i} result diverges from its solo run"
        );
        assert_eq!(
            solo_breakdown, fused_breakdown,
            "sanitize: fused slot {i} cycle breakdown diverges from its solo run"
        );
    }
    Ok(fused)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Fused/solo agreement for every lane-packed automaton family on a
    /// real paper workload — the block-batched fused walk must stay
    /// bit-identical (results *and* cycle breakdowns) no matter which
    /// family drives the inter-task predictor.
    #[test]
    fn fused_agreement_holds_for_every_lane_packed_family() {
        fn check_family<A: Automaton + 'static>() {
            let w = Spec92::Compress.build(&WorkloadParams::small(7));
            let tasks = TaskFormer::default().form(&w.program).unwrap();
            let descs = task_descs(&tasks);
            let results = check_fused_agreement(
                &w.program,
                &tasks,
                &descs,
                &TimingConfig::default(),
                w.max_steps,
                2,
                |slot| {
                    (slot > 0).then(|| {
                        Box::new(TaskPredictor::<PathPredictor<A>>::path(
                            Dolc::new(4, 4, 6, 6, 2),
                            Dolc::new(4, 3, 4, 4, 2),
                            16,
                        )) as Box<dyn NextTaskPredictor>
                    })
                },
            )
            .unwrap();
            assert_eq!(results.len(), 2, "{}", A::NAME);
            assert!(results[0].dynamic_tasks > 0, "{}", A::NAME);
        }
        check_family::<LastExit>();
        check_family::<LastExitHysteresis<1>>();
        check_family::<LastExitHysteresis<2>>();
        check_family::<VotingCounters<2, true>>();
        check_family::<VotingCounters<3, true>>();
    }
}
