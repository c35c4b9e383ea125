//! Record-once instruction replay for the timing simulator.
//!
//! One interpreter pass per benchmark ([`record_replay`]) captures every
//! timing-relevant fact about the execution — instruction class, compact
//! source/dest register ids, memory word addresses, intra-task branch
//! outcomes, and pre-resolved task-boundary events — into a struct-of-
//! arrays [`InstrReplay`]. The structure is immutable and is shared behind
//! `Arc`, so **every** consumer of a benchmark's execution rides one
//! recording: Table 4's five predictor columns, `profile`, the
//! `ext-memory`/`ext-intra`/`ext-confidence` ablations and `ext-zoo`'s
//! squash fractions (all timing walks), and every functional trace
//! consumer (the recording's boundary section *is* the task trace, which
//! [`derive_trace`] hands out). [`simulate_replay`] drives the timing core
//! from the recording with zero re-interpretation and returns a
//! `TimingResult` bit-identical to [`crate::timing::simulate`]'s, which
//! stays only as the test oracle.
//!
//! Prediction is not part of the walk: [`simulate_replay`] runs the
//! outcome pass ([`crate::measure::measure_outcomes`]) over the boundary
//! section, then [`walk_replay`] reads one miss/gated byte per boundary.
//!
//! # Layout
//!
//! Each instruction packs into one `u32` op word:
//!
//! ```text
//! bits  0..8   src1 register (NO_REG when absent)
//! bits  8..16  src2 register (NO_REG when absent)
//! bits 16..24  dest register (NO_REG when absent)
//! bits 24..26  OpClass
//! bit  26      taken (intra-task branches only)
//! ```
//!
//! Loads/stores consume the next `mem_addrs` entry, intra-task branches the
//! next `branch_pcs` entry, in program order — the replay cursor advances
//! each side array independently, so the common (ALU) case touches only the
//! op word. Task boundaries are sparse: the boundary section is a
//! [`SharedTrace`], one event per dynamic task (retiring task, exit, exit
//! kind, next entry, and the task's instruction count), and the cursor
//! finds each boundary by counting down its task's instructions. Recording
//! resolves every possible failure (execution faults, unmatched exits, the
//! step budget) up front, and loading a cached recording
//! ([`crate::codec::decode_replay`], then [`crate::codec::check_fits`])
//! rejects any artifact whose columns disagree with its op words or its
//! partition, which is why [`simulate_replay`] is infallible.

use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{memory_words, Addr, Program};
use multiscalar_taskform::TaskProgram;

use crate::measure::{measure_outcomes, Outcomes};
use crate::metrics::{MetricsSink, NoopSink};
use crate::timing::{
    simulate_core, BoundaryStep, CoreState, CoreStep, InterpSource, NextTaskPredictor, OpClass,
    StepSource, TimingConfig, TimingResult,
};
use crate::trace::{SharedTrace, TraceError, TraceRun, TraceStats};

pub(crate) const CLASS_SHIFT: u32 = 24;
const TAKEN_BIT: u32 = 1 << 26;

#[inline]
fn pack_op(src1: u8, src2: u8, dest: u8, class: OpClass, taken: bool) -> u32 {
    (src1 as u32)
        | (src2 as u32) << 8
        | (dest as u32) << 16
        | (class as u32) << CLASS_SHIFT
        | ((taken as u32) * TAKEN_BIT)
}

/// A recorded execution: everything the timing model needs to re-run a
/// benchmark without the interpreter. Built by [`record_replay`]; shared
/// immutably (wrap in [`Arc`] via [`InstrReplay::into_shared`]) across the
/// pool jobs that consume it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrReplay {
    /// One packed op word per committed instruction, in program order.
    pub(crate) ops: Vec<u32>,
    /// Word address of each load/store, in program order.
    pub(crate) mem_addrs: Vec<u32>,
    /// Address of each *intra-task* conditional branch, in program order.
    pub(crate) branch_pcs: Vec<u32>,
    /// The boundary section: one event per task boundary, in order, whose
    /// `instrs` counts the retiring task's ops, the crossing one included.
    /// The halting task, which crosses none, gets no event. This is the
    /// benchmark's task trace; [`derive_trace`] shares it.
    pub(crate) bounds: Arc<SharedTrace>,
    /// The program's data-memory size in words
    /// ([`multiscalar_isa::memory_words`]), for the core's store table.
    pub(crate) mem_words: usize,
}

impl InstrReplay {
    /// Committed instructions in the recording.
    pub fn instructions(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Wraps the recording for sharing across pool jobs.
    pub fn into_shared(self) -> Arc<InstrReplay> {
        Arc::new(self)
    }
}

/// Executes the program once and records its [`InstrReplay`].
///
/// The recording drains the interpreter step source that also feeds
/// [`crate::timing::simulate`], packing each step into the columns and
/// each boundary, with its exit kind from the task header, into the
/// boundary section. It therefore fails in exactly the situations the
/// oracle does: execution faults, unmatched boundary crossings, and
/// step-budget exhaustion.
pub fn record_replay(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<InstrReplay, TraceError> {
    let mut source = InterpSource::new(program, tasks, max_steps);

    // Reserve the step budget up front. The budget is a workload-proportional
    // cap, so this over-reserves — but untouched capacity is virtual address
    // space only, while growing a multi-megabyte Vec copies (and faults in)
    // every page it has already recorded, which dominates recording cost.
    let cap = usize::try_from(max_steps).unwrap_or(usize::MAX);
    let mut ops = Vec::with_capacity(cap);
    let mut mem_addrs = Vec::with_capacity(cap);
    let mut branch_pcs = Vec::with_capacity(cap);
    let mut bounds = SharedTrace::with_capacity(cap / 16);

    let mut task_instrs = 0u32;
    loop {
        let step = source.next_step()?;
        match step.class {
            OpClass::Load | OpClass::Store => mem_addrs.push(step.mem_addr),
            OpClass::Branch => branch_pcs.push(step.branch_pc.0),
            OpClass::Other => {}
        }
        task_instrs += 1;
        if let Some(b) = step.boundary {
            bounds.push(tasks, b, task_instrs);
            task_instrs = 0;
        }
        ops.push(pack_op(
            step.src1, step.src2, step.dest, step.class, step.taken,
        ));
        if step.halt {
            // The halting instruction is the recording's last op.
            break;
        }
    }

    // Deliberately no shrink_to_fit: shrinking reallocates and copies the
    // whole recording, and the unused capacity tail is never faulted in.
    Ok(InstrReplay {
        ops,
        mem_addrs,
        branch_pcs,
        bounds: Arc::new(bounds),
        mem_words: memory_words(program),
    })
}

/// The functional [`TraceRun`] of a recording: its boundary section,
/// shared by `Arc::clone` rather than rebuilt, plus the Table 2 and
/// Figure 3–4 statistics computed over it. **One** recorded artifact thus
/// serves both the functional-trace consumers and the timing runs —
/// preparation needs a single interpreter pass cold and zero warm.
///
/// # Panics
///
/// Panics if the recording names a task outside `tasks` (a recording is
/// only meaningful under the partition it was recorded with; the cache
/// guarantees this by keying on both fingerprints, and
/// [`crate::codec::check_fits`] checks every boundary against the
/// partition on load).
pub fn derive_trace(replay: &InstrReplay, tasks: &TaskProgram) -> TraceRun {
    TraceRun {
        events: Arc::clone(&replay.bounds),
        stats: TraceStats::of(&replay.bounds, tasks, replay.instructions()),
    }
}

/// How far ahead (in elements) the cursor pulls upcoming replay columns
/// toward the cache. One op word is 4 bytes, so 64 elements is four cache
/// lines of lookahead — far enough to cover the fused engines' per-step
/// work, near enough not to thrash.
const PREFETCH_AHEAD: usize = 64;

/// Forces the load of the element `PREFETCH_AHEAD` slots ahead, warming the
/// cache line it lives on. A plain read through [`std::hint::black_box`]
/// (not an intrinsic): safe, portable, and free of side effects beyond the
/// memory touch.
#[inline(always)]
fn prefetch<T: Copy>(s: &[T]) {
    if let Some(&v) = s.get(PREFETCH_AHEAD) {
        std::hint::black_box(v);
    }
}

/// A cursor walking an [`InstrReplay`] as a [`StepSource`]. Infallible by
/// construction: recording already resolved every error. Holds shrinking
/// slices rather than indices so the per-op path carries no bounds checks,
/// and prefetches upcoming columns of the recording as it advances.
pub(crate) struct ReplayCursor<'a> {
    /// Remaining op words; the last element is the halting instruction.
    ops: &'a [u32],
    /// Remaining load/store word addresses.
    mem_addrs: &'a [u32],
    /// Remaining intra-task branch addresses.
    branch_pcs: &'a [u32],
    /// The recording's boundary section.
    bounds: &'a SharedTrace,
    /// Index of the next boundary in `bounds`.
    next_bound: usize,
    /// Ops left in the current task, the boundary-crossing one included;
    /// `u64::MAX` in the halting task, which crosses none.
    left: u64,
}

impl<'a> ReplayCursor<'a> {
    pub(crate) fn new(r: &'a InstrReplay) -> ReplayCursor<'a> {
        ReplayCursor {
            ops: &r.ops,
            mem_addrs: &r.mem_addrs,
            branch_pcs: &r.branch_pcs,
            bounds: &r.bounds,
            next_bound: 0,
            left: task_len(&r.bounds, 0),
        }
    }
}

/// Ops of the task retiring at boundary `k`, or `u64::MAX` past the last
/// boundary (the halting task).
fn task_len(bounds: &SharedTrace, k: usize) -> u64 {
    bounds.instrs.get(k).map_or(u64::MAX, |&n| u64::from(n))
}

impl StepSource for ReplayCursor<'_> {
    fn next_step(&mut self) -> Result<CoreStep, TraceError> {
        prefetch(self.ops);
        let (&op, rest) = self.ops.split_first().expect("cursor stops at halt");
        let class = OpClass::from_u8(((op >> CLASS_SHIFT) & 0x3) as u8);

        let mem_addr = if matches!(class, OpClass::Load | OpClass::Store) {
            prefetch(self.mem_addrs);
            let (&a, rest) = self.mem_addrs.split_first().expect("recorded address");
            self.mem_addrs = rest;
            a
        } else {
            0
        };
        let (branch_pc, taken) = if class == OpClass::Branch {
            let (&pc, rest) = self.branch_pcs.split_first().expect("recorded branch");
            self.branch_pcs = rest;
            (Addr(pc), op & TAKEN_BIT != 0)
        } else {
            (Addr(0), false)
        };

        // The halting instruction is always the recording's last op.
        let halt = rest.is_empty();
        // The op that finishes its task's count crosses the boundary.
        // Task sizes are at least 1 and leave the halting task its op
        // (recording guarantees both; decoding checks them), so the count
        // never underflows and the halt is never a boundary.
        self.left -= 1;
        let boundary = if self.left == 0 {
            let k = self.next_bound;
            self.next_bound += 1;
            self.left = task_len(self.bounds, self.next_bound);
            Some(BoundaryStep {
                task: self.bounds.tasks[k].0,
                exit: self.bounds.exits[k],
                next: self.bounds.nexts[k],
            })
        } else {
            None
        };
        self.ops = rest;

        Ok(CoreStep {
            src1: (op & 0xFF) as u8,
            src2: ((op >> 8) & 0xFF) as u8,
            dest: ((op >> 16) & 0xFF) as u8,
            class,
            mem_addr,
            branch_pc,
            taken,
            halt,
            boundary,
        })
    }
}

/// Runs the timing model over a recorded execution — same cycle accounting
/// as [`crate::timing::simulate`], zero re-interpretation, bit-identical
/// [`TimingResult`].
///
/// `predictor` drives inter-task speculation, ungated; `None` simulates
/// perfect next-task prediction (the paper's "Perfect" row). Infallible:
/// the recording already resolved every error `simulate` can hit.
pub fn simulate_replay(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
) -> TimingResult {
    simulate_replay_with_sink(replay, descs, predictor, config, &mut NoopSink)
}

/// [`simulate_replay`] with a live [`MetricsSink`] observing the run: the
/// outcome pass ([`measure_outcomes`]) over the recording's boundary
/// section, then [`walk_replay`]. The replay cursor feeds the same
/// instrumented core as [`crate::timing::simulate_with_sink`], so
/// breakdowns and event logs are engine-independent: both engines report
/// identical sink streams for the same execution.
pub fn simulate_replay_with_sink<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    let outcomes = measure_outcomes(predictor, descs, &replay.bounds, None);
    walk_replay(replay, &outcomes, config, sink)
}

/// Walks a recording through the timing core with its prediction done:
/// one [`Outcomes`] byte per boundary of `replay`, which several walks may
/// share. A gated run is a walk of gated outcomes.
///
/// # Panics
///
/// Panics unless `outcomes` has exactly one outcome per boundary.
pub fn walk_replay<M: MetricsSink>(
    replay: &InstrReplay,
    outcomes: &Outcomes,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    assert_covers(replay, outcomes);
    let mut cursor = ReplayCursor::new(replay);
    simulate_core(&mut cursor, outcomes, config, replay.mem_words, sink)
        .expect("replay cursor never errors")
}

fn assert_covers(replay: &InstrReplay, outcomes: &Outcomes) {
    assert_eq!(
        outcomes.bits().len(),
        replay.bounds.len(),
        "a walk takes exactly one outcome per boundary"
    );
}

/// Steps decoded per batch of the fused walk. Large enough that each
/// slot's hot state (scoreboard, store queue, ARB) stays cache-resident
/// across its inner run; small enough that the shared decoded block and
/// every slot's working set coexist in L1/L2.
const FUSE_BLOCK: usize = 128;

/// Runs several independent timing runs over one recording in a **single**
/// walk: slot `i` walks `outcomes[i]` and reports to `sinks[i]`, each
/// bit-identical to a solo [`walk_replay`] of the same outcomes.
///
/// The walk is **block-batched**: the cursor decodes `FUSE_BLOCK` (128) steps
/// into a reusable buffer, then each slot consumes the whole block before
/// the next slot starts. Slots never observe each other and each still
/// sees the full step stream in order, so batching is invisible to the
/// results — it only converts the inner loop from slot-interleaved (which
/// drags every slot's hot state through the cache at every step) to
/// slot-major bursts.
///
/// # Panics
///
/// If `sinks` and `outcomes` differ in length, or a slot's outcomes do not
/// cover exactly the recording's boundaries.
pub fn simulate_replay_fused_with_sinks<M: MetricsSink>(
    replay: &InstrReplay,
    outcomes: &[Outcomes],
    config: &TimingConfig,
    sinks: &mut [M],
) -> Vec<TimingResult> {
    assert_eq!(outcomes.len(), sinks.len(), "one sink per fused slot");
    let mut states: Vec<CoreState> = outcomes
        .iter()
        .map(|o| {
            assert_covers(replay, o);
            CoreState::new(config, replay.mem_words)
        })
        .collect();
    for (state, sink) in states.iter().zip(sinks.iter_mut()) {
        state.bootstrap(sink);
    }
    let mut cursor = ReplayCursor::new(replay);
    let mut block: Vec<CoreStep> = Vec::with_capacity(FUSE_BLOCK);
    let mut halted = false;
    while !halted {
        block.clear();
        while block.len() < FUSE_BLOCK && !halted {
            let step = cursor.next_step().expect("replay cursor never errors");
            halted = step.halt;
            block.push(step);
        }
        for ((state, slot), sink) in states.iter_mut().zip(outcomes).zip(sinks.iter_mut()) {
            for step in &block {
                state.on_step(step, slot, config, sink);
            }
        }
    }
    states
        .into_iter()
        .zip(sinks.iter_mut())
        .map(|(state, sink)| {
            let result = state.finish();
            sink.finish(&result);
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::task_descs;
    use crate::timing::simulate;
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_core::predictor::TaskPredictor;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    type PathLeh2 = PathPredictor<LastExitHysteresis<2>>;

    /// A loop with ALU work, an internal data-dependent branch, and memory
    /// traffic — exercises every field of the recording.
    fn mixed_program(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), iters);
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
        b.finish(main).unwrap()
    }

    #[test]
    fn recording_matches_interpreter_step_counts() {
        let p = mixed_program(300);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let r = record_replay(&p, &tp, 1_000_000).unwrap();
        let t = simulate(&p, &tp, &descs, None, &TimingConfig::default(), 1_000_000).unwrap();
        assert_eq!(r.instructions(), t.instructions);
        assert_eq!(r.bounds.len() as u64, t.dynamic_tasks);
    }

    #[test]
    fn derived_trace_is_the_recordings_boundary_section() {
        let p = mixed_program(300);
        let tp = TaskFormer::default().form(&p).unwrap();
        let r = record_replay(&p, &tp, 1_000_000).unwrap();
        let run = derive_trace(&r, &tp);
        assert!(Arc::ptr_eq(&run.events, &r.bounds), "shared, not rebuilt");
        assert_eq!(run.stats.dynamic_tasks, r.bounds.len() as u64);
        // Every op but the halting task's belongs to a recorded task.
        let recorded: u64 = r.bounds.iter().map(|e| u64::from(e.instrs)).sum();
        assert!(recorded < r.instructions());
        assert!(r.bounds.iter().all(|e| e.instrs > 0));
    }

    #[test]
    fn replay_is_bit_identical_to_interpreter() {
        let p = mixed_program(500);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();
        let config = TimingConfig::default();

        // Perfect prediction.
        let legacy = simulate(&p, &tp, &descs, None, &config, 1_000_000).unwrap();
        let fast = simulate_replay(&replay, &descs, None, &config);
        assert_eq!(legacy, fast);

        // A real predictor (stateful: fresh instance per engine).
        let mk = || {
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16)
        };
        let legacy = simulate(&p, &tp, &descs, Some(&mut mk()), &config, 1_000_000).unwrap();
        let fast = simulate_replay(&replay, &descs, Some(&mut mk()), &config);
        assert_eq!(legacy, fast);
        assert!(legacy.dynamic_tasks > 0);
    }

    /// A recording of [`mixed_program`] and its task descriptors.
    fn recorded(iters: i32) -> (InstrReplay, Vec<TaskDesc>) {
        let p = mixed_program(iters);
        let tp = TaskFormer::default().form(&p).unwrap();
        (record_replay(&p, &tp, 1_000_000).unwrap(), task_descs(&tp))
    }

    /// The outcomes of a PATH predictor at `depth` over a recording
    /// (`None`: perfect prediction).
    fn outcomes(replay: &InstrReplay, descs: &[TaskDesc], depth: Option<u8>) -> Outcomes {
        let mut p = depth.map(|d| {
            TaskPredictor::<PathLeh2>::path(Dolc::new(d, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16)
        });
        let p = p.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
        measure_outcomes(p, descs, &replay.bounds, None)
    }

    /// Runs every slot of `outcomes` fused, without sinks.
    fn fused(
        replay: &InstrReplay,
        outcomes: &[Outcomes],
        config: &TimingConfig,
    ) -> Vec<TimingResult> {
        let mut sinks = vec![NoopSink; outcomes.len()];
        simulate_replay_fused_with_sinks(replay, outcomes, config, &mut sinks)
    }

    #[test]
    fn fused_columns_match_solo_replay_runs() {
        let (replay, descs) = recorded(500);
        let config = TimingConfig::default();
        let slots = [None, Some(2), Some(4)].map(|d| outcomes(&replay, &descs, d));
        let solo: Vec<_> = slots
            .iter()
            .map(|o| walk_replay(&replay, o, &config, &mut NoopSink))
            .collect();
        assert_eq!(fused(&replay, &slots, &config), solo);
        assert_eq!(solo[0], simulate_replay(&replay, &descs, None, &config));
    }

    #[test]
    fn fused_block_batching_is_invisible_across_program_lengths() {
        // Recording lengths on both sides of (and straddling) FUSE_BLOCK
        // multiples: partial final blocks, single-block runs, halts landing
        // anywhere in a block — all must stay bit-identical to solo runs.
        let config = TimingConfig::default();
        for iters in [1, 3, 17, 64, 200] {
            let (replay, descs) = recorded(iters);
            let slots = [None, Some(4)].map(|d| outcomes(&replay, &descs, d));
            let solo: Vec<_> = slots
                .iter()
                .map(|o| walk_replay(&replay, o, &config, &mut NoopSink))
                .collect();
            assert_eq!(fused(&replay, &slots, &config), solo, "iters {iters}");
        }
    }

    #[test]
    #[should_panic(expected = "a walk takes exactly one outcome per boundary")]
    fn a_walk_rejects_too_many_outcomes() {
        let (replay, _) = recorded(50);
        let (longer, descs) = recorded(51);
        let extra = outcomes(&longer, &descs, None);
        walk_replay(&replay, &extra, &TimingConfig::default(), &mut NoopSink);
    }

    #[test]
    #[should_panic(expected = "a walk takes exactly one outcome per boundary")]
    fn a_fused_walk_rejects_too_few_outcomes() {
        let (replay, descs) = recorded(50);
        let (shorter, short_descs) = recorded(49);
        let slots = [
            outcomes(&replay, &descs, None),
            outcomes(&shorter, &short_descs, None),
        ];
        fused(&replay, &slots, &TimingConfig::default());
    }

    #[test]
    fn replay_matches_across_ablation_configs() {
        use crate::arb::ArbConfig;
        use crate::timing::{ForwardingModel, IntraPredictorKind};

        let p = mixed_program(400);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();
        let mk = || {
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16)
        };

        let configs = [
            TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
            TimingConfig::paper().intra_predictor(IntraPredictorKind::Gshare),
            TimingConfig::paper().arb(None),
            TimingConfig::paper().arb(Some(ArbConfig {
                banks: 1,
                entries_per_bank: 1,
            })),
        ];
        for config in &configs {
            let legacy = simulate(&p, &tp, &descs, None, config, 1_000_000).unwrap();
            let fast = simulate_replay(&replay, &descs, None, config);
            assert_eq!(legacy, fast, "config {config:?}");
            let legacy = simulate(&p, &tp, &descs, Some(&mut mk()), config, 1_000_000).unwrap();
            let fast = simulate_replay(&replay, &descs, Some(&mut mk()), config);
            assert_eq!(legacy, fast, "config {config:?} with PATH");
        }
        // A gated run is a walk of gated outcomes; both feeds walk them
        // alike.
        let config = TimingConfig::paper();
        for gate in [2, 8] {
            let gated = measure_outcomes(Some(&mut mk()), &descs, &replay.bounds, Some(gate));
            let mut feed = InterpSource::new(&p, &tp, 1_000_000);
            let mem_words = memory_words(&p);
            let legacy = simulate_core(&mut feed, &gated, &config, mem_words, &mut NoopSink);
            let fast = walk_replay(&replay, &gated, &config, &mut NoopSink);
            assert_eq!(legacy.unwrap(), fast, "gate {gate}");
            assert!(fast.gated_boundaries > 0, "the gate withholds speculation");
        }
    }
}
