//! Record-once instruction replay for the timing simulator.
//!
//! One interpreter pass per benchmark ([`record_replay`]) captures every
//! timing-relevant fact about the execution — instruction class, compact
//! source/dest register ids, memory word addresses, intra-task branch
//! outcomes, and pre-resolved task-boundary events — into a struct-of-
//! arrays [`InstrReplay`]. The structure is immutable and is shared behind
//! `Arc` exactly like `SharedTrace`, so **every** consumer of a benchmark's
//! execution rides one recording: Table 4's five predictor columns,
//! `profile`, the `ext-memory`/`ext-intra`/`ext-confidence` ablations and
//! `ext-zoo`'s squash fractions (all timing walks), and every functional
//! trace consumer (the trace derives from the same artifact via
//! [`derive_trace`]). [`simulate_replay`] drives the timing core from the
//! recording with zero re-interpretation and returns a `TimingResult`
//! bit-identical to [`crate::timing::simulate`]'s, which stays only as the
//! test oracle.
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
//! op word. Task boundaries are sparse: parallel `bound_*` arrays keyed by
//! the op index that crossed them. Recording resolves every possible
//! failure (execution faults, unmatched exits, the step budget) up front,
//! and decoding a cached recording ([`crate::codec::decode_replay`])
//! rejects any artifact whose columns disagree with its op words, which
//! is why [`simulate_replay`] is infallible.

use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{memory_words, Addr, ExitIndex, Program};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::metrics::{MetricsSink, NoopSink};
use crate::timing::{
    simulate_core, BoundaryStep, CoreState, CoreStep, InterpSource, NextTaskPredictor, OpClass,
    StepSource, TimingConfig, TimingResult,
};
use crate::trace::{TraceBuilder, TraceError, TraceRun};

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
    /// Op index whose instruction crossed a task boundary (ascending).
    pub(crate) bound_at: Vec<u64>,
    /// Static id of the task retiring at each boundary.
    pub(crate) bound_task: Vec<u32>,
    /// Header exit taken at each boundary.
    pub(crate) bound_exit: Vec<u8>,
    /// Entry address of the task entered at each boundary.
    pub(crate) bound_next: Vec<u32>,
    /// The program's data-memory size in words
    /// ([`multiscalar_isa::memory_words`]), for the core's store table.
    pub(crate) mem_words: usize,
}

impl InstrReplay {
    /// Committed instructions in the recording.
    pub fn instructions(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Dynamic task boundaries in the recording.
    pub fn boundaries(&self) -> u64 {
        self.bound_at.len() as u64
    }

    /// Heap footprint of the recording in bytes.
    pub fn heap_bytes(&self) -> usize {
        4 * self.ops.len()
            + 4 * self.mem_addrs.len()
            + 4 * self.branch_pcs.len()
            + 17 * self.bound_at.len()
    }

    /// Wraps the recording for sharing across pool jobs.
    pub fn into_shared(self) -> Arc<InstrReplay> {
        Arc::new(self)
    }
}

/// Executes the program once and records its [`InstrReplay`].
///
/// The recording drains the interpreter step source that also feeds
/// [`crate::timing::simulate`] and [`crate::trace::collect_trace`], packing
/// each step into the columns. It therefore fails in exactly the
/// situations those do: execution faults, unmatched boundary crossings,
/// and step-budget exhaustion.
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
    let mut r = InstrReplay {
        ops: Vec::with_capacity(cap),
        mem_addrs: Vec::with_capacity(cap),
        branch_pcs: Vec::with_capacity(cap),
        bound_at: Vec::with_capacity(cap / 16),
        bound_task: Vec::with_capacity(cap / 16),
        bound_exit: Vec::with_capacity(cap / 16),
        bound_next: Vec::with_capacity(cap / 16),
        mem_words: memory_words(program),
    };

    loop {
        let step = source.next_step()?;
        match step.class {
            OpClass::Load | OpClass::Store => r.mem_addrs.push(step.mem_addr),
            OpClass::Branch => r.branch_pcs.push(step.branch_pc.0),
            OpClass::Other => {}
        }
        if let Some(b) = step.boundary {
            r.bound_at.push(r.ops.len() as u64);
            r.bound_task.push(b.task);
            r.bound_exit.push(b.exit.as_u8());
            r.bound_next.push(b.next.0);
        }
        r.ops.push(pack_op(
            step.src1, step.src2, step.dest, step.class, step.taken,
        ));
        if step.halt {
            // The halting instruction is the recording's last op.
            break;
        }
    }

    // Deliberately no shrink_to_fit: shrinking reallocates and copies the
    // whole recording, and the unused capacity tail is never faulted in.
    Ok(r)
}

/// Reconstructs the functional [`TraceRun`] from a recording.
///
/// The replay's sparse boundary arrays carry exactly what
/// [`crate::trace::collect_trace`] emits — retiring task, exit index, next
/// entry address — and the per-task instruction counts fall out of the
/// `bound_at` deltas (each `bound_at[i]` is the op index of the crossing
/// instruction, which belongs to the retiring task). The stats accumulate
/// through the same per-event step `collect_trace` uses. The result is
/// identical to `collect_trace` on the same execution (asserted across all
/// five workloads in the codec tests), so **one** recorded artifact serves
/// both the functional-trace consumers and the timing runs — preparation
/// needs a single interpreter pass cold and zero warm.
///
/// # Panics
///
/// Panics if the recording is inconsistent with `tasks` (a recording is
/// only meaningful under the partition it was recorded with; the cache
/// guarantees this by keying on both fingerprints, and the codec validates
/// exit indices on decode).
pub fn derive_trace(replay: &InstrReplay, tasks: &TaskProgram) -> TraceRun {
    let mut trace = TraceBuilder::new(tasks);
    let mut prev_at = 0u64;
    for (i, &at) in replay.bound_at.iter().enumerate() {
        let instrs = if i == 0 { at + 1 } else { at - prev_at };
        prev_at = at;
        trace.push(
            TaskId(replay.bound_task[i]),
            ExitIndex::new(replay.bound_exit[i]).expect("recorded exit is valid"),
            Addr(replay.bound_next[i]),
            instrs as u32,
        );
    }
    trace.finish(replay.instructions())
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
/// slices rather than indices so the hot path carries no bounds checks,
/// and prefetches upcoming columns of the recording as it advances.
pub(crate) struct ReplayCursor<'a> {
    /// Remaining op words; the last element is the halting instruction.
    ops: &'a [u32],
    /// Remaining load/store word addresses.
    mem_addrs: &'a [u32],
    /// Remaining intra-task branch addresses.
    branch_pcs: &'a [u32],
    /// Op index of the current position (for boundary matching).
    i: u64,
    /// Remaining boundary rows, advanced in lockstep.
    bound_at: &'a [u64],
    bound_task: &'a [u32],
    bound_exit: &'a [u8],
    bound_next: &'a [u32],
}

impl<'a> ReplayCursor<'a> {
    pub(crate) fn new(r: &'a InstrReplay) -> ReplayCursor<'a> {
        ReplayCursor {
            ops: &r.ops,
            mem_addrs: &r.mem_addrs,
            branch_pcs: &r.branch_pcs,
            i: 0,
            bound_at: &r.bound_at,
            bound_task: &r.bound_task,
            bound_exit: &r.bound_exit,
            bound_next: &r.bound_next,
        }
    }
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
        let boundary = if !halt && self.bound_at.first() == Some(&self.i) {
            let b = BoundaryStep {
                task: self.bound_task[0],
                exit: ExitIndex::new(self.bound_exit[0]).expect("recorded exit is valid"),
                next: Addr(self.bound_next[0]),
            };
            self.bound_at = &self.bound_at[1..];
            self.bound_task = &self.bound_task[1..];
            self.bound_exit = &self.bound_exit[1..];
            self.bound_next = &self.bound_next[1..];
            Some(b)
        } else {
            None
        };
        self.ops = rest;
        self.i += 1;

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
/// `predictor` drives inter-task speculation; `None` simulates perfect
/// next-task prediction (the paper's "Perfect" row). Infallible: the
/// recording already resolved every error `simulate` can hit.
pub fn simulate_replay(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
) -> TimingResult {
    simulate_replay_with_sink(replay, descs, predictor, config, &mut NoopSink)
}

/// [`simulate_replay`] with a live [`MetricsSink`] observing the run. The
/// replay cursor feeds the same instrumented core as
/// [`crate::timing::simulate_with_sink`], so breakdowns and event logs are
/// engine-independent: both engines report identical sink streams for the
/// same execution.
pub fn simulate_replay_with_sink<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    let mut cursor = ReplayCursor::new(replay);
    simulate_core(
        &mut cursor,
        descs,
        predictor,
        config,
        replay.mem_words,
        sink,
    )
    .expect("replay cursor never errors")
}

/// Runs several independent timing configurations over one recording in a
/// **single** walk. Table 4's five predictor columns are the original
/// consumer; any set of slots over the same recording fits — the registry's
/// grids and the sanitizer's cross-checks ride the same engine. Each slot
/// of `predictors` is one run (use `None` for perfect prediction); the step
/// stream is decoded once per block and fed to every run's core state,
/// so each result is bit-identical to a solo [`simulate_replay`] call with
/// the same predictor.
pub fn simulate_replay_fused(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictors: &mut [Option<Box<dyn NextTaskPredictor>>],
    config: &TimingConfig,
) -> Vec<TimingResult> {
    let mut sinks = vec![NoopSink; predictors.len()];
    simulate_replay_fused_with_sinks(replay, descs, predictors, config, &mut sinks)
}

/// Steps decoded per batch of the fused walk. Large enough that each
/// slot's hot state (scoreboard, store queue, ARB) stays cache-resident
/// across its inner run; small enough that the shared decoded block and
/// every slot's working set coexist in L1/L2.
const FUSE_BLOCK: usize = 128;

/// [`simulate_replay_fused`] with one live [`MetricsSink`] per fused run:
/// `sinks[i]` observes the run driven by `predictors[i]`. Each sink sees
/// exactly the event stream a solo [`simulate_replay_with_sink`] call with
/// the same predictor would produce.
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
/// If `sinks` and `predictors` differ in length.
pub fn simulate_replay_fused_with_sinks<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictors: &mut [Option<Box<dyn NextTaskPredictor>>],
    config: &TimingConfig,
    sinks: &mut [M],
) -> Vec<TimingResult> {
    assert_eq!(
        predictors.len(),
        sinks.len(),
        "one sink per fused predictor slot"
    );
    let mut states: Vec<CoreState<'_>> = predictors
        .iter_mut()
        .map(|p| {
            CoreState::new(
                p.as_mut().map(|b| b as &mut dyn NextTaskPredictor),
                config,
                replay.mem_words,
            )
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
        for (state, sink) in states.iter_mut().zip(sinks.iter_mut()) {
            for step in &block {
                state.on_step(step, descs, config, sink);
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
        assert_eq!(r.boundaries(), t.dynamic_tasks);
        assert!(r.heap_bytes() > 0);
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

    #[test]
    fn fused_columns_match_solo_replay_runs() {
        let p = mixed_program(500);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();
        let config = TimingConfig::default();

        let mk = |depth| {
            Box::new(TaskPredictor::<PathLeh2>::path(
                Dolc::new(depth, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            )) as Box<dyn NextTaskPredictor>
        };
        let mut preds = vec![None, Some(mk(2)), Some(mk(4))];
        let fused = simulate_replay_fused(&replay, &descs, &mut preds, &config);

        let solo_perfect = simulate_replay(&replay, &descs, None, &config);
        let solo_d2 = simulate_replay(&replay, &descs, Some(&mut *mk(2)), &config);
        let solo_d4 = simulate_replay(&replay, &descs, Some(&mut *mk(4)), &config);
        assert_eq!(fused, vec![solo_perfect, solo_d2, solo_d4]);
    }

    #[test]
    fn fused_block_batching_is_invisible_across_program_lengths() {
        // Recording lengths on both sides of (and straddling) FUSE_BLOCK
        // multiples: partial final blocks, single-block runs, halts landing
        // anywhere in a block — all must stay bit-identical to solo runs.
        let config = TimingConfig::default();
        let mk = || {
            Box::new(TaskPredictor::<PathLeh2>::path(
                Dolc::new(4, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            )) as Box<dyn NextTaskPredictor>
        };
        for iters in [1, 3, 17, 64, 200] {
            let p = mixed_program(iters);
            let tp = TaskFormer::default().form(&p).unwrap();
            let descs = task_descs(&tp);
            let replay = record_replay(&p, &tp, 1_000_000).unwrap();
            let mut preds = vec![None, Some(mk())];
            let fused = simulate_replay_fused(&replay, &descs, &mut preds, &config);
            let solo_perfect = simulate_replay(&replay, &descs, None, &config);
            let solo_real = simulate_replay(&replay, &descs, Some(&mut *mk()), &config);
            assert_eq!(fused, vec![solo_perfect, solo_real], "iters {iters}");
        }
    }

    #[test]
    fn replay_matches_across_ablation_configs() {
        use crate::arb::ArbConfig;
        use crate::timing::{ForwardingModel, IntraPredictorKind};

        let p = mixed_program(400);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let replay = record_replay(&p, &tp, 1_000_000).unwrap();

        let configs = [
            TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
            TimingConfig::paper().intra_predictor(IntraPredictorKind::Gshare),
            TimingConfig::paper().arb(None),
            TimingConfig::paper().arb(Some(ArbConfig {
                banks: 1,
                entries_per_bank: 1,
            })),
            TimingConfig::paper().confidence_gate(Some(2)),
        ];
        for config in &configs {
            let legacy = simulate(&p, &tp, &descs, None, config, 1_000_000).unwrap();
            let fast = simulate_replay(&replay, &descs, None, config);
            assert_eq!(legacy, fast, "config {config:?}");
        }
    }
}
