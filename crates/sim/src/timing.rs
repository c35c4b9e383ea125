//! A timing simulator for the Multiscalar ring of processing units — the
//! source of the reproduction's Table 4 (IPC vs. task predictor).
//!
//! The model (simplified from the Wisconsin detailed simulator, see
//! DESIGN.md §5.3) runs the paper's §4 machine, whose parameters are the
//! constants below:
//!
//! * [`N_UNITS`] processing units in a ring, tasks assigned round-robin,
//!   strictly FIFO commit;
//! * the global sequencer dispatches one task per [`DISPATCH_COST`] cycles
//!   along the *predicted* path; a task misprediction is discovered when
//!   the mispredicting task completes, squashes all younger work and
//!   restarts dispatch after [`SQUASH_PENALTY`] cycles;
//! * within a task: in-order [`ISSUE_WIDTH`]-wide issue with true
//!   register-dataflow stalls (a global register-availability scoreboard
//!   also captures inter-task forwarding delays around the ring), 1-cycle
//!   ALU ops, [`LOAD_LATENCY`]-cycle loads;
//! * intra-task conditional branches are predicted by a shared
//!   [`BIMODAL_BITS`]-bit bimodal predictor (as in the paper, §2.2); a miss
//!   costs [`INTRA_PENALTY`] cycles;
//! * memory: a load that issues before an older task's store to its
//!   address is a memory-order violation ([`VIOLATION_PENALTY`]), and a
//!   reference the ARB ([`crate::arb`]) has no entry for stalls issue
//!   ([`ARB_FULL_PENALTY`]).
//!
//! [`TimingConfig`] holds only the three ablation axes the extension
//! studies vary: the intra-task predictor, the register-forwarding model
//! and the ARB geometry. Confidence gating varies the outcome pass, not
//! the walk.
//!
//! Absolute IPC differs from the paper's out-of-order cores; what Table 4's
//! reproduction preserves is the *ordering* (Simple < GLOBAL/PER < PATH <
//! Perfect) and the relative gaps.
//!
//! # Prediction is a trace pass
//!
//! Whether a task boundary mispredicts (or is gated) depends only on the
//! trace and the predictor, never on a timing parameter, so prediction
//! runs once over the trace ([`crate::measure::measure_outcomes`]) and the
//! walk reads one [`Outcomes`] byte per boundary.
//!
//! # One timing feed in production, one oracle
//!
//! Exactly one piece of code steps the interpreter and resolves task
//! boundaries: the interpreter step source `InterpSource`. It has two
//! jobs. In production it is drained once per benchmark into a recording
//! ([`crate::replay::record_replay`], whose boundary section is also the
//! task trace), and every timing run rides that recording through the
//! lockstep lanes walk ([`crate::replay::walk_lanes`]), which times
//! several columns in one pass; a single run is one lane.
//!
//! This module keeps the scalar cycle-accounting core (`CoreState`,
//! driven by `simulate_core`) as the reference, and the interpreter is its
//! only feed. In tests, [`simulate`] runs it as the oracle the replay
//! engine is checked against, after draining a first feed for the outcome
//! pass's boundaries; the sanitizer
//! ([`crate::sanitize::check_fused_agreement`]) runs it against every lane
//! of one walk of a recording. The lanes core is the same cycle
//! arithmetic, widened to a row per lane, so both cores return
//! **bit-identical** [`TimingResult`]s on the same execution and outcomes,
//! and a bug in the cursor that regenerates the walk's steps shows as a
//! disagreement.

use crate::arb::{ArbConfig, ArbTable};
use crate::measure::{measure_outcomes, Outcomes};
use crate::metrics::{FrontierCause, MetricsSink, NoopSink, StallCause};
use multiscalar_core::predictor::{ExitPredictor, TaskDesc, TaskPredictor};
use multiscalar_core::scalar::{Bimodal, McFarling, TwoLevelGag};
use multiscalar_isa::{
    memory_words, Addr, ControlFlow, ExitIndex, Instruction, Interpreter, Program, NUM_REGS,
};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::replay::CodeTable;
use crate::trace::{SharedTrace, TaskTable, TraceError};

/// Which predictor the processing units use for *intra-task* conditional
/// branches (paper §2.2 uses a bimodal; the others are ablation choices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraPredictorKind {
    /// Bimodal 2-bit counters (the paper's choice).
    #[default]
    Bimodal,
    /// gshare-style global two-level.
    Gshare,
    /// McFarling combining predictor.
    McFarling,
}

/// Runtime state for the selected intra-task predictor.
#[derive(Debug, Clone)]
pub(crate) enum IntraState {
    Bimodal(Bimodal),
    Gshare(TwoLevelGag),
    McFarling(McFarling),
}

impl IntraState {
    /// A predictor of the kind with [`BIMODAL_BITS`] index bits (and as
    /// many history bits for gshare).
    pub(crate) fn new(kind: IntraPredictorKind) -> IntraState {
        let bits = BIMODAL_BITS;
        match kind {
            IntraPredictorKind::Bimodal => IntraState::Bimodal(Bimodal::new(bits)),
            IntraPredictorKind::Gshare => IntraState::Gshare(TwoLevelGag::new(bits, bits)),
            IntraPredictorKind::McFarling => IntraState::McFarling(McFarling::new(bits)),
        }
    }

    pub(crate) fn predict(&self, pc: Addr) -> bool {
        match self {
            IntraState::Bimodal(p) => p.predict(pc),
            IntraState::Gshare(p) => p.predict(pc),
            IntraState::McFarling(p) => p.predict(pc),
        }
    }

    pub(crate) fn update(&mut self, pc: Addr, taken: bool) {
        match self {
            IntraState::Bimodal(p) => p.update(pc, taken),
            IntraState::Gshare(p) => p.update(pc, taken),
            IntraState::McFarling(p) => p.update(pc, taken),
        }
    }
}

/// How register values travel between tasks on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardingModel {
    /// Eager, last-write forwarding: a value is visible to younger tasks
    /// the cycle it is produced — models the Multiscalar compiler's
    /// forward-bit annotations plus last-update detection (Breach et al.).
    #[default]
    Eager,
    /// Release-at-end forwarding: values named in a task's create mask are
    /// only released to younger tasks when the task completes — the
    /// conservative scheme a header-only implementation gets. Ablated by
    /// `harness ext-memory` (`multiscalar_harness::extensions::ext_memory`).
    ReleaseAtEnd,
}

/// Processing units in the ring (paper: 4).
pub const N_UNITS: usize = 4;
/// Issue width per unit (paper: 2-way).
pub const ISSUE_WIDTH: u32 = 2;
/// Load-to-use latency in cycles.
pub const LOAD_LATENCY: u64 = 2;
/// Cycles the global sequencer needs per task dispatch.
pub const DISPATCH_COST: u64 = 1;
/// Cycles to recover after a task misprediction (squash + refill; paper:
/// 12).
pub const SQUASH_PENALTY: u64 = 12;
/// Cycles lost to an intra-task branch misprediction.
pub const INTRA_PENALTY: u64 = 3;
/// Index bits of the shared intra-task predictor (paper: a 12-bit
/// bimodal).
pub const BIMODAL_BITS: u32 = 12;
/// Cycles lost to a memory-order violation (the offending load's task
/// re-executes from the load).
pub const VIOLATION_PENALTY: u64 = 8;
/// Cycles issue stalls when an ARB bank overflows.
pub const ARB_FULL_PENALTY: u64 = 2;

/// The ablation axes of the timing model; the machine itself is the
/// constants above. Confidence gating is not among them: it is the `gate`
/// argument of the outcome pass ([`crate::measure::measure_outcomes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Which intra-task branch predictor the processing units use.
    pub intra_predictor: IntraPredictorKind,
    /// Inter-task register forwarding model.
    pub forwarding: ForwardingModel,
    /// Memory disambiguation hardware; `None` models an ideal, conflict-free
    /// memory system.
    pub arb: Option<ArbConfig>,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            intra_predictor: IntraPredictorKind::default(),
            forwarding: ForwardingModel::Eager,
            arb: Some(ArbConfig::default()),
        }
    }
}

impl TimingConfig {
    /// The paper's machine (§4): the bimodal intra predictor, eager
    /// forwarding and the default ARB. Identical to [`Default`], spelled
    /// as the root of a builder chain:
    ///
    /// ```
    /// use multiscalar_sim::timing::{ForwardingModel, TimingConfig};
    /// let c = TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd).arb(None);
    /// assert_eq!(c.forwarding, ForwardingModel::ReleaseAtEnd);
    /// assert_eq!(c.arb, None);
    /// ```
    pub fn paper() -> TimingConfig {
        TimingConfig::default()
    }

    /// Selects the intra-task branch predictor.
    pub fn intra_predictor(mut self, v: IntraPredictorKind) -> TimingConfig {
        self.intra_predictor = v;
        self
    }

    /// Selects the inter-task register forwarding model.
    pub fn forwarding(mut self, v: ForwardingModel) -> TimingConfig {
        self.forwarding = v;
        self
    }

    /// Sets the ARB geometry (`None` = ideal, conflict-free memory).
    pub fn arb(mut self, v: Option<ArbConfig>) -> TimingConfig {
        self.arb = v;
        self
    }
}

/// Result of a timing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingResult {
    /// Committed instructions.
    pub instructions: u64,
    /// Total cycles until the last commit.
    pub cycles: u64,
    /// Dynamic tasks executed.
    pub dynamic_tasks: u64,
    /// Inter-task (next-task-address) mispredictions.
    pub task_mispredicts: u64,
    /// Intra-task conditional-branch mispredictions.
    pub intra_mispredicts: u64,
    /// Memory-order violations detected by the ARB model.
    pub arb_violations: u64,
    /// References stalled by ARB bank overflow.
    pub arb_full_stalls: u64,
    /// Boundaries where confidence gating withheld speculation.
    pub gated_boundaries: u64,
}

impl TimingResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Task misprediction rate per dynamic task.
    pub fn task_miss_rate(&self) -> f64 {
        if self.dynamic_tasks == 0 {
            0.0
        } else {
            self.task_mispredicts as f64 / self.dynamic_tasks as f64
        }
    }
}

/// Inter-task prediction as the timing model consumes it, through the
/// outcome pass ([`crate::measure::measure_outcomes`]).
///
/// Implemented by [`TaskPredictor`] for real predictors; pass `None` to
/// [`simulate`] for the paper's "Perfect" upper bound.
pub trait NextTaskPredictor {
    /// Predicts the entry address of the task following `task`.
    fn predict_next(&mut self, task: &TaskDesc) -> Option<Addr>;
    /// Resolves the step with the actual exit and next-task address.
    fn resolve(&mut self, task: &TaskDesc, actual_exit: ExitIndex, actual_next: Addr);
}

impl<E: ExitPredictor> NextTaskPredictor for TaskPredictor<E> {
    fn predict_next(&mut self, task: &TaskDesc) -> Option<Addr> {
        self.predict(task).target
    }
    fn resolve(&mut self, task: &TaskDesc, actual_exit: ExitIndex, actual_next: Addr) {
        self.update(task, actual_exit, actual_next);
    }
}

// ---------------------------------------------------------------------------
// The step feed
// ---------------------------------------------------------------------------

/// Sentinel for "no register" in [`CoreStep`]'s compact register fields.
pub(crate) const NO_REG: u8 = u8::MAX;

/// Bits of a packed `last_store` word holding the storing task's index; the
/// remaining high bits hold the store's issue time. 2^26 dynamic tasks and
/// 2^38 cycles are far beyond any harness run; the store path asserts both
/// so an overflow can never silently corrupt violation detection.
pub(crate) const TASK_IDX_BITS: u32 = 26;
pub(crate) const TASK_IDX_MASK: u64 = (1 << TASK_IDX_BITS) - 1;

/// Timing class of one instruction — everything the cycle accounting needs
/// to know about *what* executed (its *effects* ride the other fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpClass {
    /// Single-cycle ALU/control work.
    Other = 0,
    /// A load: [`LOAD_LATENCY`] cycles plus memory disambiguation.
    Load = 1,
    /// A store: memory disambiguation.
    Store = 2,
    /// An *intra-task* conditional branch (boundary-crossing branches are
    /// classed [`OpClass::Other`]: the intra predictor never sees them).
    Branch = 3,
}

impl OpClass {
    pub(crate) fn from_u8(v: u8) -> OpClass {
        match v {
            1 => OpClass::Load,
            2 => OpClass::Store,
            3 => OpClass::Branch,
            _ => OpClass::Other,
        }
    }
}

/// A pre-resolved task-boundary crossing attached to the instruction that
/// caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BoundaryStep {
    /// Static id of the retiring task.
    pub task: u32,
    /// The header exit it took.
    pub exit: ExitIndex,
    /// Entry address of the task executed next.
    pub next: Addr,
}

/// One instruction's timing-relevant facts, as fed to [`simulate_core`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreStep {
    /// First/second source register ([`NO_REG`] when absent).
    pub src1: u8,
    /// Second source register ([`NO_REG`] when absent).
    pub src2: u8,
    /// Destination register ([`NO_REG`] when absent).
    pub dest: u8,
    /// Timing class.
    pub class: OpClass,
    /// Word address, valid iff `class` is `Load` or `Store`.
    pub mem_addr: u32,
    /// The instruction's own address; the intra-task predictor indexes
    /// by it when `class` is `Branch`.
    pub pc: Addr,
    /// Whether the branch was taken, valid iff `class` is `Branch`.
    pub taken: bool,
    /// `true` when this instruction halted the machine.
    pub halt: bool,
    /// The boundary this instruction crossed, if any.
    pub boundary: Option<BoundaryStep>,
}

/// What the timing model knows of `inst` before it executes: its first
/// and second source and its destination register ([`NO_REG`] when
/// absent), and its class. A conditional branch is an
/// [`OpClass::Branch`] here; where it crosses a task boundary, the step
/// classes it [`OpClass::Other`].
pub(crate) fn op_facts(inst: &Instruction) -> (u8, u8, u8, OpClass) {
    let mut sources = inst.sources();
    let src1 = sources.next().map_or(NO_REG, |r| r.0);
    let src2 = sources.next().map_or(NO_REG, |r| r.0);
    let dest = inst.dest().map_or(NO_REG, |r| r.0);
    let class = match inst {
        Instruction::Load { .. } => OpClass::Load,
        Instruction::Store { .. } => OpClass::Store,
        Instruction::Branch { .. } => OpClass::Branch,
        _ => OpClass::Other,
    };
    (src1, src2, dest, class)
}

/// Where control goes after `inst` at `pc` when it crosses no task
/// boundary: the next instruction, or for a conditional branch its taken
/// target (it falls through otherwise), or a jump's or call's target.
/// `None` for a return, an indirect jump or call and the halt, whose
/// successor only a task boundary records.
pub(crate) fn static_successor(inst: &Instruction, pc: Addr) -> Option<Addr> {
    match inst.control_flow() {
        None => Some(pc.next()),
        Some(ControlFlow::CondBranch(t) | ControlFlow::Jump(t) | ControlFlow::Call(t)) => Some(t),
        Some(
            ControlFlow::IndirectJump
            | ControlFlow::IndirectCall
            | ControlFlow::Return
            | ControlFlow::Halt,
        ) => None,
    }
}

/// The bit of a step-table word that marks an exit source: a pc that is
/// the source of an exit in its own task's header.
const EXIT_SOURCE: u32 = 1 << 31;
/// The owner in a step-table word of a pc that no task owns.
const UNOWNED: u32 = EXIT_SOURCE - 1;

/// The step table of `program` under `tasks`: one word per pc, the index
/// of the task that owns it ([`UNOWNED`] for none, or for an id past the
/// partition's tasks, which no current task can equal), with
/// [`EXIT_SOURCE`] set when the pc is the source of an exit in that
/// task's header.
fn step_table(program: &Program, tasks: &TaskProgram) -> Vec<u32> {
    let count = (tasks.static_task_count() as u32).min(UNOWNED);
    (0..program.len() as u32)
        .map(Addr)
        .map(|pc| match tasks.task_at(pc) {
            Some(t) if t.0 < count => {
                let exits = tasks.task(t).header().exits();
                let source = exits.iter().any(|e| e.source == pc);
                if source {
                    t.0 | EXIT_SOURCE
                } else {
                    t.0
                }
            }
            _ => UNOWNED,
        })
        .collect()
}

/// The interpreter step source: executes the program and resolves task
/// boundaries on the fly, one [`CoreStep`] per instruction. The only code
/// that steps the interpreter — recording ([`crate::replay::record_replay`],
/// which every task trace derives from) and the timing oracle
/// ([`simulate`]) both drain it, so the step budget, boundary resolution
/// and `UnmatchedExit` checks exist once.
///
/// Every step starts at a pc of the current task: the first task owns the
/// entry, a step that stays in its task is checked to, and a crossing
/// enters the task that owns its target. A header exit leaves from its
/// own pc, so a step from a pc that is the source of no exit of its task
/// crosses no boundary. The step table marks the exit sources; a step
/// from any other pc takes the intra-task step without looking at the
/// header, and so does a step from an exit source that matches none of
/// its exits.
pub(crate) struct InterpSource<'a> {
    interp: Interpreter<'a>,
    tasks: &'a TaskProgram,
    /// The program's code table: a step that stays in its task must go
    /// where the table's next-pc rule says.
    code: CodeTable,
    /// The program's step table ([`step_table`]).
    table: Vec<u32>,
    cur_task: TaskId,
    steps: u64,
    max_steps: u64,
}

impl<'a> InterpSource<'a> {
    pub(crate) fn new(
        program: &'a Program,
        tasks: &'a TaskProgram,
        max_steps: u64,
    ) -> InterpSource<'a> {
        let cur_task = tasks
            .task_entered_at(program.entry_point())
            .expect("entry starts a task");
        InterpSource {
            interp: Interpreter::new(program),
            tasks,
            code: CodeTable::of(program),
            table: step_table(program, tasks),
            cur_task,
            steps: 0,
            max_steps,
        }
    }

    /// The program's code table.
    pub(crate) fn code(&self) -> &CodeTable {
        &self.code
    }

    /// The program's code table, kept.
    pub(crate) fn into_code(self) -> CodeTable {
        self.code
    }

    /// Produces the next instruction's step, or the error that ended the
    /// run (execution fault, unmatched boundary, intra-task transfer
    /// without a static successor, step-budget exhaustion).
    // Forced inline into each drain (recording, the oracle): without it,
    // recording the five scale-2 workloads took 1.29x as long (2-vCPU
    // Xeon VM, one thread, medians of 9 alternating rounds).
    #[inline(always)]
    pub(crate) fn next_step(&mut self) -> Result<CoreStep, TraceError> {
        if self.steps >= self.max_steps {
            return Err(TraceError::StepLimit);
        }
        let info = self.interp.step()?;
        self.steps += 1;

        // The halt takes the general step whether or not a hand-made
        // partition names it an exit source.
        if self.table[info.pc.index()] & EXIT_SOURCE == 0 && !self.interp.is_halted() {
            return self.intra_task_step(info.pc, info.next, info.mem_addr);
        }

        // A copy, so that only the instruction goes to memory for
        // `op_facts`, not the whole step: spilling the step cost every
        // intra-task step too.
        let inst = info.inst;
        let (src1, src2, dest, mut class) = op_facts(&inst);
        let mem_addr = info.mem_addr.unwrap_or(0);

        if self.interp.is_halted() {
            return Ok(CoreStep {
                src1,
                src2,
                dest,
                class,
                mem_addr,
                pc: info.pc,
                taken: false,
                halt: true,
                boundary: None,
            });
        }

        let next_pc = info.next;
        let crossed =
            if next_pc == info.pc.next() && self.tasks.task_at(next_pc) == Some(self.cur_task) {
                None
            } else {
                self.tasks.resolve_exit(self.cur_task, info.pc, next_pc)
            };

        // A step that crosses no boundary makes the intra-task step's
        // checks, whichever way it was found to stay.
        let Some(exit) = crossed else {
            return self.intra_task_step(info.pc, next_pc, info.mem_addr);
        };
        let retiring = self.cur_task;
        // The intra predictor never sees boundary-crossing branches.
        if class == OpClass::Branch {
            class = OpClass::Other;
        }
        self.cur_task = match self.tasks.task_entered_at(next_pc) {
            Some(t) => t,
            None => {
                return Err(TraceError::UnmatchedExit {
                    task: retiring,
                    from: info.pc,
                    to: next_pc,
                })
            }
        };
        Ok(CoreStep {
            src1,
            src2,
            dest,
            class,
            mem_addr,
            pc: info.pc,
            taken: false,
            halt: false,
            boundary: Some(BoundaryStep {
                task: retiring.0,
                exit,
                next: next_pc,
            }),
        })
    }

    /// The step from `pc`, which the current task owns, to `next` when it
    /// matches no exit of the task's header: `next` must belong to the
    /// task (`UnmatchedExit`) and be where the code table's next-pc rule
    /// goes (`DynamicTransfer`). The op's registers and class come from
    /// its code-table entry.
    #[inline(always)]
    fn intra_task_step(
        &self,
        pc: Addr,
        next: Addr,
        mem_addr: Option<u32>,
    ) -> Result<CoreStep, TraceError> {
        let entry = self.code.at(pc.0);
        let (src1, src2, dest, class) = entry.facts();
        let taken = class == OpClass::Branch && next != pc.next();
        // The table covers the code; the partition answers for a pc past
        // it.
        let stays = match self.table.get(next.index()) {
            Some(&word) => word & !EXIT_SOURCE == self.cur_task.0,
            None => self.tasks.task_at(next) == Some(self.cur_task),
        };
        if !stays {
            return Err(TraceError::UnmatchedExit {
                task: self.cur_task,
                from: pc,
                to: next,
            });
        }
        if entry.next(pc.0, taken) != next.0 {
            return Err(TraceError::DynamicTransfer {
                task: self.cur_task,
                from: pc,
                to: next,
            });
        }
        Ok(CoreStep {
            src1,
            src2,
            dest,
            class,
            mem_addr: mem_addr.unwrap_or(0),
            pc,
            taken,
            halt: false,
            boundary: None,
        })
    }
}

// ---------------------------------------------------------------------------
// The cycle-accounting core
// ---------------------------------------------------------------------------

/// All per-run mutable state of the scalar cycle-accounting loop
/// ([`simulate_core`]): the reference implementation of the timing model.
/// It runs under the interpreter-fed oracle ([`simulate`]), the sanitizer
/// and tests; production walks run the lanes core
/// ([`crate::replay::walk_lanes`]), which must match it bit for bit.
pub(crate) struct CoreState {
    intra: IntraState,
    result: TimingResult,
    /// ARB occupancy: the distinct addresses the current task has
    /// referenced (capacity stalls only; violations come from
    /// `last_store`).
    arb: Option<ArbTable>,
    /// addr -> `issue_time << TASK_IDX_BITS | task`, direct-indexed by word
    /// address: the key space is bounded by the interpreter's memory, and
    /// this is consulted on every memory instruction. Packing the pair into
    /// one word halves the footprint of the model's hottest random-access
    /// array (the cache misses here dominate the per-step cost). The
    /// all-zero initial state means "never stored": real stores record
    /// issue times >= 2, so a zeroed slot can never satisfy
    /// `store_time > issue_time` — and the zero-filled allocation is served
    /// from fresh zero pages, so words no store ever touches cost neither a
    /// memset nor a page.
    last_store: Vec<u64>,
    /// Upper bound on every recorded store's issue time. A load whose own
    /// issue time has already passed this bound cannot possibly trip the
    /// `store_time > issue_time` violation check, so the (cache-hostile)
    /// `last_store` read is skipped — the filter is conservative, never
    /// suppressing a real violation.
    max_store_time: u64,
    /// Global register scoreboard: cycle each register's value is ready
    /// (exact production time). Under release-at-end forwarding, younger
    /// tasks instead see `released`, updated when the producing task ends.
    avail: [u64; NUM_REGS],
    released: [u64; NUM_REGS],
    written_this_task: u32,
    // Ring state.
    unit_free: [u64; N_UNITS],
    prev_commit: u64,
    // Current task instance state.
    task_index: u64,
    /// `task_index % N_UNITS`, maintained incrementally.
    cur_unit: usize,
    dispatch: u64,
    t_issue: u64,
    slots: u32,
    complete: u64,
}

impl CoreState {
    pub(crate) fn new(config: &TimingConfig, mem_words: usize) -> CoreState {
        let dispatch = 1u64; // first dispatch
        let t_issue = dispatch + 1;
        CoreState {
            intra: IntraState::new(config.intra_predictor),
            result: TimingResult {
                instructions: 0,
                cycles: 0,
                dynamic_tasks: 0,
                task_mispredicts: 0,
                intra_mispredicts: 0,
                arb_violations: 0,
                arb_full_stalls: 0,
                gated_boundaries: 0,
            },
            arb: config.arb.map(ArbTable::new),
            last_store: vec![0; mem_words],
            max_store_time: 0,
            avail: [0u64; NUM_REGS],
            released: [0u64; NUM_REGS],
            written_this_task: 0,
            unit_free: [0; N_UNITS],
            prev_commit: 0,
            task_index: 0,
            cur_unit: 0,
            dispatch,
            t_issue,
            slots: 0,
            complete: t_issue,
        }
    }

    /// Reports the initial pipeline-fill frontier (dispatch of the first
    /// task) to `sink`. Callers invoke it once, before the first step.
    pub(crate) fn bootstrap<M: MetricsSink>(&self, sink: &mut M) {
        if M::ENABLED {
            sink.frontier(0, self.complete, FrontierCause::Startup);
        }
    }

    /// Accounts one instruction. The caller stops feeding steps after the
    /// one with `halt` set. Generic over the [`MetricsSink`] so the
    /// [`NoopSink`] instantiation compiles to exactly the uninstrumented
    /// loop (every hook is guarded by the const `M::ENABLED`).
    pub(crate) fn on_step<M: MetricsSink>(
        &mut self,
        step: &CoreStep,
        outcomes: &Outcomes,
        config: &TimingConfig,
        sink: &mut M,
    ) {
        self.result.instructions += 1;

        // --- issue timing for this instruction --------------------------
        let mut ready = self.t_issue;
        for r in [step.src1, step.src2] {
            if r == NO_REG {
                continue;
            }
            let t = match config.forwarding {
                ForwardingModel::Eager => self.avail[r as usize],
                ForwardingModel::ReleaseAtEnd => {
                    // Values produced by this task bypass locally; values
                    // from older tasks arrive at their release time.
                    if self.written_this_task & (1 << r) != 0 {
                        self.avail[r as usize]
                    } else {
                        self.released[r as usize]
                    }
                }
            };
            ready = ready.max(t);
        }
        if ready > self.t_issue {
            if M::ENABLED {
                sink.issue_stall(StallCause::Dataflow, ready - self.t_issue);
            }
            self.t_issue = ready;
            self.slots = 0;
        }
        let issue_time = self.t_issue;
        self.slots += 1;
        if self.slots >= ISSUE_WIDTH {
            self.t_issue += 1;
            self.slots = 0;
        }
        let latency = match step.class {
            OpClass::Load => LOAD_LATENCY,
            _ => 1,
        };

        // --- memory disambiguation -----------------------------------------
        if matches!(step.class, OpClass::Load | OpClass::Store) {
            let ea = step.mem_addr;
            if step.class == OpClass::Load {
                // Would this load have issued before an older in-flight
                // store to the same address produced its value?
                if self.max_store_time > issue_time {
                    let packed = self.last_store[ea as usize];
                    let store_time = packed >> TASK_IDX_BITS;
                    let store_task = packed & TASK_IDX_MASK;
                    if store_task < self.task_index && store_time > issue_time {
                        // Violation: the load's task re-executes from here.
                        self.result.arb_violations += 1;
                        self.t_issue = store_time + VIOLATION_PENALTY;
                        self.slots = 0;
                        let to = self.complete.max(self.t_issue);
                        if M::ENABLED {
                            sink.frontier(self.complete, to, FrontierCause::Violation);
                        }
                        self.complete = to;
                    }
                }
            } else {
                assert!(
                    issue_time >> (64 - TASK_IDX_BITS) == 0 && self.task_index <= TASK_IDX_MASK,
                    "last_store packing overflow"
                );
                self.last_store[ea as usize] = issue_time << TASK_IDX_BITS | self.task_index;
                self.max_store_time = self.max_store_time.max(issue_time);
            }
            if let Some(arb) = self.arb.as_mut() {
                if !arb.reference(ea) {
                    // No free entry: the reference goes untracked and
                    // issue stalls.
                    self.result.arb_full_stalls += 1;
                    if M::ENABLED {
                        sink.issue_stall(StallCause::ArbFull, ARB_FULL_PENALTY);
                    }
                    self.t_issue += ARB_FULL_PENALTY;
                    self.slots = 0;
                }
            }
        }
        if step.dest != NO_REG {
            self.avail[step.dest as usize] = issue_time + latency;
            self.written_this_task |= 1 << step.dest;
        }
        let done = issue_time + latency;
        if done > self.complete {
            if M::ENABLED {
                sink.frontier(self.complete, done, FrontierCause::Issue);
            }
            self.complete = done;
        }

        if step.halt {
            return;
        }

        // --- task boundary? ----------------------------------------------
        match step.boundary {
            Some(_) => {
                // The outcome pass already predicted this boundary.
                let bits = outcomes.bits()[self.task_index as usize];
                let miss = bits & Outcomes::MISS != 0;
                let gated = bits & Outcomes::GATED != 0;
                self.result.dynamic_tasks += 1;
                self.result.task_mispredicts += miss as u64;
                self.result.gated_boundaries += gated as u64;

                // Retire the finished task: release its created registers
                // (the header's create mask, §2.1) to younger tasks.
                if config.forwarding == ForwardingModel::ReleaseAtEnd {
                    for (r, rel) in self.released.iter_mut().enumerate() {
                        if self.written_this_task & (1 << r) != 0 {
                            *rel = (*rel).max(self.complete);
                        }
                    }
                    self.written_this_task = 0;
                }
                let commit = self.complete.max(self.prev_commit);
                // Sanitizer: commit is strictly FIFO, so the commit clock
                // and every unit's free time can only move forward.
                #[cfg(feature = "sanitize")]
                {
                    assert!(
                        commit >= self.prev_commit,
                        "sanitize: commit time went backwards ({commit} < {})",
                        self.prev_commit
                    );
                    assert!(
                        commit + 1 >= self.unit_free[self.cur_unit],
                        "sanitize: unit {} free time went backwards ({} -> {})",
                        self.cur_unit,
                        self.unit_free[self.cur_unit],
                        commit + 1
                    );
                }
                self.unit_free[self.cur_unit] = commit + 1;

                // Commit is strictly FIFO, so the retiring task's ARB
                // entries are freed at every task retirement.
                if let Some(arb) = self.arb.as_mut() {
                    arb.clear();
                }

                // Dispatch the next task. The boundary just resolved tells
                // us how the *next* task's dispatch went on real hardware:
                self.task_index += 1;
                let next_unit = if self.cur_unit + 1 == N_UNITS {
                    0
                } else {
                    self.cur_unit + 1
                };
                self.cur_unit = next_unit;
                let next_dispatch = if miss && !gated {
                    // Mispredicted: the wrong-path work is squashed when
                    // this task completes and reveals its actual exit; the
                    // correct next task dispatches after recovery.
                    self.complete + SQUASH_PENALTY
                } else if gated {
                    // The sequencer withheld speculation on a
                    // low-confidence prediction: the next task starts once
                    // this boundary resolves — no squash, but no overlap.
                    self.complete.max(self.unit_free[next_unit])
                } else {
                    // Correct speculation: one prediction per
                    // `DISPATCH_COST` cycles, subject to a free unit.
                    (self.dispatch + DISPATCH_COST).max(self.unit_free[next_unit])
                };
                self.prev_commit = commit;
                self.dispatch = next_dispatch.max(self.dispatch + DISPATCH_COST);
                // The next task issues on its own ring unit: its issue
                // clock starts when it is dispatched and its unit is free,
                // independent of the retiring task's issue cursor.
                self.t_issue = (self.dispatch + 1).max(self.unit_free[next_unit]);
                self.slots = 0;
                let to = self.complete.max(self.t_issue);
                if M::ENABLED {
                    let cause = if miss && !gated {
                        FrontierCause::Squash
                    } else if gated {
                        FrontierCause::Gated
                    } else {
                        FrontierCause::Dispatch
                    };
                    sink.frontier(self.complete, to, cause);
                    sink.boundary(commit, self.dispatch);
                }
                self.complete = to;
            }
            None => {
                // Still inside the task: internal conditional branches go
                // through the intra-task bimodal predictor.
                if step.class == OpClass::Branch {
                    let predicted = self.intra.predict(step.pc);
                    if predicted != step.taken {
                        self.result.intra_mispredicts += 1;
                        let redirect = issue_time + 1 + INTRA_PENALTY;
                        if M::ENABLED {
                            sink.issue_stall(
                                StallCause::IntraMispredict,
                                redirect.saturating_sub(self.t_issue),
                            );
                        }
                        self.t_issue = redirect;
                        self.slots = 0;
                    }
                    self.intra.update(step.pc, step.taken);
                }
            }
        }
    }

    /// Finalises the run and returns its [`TimingResult`].
    pub(crate) fn finish(self) -> TimingResult {
        let mut result = self.result;
        result.cycles = self.complete.max(self.prev_commit);
        result
    }
}

/// The scalar timing loop over the interpreter's steps: the oracle
/// ([`simulate`]) and the sanitizer's reference for every lane of
/// [`crate::replay::walk_lanes`].
pub(crate) fn simulate_core<M: MetricsSink>(
    source: &mut InterpSource<'_>,
    outcomes: &Outcomes,
    config: &TimingConfig,
    mem_words: usize,
    sink: &mut M,
) -> Result<TimingResult, TraceError> {
    let mut state = CoreState::new(config, mem_words);
    state.bootstrap(sink);
    loop {
        let step = source.next_step()?;
        state.on_step(&step, outcomes, config, sink);
        if step.halt {
            break;
        }
    }
    let result = state.finish();
    sink.finish(&result);
    Ok(result)
}

/// Runs the timing model over a full program execution, re-interpreting
/// the program as it goes.
///
/// `predictor` drives inter-task speculation, ungated; `None` simulates
/// perfect next-task prediction (the paper's "Perfect" row). It runs
/// through [`crate::measure::measure_outcomes`] over the boundaries of a
/// separate interpreter pass, so the oracle never reads a recording.
///
/// This is the test oracle. Production timing runs record the execution
/// once ([`crate::replay::record_replay`]) and time it with
/// [`crate::replay::simulate_replay`] or [`crate::replay::walk_lanes`],
/// which return bit-identical results without re-interpreting.
///
/// # Errors
///
/// Same failure modes as recording: execution faults, unmatched boundary
/// crossings, intra-task transfers without a static successor, and
/// step-budget exhaustion.
pub fn simulate(
    program: &Program,
    tasks: &TaskProgram,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    max_steps: u64,
) -> Result<TimingResult, TraceError> {
    simulate_with_sink(
        program,
        tasks,
        descs,
        predictor,
        config,
        max_steps,
        &mut NoopSink,
    )
}

/// [`simulate`] with a live [`MetricsSink`] observing the run. The
/// `NoopSink` instantiation *is* [`simulate`]; a [`crate::CycleBreakdown`]
/// attributes every cycle, a [`crate::UnitOccupancy`] splits each ring
/// unit's cycles. The sink never alters cycle arithmetic, so the returned
/// [`TimingResult`] is bit-identical across sinks.
///
/// # Errors
///
/// Same failure modes as [`simulate`].
pub fn simulate_with_sink<M: MetricsSink>(
    program: &Program,
    tasks: &TaskProgram,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    max_steps: u64,
    sink: &mut M,
) -> Result<TimingResult, TraceError> {
    // The outcome pass reads the boundaries of a feed of its own, not a
    // recording's, so the oracle does not depend on the recorder.
    let mut feed = InterpSource::new(program, tasks, max_steps);
    let code = feed.code();
    let mut trace = SharedTrace::new(TaskTable::of(tasks, code), code.entry);
    let mut instrs = 0;
    loop {
        let step = feed.next_step()?;
        instrs += 1;
        if let Some(b) = step.boundary {
            trace.push(b, instrs);
            instrs = 0;
        }
        if step.halt {
            break;
        }
    }
    let outcomes = measure_outcomes(predictor, descs, &trace, None);
    let mut source = InterpSource::new(program, tasks, max_steps);
    let mem_words = memory_words(program);
    simulate_core(&mut source, &outcomes, config, mem_words, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::task_descs;
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_isa::Program;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    type PathLeh2 = PathPredictor<LastExitHysteresis<2>>;

    fn loop_program(iters: i32) -> multiscalar_isa::Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), iters);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(3), Reg(3), 1);
        b.op_imm(AluOp::Xor, Reg(4), Reg(3), 5);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    fn run(p: &multiscalar_isa::Program, pred: Option<&mut dyn NextTaskPredictor>) -> TimingResult {
        let tp = TaskFormer::default().form(p).unwrap();
        let descs = task_descs(&tp);
        simulate(p, &tp, &descs, pred, &TimingConfig::default(), 10_000_000).unwrap()
    }

    #[test]
    fn perfect_prediction_beats_or_ties_real_prediction() {
        let p = loop_program(2000);
        let perfect = run(&p, None);
        let mut real =
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16);
        let realr = run(&p, Some(&mut real));
        assert_eq!(
            perfect.instructions, realr.instructions,
            "same committed work"
        );
        assert!(
            perfect.cycles <= realr.cycles,
            "perfect can never be slower"
        );
        assert_eq!(perfect.task_mispredicts, 0);
        assert!(perfect.ipc() >= realr.ipc());
        assert!(
            perfect.ipc() > 0.5,
            "a tight loop should overlap well: {}",
            perfect.ipc()
        );
    }

    #[test]
    fn ipc_bounded_by_machine_width() {
        let p = loop_program(500);
        let r = run(&p, None);
        let peak = 4.0 * 2.0;
        assert!(r.ipc() <= peak, "IPC {} cannot exceed peak {peak}", r.ipc());
        assert!(r.ipc() > 0.1);
        assert!(r.cycles > 0);
        assert!(r.dynamic_tasks >= 499);
    }

    /// A loop whose iterations are independent except for the counter: each
    /// task has plenty of instruction-level *and* task-level parallelism.
    fn wide_loop_program(iters: i32) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), iters);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        // Twelve ops that depend only on the (cheap) counter chain, so
        // consecutive tasks can run concurrently on different ring units.
        for r in 3..15 {
            b.op_imm(AluOp::Xor, Reg(r), Reg(1), r as i32);
        }
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    #[test]
    fn independent_tasks_overlap_across_ring_units() {
        // Regression for the cross-unit issue-serialization bug: the next
        // task's issue clock must start from its own unit's availability,
        // not continue the retiring task's issue cursor. With the old
        // behaviour every instruction flowed through one width-2 issue
        // cursor, capping IPC at a single unit's width (2.0) no matter how
        // many units the ring had.
        let p = wide_loop_program(2000);
        let r = run(&p, None);
        let one_unit_width = ISSUE_WIDTH as f64;
        assert!(
            r.ipc() > one_unit_width,
            "independent tasks on a 4-unit ring must exceed one unit's \
             issue width: IPC {:.2} <= {one_unit_width}",
            r.ipc()
        );
        assert!(r.ipc() <= 8.0, "still bounded by total machine width");
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // Compare a deliberately tiny (bad) predictor against a good one on
        // a program with a learnable pattern.
        let p = loop_program(3000);
        let mut good =
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16);
        let good_r = run(&p, Some(&mut good));
        // The loop task always re-enters itself, so even the good predictor
        // only misses at the very end; verify costs are visible by checking
        // misses translate into cycles vs perfect.
        let perfect = run(&p, None);
        if good_r.task_mispredicts > 0 {
            assert!(good_r.cycles > perfect.cycles);
        }
        assert!(
            good_r.task_miss_rate() < 0.05,
            "loop exits are trivially learnable"
        );
    }

    #[test]
    fn dataflow_dependences_throttle_ipc() {
        // A pure dependence chain cannot exceed 1 instruction per cycle.
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        for _ in 0..64 {
            b.op_imm(AluOp::Add, Reg(1), Reg(1), 1); // serial chain
        }
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = run(&p, None);
        assert!(
            r.ipc() <= 1.1,
            "serial chain must be ~1 IPC, got {}",
            r.ipc()
        );

        // Independent streams can exceed 1 IPC on a 2-wide unit.
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        for _ in 0..32 {
            b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
            b.op_imm(AluOp::Add, Reg(2), Reg(2), 1);
        }
        b.halt();
        b.end_function();
        let p2 = b.finish(main).unwrap();
        let r2 = run(&p2, None);
        assert!(
            r2.ipc() > 1.2,
            "independent streams should dual-issue: {}",
            r2.ipc()
        );
    }

    /// A producer loop that stores, then a consumer loop that loads the
    /// same addresses — cross-task memory traffic for the ARB model.
    fn store_load_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 200);
        let top = b.here_label();
        // store to addr (i & 7), then immediately load it back
        b.op_imm(AluOp::And, Reg(3), Reg(1), 7);
        b.store(Reg(1), Reg(3), 0);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.load(Reg(4), Reg(3), 0);
        b.op(AluOp::Xor, Reg(5), Reg(5), Reg(4));
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    /// Like [`store_load_program`] but every iteration touches *two*
    /// distinct addresses, so even a single task's working set overflows a
    /// one-entry ARB.
    fn two_address_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 200);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 7);
        b.op_imm(AluOp::Add, Reg(6), Reg(3), 8);
        b.store(Reg(1), Reg(3), 0);
        b.store(Reg(1), Reg(6), 0);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.load(Reg(4), Reg(3), 0);
        b.load(Reg(7), Reg(6), 0);
        b.op(AluOp::Xor, Reg(5), Reg(5), Reg(4));
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    #[test]
    fn arb_model_is_wired_and_ideal_memory_is_faster_or_equal() {
        let p = store_load_program();
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let with_arb =
            simulate(&p, &tp, &descs, None, &TimingConfig::default(), 1_000_000).unwrap();
        let ideal_mem = TimingConfig::paper().arb(None);
        let without = simulate(&p, &tp, &descs, None, &ideal_mem, 1_000_000).unwrap();
        assert_eq!(with_arb.instructions, without.instructions);
        // The ARB can only add stalls, never remove them.
        assert!(with_arb.cycles >= without.cycles);
        assert_eq!(without.arb_full_stalls, 0);
    }

    #[test]
    fn tiny_arb_banks_cause_full_stalls() {
        let p = two_address_program();
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let tiny = TimingConfig::paper().arb(Some(ArbConfig {
            banks: 1,
            entries_per_bank: 1,
        }));
        let r = simulate(&p, &tp, &descs, None, &tiny, 1_000_000).unwrap();
        assert!(
            r.arb_full_stalls > 0,
            "a one-entry ARB must overflow on a two-address working set"
        );
        let roomy = simulate(&p, &tp, &descs, None, &TimingConfig::default(), 1_000_000).unwrap();
        // With FIFO head retirement at every boundary, the default ARB
        // (8 banks x 32 entries) never fills on a 16-word working set.
        assert_eq!(
            roomy.arb_full_stalls, 0,
            "the default ARB must not overflow on a small working set"
        );
        assert!(r.cycles >= roomy.cycles, "overflow stalls cost cycles");
    }

    /// Exact results of the two memory programs under three ARB
    /// geometries, measured before the ARB became a per-task table: any
    /// drift in the ARB's capacity semantics changes one of them.
    #[test]
    fn arb_geometries_pin_exact_results() {
        let geometries = [
            ArbConfig::default(),
            ArbConfig {
                banks: 2,
                entries_per_bank: 2,
            },
            ArbConfig {
                banks: 1,
                entries_per_bank: 1,
            },
        ];
        // (cycles, arb_full_stalls, arb_violations) per geometry.
        let programs = [
            ("store_load", store_load_program(), [(407, 0, 0); 3]),
            (
                "two_address",
                two_address_program(),
                [(607, 0, 0), (607, 0, 0), (1007, 400, 0)],
            ),
        ];
        for (name, p, expected) in programs {
            let tp = TaskFormer::default().form(&p).unwrap();
            let descs = task_descs(&tp);
            for (arb, want) in geometries.into_iter().zip(expected) {
                let config = TimingConfig::paper().arb(Some(arb));
                let r = simulate(&p, &tp, &descs, None, &config, 1_000_000).unwrap();
                assert_eq!(
                    (r.cycles, r.arb_full_stalls, r.arb_violations),
                    want,
                    "{name} under {arb:?}"
                );
            }
        }
    }

    #[test]
    fn release_at_end_forwarding_is_slower_or_equal() {
        let p = loop_program(1000);
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let eager = simulate(&p, &tp, &descs, None, &TimingConfig::default(), 1_000_000).unwrap();
        let conservative = TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd);
        let released = simulate(&p, &tp, &descs, None, &conservative, 1_000_000).unwrap();
        assert_eq!(eager.instructions, released.instructions);
        assert!(
            released.cycles >= eager.cycles,
            "release-at-end can only delay values: {} vs {}",
            released.cycles,
            eager.cycles
        );
        // For a dependence-carrying loop the difference must be visible.
        assert!(
            released.cycles > eager.cycles,
            "the loop-carried counter must stall"
        );
    }

    #[test]
    fn cycle_breakdown_sums_to_total_and_leaves_result_unchanged() {
        use crate::metrics::{Cause, CycleBreakdown};
        let p = store_load_program();
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let config = TimingConfig::paper();
        let plain = simulate(&p, &tp, &descs, None, &config, 1_000_000).unwrap();

        let mut bd = CycleBreakdown::new();
        let attributed =
            simulate_with_sink(&p, &tp, &descs, None, &config, 1_000_000, &mut bd).unwrap();
        assert_eq!(plain, attributed, "sinks never alter cycle arithmetic");
        assert_eq!(bd.total(), plain.cycles, "attribution is exact");
        assert!(bd.get(Cause::UsefulIssue) > 0);

        // A real (mispredicting) predictor must surface squash cycles.
        let mut pred =
            TaskPredictor::<PathLeh2>::path(Dolc::new(4, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16);
        let mut bd2 = CycleBreakdown::new();
        let r2 = simulate_with_sink(
            &p,
            &tp,
            &descs,
            Some(&mut pred),
            &config,
            1_000_000,
            &mut bd2,
        )
        .unwrap();
        assert_eq!(bd2.total(), r2.cycles);
        if r2.task_mispredicts > 0 {
            assert!(bd2.get(Cause::SquashRefill) > 0, "misses must cost cycles");
        }
    }

    #[test]
    fn intra_task_branch_mispredicts_are_counted() {
        // A data-dependent alternating branch inside a task body.
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 500);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 1);
        let skip = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), skip);
        b.op_imm(AluOp::Add, Reg(4), Reg(4), 1);
        b.bind(skip);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = run(&p, None);
        // The alternating branch defeats a bimodal predictor; it may be a
        // task exit or internal depending on partitioning, so just check
        // the counter is wired (0 is only possible if it became an exit).
        assert!(r.intra_mispredicts < r.instructions);
    }
}
