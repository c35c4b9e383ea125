//! Record-once instruction replay for the timing simulator.
//!
//! One interpreter pass per benchmark ([`record_replay`]) captures every
//! timing-relevant fact about the execution into an [`InstrReplay`]. The
//! only dynamic decisions in a task are control flow — which way each
//! intra-task branch went and which exit the task took — plus the address
//! of each memory reference, so that is all a recording keeps of the run:
//! everything else is regenerated from the program's code table. The
//! recording is immutable and is shared behind `Arc`, so **every**
//! consumer of a benchmark's execution rides one recording: Table 4's five
//! predictor columns, `profile`, the `ext-memory`/`ext-intra`/
//! `ext-confidence` ablations and `ext-zoo`'s squash fractions (all timing
//! walks), and every functional trace consumer (the recording's boundary
//! section *is* the task trace, which [`derive_trace`] hands out).
//!
//! # Lanes
//!
//! Every production timing run is a lane of [`walk_lanes`]: one walk of
//! the recording regenerates each instruction once and steps every lane, a
//! lane being one column (an [`Outcomes`] and a [`TimingConfig`]). An
//! experiment walks a benchmark once: Table 4 and `profile` as five lanes,
//! `ext-memory` as four, `ext-intra` as three, `ext-confidence` as two and
//! `ext-zoo` as four. [`simulate_replay`] is one lane. The walk runs with
//! zero re-interpretation, and each lane's `TimingResult` is bit-identical
//! to [`crate::timing::simulate`]'s, which stays only as the test oracle.
//!
//! Prediction is not part of the walk: [`simulate_replay`] runs the
//! outcome pass ([`crate::measure::measure_outcomes`]) over the boundary
//! section, then walks one lane that reads one miss/gated byte per
//! boundary.
//!
//! # Layout
//!
//! A recording has four parts:
//!
//! * the **boundary section**, a [`SharedTrace`]: per dynamic task, one
//!   byte of the exit taken and the task's instruction count (a longer
//!   task escapes its count to a column of its own), and a stored target
//!   for each return or indirect exit, decoded in order against the
//!   partition's task table, which the section carries. Each boundary's
//!   task is the one the previous boundary's next pc enters (the first is
//!   the entry point's), and its kind and a static exit's next pc are the
//!   task header's. The cursor finds each boundary by counting down its
//!   task's instructions, and takes the next pc from the decoded `next`;
//! * the **code table**, one entry per static instruction of the program
//!   (its entry point too), plus a sentinel past the end. An entry is a
//!   `u32` op word and a `u32` static successor:
//!
//!   ```text
//!   op    bits  0..8   src1 register (NO_REG when absent)
//!         bits  8..16  src2 register (NO_REG when absent)
//!         bits 16..24  dest register (NO_REG when absent)
//!         bits 24..26  OpClass: 0 other, 1 load, 2 store, 3 conditional branch
//!         bit  26      the halt
//!         bit  27      the sentinel past the code (no stored op word has it)
//!   succ  the next pc inside a task: the fall-through, a conditional
//!         branch's taken target, a jump's or call's target; the code's
//!         length when only a boundary can say (a return, an indirect jump
//!         or call, the halt)
//!   ```
//!
//! * one **taken bit** per op, set on each taken intra-task conditional
//!   branch;
//! * the **word address** of each load and store, in program order.
//!
//! The cursor regenerates each step from the entry at its pc. The next pc
//! comes from the boundary's `next` on the op that ends its task, else
//! from the taken bit (a conditional branch not taken falls through), else
//! from the static successor. A boundary-crossing conditional branch is
//! classed `Other` there, as the interpreter step source classes it: the
//! intra predictor never sees it.
//!
//! # Where the instruction section lives
//!
//! The taken bits and the memory addresses form the instruction section,
//! which only timing walks read. It has one form: the artifact's run of
//! self-checked chunks of [`crate::codec::CHUNK_OPS`] ops, which the
//! recorder writes as it records. A fresh or decoded recording holds those
//! bytes. A recording loaded from the artifact cache
//! ([`crate::codec::open_replay`]) holds only its boundary section and its
//! code table, and each walk reads the section from disk. Either way one
//! chunk reader feeds the walk through one bounded buffer, checking each
//! chunk's bytes before any of its ops is stepped, and one cursor steps
//! the chunks in order, carrying its pc and its place in the task sequence
//! from each chunk to the next.
//!
//! Recording resolves every possible failure (execution faults, unmatched
//! exits, intra-task transfers without a static successor, the step
//! budget) up front. Loading a cached recording
//! ([`crate::codec::open_replay`] or [`crate::codec::decode_replay`], then
//! [`crate::codec::check_fits`]) rejects any artifact whose boundary
//! section, task table or code table is malformed or does not fit its
//! program and partition. A
//! section is checked as it is stepped: each step of the cursor flags
//! the rules of the path its op breaks (`ReplayCursor::check` lists
//! them). A held section keeps the rules, which recording guarantees
//! and decoding checks; a walk whose chunk read from disk fails its read
//! or its flags starts over on a fresh recording's section. The cursor
//! itself is total: its pc never leaves the code table and its sentinel,
//! and a missing memory address reads as word 0. That is why
//! [`simulate_replay`] is infallible.

use std::fmt;
use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{memory_words, Addr, Fingerprint, Instruction, Program, NUM_REGS};
use multiscalar_taskform::TaskProgram;

use crate::arb::ArbTable;
use crate::codec::{write_replay, ChunkReader, ChunkWriter, CodecError, StoredSection};
use crate::measure::{measure_outcomes, Outcomes};
use crate::metrics::{FrontierCause, MetricsSink, NoopSink, StallCause};
use crate::timing::{
    op_facts, static_successor, BoundaryStep, CoreStep, ForwardingModel, InterpSource, IntraState,
    NextTaskPredictor, OpClass, TimingConfig, TimingResult, ARB_FULL_PENALTY, DISPATCH_COST,
    INTRA_PENALTY, ISSUE_WIDTH, LOAD_LATENCY, NO_REG, N_UNITS, SQUASH_PENALTY, TASK_IDX_BITS,
    TASK_IDX_MASK, VIOLATION_PENALTY,
};
use crate::trace::{Events, SharedTrace, TaskEvent, TaskTable, TraceError, TraceRun, TraceStats};

const CLASS_SHIFT: u32 = 24;
/// The op-word bit that marks the halt.
pub(crate) const HALT_BIT: u32 = 1 << 26;
/// The op-word bit that marks the sentinel past the code. The loader
/// refuses a stored op word with any bit above the halt's, so a step that
/// reads this bit has left the code.
pub(crate) const SENTINEL_BIT: u32 = HALT_BIT << 1;

#[inline]
fn pack_op(src1: u8, src2: u8, dest: u8, class: OpClass) -> u32 {
    (src1 as u32) | (src2 as u32) << 8 | (dest as u32) << 16 | (class as u32) << CLASS_SHIFT
}

/// One static instruction in a [`CodeTable`]: its op word and its static
/// successor (see the module's layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CodeEntry {
    pub(crate) op: u32,
    pub(crate) succ: u32,
}

impl CodeEntry {
    /// The entry's class.
    #[inline(always)]
    pub(crate) fn class(self) -> OpClass {
        OpClass::from_u8(((self.op >> CLASS_SHIFT) & 0x3) as u8)
    }

    /// The entry's source registers, destination register and class,
    /// as [`op_facts`] gives them for its instruction.
    #[inline(always)]
    pub(crate) fn facts(self) -> (u8, u8, u8, OpClass) {
        let op = self.op;
        (op as u8, (op >> 8) as u8, (op >> 16) as u8, self.class())
    }

    /// Whether the instruction is the halt.
    pub(crate) fn is_halt(self) -> bool {
        self.op & HALT_BIT != 0
    }

    /// The pc after this entry's op at `pc` when the op ends no task:
    /// a conditional branch falls through unless `taken`, anything else
    /// goes to its static successor. This is the one next-pc rule: the
    /// cursor regenerates each step with it, and the interpreter step
    /// source refuses a step that leaves it.
    #[inline(always)]
    pub(crate) fn next(self, pc: u32, taken: bool) -> u32 {
        if self.class() == OpClass::Branch && !taken {
            pc + 1
        } else {
            self.succ
        }
    }
}

/// A program's code table: its entry point and one [`CodeEntry`] per
/// static instruction, then a sentinel at the code's length, an ALU op
/// that succeeds itself, so a walk's pc stays in the table whatever bits
/// it is fed. No valid path reaches the sentinel; its op word carries
/// [`SENTINEL_BIT`], which the cursor's step flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodeTable {
    /// Where every walk starts.
    pub(crate) entry: u32,
    /// The code's entries and the sentinel.
    entries: Vec<CodeEntry>,
}

impl CodeTable {
    /// The code table of `program`.
    pub(crate) fn of(program: &Program) -> CodeTable {
        let len = program.len() as u32;
        let entries = program
            .code()
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                let (src1, src2, dest, class) = op_facts(inst);
                let halt = matches!(inst, Instruction::Halt) as u32 * HALT_BIT;
                CodeEntry {
                    op: pack_op(src1, src2, dest, class) | halt,
                    succ: static_successor(inst, Addr(pc as u32)).map_or(len, |a| a.0.min(len)),
                }
            })
            .collect();
        CodeTable::with_sentinel(program.entry_point().0, entries)
    }

    /// The table of `entries` entered at `entry`, with its sentinel.
    pub(crate) fn with_sentinel(entry: u32, mut entries: Vec<CodeEntry>) -> CodeTable {
        let len = entries.len() as u32;
        entries.push(CodeEntry {
            op: pack_op(NO_REG, NO_REG, NO_REG, OpClass::Other) | SENTINEL_BIT,
            succ: len,
        });
        CodeTable { entry, entries }
    }

    /// Static instructions in the code, the sentinel not counted.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - 1
    }

    /// The code's entries, without the sentinel.
    pub(crate) fn code(&self) -> &[CodeEntry] {
        &self.entries[..self.len()]
    }

    /// The entry at `pc`, which is at most the code's length.
    #[inline(always)]
    pub(crate) fn at(&self, pc: u32) -> CodeEntry {
        self.entries[pc as usize]
    }

    /// The code's entries, for tampering in tests.
    #[cfg(test)]
    pub(crate) fn code_mut(&mut self) -> &mut [CodeEntry] {
        let len = self.len();
        &mut self.entries[..len]
    }
}

/// A recorded execution: everything the timing model needs to re-run a
/// benchmark without the interpreter. Built by [`record_replay`] or loaded
/// from the artifact cache ([`crate::codec`]); shared immutably (wrap in
/// [`Arc`] via [`InstrReplay::into_shared`]) across the pool jobs that
/// consume it.
///
/// A recording has a boundary section, the task trace every predictor
/// sweep reads; the program's code table; and an instruction section (the
/// taken bits and the memory addresses), which only timing walks read, in
/// the artifact's chunks. A fresh or decoded recording holds those bytes;
/// a recording loaded from disk ([`crate::codec::open_replay`]) does not,
/// and each walk reads them from disk
/// ([`InstrReplay::holds_instructions`]).
pub struct InstrReplay {
    /// The instruction section, or where to read it.
    pub(crate) section: Section,
    /// Committed instructions: the op count, known without the
    /// instruction section.
    pub(crate) instructions: u64,
    /// The loads and stores: how many memory addresses the instruction
    /// section holds.
    pub(crate) mem_addrs: u64,
    /// The boundary section: one event per task boundary, in order, whose
    /// `instrs` counts the retiring task's ops, the crossing one included,
    /// held compact with the task table it decodes against. The halting
    /// task, which crosses none, gets no event. This is the benchmark's
    /// task trace; [`derive_trace`] shares it.
    pub(crate) bounds: Arc<SharedTrace>,
    /// The program's code table, which every op is regenerated from.
    pub(crate) code: CodeTable,
    /// The program's data-memory size in words
    /// ([`multiscalar_isa::memory_words`]), for the core's store table.
    pub(crate) mem_words: usize,
}

/// Where a recording's instruction section lives. Either way it is the
/// artifact's run of chunks ([`crate::codec`]), read through one
/// [`ChunkReader`].
pub(crate) enum Section {
    /// In memory: a fresh or decoded recording's.
    Held(Vec<u8>),
    /// On disk: a recording loaded from the artifact cache.
    Stored(StoredSection),
}

impl InstrReplay {
    /// Whether the recording holds its instruction section in memory. A
    /// fresh or decoded recording does. One loaded from the artifact cache
    /// does not, before or after any number of walks, unless reading the
    /// stored section failed during a walk: it then keeps the re-recorded
    /// section.
    pub fn holds_instructions(&self) -> bool {
        self.unread_section().is_none()
    }

    /// The stored section a walk reads from disk, unless the recording
    /// holds its section.
    fn unread_section(&self) -> Option<&StoredSection> {
        match &self.section {
            Section::Stored(stored) if stored.replaced().is_none() => Some(stored),
            _ => None,
        }
    }

    /// The chunks of the instruction section, read in order: held bytes
    /// from memory (a re-recorded section's once a stored one failed), a
    /// stored section from its reopened artifact.
    pub(crate) fn chunks(&self) -> Result<ChunkReader<'_>, CodecError> {
        match &self.section {
            Section::Held(bytes) => Ok(ChunkReader::held(bytes, self)),
            Section::Stored(stored) => match stored.replaced() {
                Some(fresh) => fresh.chunks(),
                None => stored.open(),
            },
        }
    }

    /// Committed instructions in the recording.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Wraps the recording for sharing across pool jobs.
    pub fn into_shared(self) -> Arc<InstrReplay> {
        Arc::new(self)
    }
}

/// Recordings are equal when their artifacts are, under one key: every
/// part, the instruction section byte for byte. Comparing one loaded from
/// disk reads its section; a section that fails its read equals none.
impl PartialEq for InstrReplay {
    fn eq(&self, other: &InstrReplay) -> bool {
        let artifact = |r| write_replay(r, Fingerprint { hi: 0, lo: 0 }, Vec::new());
        matches!((artifact(self), artifact(other)), (Ok(a), Ok(b)) if a == b)
    }
}

impl fmt::Debug for InstrReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrReplay")
            .field("instructions", &self.instructions)
            .field("boundaries", &self.bounds.len())
            .field("code", &self.code.len())
            .field("mem_words", &self.mem_words)
            .field("holds_instructions", &self.holds_instructions())
            .finish()
    }
}

/// A run of consecutive ops of a recording and the memory addresses they
/// consume: what the cursor steps, one chunk of the instruction section
/// ([`crate::codec::CHUNK_OPS`] ops, the last chunk the rest).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk<'a> {
    /// Taken bits; the next op reads bit `at`, and the chunk ends at bit
    /// `end`.
    pub(crate) taken: &'a [u8],
    pub(crate) at: usize,
    pub(crate) end: usize,
    /// The addresses its remaining loads and stores consume.
    pub(crate) mem_addrs: &'a [u32],
    /// Whether the chunk ends the recording, so its last op is the halt.
    pub(crate) last: bool,
}

/// Executes the program once and records its [`InstrReplay`].
///
/// The recording drains the interpreter step source that also feeds
/// [`crate::timing::simulate`], writing each step's taken bit and memory
/// address into the instruction section's chunks as the artifact lays
/// them out, and each boundary into the boundary section in its compact
/// form: the exit, the task's size, and a target only where the task
/// header has none. Both grow as they fill. It therefore fails in exactly
/// the situations the oracle does: execution faults, unmatched boundary
/// crossings, intra-task transfers without a static successor, and
/// step-budget exhaustion.
pub fn record_replay(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<InstrReplay, TraceError> {
    let mut source = InterpSource::new(program, tasks, max_steps);
    let mut section = ChunkWriter::default();
    let code = source.code();
    let mut bounds = SharedTrace::new(TaskTable::of(tasks, code), code.entry);

    let mut task_instrs = 0u32;
    loop {
        let step = source.next_step()?;
        let mem = matches!(step.class, OpClass::Load | OpClass::Store).then_some(step.mem_addr);
        section.push(step.taken, mem);
        task_instrs += 1;
        if let Some(b) = step.boundary {
            bounds.push(b, task_instrs);
            task_instrs = 0;
        }
        if step.halt {
            // The halting instruction is the recording's last op.
            break;
        }
    }

    let (bytes, instructions, mem_addrs) = section.finish();
    Ok(InstrReplay {
        section: Section::Held(bytes),
        instructions,
        mem_addrs,
        bounds: Arc::new(bounds),
        code: source.into_code(),
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
/// Panics if the recording's task table has a task outside `tasks` (a
/// recording is only meaningful under the partition it was recorded with;
/// the cache guarantees this by keying on both fingerprints, and
/// [`crate::codec::check_fits`] checks the task table against the
/// partition on load).
pub fn derive_trace(replay: &InstrReplay, tasks: &TaskProgram) -> TraceRun {
    TraceRun {
        events: Arc::clone(&replay.bounds),
        stats: TraceStats::of(&replay.bounds, tasks, replay.instructions()),
    }
}

/// A cursor stepping a recording's chunks in order, regenerating each op
/// from the code table. It carries the pc and the task clock from each
/// chunk to the next. Total: its pc stays in the table, a missing memory
/// address reads as word 0, and recording guarantees neither happens on
/// a fresh path. Each step flags the rules of the path its op breaks
/// ([`ReplayCursor::check`]).
pub(crate) struct ReplayCursor<'a> {
    /// The code table's entries, its sentinel included.
    code: &'a [CodeEntry],
    /// The next op's pc.
    pc: u32,
    /// Where the walk is in the task sequence.
    clock: TaskClock<'a>,
    /// The rules its steps found broken, one bit each.
    flags: u32,
}

/// Where a walk is in the recording's task sequence: the boundary section
/// decoded in order, one boundary ahead.
struct TaskClock<'a> {
    /// The boundaries after the current task's.
    events: Events<'a>,
    /// The current task's boundary; `None` in the halting task.
    current: Option<TaskEvent>,
    /// Ops left in the current task, the boundary-crossing one included;
    /// `u64::MAX` in the halting task, which crosses none.
    left: u64,
}

impl<'a> TaskClock<'a> {
    /// The start of a recording with boundary section `bounds`.
    fn start(bounds: &'a SharedTrace) -> TaskClock<'a> {
        let mut clock = TaskClock {
            events: bounds.iter(),
            current: None,
            left: 0,
        };
        clock.advance();
        clock
    }

    /// Moves to the next task.
    #[inline(always)]
    fn advance(&mut self) {
        self.current = self.events.next();
        self.left = self.current.map_or(u64::MAX, |e| u64::from(e.instrs));
    }

    /// Counts one op: the boundary it crosses, if it ends its task. Task
    /// sizes are at least 1 (recording guarantees it; loading checks it),
    /// so the count never underflows.
    #[inline(always)]
    fn tick(&mut self) -> Option<TaskEvent> {
        self.left -= 1;
        if self.left != 0 {
            return None;
        }
        let ended = self.current;
        self.advance();
        ended
    }
}

// The rules a step enforces, one flag bit each. A path that reaches the
// sentinel flags its op-word bit.
/// The halt is not the recording's last op, or its last op is no halt.
const MISPLACED_HALT: u32 = 1;
/// A taken bit is set on an op that is not an intra-task conditional
/// branch.
const STRAY_TAKEN: u32 = 1 << 1;
/// A load or store found no address left in its chunk, or the chunk ended
/// with addresses left.
const UNMATCHED_ADDRESS: u32 = 1 << 2;

impl<'a> ReplayCursor<'a> {
    /// A cursor at the first op of the recording whose code table is
    /// `code` and whose boundary section is `bounds`.
    pub(crate) fn new(code: &'a CodeTable, bounds: &'a SharedTrace) -> ReplayCursor<'a> {
        ReplayCursor {
            code: &code.entries,
            pc: code.entry,
            clock: TaskClock::start(bounds),
            flags: 0,
        }
    }

    /// The next op of `chunk`, or `None` past its last. The next pc is the
    /// boundary's `next` on an op that ends its task, else the entry's
    /// [`CodeEntry::next`]. The step also flags the rules the op breaks,
    /// for [`ReplayCursor::check`]. Forced inline so the step lives in the
    /// walk's loop, in registers.
    #[inline(always)]
    pub(crate) fn step(&mut self, chunk: &mut Chunk<'_>) -> Option<CoreStep> {
        let i = chunk.at;
        if i == chunk.end {
            return None;
        }
        chunk.at = i + 1;
        let pc = self.pc;
        let entry = self.code[pc as usize];
        let bit = (chunk.taken[i / 8] >> (i % 8)) & 1 != 0;
        let bound = self.clock.tick();
        self.pc = match bound {
            Some(e) => e.next.0,
            None => entry.next(pc, bit),
        };
        let mut class = entry.class();

        let mem_addr = if matches!(class, OpClass::Load | OpClass::Store) {
            match chunk.mem_addrs.split_first() {
                Some((&a, rest)) => {
                    chunk.mem_addrs = rest;
                    a
                }
                None => {
                    self.flags |= UNMATCHED_ADDRESS;
                    0
                }
            }
        } else {
            0
        };

        // The halting instruction is always the recording's last op, and
        // the task sizes leave the halting task its op, so the halt is
        // never a boundary.
        let halt = chunk.last & (chunk.at == chunk.end);
        let stray = bit & (bound.is_some() | (class != OpClass::Branch));
        self.flags |= entry.op & SENTINEL_BIT;
        self.flags |= u32::from(entry.is_halt() != halt) * MISPLACED_HALT;
        self.flags |= u32::from(stray) * STRAY_TAKEN;
        let mut taken = false;
        let boundary = match bound {
            Some(e) => {
                // The intra predictor never sees boundary-crossing
                // branches.
                if class == OpClass::Branch {
                    class = OpClass::Other;
                }
                Some(BoundaryStep {
                    task: e.task.0,
                    exit: e.exit,
                    next: e.next,
                })
            }
            None => {
                taken = bit & (class == OpClass::Branch);
                None
            }
        };

        Some(CoreStep {
            src1: entry.op as u8,
            src2: (entry.op >> 8) as u8,
            dest: (entry.op >> 16) as u8,
            class,
            mem_addr,
            pc: Addr(pc),
            taken,
            halt,
            boundary,
        })
    }

    /// Ends `chunk`, which the cursor has stepped to its end: the first
    /// rule its steps broke, in the order below, or addresses left
    /// unused. Every pc is inside the code, so an op that ends no
    /// task has a static successor; the halt is the recording's last op
    /// and no other; a set taken bit sits only on an intra-task
    /// conditional branch; and a chunk's loads and stores use exactly its
    /// addresses.
    pub(crate) fn check(&self, chunk: &Chunk<'_>) -> Result<(), CodecError> {
        let mut flags = self.flags;
        if !chunk.mem_addrs.is_empty() {
            flags |= UNMATCHED_ADDRESS;
        }
        let broken = [
            (SENTINEL_BIT, "an op inside a task has no static successor"),
            (MISPLACED_HALT, "the halt is not the recording's last op"),
            (STRAY_TAKEN, "taken bit off an intra-task branch"),
            (UNMATCHED_ADDRESS, "load/store count differs from mem_addrs"),
        ]
        .into_iter()
        .find(|&(flag, _)| flags & flag != 0);
        match broken {
            Some((_, what)) => Err(CodecError::Malformed(what)),
            None => Ok(()),
        }
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
/// section, then a one-lane [`walk_lanes`]. Breakdowns are
/// engine-independent: the lane reports the same sink stream as
/// [`crate::timing::simulate_with_sink`] for the same execution.
pub fn simulate_replay_with_sink<M: MetricsSink>(
    replay: &InstrReplay,
    descs: &[TaskDesc],
    predictor: Option<&mut dyn NextTaskPredictor>,
    config: &TimingConfig,
    sink: &mut M,
) -> TimingResult {
    let outcomes = measure_outcomes(predictor, descs, &replay.bounds, None);
    let lane = Lane {
        outcomes: &outcomes,
        config: *config,
    };
    walk_lanes(replay, &[lane], std::slice::from_mut(sink))[0]
}

fn assert_covers(replay: &InstrReplay, outcomes: &Outcomes) {
    assert_eq!(
        outcomes.bits().len(),
        replay.bounds.len(),
        "a walk takes exactly one outcome per boundary"
    );
}

/// One column of a lockstep walk ([`walk_lanes`]): the outcome bits it
/// reads and the machine it times. Lanes borrow their outcomes, so several
/// machines can walk one prediction pass, and a gated run is a lane of
/// gated outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a> {
    /// One outcome byte per boundary of the recording.
    pub outcomes: &'a Outcomes,
    /// The machine this lane times.
    pub config: TimingConfig,
}

/// Lanes one walk carries at most: the widest walk an experiment runs
/// (Table 4's five columns, and `profile`'s).
const MAX_LANES: usize = 5;

/// Times several columns over one recording in a **single** walk: lane `i`
/// reads `lanes[i].outcomes`, times `lanes[i].config` and reports to
/// `sinks[i]`, and its result is bit-identical to a solo run of the
/// interpreter-fed scalar core (`timing::simulate_core`) over the recorded
/// execution with the same outcomes, machine and sink.
///
/// Each recorded instruction is decoded once. Everything that depends only
/// on the recording is computed once per step and shared: the intra-task
/// predictor is stepped once per distinct
/// [`IntraPredictorKind`](crate::timing::IntraPredictorKind) (its miss
/// bit is a function of the branch stream), the ARB table once per
/// distinct geometry, and the register mask of the current task once. The
/// clocks, scoreboard and store table are rows of one value per lane, so
/// the per-lane work is a short loop over `N` lanes, monomorphised for
/// `N` in `1..=5`.
///
/// # Panics
///
/// If `sinks` and `lanes` differ in length, more than five lanes are asked
/// for (no experiment walks more), or a lane's outcomes do not cover
/// exactly the recording's boundaries.
pub fn walk_lanes<M: MetricsSink>(
    replay: &InstrReplay,
    lanes: &[Lane],
    sinks: &mut [M],
) -> Vec<TimingResult> {
    assert_eq!(lanes.len(), sinks.len(), "one sink per lane");
    assert!(
        lanes.len() <= MAX_LANES,
        "a walk carries at most {MAX_LANES} lanes"
    );
    for lane in lanes {
        assert_covers(replay, lane.outcomes);
    }
    match lanes.len() {
        0 => Vec::new(),
        1 => walk_n::<1, M>(replay, lanes, sinks).into(),
        2 => walk_n::<2, M>(replay, lanes, sinks).into(),
        3 => walk_n::<3, M>(replay, lanes, sinks).into(),
        4 => walk_n::<4, M>(replay, lanes, sinks).into(),
        _ => walk_n::<MAX_LANES, M>(replay, lanes, sinks).into(),
    }
}

/// One lockstep walk of exactly `N` lanes.
fn walk_n<const N: usize, M: MetricsSink>(
    replay: &InstrReplay,
    lanes: &[Lane],
    sinks: &mut [M],
) -> [TimingResult; N] {
    let lanes: &[Lane; N] = lanes.try_into().expect("exactly N lanes");
    let sinks: &mut [M; N] = sinks.try_into().expect("one sink per lane");
    // A bad chunk of a section read from disk turns up after the walk has
    // stepped ops it must not count: the walk starts over on the
    // re-recorded section, with the sinks it began with. A held section
    // keeps the rules: recording guarantees them, and decoding checks them.
    let mut begun = replay
        .unread_section()
        .map(|stored| (stored, sinks.clone()));
    loop {
        match walk_section(replay, lanes, sinks) {
            Ok(results) => return results,
            Err(e) => {
                let (stored, begun) = begun
                    .take()
                    .expect("only a section read from disk fails, once");
                stored.fallback(e);
                *sinks = begun;
            }
        }
    }
}

/// [`walk_n`] over the recording's chunks, each checked as the walk
/// steps it; the first chunk that fails its read or its check ends the
/// walk.
fn walk_section<const N: usize, M: MetricsSink>(
    replay: &InstrReplay,
    lanes: &[Lane; N],
    sinks: &mut [M; N],
) -> Result<[TimingResult; N], CodecError> {
    let mut chunks = replay.chunks()?;
    let mut core = LaneCore::new(lanes, replay.mem_words, sinks);
    let mut cursor = ReplayCursor::new(&replay.code, &replay.bounds);
    while let Some(mut chunk) = chunks.next_chunk()? {
        while let Some(step) = cursor.step(&mut chunk) {
            core.on_step(&step, sinks);
        }
        cursor.check(&chunk)?;
    }
    Ok(core.finish(sinks))
}

/// The distinct values of `keys`, in first-seen order, each with the mask
/// of the lanes that have it.
fn lane_groups<K: PartialEq>(keys: impl Iterator<Item = K>) -> Vec<(K, u32)> {
    let mut groups: Vec<(K, u32)> = Vec::new();
    for (i, key) in keys.enumerate() {
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, mask)) => *mask |= 1 << i,
            None => groups.push((key, 1 << i)),
        }
    }
    groups
}

/// The state of an `N`-lane walk: the scalar core's state (`CoreState`),
/// with every per-machine value widened to a row of `N` and every value
/// that depends only on the recording kept once. Bit `i` of a lane mask
/// stands for lane `i`.
struct LaneCore<'a, const N: usize> {
    /// Each lane's outcome bytes, one per boundary.
    outcomes: [&'a [u8]; N],
    /// One intra-task predictor per distinct kind, with its lanes.
    intra: Vec<(IntraState, u32)>,
    /// One ARB table per distinct geometry, with its lanes; lanes with an
    /// ideal memory system are in none.
    arb: Vec<(ArbTable, u32)>,
    /// The lanes that forward registers release-at-end.
    release_at_end: u32,
    /// Registers the current task has written. Only release-at-end lanes
    /// read it.
    written_this_task: u32,
    instructions: u64,
    /// Boundaries crossed so far: the current task's index, and the number
    /// of dynamic tasks once the walk ends.
    task_index: u64,
    /// `task_index % N_UNITS`, maintained incrementally.
    cur_unit: usize,
    /// Per-lane event counts; the shared counts and `cycles` are filled in
    /// by `finish`.
    result: [TimingResult; N],
    /// Per word, each lane's `issue_time << TASK_IDX_BITS | task` of the
    /// word's last store (the scalar core's `last_store`). Allocated
    /// zeroed, so words no store touches cost neither a memset nor a page.
    last_store: Vec<[u64; N]>,
    max_store_time: [u64; N],
    avail: [[u64; N]; NUM_REGS],
    released: [[u64; N]; NUM_REGS],
    unit_free: [[u64; N]; N_UNITS],
    prev_commit: [u64; N],
    dispatch: [u64; N],
    t_issue: [u64; N],
    slots: [u32; N],
    complete: [u64; N],
}

impl<'a, const N: usize> LaneCore<'a, N> {
    /// The state at a walk's first op, whose startup each lane reports to
    /// its sink.
    fn new<M: MetricsSink>(
        lanes: &[Lane<'a>; N],
        mem_words: usize,
        sinks: &mut [M; N],
    ) -> LaneCore<'a, N> {
        let intra = lane_groups(lanes.iter().map(|l| l.config.intra_predictor))
            .into_iter()
            .map(|(kind, mask)| (IntraState::new(kind), mask))
            .collect();
        let arb = lane_groups(lanes.iter().map(|l| l.config.arb))
            .into_iter()
            .filter_map(|(arb, mask)| arb.map(|a| (ArbTable::new(a), mask)))
            .collect();
        let release_at_end = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.config.forwarding == ForwardingModel::ReleaseAtEnd)
            .fold(0, |mask, (i, _)| mask | 1 << i);
        let dispatch = 1u64; // first dispatch
        let t_issue = dispatch + 1;
        if M::ENABLED {
            for sink in sinks.iter_mut() {
                sink.frontier(0, t_issue, FrontierCause::Startup);
            }
        }
        LaneCore {
            outcomes: lanes.map(|l| l.outcomes.bits()),
            intra,
            arb,
            release_at_end,
            written_this_task: 0,
            instructions: 0,
            task_index: 0,
            cur_unit: 0,
            result: [TimingResult {
                instructions: 0,
                cycles: 0,
                dynamic_tasks: 0,
                task_mispredicts: 0,
                intra_mispredicts: 0,
                arb_violations: 0,
                arb_full_stalls: 0,
                gated_boundaries: 0,
            }; N],
            last_store: vec![[0; N]; mem_words],
            max_store_time: [0; N],
            avail: [[0; N]; NUM_REGS],
            released: [[0; N]; NUM_REGS],
            unit_free: [[0; N]; N_UNITS],
            prev_commit: [0; N],
            dispatch: [dispatch; N],
            t_issue: [t_issue; N],
            slots: [0; N],
            complete: [t_issue; N],
        }
    }

    /// Accounts one instruction in every lane: `CoreState::on_step`, with
    /// each lane's sink hooks in the scalar core's order.
    #[inline(always)]
    fn on_step<M: MetricsSink>(&mut self, step: &CoreStep, sinks: &mut [M; N]) {
        self.instructions += 1;

        // --- issue timing for this instruction --------------------------
        let mut ready = self.t_issue;
        for r in [step.src1, step.src2] {
            if r == NO_REG {
                continue;
            }
            let r = r as usize;
            // Release-at-end lanes read an older task's value at its
            // release time; values this task produced bypass locally.
            let from_release = if self.written_this_task & (1 << r) == 0 {
                self.release_at_end
            } else {
                0
            };
            if from_release == 0 {
                for (t, &avail) in ready.iter_mut().zip(&self.avail[r]) {
                    *t = (*t).max(avail);
                }
            } else {
                for (i, t) in ready.iter_mut().enumerate() {
                    let row = if from_release & (1 << i) != 0 {
                        &self.released[r]
                    } else {
                        &self.avail[r]
                    };
                    *t = (*t).max(row[i]);
                }
            }
        }
        let mut issue = [0u64; N];
        for i in 0..N {
            if ready[i] > self.t_issue[i] {
                if M::ENABLED {
                    sinks[i].issue_stall(StallCause::Dataflow, ready[i] - self.t_issue[i]);
                }
                self.t_issue[i] = ready[i];
                self.slots[i] = 0;
            }
            issue[i] = self.t_issue[i];
            self.slots[i] += 1;
            if self.slots[i] >= ISSUE_WIDTH {
                self.t_issue[i] += 1;
                self.slots[i] = 0;
            }
        }
        let latency = match step.class {
            OpClass::Load => LOAD_LATENCY,
            _ => 1,
        };

        // --- memory disambiguation -----------------------------------------
        if matches!(step.class, OpClass::Load | OpClass::Store) {
            let ea = step.mem_addr;
            if step.class == OpClass::Load {
                self.check_violations(ea as usize, &issue, sinks);
            } else {
                let latest = issue.iter().fold(0, |acc, &t| acc | t);
                assert!(
                    latest >> (64 - TASK_IDX_BITS) == 0 && self.task_index <= TASK_IDX_MASK,
                    "last_store packing overflow"
                );
                let row = &mut self.last_store[ea as usize];
                for i in 0..N {
                    row[i] = issue[i] << TASK_IDX_BITS | self.task_index;
                    self.max_store_time[i] = self.max_store_time[i].max(issue[i]);
                }
            }
            let mut full = 0;
            for (arb, lanes) in &mut self.arb {
                if !arb.reference(ea) {
                    full |= *lanes;
                }
            }
            for (i, sink) in sinks.iter_mut().enumerate() {
                if full & (1 << i) != 0 {
                    // No free entry: the reference goes untracked and
                    // issue stalls.
                    self.result[i].arb_full_stalls += 1;
                    if M::ENABLED {
                        sink.issue_stall(StallCause::ArbFull, ARB_FULL_PENALTY);
                    }
                    self.t_issue[i] += ARB_FULL_PENALTY;
                    self.slots[i] = 0;
                }
            }
        }
        if step.dest != NO_REG {
            let d = step.dest as usize;
            for (avail, &t) in self.avail[d].iter_mut().zip(&issue) {
                *avail = t + latency;
            }
            self.written_this_task |= 1 << d;
        }
        for i in 0..N {
            let done = issue[i] + latency;
            if done > self.complete[i] {
                if M::ENABLED {
                    sinks[i].frontier(self.complete[i], done, FrontierCause::Issue);
                }
                self.complete[i] = done;
            }
        }

        if step.halt {
            return;
        }
        match step.boundary {
            Some(_) => self.retire(sinks),
            None if step.class == OpClass::Branch => self.intra_branch(step, &issue, sinks),
            None => {}
        }
    }

    /// Times a load against the last older task's store to its word, in
    /// every lane whose stores could still be in flight.
    #[inline(always)]
    fn check_violations<M: MetricsSink>(
        &mut self,
        ea: usize,
        issue: &[u64; N],
        sinks: &mut [M; N],
    ) {
        // A lane whose every store issued no later than this load cannot
        // trip the check, so the store row is read only when a lane can.
        let mut maybe = 0u32;
        for (i, (&latest, &t)) in self.max_store_time.iter().zip(issue).enumerate() {
            maybe |= ((latest > t) as u32) << i;
        }
        if maybe == 0 {
            return;
        }
        let row = self.last_store[ea];
        for i in 0..N {
            if maybe & (1 << i) == 0 {
                continue;
            }
            let store_time = row[i] >> TASK_IDX_BITS;
            let store_task = row[i] & TASK_IDX_MASK;
            if store_task < self.task_index && store_time > issue[i] {
                // Violation: the load's task re-executes from here.
                self.result[i].arb_violations += 1;
                self.t_issue[i] = store_time + VIOLATION_PENALTY;
                self.slots[i] = 0;
                let to = self.complete[i].max(self.t_issue[i]);
                if M::ENABLED {
                    sinks[i].frontier(self.complete[i], to, FrontierCause::Violation);
                }
                self.complete[i] = to;
            }
        }
    }

    /// An intra-task conditional branch: each distinct predictor predicts
    /// and trains once, and each of its lanes that missed redirects.
    #[inline(always)]
    fn intra_branch<M: MetricsSink>(
        &mut self,
        step: &CoreStep,
        issue: &[u64; N],
        sinks: &mut [M; N],
    ) {
        let mut missed = 0;
        for (intra, lanes) in &mut self.intra {
            if intra.predict(step.pc) != step.taken {
                missed |= *lanes;
            }
            intra.update(step.pc, step.taken);
        }
        for i in 0..N {
            if missed & (1 << i) != 0 {
                self.result[i].intra_mispredicts += 1;
                let redirect = issue[i] + 1 + INTRA_PENALTY;
                if M::ENABLED {
                    sinks[i].issue_stall(
                        StallCause::IntraMispredict,
                        redirect.saturating_sub(self.t_issue[i]),
                    );
                }
                self.t_issue[i] = redirect;
                self.slots[i] = 0;
            }
        }
    }

    /// Retires the current task at its boundary and dispatches the next,
    /// in every lane by its own outcome bit.
    fn retire<M: MetricsSink>(&mut self, sinks: &mut [M; N]) {
        let k = self.task_index as usize;
        // Release-at-end lanes release the finished task's created
        // registers (the header's create mask, §2.1) to younger tasks.
        if self.release_at_end != 0 {
            let mut written = self.written_this_task;
            while written != 0 {
                let r = written.trailing_zeros() as usize;
                written &= written - 1;
                for i in 0..N {
                    if self.release_at_end & (1 << i) != 0 {
                        self.released[r][i] = self.released[r][i].max(self.complete[i]);
                    }
                }
            }
        }
        self.written_this_task = 0;
        // Commit is strictly FIFO, so the retiring task's ARB entries are
        // freed at every task retirement.
        for (arb, _) in &mut self.arb {
            arb.clear();
        }
        let unit = self.cur_unit;
        let next_unit = if unit + 1 == N_UNITS { 0 } else { unit + 1 };
        for (i, sink) in sinks.iter_mut().enumerate() {
            let bits = self.outcomes[i][k];
            let miss = bits & Outcomes::MISS != 0;
            let gated = bits & Outcomes::GATED != 0;
            self.result[i].task_mispredicts += miss as u64;
            self.result[i].gated_boundaries += gated as u64;
            let complete = self.complete[i];
            let commit = complete.max(self.prev_commit[i]);
            // Sanitizer: commit is strictly FIFO, so the commit clock and
            // every unit's free time can only move forward.
            #[cfg(feature = "sanitize")]
            {
                assert!(
                    commit >= self.prev_commit[i],
                    "sanitize: lane {i} commit time went backwards ({commit} < {})",
                    self.prev_commit[i]
                );
                assert!(
                    commit + 1 >= self.unit_free[unit][i],
                    "sanitize: lane {i} unit {unit} free time went backwards ({} -> {})",
                    self.unit_free[unit][i],
                    commit + 1
                );
            }
            self.unit_free[unit][i] = commit + 1;
            let free = self.unit_free[next_unit][i];
            let next_dispatch = if miss && !gated {
                // Mispredicted: squash when this task completes, then the
                // correct next task dispatches after recovery.
                complete + SQUASH_PENALTY
            } else if gated {
                // Speculation withheld: the next task starts once this
                // boundary resolves — no squash, but no overlap.
                complete.max(free)
            } else {
                (self.dispatch[i] + DISPATCH_COST).max(free)
            };
            self.prev_commit[i] = commit;
            self.dispatch[i] = next_dispatch.max(self.dispatch[i] + DISPATCH_COST);
            self.t_issue[i] = (self.dispatch[i] + 1).max(free);
            self.slots[i] = 0;
            let to = complete.max(self.t_issue[i]);
            if M::ENABLED {
                let cause = if miss && !gated {
                    FrontierCause::Squash
                } else if gated {
                    FrontierCause::Gated
                } else {
                    FrontierCause::Dispatch
                };
                sink.frontier(complete, to, cause);
                sink.boundary(commit, self.dispatch[i]);
            }
            self.complete[i] = to;
        }
        self.task_index += 1;
        self.cur_unit = next_unit;
    }

    /// Ends the walk: every lane's result, reported to its sink.
    fn finish<M: MetricsSink>(self, sinks: &mut [M; N]) -> [TimingResult; N] {
        std::array::from_fn(|i| {
            let result = TimingResult {
                instructions: self.instructions,
                cycles: self.complete[i].max(self.prev_commit[i]),
                dynamic_tasks: self.task_index,
                ..self.result[i]
            };
            sinks[i].finish(&result);
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::task_descs;
    use crate::metrics::CycleBreakdown;
    use crate::timing::{simulate, simulate_core};
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_core::predictor::TaskPredictor;
    use multiscalar_isa::{AluOp, Cond, ExecError, ExitKind, FuncId, ProgramBuilder, Reg};
    use multiscalar_taskform::{ExitSpec, Task, TaskFormer, TaskHeader, TaskId};

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

    /// A hand partition: task `i` enters at `tasks[i].0` with the header
    /// exits `tasks[i].1`, and `owners[pc]` owns each pc.
    fn partition(tasks: Vec<(u32, Vec<ExitSpec>)>, owners: &[u32]) -> TaskProgram {
        let tasks = tasks
            .into_iter()
            .enumerate()
            .map(|(i, (entry, exits))| {
                let id = TaskId(i as u32);
                let size = owners.iter().filter(|&&o| o == id.0).count();
                let header = TaskHeader::new(exits);
                Task::from_raw_parts(id, FuncId(0), Addr(entry), header, vec![Addr(entry)], size)
            })
            .collect();
        TaskProgram::from_raw_parts(tasks, owners.iter().map(|&o| TaskId(o)).collect())
    }

    /// `emit`'s code as `main`.
    fn program_of(emit: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        emit(&mut b);
        b.end_function();
        b.finish(main).unwrap()
    }

    /// Every way the step source fails, each on a hand partition: the
    /// recorder and the interpreter-fed oracle drain the same source, so
    /// each returns the same error, field for field, or the same op count.
    #[test]
    fn the_recorder_and_the_oracle_fail_alike() {
        // `li r1, 0; li r2, 1; halt`
        let straight = program_of(|b| {
            b.load_imm(Reg(1), 0);
            b.load_imm(Reg(2), 1);
            b.halt();
        });
        // `li r1, -5; ld r2, 0(r1); halt`
        let faulting = program_of(|b| {
            b.load_imm(Reg(1), -5);
            b.load(Reg(2), Reg(1), 0);
            b.halt();
        });
        // `li r1, 2; jr r1; halt`: the jump lands on the next instruction
        // without leaving the task, so no taken bit and no static
        // successor says where it went.
        let indirect = program_of(|b| {
            let halt = b.new_label();
            b.load_imm(Reg(1), 2);
            b.jump_indirect_with_targets(Reg(1), &[halt]);
            b.bind(halt);
            b.halt();
        });
        let one_task = || partition(vec![(0, Vec::new())], &[0; 3]);
        let branch_to = |target| {
            vec![ExitSpec {
                source: Addr(0),
                kind: ExitKind::Branch,
                target: Some(Addr(target)),
                return_addr: None,
            }]
        };
        let unmatched = Err(TraceError::UnmatchedExit {
            task: TaskId(0),
            from: Addr(0),
            to: Addr(1),
        });
        let cases = [
            (
                "a step from no exit source into another task",
                &straight,
                partition(vec![(0, Vec::new()), (1, Vec::new())], &[0, 1, 1]),
                100,
                unmatched.clone(),
            ),
            (
                "a step from an exit source that matches none of its exits",
                &straight,
                partition(vec![(0, branch_to(2)), (1, Vec::new())], &[0, 1, 1]),
                100,
                unmatched.clone(),
            ),
            (
                "a matched exit whose next pc starts no task",
                &straight,
                partition(vec![(0, branch_to(1)), (2, Vec::new())], &[0, 1, 1]),
                100,
                unmatched,
            ),
            (
                "an out-of-bounds load",
                &faulting,
                one_task(),
                100,
                // Registers hold words, so the base reads as 2^32 - 5.
                Err(TraceError::Exec(ExecError::MemOutOfBounds {
                    pc: Addr(1),
                    addr: i64::from(-5i32 as u32),
                })),
            ),
            (
                "an intra-task indirect jump",
                &indirect,
                one_task(),
                100,
                Err(TraceError::DynamicTransfer {
                    task: TaskId(0),
                    from: Addr(1),
                    to: Addr(2),
                }),
            ),
            ("a budget of the op count", &straight, one_task(), 3, Ok(3)),
            (
                "a budget one op short",
                &straight,
                one_task(),
                2,
                Err(TraceError::StepLimit),
            ),
        ];
        let config = TimingConfig::default();
        for (what, program, tasks, budget, want) in cases {
            let recorded = record_replay(program, &tasks, budget).map(|r| r.instructions());
            assert_eq!(recorded, want, "{what}: the recorder");
            let timed = simulate(program, &tasks, &[], None, &config, budget);
            assert_eq!(timed.map(|t| t.instructions), want, "{what}: the oracle");
        }
    }

    /// The step source reads an op's registers and class from its
    /// code-table entry on every step that crosses no boundary, so the
    /// packed entry must give what `op_facts` gives for the instruction,
    /// loads and stores included, on every instruction of the five
    /// benchmarks.
    #[test]
    fn the_code_table_holds_each_ops_facts() {
        use multiscalar_workloads::{Spec92, WorkloadParams};
        for &spec in &Spec92::ALL {
            let w = spec.build(&WorkloadParams::small(7));
            let code = CodeTable::of(&w.program);
            for (pc, inst) in w.program.code().iter().enumerate() {
                let facts = code.at(pc as u32).facts();
                assert_eq!(facts, op_facts(inst), "{spec}: pc {pc}, {inst:?}");
            }
        }
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

    /// A recording of [`mixed_program`], with the program and partition it
    /// records and the partition's task descriptors.
    struct Recorded {
        program: Program,
        tasks: TaskProgram,
        replay: InstrReplay,
        descs: Vec<TaskDesc>,
    }

    fn recorded(iters: i32) -> Recorded {
        let program = mixed_program(iters);
        let tasks = TaskFormer::default().form(&program).unwrap();
        let replay = record_replay(&program, &tasks, 1_000_000).unwrap();
        let descs = task_descs(&tasks);
        Recorded {
            program,
            tasks,
            replay,
            descs,
        }
    }

    /// The outcomes of a PATH predictor at `depth` over a recording
    /// (`None`: perfect prediction).
    fn outcomes(rec: &Recorded, depth: Option<u8>) -> Outcomes {
        let mut p = depth.map(|d| {
            TaskPredictor::<PathLeh2>::path(Dolc::new(d, 4, 6, 6, 2), Dolc::new(4, 3, 4, 4, 2), 16)
        });
        let p = p.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
        measure_outcomes(p, &rec.descs, &rec.replay.bounds, None)
    }

    /// The interpreter-fed scalar core's solo run of one column over the
    /// recorded program, with its cycle breakdown: the reference every lane
    /// of [`walk_lanes`] must match.
    fn scalar(
        rec: &Recorded,
        outcomes: &Outcomes,
        config: &TimingConfig,
    ) -> (TimingResult, CycleBreakdown) {
        let mut feed = InterpSource::new(&rec.program, &rec.tasks, 1_000_000);
        let mut breakdown = CycleBreakdown::new();
        let mem_words = memory_words(&rec.program);
        let result = simulate_core(&mut feed, outcomes, config, mem_words, &mut breakdown)
            .expect("the recorded program runs");
        (result, breakdown)
    }

    /// Walks `outcomes[i]` under `configs[i]` as one lockstep walk, each
    /// lane with a cycle breakdown. The same walk without sinks must time
    /// alike.
    fn lanes(
        replay: &InstrReplay,
        outcomes: &[Outcomes],
        configs: &[TimingConfig],
    ) -> Vec<(TimingResult, CycleBreakdown)> {
        let lanes: Vec<Lane> = outcomes
            .iter()
            .zip(configs)
            .map(|(outcomes, &config)| Lane { outcomes, config })
            .collect();
        let mut breakdowns = vec![CycleBreakdown::new(); lanes.len()];
        let results = walk_lanes(replay, &lanes, &mut breakdowns);
        assert_eq!(
            walk_lanes(replay, &lanes, &mut vec![NoopSink; lanes.len()]),
            results,
            "sinks never alter cycle arithmetic"
        );
        results.into_iter().zip(breakdowns).collect()
    }

    /// Machines that share an intra predictor or an ARB with the paper's
    /// and machines that own theirs.
    fn mixed_configs() -> [TimingConfig; 5] {
        use crate::arb::ArbConfig;
        use crate::timing::{ForwardingModel, IntraPredictorKind};
        let tiny = ArbConfig {
            banks: 1,
            entries_per_bank: 1,
        };
        [
            TimingConfig::paper(),
            TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
            TimingConfig::paper().arb(None),
            TimingConfig::paper()
                .intra_predictor(IntraPredictorKind::McFarling)
                .arb(Some(tiny)),
            TimingConfig::paper()
                .intra_predictor(IntraPredictorKind::Gshare)
                .forwarding(ForwardingModel::ReleaseAtEnd),
        ]
    }

    #[test]
    fn lanes_match_scalar_core_runs() {
        let rec = recorded(500);
        let config = TimingConfig::default();
        let slots = [None, Some(2), Some(4)].map(|d| outcomes(&rec, d));
        let solo: Vec<_> = slots.iter().map(|o| scalar(&rec, o, &config)).collect();
        assert_eq!(lanes(&rec.replay, &slots, &[config; 3]), solo);
        assert_eq!(
            solo[0].0,
            simulate_replay(&rec.replay, &rec.descs, None, &config)
        );
        assert_eq!(lanes(&rec.replay, &slots[2..], &[config]), solo[2..]);
    }

    #[test]
    fn mixed_machines_match_scalar_core_runs_under_each_outcome_pass() {
        // Every machine meets every outcome pass: one five-lane walk per
        // pass.
        let rec = recorded(300);
        let configs = mixed_configs();
        for depth in [None, Some(4)] {
            let slots = configs.map(|_| outcomes(&rec, depth));
            let solo: Vec<_> = slots
                .iter()
                .zip(&configs)
                .map(|(o, c)| scalar(&rec, o, c))
                .collect();
            assert_eq!(lanes(&rec.replay, &slots, &configs), solo, "{depth:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a walk carries at most 5 lanes")]
    fn a_walk_refuses_more_lanes_than_any_experiment_runs() {
        let rec = recorded(50);
        let slots = [None; 6].map(|d| outcomes(&rec, d));
        lanes(&rec.replay, &slots, &[TimingConfig::default(); 6]);
    }

    #[test]
    fn lanes_match_the_scalar_core_across_program_lengths() {
        // Halts after one, a few and many tasks, in every lane count a
        // mixed grid reaches. Each lane's result and cycle breakdown equal
        // its interpreter-fed scalar run.
        let configs = mixed_configs();
        for iters in [1, 3, 17, 64, 200] {
            let rec = recorded(iters);
            let slots: Vec<_> = [None, Some(4), Some(2), None, Some(1)]
                .map(|d| outcomes(&rec, d))
                .into();
            for n in 1..=slots.len() {
                let solo: Vec<_> = (0..n)
                    .map(|i| scalar(&rec, &slots[i], &configs[i]))
                    .collect();
                assert_eq!(
                    lanes(&rec.replay, &slots[..n], &configs[..n]),
                    solo,
                    "iters {iters}, {n} lanes"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a walk takes exactly one outcome per boundary")]
    fn a_walk_rejects_too_many_outcomes() {
        let rec = recorded(50);
        let extra = outcomes(&recorded(51), None);
        lanes(&rec.replay, &[extra], &[TimingConfig::default()]);
    }

    #[test]
    #[should_panic(expected = "a walk takes exactly one outcome per boundary")]
    fn a_lanes_walk_rejects_too_few_outcomes() {
        let rec = recorded(50);
        let slots = [outcomes(&rec, None), outcomes(&recorded(49), None)];
        lanes(&rec.replay, &slots, &[TimingConfig::default(); 2]);
    }

    #[test]
    fn replay_matches_across_ablation_configs() {
        use crate::arb::ArbConfig;
        use crate::timing::{ForwardingModel, IntraPredictorKind};

        let rec = recorded(400);
        let (p, tp, descs) = (&rec.program, &rec.tasks, &rec.descs);
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
            let legacy = simulate(p, tp, descs, None, config, 1_000_000).unwrap();
            let fast = simulate_replay(&rec.replay, descs, None, config);
            assert_eq!(legacy, fast, "config {config:?}");
            let legacy = simulate(p, tp, descs, Some(&mut mk()), config, 1_000_000).unwrap();
            let fast = simulate_replay(&rec.replay, descs, Some(&mut mk()), config);
            assert_eq!(legacy, fast, "config {config:?} with PATH");
        }
        // A gated run is a walk of gated outcomes; both feeds walk them
        // alike.
        let config = TimingConfig::paper();
        for gate in [2, 8] {
            let gated = measure_outcomes(Some(&mut mk()), descs, &rec.replay.bounds, Some(gate));
            let legacy = scalar(&rec, &gated, &config);
            let fast = lanes(&rec.replay, std::slice::from_ref(&gated), &[config]);
            assert_eq!(fast, [legacy], "gate {gate}");
            assert!(
                fast[0].0.gated_boundaries > 0,
                "the gate withholds speculation"
            );
        }
    }
}
