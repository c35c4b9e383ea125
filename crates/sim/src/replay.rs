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
//! [`derive_trace`] hands out).
//!
//! # Lanes
//!
//! Every production timing run is a lane of [`walk_lanes`]: one walk of
//! the recording decodes each instruction once and steps every lane, a
//! lane being one column (an [`Outcomes`] and a [`TimingConfig`]). An
//! experiment walks a benchmark once: Table 4 and `profile` as five lanes,
//! `ext-memory` as four, `ext-intra` as three, `ext-confidence` as two and
//! `ext-zoo` as four. [`walk_replay`] and [`simulate_replay`] are one
//! lane. The walk runs with zero re-interpretation, and each lane's
//! `TimingResult` is bit-identical to [`crate::timing::simulate`]'s, which
//! stays only as the test oracle.
//!
//! Prediction is not part of the walk: [`simulate_replay`] runs the
//! outcome pass ([`crate::measure::measure_outcomes`]) over the boundary
//! section, then walks one lane that reads one miss/gated byte per
//! boundary.
//!
//! # Layout
//!
//! Each instruction packs into one `u32` op word:
//!
//! ```text
//! bits  0..8   src1 register (NO_REG when absent)
//! bits  8..16  src2 register (NO_REG when absent)
//! bits 16..24  dest register (NO_REG when absent)
//! bits 24..26  OpClass: 0 other, 1 load, 2 store, 3 intra-task branch
//! bit  26      taken (intra-task branches only)
//! ```
//!
//! Loads/stores consume the next `mem_addrs` entry, intra-task branches the
//! next `branch_pcs` entry, in program order — the replay cursor advances
//! each side array independently, so the common (ALU) case touches only the
//! op word. Task boundaries are sparse: the boundary section is a
//! [`SharedTrace`], one event per dynamic task (retiring task, exit, exit
//! kind, next entry, and the task's instruction count), and the cursor
//! finds each boundary by counting down its task's instructions.
//!
//! # Where the instruction section lives
//!
//! The op words and their two side columns form the instruction section,
//! which only timing walks read. A fresh or decoded recording holds it in
//! memory, and a walk steps it as one chunk. A recording loaded from the
//! artifact cache ([`crate::codec::open_replay`]) holds only its boundary
//! section: each walk reads the instruction section from disk chunk by
//! chunk through one bounded buffer, so it never holds the section whole.
//! Either way one cursor steps each chunk, carrying its place in the task
//! sequence from chunk to chunk.
//!
//! Recording resolves every possible failure (execution faults, unmatched
//! exits, the step budget) up front. Loading a cached recording
//! ([`crate::codec::open_replay`] or [`crate::codec::decode_replay`], then
//! [`crate::codec::check_fits`]) rejects any artifact whose boundary
//! section disagrees with its op count or its partition, and a walk checks
//! each stored chunk before it steps any of its ops, putting a fresh
//! recording's section in place of one that fails. That is why
//! [`simulate_replay`] is infallible.

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{memory_words, Addr, Program, NUM_REGS};
use multiscalar_taskform::TaskProgram;

use crate::arb::ArbTable;
use crate::codec::{Census, ChunkReader, StoredSection};
use crate::measure::{measure_outcomes, Outcomes};
use crate::metrics::{BoundaryEvent, FrontierCause, MetricsSink, NoopSink, StallCause};
use crate::timing::{
    BoundaryStep, CoreStep, ForwardingModel, InterpSource, IntraState, NextTaskPredictor, OpClass,
    StepSource, TimingConfig, TimingResult, ARB_FULL_PENALTY, DISPATCH_COST, INTRA_PENALTY,
    ISSUE_WIDTH, LOAD_LATENCY, NO_REG, N_UNITS, SQUASH_PENALTY, TASK_IDX_BITS, TASK_IDX_MASK,
    VIOLATION_PENALTY,
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
/// benchmark without the interpreter. Built by [`record_replay`] or loaded
/// from the artifact cache ([`crate::codec`]); shared immutably (wrap in
/// [`Arc`] via [`InstrReplay::into_shared`]) across the pool jobs that
/// consume it.
///
/// A recording has two sections. The boundary section is the task trace
/// every predictor sweep reads. The instruction section (the op words and
/// their two side columns) is read only by timing walks. A fresh or
/// decoded recording holds it; a recording loaded from disk
/// ([`crate::codec::open_replay`]) does not, and each walk reads it from
/// disk chunk by chunk ([`InstrReplay::holds_instructions`]).
pub struct InstrReplay {
    /// The instruction section, or where to read it.
    instrs: Instrs,
    /// Committed instructions: the op count, known without the
    /// instruction section.
    instructions: u64,
    /// The boundary section: one event per task boundary, in order, whose
    /// `instrs` counts the retiring task's ops, the crossing one included.
    /// The halting task, which crosses none, gets no event. This is the
    /// benchmark's task trace; [`derive_trace`] shares it.
    pub(crate) bounds: Arc<SharedTrace>,
    /// The program's data-memory size in words
    /// ([`multiscalar_isa::memory_words`]), for the core's store table.
    pub(crate) mem_words: usize,
}

/// Where a recording's instruction section lives.
enum Instrs {
    /// In memory: a fresh or decoded recording.
    Held(InstrSection),
    /// On disk: a recording loaded from the artifact cache.
    Stored(StoredSection),
}

/// The instruction section of a recording: the columns only the timing
/// walk reads.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct InstrSection {
    /// One packed op word per committed instruction, in program order.
    pub(crate) ops: Vec<u32>,
    /// Word address of each load/store, in program order.
    pub(crate) mem_addrs: Vec<u32>,
    /// Address of each *intra-task* conditional branch, in program order.
    pub(crate) branch_pcs: Vec<u32>,
}

impl InstrReplay {
    /// A recording that holds its instruction section.
    pub(crate) fn held(
        section: InstrSection,
        bounds: Arc<SharedTrace>,
        mem_words: usize,
    ) -> InstrReplay {
        InstrReplay {
            instructions: section.ops.len() as u64,
            instrs: Instrs::Held(section),
            bounds,
            mem_words,
        }
    }

    /// A recording of `instructions` ops whose instruction section stays
    /// on disk.
    pub(crate) fn stored(
        stored: StoredSection,
        instructions: u64,
        bounds: Arc<SharedTrace>,
        mem_words: usize,
    ) -> InstrReplay {
        InstrReplay {
            instrs: Instrs::Stored(stored),
            instructions,
            bounds,
            mem_words,
        }
    }

    /// Whether the recording holds its instruction section in memory. A
    /// fresh or decoded recording does. One loaded from the artifact cache
    /// does not, before or after any number of walks, unless reading the
    /// stored section failed during a walk: it then keeps the re-recorded
    /// section.
    pub fn holds_instructions(&self) -> bool {
        self.held_section().is_some()
    }

    /// The instruction section the recording holds, if it holds one.
    fn held_section(&self) -> Option<&InstrSection> {
        match &self.instrs {
            Instrs::Held(s) => Some(s),
            Instrs::Stored(stored) => stored.held(),
        }
    }

    /// The instruction section whole: a held one borrowed, a stored one
    /// read from disk into a copy the recording does not keep. For
    /// comparisons and the encoder; walks read chunks.
    pub(crate) fn section(&self) -> Cow<'_, InstrSection> {
        if let Some(s) = self.held_section() {
            return Cow::Borrowed(s);
        }
        let mut s = InstrSection::default();
        let mut chunks = Chunks::new(self);
        while let Some(c) = chunks.next_chunk() {
            s.ops.extend_from_slice(c.ops);
            s.mem_addrs.extend_from_slice(c.mem_addrs);
            s.branch_pcs.extend_from_slice(c.branch_pcs);
        }
        Cow::Owned(s)
    }

    /// The instruction section of a fresh or decoded recording, for
    /// tampering in tests.
    #[cfg(test)]
    pub(crate) fn section_mut(&mut self) -> &mut InstrSection {
        match &mut self.instrs {
            Instrs::Held(s) => s,
            Instrs::Stored(_) => panic!("the recording holds its section"),
        }
    }

    /// The instruction section, taken out of the recording.
    pub(crate) fn into_section(self) -> InstrSection {
        match self.instrs {
            Instrs::Held(s) => s,
            Instrs::Stored(_) => self.section().into_owned(),
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

/// Recordings are equal when both sections are; comparing one loaded from
/// disk reads its instruction section.
impl PartialEq for InstrReplay {
    fn eq(&self, other: &InstrReplay) -> bool {
        self.instructions == other.instructions
            && self.mem_words == other.mem_words
            && self.bounds == other.bounds
            && self.section() == other.section()
    }
}

impl Eq for InstrReplay {}

impl fmt::Debug for InstrReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrReplay")
            .field("instructions", &self.instructions)
            .field("boundaries", &self.bounds.len())
            .field("mem_words", &self.mem_words)
            .field("holds_instructions", &self.holds_instructions())
            .finish()
    }
}

/// A run of consecutive ops of a recording with the side entries they
/// consume: what the cursor steps. A held section is one chunk; a stored
/// one is read [`crate::codec::CHUNK_OPS`] ops at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk<'a> {
    pub(crate) ops: &'a [u32],
    pub(crate) mem_addrs: &'a [u32],
    pub(crate) branch_pcs: &'a [u32],
    /// Whether the chunk ends the recording, so its last op is the halt.
    pub(crate) last: bool,
}

impl<'a> Chunk<'a> {
    /// The rest of `s` from op `at` on, with the side entries those ops
    /// consume. A walk enters a re-recorded section here, at the first op
    /// of the stored chunk that failed. The side positions are counted in
    /// `s` itself, so they are the walk's own whenever the chunks it
    /// stepped were the recording's.
    fn rest(s: &'a InstrSection, at: usize) -> Chunk<'a> {
        // At least the halt remains, whatever a stored header claimed.
        let at = at.min(s.ops.len().saturating_sub(1));
        let done = Census::of(&s.ops[..at]);
        Chunk {
            ops: &s.ops[at..],
            mem_addrs: &s.mem_addrs[done.mem..],
            branch_pcs: &s.branch_pcs[done.branches..],
            last: true,
        }
    }
}

/// The chunks of one walk over a recording, in order.
pub(crate) struct Chunks<'r> {
    feed: Feed<'r>,
    /// Ops handed out so far.
    at: usize,
}

/// Where a walk's next chunk comes from.
enum Feed<'r> {
    /// A section in memory: the rest of it, from the ops handed out on, is
    /// the next chunk.
    Held(&'r InstrSection),
    /// A section on disk, and its reader once the first chunk opened it.
    Stored(&'r StoredSection, Option<ChunkReader<File>>),
    /// Past the last chunk.
    Done,
}

impl<'r> Chunks<'r> {
    /// The chunks of a walk over `replay`, from its first op.
    pub(crate) fn new(replay: &'r InstrReplay) -> Chunks<'r> {
        let feed = match &replay.instrs {
            Instrs::Held(s) => Feed::Held(s),
            Instrs::Stored(stored) => match stored.held() {
                Some(s) => Feed::Held(s),
                None => Feed::Stored(stored, None),
            },
        };
        Chunks { feed, at: 0 }
    }

    /// The next chunk, checked whole; `None` past the last. A stored chunk
    /// that cannot be read or fails its checks is replaced, from its first
    /// op on, by the re-recorded section.
    pub(crate) fn next_chunk(&mut self) -> Option<Chunk<'_>> {
        if let Feed::Stored(stored, reader) = &mut self.feed {
            let stored: &'r StoredSection = stored;
            let read = match reader {
                Some(r) => r.advance(),
                None => stored.open().and_then(|r| reader.insert(r).advance()),
            };
            match read {
                Ok(true) => {}
                Ok(false) => self.feed = Feed::Done,
                Err(e) => self.feed = Feed::Held(stored.fallback(e)),
            }
        }
        if let Feed::Held(s) = self.feed {
            self.feed = Feed::Done;
            return Some(Chunk::rest(s, self.at));
        }
        let Feed::Stored(_, Some(reader)) = &self.feed else {
            return None;
        };
        let chunk = reader.chunk();
        self.at += chunk.ops.len();
        Some(chunk)
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
    let section = InstrSection {
        ops,
        mem_addrs,
        branch_pcs,
    };
    Ok(InstrReplay::held(
        section,
        Arc::new(bounds),
        memory_words(program),
    ))
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

/// A cursor stepping one chunk of a recording. Infallible by
/// construction: recording already resolved every error, and a stored
/// chunk is checked before the cursor sees it. Holds shrinking slices
/// rather than indices so the per-op path carries no bounds checks.
pub(crate) struct ReplayCursor<'a> {
    /// The chunk's remaining op words.
    ops: &'a [u32],
    /// Its remaining load/store word addresses.
    mem_addrs: &'a [u32],
    /// Its remaining intra-task branch addresses.
    branch_pcs: &'a [u32],
    /// Whether the chunk ends the recording, so its last op is the halt.
    last: bool,
    /// The recording's boundary section.
    bounds: &'a SharedTrace,
    /// Where the walk is in the task sequence.
    clock: TaskClock,
}

/// Where a walk is in the recording's task sequence: what one chunk's
/// cursor hands the next.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskClock {
    /// Index of the next boundary in the boundary section.
    next_bound: usize,
    /// Ops left in the current task, the boundary-crossing one included;
    /// `u64::MAX` in the halting task, which crosses none.
    left: u64,
}

impl TaskClock {
    /// The start of a recording with boundary section `bounds`.
    pub(crate) fn start(bounds: &SharedTrace) -> TaskClock {
        TaskClock {
            next_bound: 0,
            left: task_len(bounds, 0),
        }
    }
}

impl<'a> ReplayCursor<'a> {
    /// A cursor at the start of `chunk`, at `clock` in the task sequence
    /// of the recording whose boundary section is `bounds`.
    pub(crate) fn new(
        chunk: Chunk<'a>,
        bounds: &'a SharedTrace,
        clock: TaskClock,
    ) -> ReplayCursor<'a> {
        ReplayCursor {
            ops: chunk.ops,
            mem_addrs: chunk.mem_addrs,
            branch_pcs: chunk.branch_pcs,
            last: chunk.last,
            bounds,
            clock,
        }
    }

    /// A cursor over the whole of a recording that holds its instruction
    /// section, as one chunk: the scalar core's feed.
    ///
    /// # Panics
    ///
    /// If `r` holds no instruction section (a recording loaded from the
    /// artifact cache).
    pub(crate) fn whole(r: &'a InstrReplay) -> ReplayCursor<'a> {
        let s = r
            .held_section()
            .expect("the scalar core steps a recording that holds its instructions");
        ReplayCursor::new(Chunk::rest(s, 0), &r.bounds, TaskClock::start(&r.bounds))
    }

    /// The chunk's next op, or `None` past its last. Forced inline so the
    /// step lives in the walk's loop, in registers.
    #[inline(always)]
    pub(crate) fn step(&mut self) -> Option<CoreStep> {
        let (&op, rest) = self.ops.split_first()?;
        let class = OpClass::from_u8(((op >> CLASS_SHIFT) & 0x3) as u8);

        let mem_addr = if matches!(class, OpClass::Load | OpClass::Store) {
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
        let halt = self.last & rest.is_empty();
        // The op that finishes its task's count crosses the boundary.
        // Task sizes are at least 1 and leave the halting task its op
        // (recording guarantees both; decoding checks them), so the count
        // never underflows and the halt is never a boundary.
        let clock = &mut self.clock;
        clock.left -= 1;
        let boundary = if clock.left == 0 {
            let k = clock.next_bound;
            clock.next_bound += 1;
            clock.left = task_len(self.bounds, clock.next_bound);
            Some(BoundaryStep {
                task: self.bounds.tasks[k].0,
                exit: self.bounds.exits[k],
                next: self.bounds.nexts[k],
            })
        } else {
            None
        };
        self.ops = rest;

        Some(CoreStep {
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

/// Ops of the task retiring at boundary `k`, or `u64::MAX` past the last
/// boundary (the halting task).
fn task_len(bounds: &SharedTrace, k: usize) -> u64 {
    bounds.instrs.get(k).map_or(u64::MAX, |&n| u64::from(n))
}

impl StepSource for ReplayCursor<'_> {
    fn next_step(&mut self) -> Result<CoreStep, TraceError> {
        Ok(self.step().expect("cursor stops at halt"))
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
/// section, then a one-lane [`walk_replay`]. Breakdowns and event logs are
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
    walk_replay(replay, &outcomes, config, sink)
}

/// Walks a recording through the timing model with its prediction done:
/// one [`Outcomes`] byte per boundary of `replay`, which several walks may
/// share. A gated run is a walk of gated outcomes. This is a one-lane
/// [`walk_lanes`].
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
    let lane = Lane {
        outcomes,
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
/// machines can walk one prediction pass.
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a> {
    /// One outcome byte per boundary of the recording.
    pub outcomes: &'a Outcomes,
    /// The machine this lane times.
    pub config: TimingConfig,
}

/// Lanes one monomorphised walk carries; wider requests walk in chunks.
const MAX_LANES: usize = 8;

/// Times several columns over one recording in a **single** walk: lane `i`
/// reads `lanes[i].outcomes`, times `lanes[i].config` and reports to
/// `sinks[i]`, and its result is bit-identical to a solo run of the
/// scalar core (`timing::simulate_core` on the same recording) with the
/// same outcomes, machine and sink.
///
/// Each recorded instruction is decoded once. Everything that depends only
/// on the recording is computed once per step and shared: the intra-task
/// predictor is stepped once per distinct
/// [`IntraPredictorKind`](crate::timing::IntraPredictorKind) (its miss
/// bit is a function of the branch stream), the ARB table once per
/// distinct geometry, and the register mask of the current task once. The
/// clocks, scoreboard and store table are rows of one value per lane, so
/// the per-lane work is a short loop over `N` lanes, monomorphised for
/// `N` in `1..=8`.
///
/// # Panics
///
/// If `sinks` and `lanes` differ in length, or a lane's outcomes do not
/// cover exactly the recording's boundaries.
pub fn walk_lanes<M: MetricsSink>(
    replay: &InstrReplay,
    lanes: &[Lane],
    sinks: &mut [M],
) -> Vec<TimingResult> {
    assert_eq!(lanes.len(), sinks.len(), "one sink per lane");
    for lane in lanes {
        assert_covers(replay, lane.outcomes);
    }
    let mut results = Vec::with_capacity(lanes.len());
    for (lanes, sinks) in lanes.chunks(MAX_LANES).zip(sinks.chunks_mut(MAX_LANES)) {
        match lanes.len() {
            1 => results.extend(walk_chunk::<1, M>(replay, lanes, sinks)),
            2 => results.extend(walk_chunk::<2, M>(replay, lanes, sinks)),
            3 => results.extend(walk_chunk::<3, M>(replay, lanes, sinks)),
            4 => results.extend(walk_chunk::<4, M>(replay, lanes, sinks)),
            5 => results.extend(walk_chunk::<5, M>(replay, lanes, sinks)),
            6 => results.extend(walk_chunk::<6, M>(replay, lanes, sinks)),
            7 => results.extend(walk_chunk::<7, M>(replay, lanes, sinks)),
            _ => results.extend(walk_chunk::<MAX_LANES, M>(replay, lanes, sinks)),
        }
    }
    results
}

/// One lockstep walk of exactly `N` lanes.
fn walk_chunk<const N: usize, M: MetricsSink>(
    replay: &InstrReplay,
    lanes: &[Lane],
    sinks: &mut [M],
) -> [TimingResult; N] {
    let lanes: &[Lane; N] = lanes.try_into().expect("a chunk of N lanes");
    let sinks: &mut [M; N] = sinks.try_into().expect("one sink per lane");
    let mut core = LaneCore::new(lanes, replay.mem_words);
    for (sink, &complete) in sinks.iter_mut().zip(&core.complete) {
        if M::ENABLED {
            sink.frontier(0, complete, FrontierCause::Startup);
        }
    }
    let mut chunks = Chunks::new(replay);
    let mut clock = TaskClock::start(&replay.bounds);
    while let Some(chunk) = chunks.next_chunk() {
        let mut cursor = ReplayCursor::new(chunk, &replay.bounds, clock);
        while let Some(step) = cursor.step() {
            core.on_step(&step, sinks);
        }
        clock = cursor.clock;
    }
    core.finish(sinks)
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
    fn new(lanes: &[Lane<'a>; N], mem_words: usize) -> LaneCore<'a, N> {
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
            Some(bound) => self.retire(bound, sinks),
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
            if intra.predict(step.branch_pc) != step.taken {
                missed |= *lanes;
            }
            intra.update(step.branch_pc, step.taken);
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

    /// Retires the current task at `bound` and dispatches the next, in
    /// every lane by its own outcome bit.
    fn retire<M: MetricsSink>(&mut self, bound: BoundaryStep, sinks: &mut [M; N]) {
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
                sink.boundary(&BoundaryEvent {
                    index: k as u64,
                    task: bound.task,
                    exit: bound.exit.as_u8(),
                    next: bound.next.0,
                    miss,
                    gated,
                    complete,
                    commit,
                    dispatch: self.dispatch[i],
                });
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
    use crate::timing::{simulate, simulate_core};
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

    /// The scalar core's solo run of one column over a recording: the
    /// reference every lane of [`walk_lanes`] must match.
    fn scalar(replay: &InstrReplay, outcomes: &Outcomes, config: &TimingConfig) -> TimingResult {
        let mut cursor = ReplayCursor::whole(replay);
        simulate_core(
            &mut cursor,
            outcomes,
            config,
            replay.mem_words,
            &mut NoopSink,
        )
        .expect("replay cursor never errors")
    }

    /// Walks `outcomes[i]` under `configs[i]` as one lockstep walk,
    /// without sinks.
    fn lanes(
        replay: &InstrReplay,
        outcomes: &[Outcomes],
        configs: &[TimingConfig],
    ) -> Vec<TimingResult> {
        let lanes: Vec<Lane> = outcomes
            .iter()
            .zip(configs)
            .map(|(outcomes, &config)| Lane { outcomes, config })
            .collect();
        walk_lanes(replay, &lanes, &mut vec![NoopSink; lanes.len()])
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
        let (replay, descs) = recorded(500);
        let config = TimingConfig::default();
        let slots = [None, Some(2), Some(4)].map(|d| outcomes(&replay, &descs, d));
        let solo: Vec<_> = slots.iter().map(|o| scalar(&replay, o, &config)).collect();
        assert_eq!(lanes(&replay, &slots, &[config; 3]), solo);
        assert_eq!(solo[0], simulate_replay(&replay, &descs, None, &config));
        assert_eq!(
            solo[2],
            walk_replay(&replay, &slots[2], &config, &mut NoopSink)
        );
    }

    #[test]
    fn mixed_machines_match_scalar_core_runs_beyond_one_chunk() {
        // Ten lanes walk as a chunk of eight and a chunk of two; every
        // machine meets every outcome pass somewhere in the grid.
        let (replay, descs) = recorded(300);
        let passes = [None, Some(4)].map(|d| outcomes(&replay, &descs, d));
        let configs = mixed_configs();
        let grid: Vec<(Outcomes, TimingConfig)> = configs
            .iter()
            .flat_map(|&c| passes.iter().map(move |o| (o.clone(), c)))
            .collect();
        let (slots, configs): (Vec<_>, Vec<_>) = grid.into_iter().unzip();
        let solo: Vec<_> = slots
            .iter()
            .zip(&configs)
            .map(|(o, c)| scalar(&replay, o, c))
            .collect();
        assert_eq!(slots.len(), 10);
        assert_eq!(lanes(&replay, &slots, &configs), solo);
    }

    #[test]
    fn lanes_match_the_scalar_core_across_program_lengths() {
        // Halts after one, a few and many tasks, in every lane count a
        // mixed grid reaches.
        let configs = mixed_configs();
        for iters in [1, 3, 17, 64, 200] {
            let (replay, descs) = recorded(iters);
            let slots: Vec<_> = [None, Some(4), Some(2), None, Some(1)]
                .map(|d| outcomes(&replay, &descs, d))
                .into();
            for n in 1..=slots.len() {
                let solo: Vec<_> = (0..n)
                    .map(|i| scalar(&replay, &slots[i], &configs[i]))
                    .collect();
                assert_eq!(
                    lanes(&replay, &slots[..n], &configs[..n]),
                    solo,
                    "iters {iters}, {n} lanes"
                );
            }
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
    fn a_lanes_walk_rejects_too_few_outcomes() {
        let (replay, descs) = recorded(50);
        let (shorter, short_descs) = recorded(49);
        let slots = [
            outcomes(&replay, &descs, None),
            outcomes(&shorter, &short_descs, None),
        ];
        lanes(&replay, &slots, &[TimingConfig::default(); 2]);
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
