//! Cycle-attribution and event-tracing sinks for the timing core.
//!
//! Both timing cores — the lanes walk ([`crate::replay::walk_lanes`], one
//! sink per lane) and the scalar reference (`timing::simulate_core`) — are
//! generic over a [`MetricsSink`]. The
//! default [`NoopSink`] monomorphises every hook to nothing, so the plain
//! entry points ([`crate::timing::simulate`],
//! [`crate::replay::simulate_replay`]) pay **zero** cost and stay
//! bit-identical to the uninstrumented core. Passing a real sink
//! ([`CycleBreakdown`], [`TaskEventSink`]) through the `*_with_sink`
//! variants turns the same run into an attributed one.
//!
//! # The attribution model
//!
//! The core is event-driven, not cycle-stepped: it maintains a monotone
//! *completion frontier* (`CoreState::complete`) whose final value is
//! exactly [`TimingResult::cycles`]. Every advance of that frontier happens
//! at one of four sites, each of which reports a [`FrontierCause`]:
//!
//! * **startup** — the first task's dispatch and pipeline fill;
//! * **instruction completion** — an instruction's `issue + latency`
//!   pushing past the frontier;
//! * **ARB violation recovery** — a memory-order squash re-executing the
//!   offending load's task tail;
//! * **task boundary** — the next task's issue clock landing beyond the
//!   frontier (squash + refill after a task misprediction, a
//!   confidence-gated stall, or plain sequencer/dispatch serialisation).
//!
//! Within a task, pushes of the *issue cursor* (a dataflow wait, an ARB
//! bank-overflow penalty, an intra-task branch redirect) are reported as
//! [`StallCause`] *debt*. [`CycleBreakdown`] realises debt against the next
//! instruction-completion frontier advance: a stall that the ring hid under
//! task overlap never reaches the frontier and correctly costs nothing,
//! while a stall on the critical path is charged cycle for cycle. What
//! remains of an advance after paying debt is useful issue (including
//! memory latency of loads that were not stalled).
//!
//! Because every attributed cycle corresponds to one frontier advance and
//! the frontier ends at `TimingResult::cycles`, the per-cause counts sum to
//! the total **exactly**; [`CycleBreakdown::finish`] asserts it on every
//! run, for both the interpreter and the replay engine.

use crate::timing::{TimingResult, N_UNITS};
use std::fmt::Write as _;

/// Why the in-task issue cursor was pushed forward (stall *debt* — charged
/// against the frontier only if the stall reaches it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// A source register was not ready: true dataflow dependence (possibly
    /// an inter-task forwarding delay around the ring).
    Dataflow = 0,
    /// An ARB bank had no free entry; the reference stalled for
    /// [`ARB_FULL_PENALTY`](crate::timing::ARB_FULL_PENALTY) cycles.
    ArbFull = 1,
    /// An intra-task conditional branch mispredicted; the unit redirected
    /// after [`INTRA_PENALTY`](crate::timing::INTRA_PENALTY) cycles.
    IntraMispredict = 2,
}

/// Why the completion frontier advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierCause {
    /// Initial dispatch of the first task (pipeline fill).
    Startup,
    /// An instruction's completion (`issue + latency`) pushed the frontier.
    Issue,
    /// Recovery from an ARB memory-order violation (squash of the load's
    /// task tail and re-execution).
    Violation,
    /// Squash + refill after a task misprediction: the correct next task
    /// dispatched only after the mispredicting task completed and the
    /// machine recovered.
    Squash,
    /// The sequencer withheld speculation on a low-confidence prediction;
    /// the next task waited for the boundary to resolve.
    Gated,
    /// Correct-path dispatch serialisation: the next task's issue clock
    /// (dispatch throughput, ring-unit availability) outran the frontier.
    Dispatch,
}

/// One resolved task boundary, as the timing core saw it. Only constructed
/// when the sink's [`MetricsSink::ENABLED`] is true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryEvent {
    /// Zero-based dynamic boundary number.
    pub index: u64,
    /// Static id of the retiring task.
    pub task: u32,
    /// Header exit number the task took.
    pub exit: u8,
    /// Entry address of the task executed next.
    pub next: u32,
    /// Whether the prediction missed (the boundary's outcome bit).
    pub miss: bool,
    /// Whether confidence gating withheld speculation at this boundary.
    pub gated: bool,
    /// Clock at which the retiring task completed.
    pub complete: u64,
    /// Clock at which the retiring task committed (strictly FIFO).
    pub commit: u64,
    /// Clock at which the next task was dispatched.
    pub dispatch: u64,
}

/// Observer of one timing run. All hooks have no-op defaults; implementors
/// override what they need. `ENABLED = false` lets the core skip even the
/// construction of event payloads, which is what makes [`NoopSink`] free.
pub trait MetricsSink {
    /// Whether the core should emit events to this sink at all.
    const ENABLED: bool;

    /// The in-task issue cursor was pushed forward by `cycles` (stall debt).
    #[inline(always)]
    fn issue_stall(&mut self, cause: StallCause, cycles: u64) {
        let _ = (cause, cycles);
    }

    /// The completion frontier advanced from `from` to `to` (`to >= from`;
    /// boundary sites report `to == from` advances too, so sinks can track
    /// cursor resets).
    #[inline(always)]
    fn frontier(&mut self, from: u64, to: u64, cause: FrontierCause) {
        let _ = (from, to, cause);
    }

    /// A task boundary resolved.
    #[inline(always)]
    fn boundary(&mut self, ev: &BoundaryEvent) {
        let _ = ev;
    }

    /// The run ended with this result.
    #[inline(always)]
    fn finish(&mut self, result: &TimingResult) {
        let _ = result;
    }
}

/// The default sink: every hook compiles away. [`crate::timing::simulate`]
/// and [`crate::replay::simulate_replay`] use it, so the uninstrumented
/// entry points are bit-identical and speed-neutral by monomorphisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    const ENABLED: bool = false;
}

/// The attribution categories of a [`CycleBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Issuing instructions and waiting out their latencies.
    UsefulIssue = 0,
    /// True register-dataflow stalls (including inter-task forwarding).
    DataflowStall = 1,
    /// ARB bank-conflict/overflow stalls.
    ArbFullStall = 2,
    /// Intra-task conditional-branch misprediction redirects.
    IntraMispredict = 3,
    /// Squash + refill after a task misprediction.
    SquashRefill = 4,
    /// ARB memory-order squashes.
    ViolationSquash = 5,
    /// Dispatch/sequencer serialisation (incl. startup pipeline fill).
    SequencerIdle = 6,
    /// Confidence-gated stalls (speculation withheld).
    GatedStall = 7,
}

impl Cause {
    /// Number of categories.
    pub const COUNT: usize = 8;

    /// All categories, in reporting order.
    pub const ALL: [Cause; Cause::COUNT] = [
        Cause::UsefulIssue,
        Cause::DataflowStall,
        Cause::ArbFullStall,
        Cause::IntraMispredict,
        Cause::SquashRefill,
        Cause::ViolationSquash,
        Cause::SequencerIdle,
        Cause::GatedStall,
    ];

    /// Stable machine-readable key (used by `profile.json`).
    pub fn key(self) -> &'static str {
        match self {
            Cause::UsefulIssue => "useful_issue",
            Cause::DataflowStall => "dataflow_stall",
            Cause::ArbFullStall => "arb_full_stall",
            Cause::IntraMispredict => "intra_mispredict",
            Cause::SquashRefill => "squash_refill",
            Cause::ViolationSquash => "violation_squash",
            Cause::SequencerIdle => "sequencer_idle",
            Cause::GatedStall => "gated_stall",
        }
    }

    /// Short human-readable label (used by the profile table).
    pub fn label(self) -> &'static str {
        match self {
            Cause::UsefulIssue => "useful",
            Cause::DataflowStall => "dataflow",
            Cause::ArbFullStall => "arbfull",
            Cause::IntraMispredict => "intrabr",
            Cause::SquashRefill => "squash",
            Cause::ViolationSquash => "violate",
            Cause::SequencerIdle => "seqidle",
            Cause::GatedStall => "gated",
        }
    }
}

/// Attributes every cycle of a run to one [`Cause`]. The counts sum to
/// [`TimingResult::cycles`] exactly; [`MetricsSink::finish`] asserts it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    cycles: [u64; Cause::COUNT],
    /// Outstanding issue-cursor pushes, per [`StallCause`], not yet
    /// realised against the frontier. Cleared whenever the cursor resets
    /// (boundary, violation recovery): a stall the ring overlapped away
    /// never becomes cycles.
    debt: [u64; 3],
}

impl CycleBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> CycleBreakdown {
        CycleBreakdown::default()
    }

    /// Cycles attributed to `cause`.
    pub fn get(&self, cause: Cause) -> u64 {
        self.cycles[cause as usize]
    }

    /// Sum over all categories — equals the run's total cycles once the
    /// run finished.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Pays an instruction-completion frontier advance out of outstanding
    /// stall debt (dataflow first, then ARB overflow, then intra-branch);
    /// the remainder is useful issue.
    fn pay(&mut self, mut delta: u64) {
        const ORDER: [(StallCause, Cause); 3] = [
            (StallCause::Dataflow, Cause::DataflowStall),
            (StallCause::ArbFull, Cause::ArbFullStall),
            (StallCause::IntraMispredict, Cause::IntraMispredict),
        ];
        for (stall, cause) in ORDER {
            let paid = delta.min(self.debt[stall as usize]);
            self.debt[stall as usize] -= paid;
            self.cycles[cause as usize] += paid;
            delta -= paid;
        }
        self.cycles[Cause::UsefulIssue as usize] += delta;
    }
}

impl MetricsSink for CycleBreakdown {
    const ENABLED: bool = true;

    fn issue_stall(&mut self, cause: StallCause, cycles: u64) {
        self.debt[cause as usize] += cycles;
    }

    fn frontier(&mut self, from: u64, to: u64, cause: FrontierCause) {
        debug_assert!(to >= from, "frontier must be monotone");
        let delta = to - from;
        match cause {
            FrontierCause::Issue => {
                self.pay(delta);
                return; // the cursor did not reset: debt stays armed
            }
            FrontierCause::Startup | FrontierCause::Dispatch => {
                self.cycles[Cause::SequencerIdle as usize] += delta;
            }
            FrontierCause::Squash => self.cycles[Cause::SquashRefill as usize] += delta,
            FrontierCause::Gated => self.cycles[Cause::GatedStall as usize] += delta,
            FrontierCause::Violation => self.cycles[Cause::ViolationSquash as usize] += delta,
        }
        // Boundary and violation sites reset the issue cursor; whatever
        // debt its pushes left behind was hidden under overlap.
        self.debt = [0; 3];
    }

    fn finish(&mut self, result: &TimingResult) {
        assert_eq!(
            self.total(),
            result.cycles,
            "cycle attribution must sum to the run's total cycles \
             (breakdown: {:?})",
            self.cycles
        );
    }
}

/// Two sinks observing the same run: every hook fans out to both halves.
/// Enabled iff either half is, so pairing a live sink with [`NoopSink`]
/// costs nothing extra. This is how `harness profile --occupancy` attaches
/// a [`UnitOccupancy`] alongside the [`CycleBreakdown`] in one pass.
impl<A: MetricsSink, B: MetricsSink> MetricsSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn issue_stall(&mut self, cause: StallCause, cycles: u64) {
        self.0.issue_stall(cause, cycles);
        self.1.issue_stall(cause, cycles);
    }

    #[inline(always)]
    fn frontier(&mut self, from: u64, to: u64, cause: FrontierCause) {
        self.0.frontier(from, to, cause);
        self.1.frontier(from, to, cause);
    }

    #[inline(always)]
    fn boundary(&mut self, ev: &BoundaryEvent) {
        self.0.boundary(ev);
        self.1.boundary(ev);
    }

    #[inline(always)]
    fn finish(&mut self, result: &TimingResult) {
        self.0.finish(result);
        self.1.finish(result);
    }
}

/// Per-ring-unit occupancy: how each unit's cycles split into **busy**
/// (task execution on its critical path), **stalled** (in-task issue-cursor
/// pushes — dataflow waits, ARB overflow penalties, intra-branch redirects
/// — up to the task's residency) and **idle** (no task resident).
///
/// Tasks visit units round-robin; a unit is *occupied* by a task from the
/// task's start on that unit until the task commits and frees the unit
/// (`commit + 1`, matching the core's `unit_free` bookkeeping), and the
/// final in-flight task occupies its unit to the end of the run.
/// Successive residencies on one unit never overlap, so per unit
/// `busy + stalled + idle == cycles` exactly — [`MetricsSink::finish`]
/// asserts the grand total equals `cycles × N_UNITS` on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitOccupancy {
    busy: [u64; N_UNITS],
    stalled: [u64; N_UNITS],
    idle: [u64; N_UNITS],
    /// End of the last finished residency per unit (`commit + 1`).
    last_end: [u64; N_UNITS],
    /// Unit the currently resident task runs on.
    cur_unit: usize,
    /// Start of the current residency on `cur_unit`.
    cur_start: u64,
    /// Issue-stall cycles accumulated by the resident task.
    stall_acc: u64,
    /// Total cycles, recorded at finish.
    cycles: u64,
}

impl UnitOccupancy {
    /// A fresh sink for the [`N_UNITS`]-unit ring.
    pub fn new() -> UnitOccupancy {
        UnitOccupancy::default()
    }

    /// Busy cycles per unit (index = ring unit).
    pub fn busy(&self) -> &[u64] {
        &self.busy
    }

    /// Stalled cycles per unit.
    pub fn stalled(&self) -> &[u64] {
        &self.stalled
    }

    /// Idle cycles per unit (only meaningful after the run finished).
    pub fn idle(&self) -> &[u64] {
        &self.idle
    }

    /// Fraction of all unit-cycles that were busy (`0.0` on an empty run).
    pub fn busy_frac(&self) -> f64 {
        self.frac(&self.busy)
    }

    /// Fraction of all unit-cycles spent stalled.
    pub fn stalled_frac(&self) -> f64 {
        self.frac(&self.stalled)
    }

    /// Fraction of all unit-cycles spent idle.
    pub fn idle_frac(&self) -> f64 {
        self.frac(&self.idle)
    }

    fn frac(&self, what: &[u64]) -> f64 {
        let denom = self.cycles * N_UNITS as u64;
        if denom == 0 {
            0.0
        } else {
            what.iter().sum::<u64>() as f64 / denom as f64
        }
    }

    /// Closes the residency ending at `end` on the current unit, splitting
    /// it into stalled (up to the accumulated stall debt — stalls the ring
    /// overlapped away cannot exceed the residency) and busy.
    fn close_residency(&mut self, end: u64) {
        let u = self.cur_unit;
        let occupied = end.saturating_sub(self.cur_start);
        let stalled = self.stall_acc.min(occupied);
        self.stalled[u] += stalled;
        self.busy[u] += occupied - stalled;
        self.last_end[u] = self.last_end[u].max(end);
        self.stall_acc = 0;
    }
}

impl MetricsSink for UnitOccupancy {
    const ENABLED: bool = true;

    fn issue_stall(&mut self, _cause: StallCause, cycles: u64) {
        self.stall_acc += cycles;
    }

    fn boundary(&mut self, ev: &BoundaryEvent) {
        // The retiring task holds its unit until the commit point frees it.
        let end = (ev.commit + 1).max(self.cur_start);
        self.close_residency(end);
        // The next task starts on the next ring unit once it is dispatched
        // and that unit is free.
        let next = (self.cur_unit + 1) % N_UNITS;
        self.cur_unit = next;
        self.cur_start = ev.dispatch.max(self.last_end[next]);
    }

    fn finish(&mut self, result: &TimingResult) {
        self.cycles = result.cycles;
        // The final in-flight task (which never retires through a boundary)
        // occupies its unit to the end of the run.
        self.cur_start = self.cur_start.min(self.cycles);
        self.close_residency(self.cycles);
        // Residencies end at `commit + 1`, and the last commit may equal
        // the final cycle count — clamp the (at most one cycle of)
        // overshoot per unit, then everything uncovered is idle.
        for u in 0..N_UNITS {
            let over = self.last_end[u].saturating_sub(self.cycles);
            let from_busy = over.min(self.busy[u]);
            self.busy[u] -= from_busy;
            self.stalled[u] -= (over - from_busy).min(self.stalled[u]);
            self.idle[u] = self
                .cycles
                .checked_sub(self.busy[u] + self.stalled[u])
                .expect("unit occupancy cannot exceed total cycles");
        }
        let total: u64 = (0..N_UNITS)
            .map(|u| self.busy[u] + self.stalled[u] + self.idle[u])
            .sum();
        assert_eq!(
            total,
            self.cycles * N_UNITS as u64,
            "per-unit occupancy must sum to cycles x N_UNITS \
             (busy {:?}, stalled {:?}, idle {:?})",
            self.busy,
            self.stalled,
            self.idle
        );
    }
}

/// Records task-level events as JSON lines: `resolve` (with the
/// boundary's miss bit), `squash` (on a mispredicted, non-gated boundary),
/// `commit` and `dispatch` per boundary, with machine clocks and exit
/// numbers, plus a final `halt` line. Fields are numbers and fixed
/// keywords only, so no JSON escaping is needed.
#[derive(Debug, Clone, Default)]
pub struct TaskEventSink {
    out: String,
}

impl TaskEventSink {
    /// An empty sink.
    pub fn new() -> TaskEventSink {
        TaskEventSink::default()
    }

    /// The JSON-lines log recorded so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSON-lines log.
    pub fn into_jsonl(self) -> String {
        self.out
    }
}

impl MetricsSink for TaskEventSink {
    const ENABLED: bool = true;

    fn boundary(&mut self, ev: &BoundaryEvent) {
        let b = ev.index;
        let t = ev.task;
        let _ = writeln!(
            self.out,
            "{{\"ev\":\"resolve\",\"boundary\":{b},\"task\":{t},\"exit\":{},\"next\":{},\
             \"miss\":{},\"clock\":{}}}",
            ev.exit, ev.next, ev.miss, ev.complete
        );
        if ev.miss && !ev.gated {
            let _ = writeln!(
                self.out,
                "{{\"ev\":\"squash\",\"boundary\":{b},\"task\":{t},\"clock\":{}}}",
                ev.complete
            );
        }
        let _ = writeln!(
            self.out,
            "{{\"ev\":\"commit\",\"boundary\":{b},\"task\":{t},\"clock\":{}}}",
            ev.commit
        );
        let _ = writeln!(
            self.out,
            "{{\"ev\":\"dispatch\",\"boundary\":{b},\"next\":{},\"gated\":{},\"clock\":{}}}",
            ev.next, ev.gated, ev.dispatch
        );
    }

    fn finish(&mut self, result: &TimingResult) {
        let _ = writeln!(
            self.out,
            "{{\"ev\":\"halt\",\"cycles\":{},\"instructions\":{},\"tasks\":{},\
             \"task_mispredicts\":{}}}",
            result.cycles, result.instructions, result.dynamic_tasks, result.task_mispredicts
        );
    }
}
