//! Task-level traces: the functional simulator's view of the global
//! sequencer's job — one [`TaskEvent`] per dynamic task.
//!
//! A trace has one producer. [`crate::replay::record_replay`] writes every
//! task boundary into the recording's boundary section, a [`SharedTrace`],
//! as it drains the interpreter step source (the one piece of code that
//! executes programs and detects task-boundary crossings against the task
//! former's partition). [`crate::replay::derive_trace`] hands that section
//! out as the trace's events and computes only its [`TraceStats`];
//! [`collect_trace`] is that derivation of a fresh recording.
//!
//! The section keeps a boundary at its information content, the way the
//! paper sorts exit targets for prediction: the task header holds the
//! kind and any static target of each exit, so a boundary keeps one byte
//! of exit and task size, and a stored target only for the exits a header
//! cannot resolve, returns (the RAS's) and indirect branches and calls
//! (the CTTB's). [`SharedTrace::iter`] decodes it in order.

use multiscalar_isa::{Addr, ExecError, ExitIndex, ExitKind, Program, MAX_EXITS};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::replay::{derive_trace, record_replay, CodeTable};
use crate::timing::BoundaryStep;
use std::fmt;
use std::sync::Arc;

/// One dynamic task instance: which static task ran, which exit it took,
/// and where control went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEvent {
    /// The static task that executed.
    pub task: TaskId,
    /// The exit taken (index into the task's header).
    pub exit: ExitIndex,
    /// The exit's control-flow class.
    pub kind: ExitKind,
    /// Entry address of the task executed next.
    pub next: Addr,
    /// Dynamic instructions executed by this task instance.
    pub instrs: u32,
}

/// Errors from trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The program faulted.
    Exec(ExecError),
    /// Control crossed a task boundary that matches no header exit —
    /// indicates a task-formation bug.
    UnmatchedExit {
        /// The task control was in.
        task: TaskId,
        /// The transferring instruction.
        from: Addr,
        /// Where control landed.
        to: Addr,
    },
    /// Control left an instruction inside its task other than the way the
    /// code says it can (a return, an indirect jump or an indirect call
    /// that crosses no boundary), so a recording could not regenerate the
    /// path from its taken bits.
    DynamicTransfer {
        /// The task control stayed in.
        task: TaskId,
        /// The transferring instruction.
        from: Addr,
        /// Where control landed.
        to: Addr,
    },
    /// The step budget ran out before the program halted.
    StepLimit,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Exec(e) => write!(f, "execution fault: {e}"),
            TraceError::UnmatchedExit { task, from, to } => {
                write!(
                    f,
                    "{task} crossed {from}->{to} without a matching header exit"
                )
            }
            TraceError::DynamicTransfer { task, from, to } => {
                write!(
                    f,
                    "{task} transferred {from}->{to} dynamically without crossing a boundary"
                )
            }
            TraceError::StepLimit => f.write_str("step budget exhausted before halt"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<ExecError> for TraceError {
    fn from(e: ExecError) -> Self {
        TraceError::Exec(e)
    }
}

/// Summary statistics of a trace (the raw material of the paper's Table 2
/// and Figures 3–4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Dynamic task count (Table 2, "Dynamic Tasks").
    pub dynamic_tasks: u64,
    /// Distinct static tasks seen (Table 2, "Distinct Tasks Seen").
    pub distinct_tasks: usize,
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic task count by number of header exits (index 0 unused;
    /// `by_num_exits[k]` = tasks with `k` exits). Figure 3, "dynamic" bars.
    pub by_num_exits: [u64; 5],
    /// Dynamic exit count by kind, Table 1 order. Figure 4, "dynamic"
    /// bars. There is no `Halt` slot: the final (halting) task is never
    /// recorded, so a halt exit cannot appear in a trace.
    pub by_kind: [u64; 5],
}

impl TraceStats {
    /// Mean dynamic task size in instructions.
    pub fn mean_task_size(&self) -> f64 {
        if self.dynamic_tasks == 0 {
            0.0
        } else {
            self.instructions as f64 / self.dynamic_tasks as f64
        }
    }

    /// Fraction of dynamic tasks with `n` exits (`1..=4`).
    pub fn frac_with_exits(&self, n: usize) -> f64 {
        if self.dynamic_tasks == 0 {
            0.0
        } else {
            self.by_num_exits[n] as f64 / self.dynamic_tasks as f64
        }
    }

    /// The statistics of `events`, the trace of an execution of
    /// `instructions` instructions under the partition `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a task outside `tasks` or has the `Halt`
    /// kind (recording never writes either, and loading and
    /// [`crate::codec::check_fits`] reject an artifact that does).
    pub(crate) fn of(events: &SharedTrace, tasks: &TaskProgram, instructions: u64) -> TraceStats {
        let mut stats = TraceStats {
            dynamic_tasks: events.len() as u64,
            instructions,
            ..TraceStats::default()
        };
        let mut runs = vec![0u64; tasks.static_task_count()];
        for e in events.iter() {
            runs[e.task.index()] += 1;
            stats.by_kind[kind_slot(e.kind).expect("halting task is never recorded")] += 1;
        }
        for (task, &n) in tasks.tasks().iter().zip(&runs).filter(|(_, &n)| n > 0) {
            stats.distinct_tasks += 1;
            stats.by_num_exits[task.header().num_exits().min(4)] += n;
        }
        stats
    }
}

/// Table 1 slot of an exit kind; `None` for `Halt`, which traces never
/// record (the halting task has no successor to predict).
pub(crate) fn kind_slot(kind: ExitKind) -> Option<usize> {
    ExitKind::TABLE1.iter().position(|&k| k == kind)
}

/// Bits of a boundary byte that hold the exit index; the rest hold the
/// task's size.
const EXIT_BITS: u32 = 2;
const _: () = assert!(MAX_EXITS == 1 << EXIT_BITS);

/// The bits of a boundary byte that hold the exit index.
const EXIT_MASK: u8 = (1 << EXIT_BITS) - 1;

/// The largest task size a boundary byte holds. A size field of 0 is the
/// escape: the size is the next entry of the escaped-size column.
pub(crate) const MAX_INLINE_SIZE: u32 = u8::MAX as u32 >> EXIT_BITS;

/// A task-table exit's static target where its header has none (a
/// return, an indirect branch or call, the halt): a boundary through it
/// stores its target.
pub(crate) const NO_TARGET: u32 = u32::MAX;

/// The task a pc enters where it enters none.
const NO_TASK: u32 = u32::MAX;

/// One exit of a [`TaskTable`], as the artifact stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableExit {
    /// The header's kind.
    pub(crate) kind: ExitKind,
    /// The header's static target, or [`NO_TARGET`].
    pub(crate) target: u32,
}

/// What decoding a boundary through one (task, exit) pair reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// The static next pc, or [`NO_TARGET`] where the boundary stores it.
    next: u32,
    /// The task `next` enters, or [`NO_TASK`].
    task: u32,
    /// The exit's kind; `Halt` past the header as well.
    kind: ExitKind,
}

impl Slot {
    /// The slot of an exit index past the task's header.
    const NONE: Slot = Slot {
        next: NO_TARGET,
        task: NO_TASK,
        kind: ExitKind::Halt,
    };
}

/// A partition as the boundary section's decoder reads it: per static
/// task, its entry pc and, per header exit, the exit's kind and static
/// target. It travels with the recording, so decoding needs no program.
/// Two lookups are derived from it over the code's pcs: per (task, exit)
/// the kind, the static next pc and the task that pc enters, and per pc
/// the task entered there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaskTable {
    /// Each task's entry pc, by task id.
    pub(crate) entries: Vec<u32>,
    /// Each task's number of header exits.
    pub(crate) counts: Vec<u8>,
    /// Every task's exits, in header order, task after task.
    pub(crate) exits: Vec<TableExit>,
    /// [`MAX_EXITS`] slots per task.
    slots: Vec<Slot>,
    /// The task entered at each pc of the code, or [`NO_TASK`].
    by_pc: Vec<u32>,
}

impl TaskTable {
    /// The table of partition `tasks` over the code table `code`.
    pub(crate) fn of(tasks: &TaskProgram, code: &CodeTable) -> TaskTable {
        let headers = tasks.tasks().iter().map(|t| t.header());
        TaskTable::derive(
            tasks.tasks().iter().map(|t| t.entry().0).collect(),
            headers.clone().map(|h| h.num_exits() as u8).collect(),
            headers
                .flat_map(|h| h.exits())
                .map(|e| TableExit {
                    kind: e.kind,
                    target: e.target.map_or(NO_TARGET, |a| a.0),
                })
                .collect(),
            code.len(),
        )
    }

    /// The table of the stored parts `entries`, `counts` and `exits`, with
    /// its lookups derived over a code of `code_len` instructions. An entry
    /// outside the code enters nothing, and where tasks share an entry the
    /// lowest id enters there; the loader refuses both
    /// ([`TaskTable::entries_are_distinct`]).
    ///
    /// # Panics
    ///
    /// If `counts` name more exits than `exits` holds.
    pub(crate) fn derive(
        entries: Vec<u32>,
        counts: Vec<u8>,
        exits: Vec<TableExit>,
        code_len: usize,
    ) -> TaskTable {
        let mut by_pc = vec![NO_TASK; code_len];
        for (t, &pc) in entries.iter().enumerate().rev() {
            if let Some(at) = by_pc.get_mut(pc as usize) {
                *at = t as u32;
            }
        }
        let mut slots = Vec::with_capacity(entries.len() * MAX_EXITS);
        let mut rest = exits.as_slice();
        for &n in &counts {
            let (own, more) = rest.split_at(usize::from(n));
            rest = more;
            slots.extend(own.iter().map(|e| Slot {
                next: e.target,
                task: by_pc.get(e.target as usize).copied().unwrap_or(NO_TASK),
                kind: e.kind,
            }));
            slots.resize(slots.len() + MAX_EXITS - own.len(), Slot::NONE);
        }
        TaskTable {
            entries,
            counts,
            exits,
            slots,
            by_pc,
        }
    }

    /// Whether every entry lies inside the code and enters its own task,
    /// so no two tasks share one.
    pub(crate) fn entries_are_distinct(&self) -> bool {
        (0..self.entries.len()).all(|t| self.entered_at(self.entries[t]) == Some(t as u32))
    }

    /// The task entered at `pc`, if `pc` lies inside the code and enters
    /// one.
    #[inline]
    pub(crate) fn entered_at(&self, pc: u32) -> Option<u32> {
        self.by_pc
            .get(pc as usize)
            .copied()
            .filter(|&t| t != NO_TASK)
    }

    /// The slot of `task`'s exit `exit`.
    #[inline(always)]
    fn slot(&self, task: u32, exit: u8) -> Slot {
        self.slots[task as usize * MAX_EXITS + usize::from(exit)]
    }
}

/// A recording's boundary section: the task trace, shared read-only
/// between experiments (and threads) behind an [`Arc`].
///
/// Each benchmark is traced **once**, as the boundary section of its
/// recording ([`crate::replay::InstrReplay`]); the replay cursor and every
/// predictor sweep then decode this one immutable structure, in order,
/// through [`SharedTrace::iter`]. It holds only what execution decides:
/// per boundary, one byte of the exit taken (bits 0..2) and the task's size
/// (bits 2..8, 1..=63 ops; 0 escapes a larger size to a `u32` column), and
/// a `u32` target for each boundary whose exit has no static target (a
/// return, an indirect branch or call). The rest comes from the
/// recording's task table: a boundary's task is the one entered at the
/// previous boundary's next pc (the first is the entry point's), its kind
/// is the header's, and so is a static exit's next pc. No decoded copy is
/// kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedTrace {
    /// The partition the section decodes against.
    pub(crate) table: TaskTable,
    /// The task the entry point enters: the first boundary's.
    pub(crate) first: u32,
    /// One byte per boundary.
    pub(crate) bytes: Vec<u8>,
    /// The sizes of tasks longer than [`MAX_INLINE_SIZE`] ops, in order.
    pub(crate) sizes: Vec<u32>,
    /// The next pc of each boundary whose exit has no static target, in
    /// order.
    pub(crate) targets: Vec<u32>,
}

impl SharedTrace {
    /// An empty section over `table`, for a program entered at `entry`.
    pub(crate) fn new(table: TaskTable, entry: u32) -> SharedTrace {
        SharedTrace {
            first: table.entered_at(entry).unwrap_or(NO_TASK),
            table,
            bytes: Vec::new(),
            sizes: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Number of recorded dynamic task events.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes the events in execution order.
    pub fn iter(&self) -> Events<'_> {
        Events {
            trace: self,
            at: 0,
            escape: 0,
            target: 0,
            task: self.first,
        }
    }

    /// Appends boundary `b` of a task instance that ran `instrs`
    /// instructions. Its task and, for a static exit, its next pc are the
    /// table's, so only the exit, the size and a dynamic exit's target are
    /// kept.
    pub(crate) fn push(&mut self, b: BoundaryStep, instrs: u32) {
        let size = if instrs <= MAX_INLINE_SIZE {
            instrs
        } else {
            self.sizes.push(instrs);
            0
        };
        self.bytes.push(b.exit.as_u8() | (size as u8) << EXIT_BITS);
        if self.table.slot(b.task, b.exit.as_u8()).next == NO_TARGET {
            self.targets.push(b.next.0);
        }
    }

    /// Walks the section as [`SharedTrace::iter`] decodes it, checking
    /// every rule the decoder relies on; `ops` is the recording's op
    /// count. The first rule broken, or `Ok` when the section decodes to
    /// boundaries of real exits, every target entering a task, and task
    /// sizes that leave the halting task its op.
    pub(crate) fn check(&self, ops: u64) -> Result<(), &'static str> {
        let (mut escape, mut target, mut recorded) = (0, 0, 0u64);
        let mut task = self.first;
        if task == NO_TASK {
            return Err("the entry point enters no task");
        }
        for &b in &self.bytes {
            let exit = b & EXIT_MASK;
            if exit >= self.table.counts[task as usize] {
                return Err("boundary exit past its task's header");
            }
            let slot = self.table.slot(task, exit);
            if slot.kind == ExitKind::Halt {
                return Err("boundary through a halt exit");
            }
            let instrs = match u32::from(b >> EXIT_BITS) {
                0 => {
                    let &n = self.sizes.get(escape).ok_or("escaped sizes run out")?;
                    escape += 1;
                    if n <= MAX_INLINE_SIZE {
                        return Err("escaped task size fits its byte");
                    }
                    u64::from(n)
                }
                n => u64::from(n),
            };
            recorded = recorded.saturating_add(instrs);
            task = if slot.next == NO_TARGET {
                let &next = self.targets.get(target).ok_or("stored targets run out")?;
                target += 1;
                self.table
                    .entered_at(next)
                    .ok_or("stored target enters no task")?
            } else if slot.task == NO_TASK {
                return Err("static target enters no task");
            } else {
                slot.task
            };
        }
        if escape != self.sizes.len() || target != self.targets.len() {
            return Err("escaped sizes or stored targets left over");
        }
        if recorded >= ops {
            return Err("task sizes leave no halting op");
        }
        Ok(())
    }
}

/// The in-order decoder of a [`SharedTrace`]: one [`TaskEvent`] per
/// boundary. A static exit costs one table load; a dynamic one also reads
/// its stored target and the task it enters.
#[derive(Debug)]
pub struct Events<'a> {
    trace: &'a SharedTrace,
    /// The next boundary byte.
    at: usize,
    /// The next escaped size.
    escape: usize,
    /// The next stored target.
    target: usize,
    /// The task of the next boundary.
    task: u32,
}

impl Iterator for Events<'_> {
    type Item = TaskEvent;

    #[inline]
    fn next(&mut self) -> Option<TaskEvent> {
        let trace = self.trace;
        let &b = trace.bytes.get(self.at)?;
        self.at += 1;
        let exit = b & EXIT_MASK;
        let mut instrs = u32::from(b >> EXIT_BITS);
        if instrs == 0 {
            instrs = trace.sizes[self.escape];
            self.escape += 1;
        }
        let slot = trace.table.slot(self.task, exit);
        let (next, task) = if slot.next == NO_TARGET {
            let next = trace.targets[self.target];
            self.target += 1;
            (next, trace.table.by_pc[next as usize])
        } else {
            (slot.next, slot.task)
        };
        let event = TaskEvent {
            task: TaskId(self.task),
            exit: ExitIndex::new(exit).expect("two bits index an exit"),
            kind: slot.kind,
            next: Addr(next),
            instrs,
        };
        self.task = task;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.trace.len() - self.at;
        (n, Some(n))
    }
}

/// A completed trace: the events plus summary statistics.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// One event per dynamic task, in execution order, shared immutably
    /// between all experiments that walk it. The final task (the one ending
    /// in `Halt`) is not recorded — it has no successor to predict.
    pub events: Arc<SharedTrace>,
    /// Aggregate statistics over `events`.
    pub stats: TraceStats,
}

/// Executes `program` under the task partition `tasks` and collects its
/// task-level trace: [`derive_trace`] of a [`record_replay`], so the trace
/// is the recording's boundary section. The final task (the one ending in
/// `Halt`) is not emitted — it has no successor to predict — but its
/// instructions count toward the totals.
///
/// # Errors
///
/// Fails on execution faults, unmatched boundary crossings (task-former
/// bugs), intra-task transfers without a static successor, or step-budget
/// exhaustion.
pub fn collect_trace(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<TraceRun, TraceError> {
    record_replay(program, tasks, max_steps).map(|r| derive_trace(&r, tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::{AluOp, Cond, Interpreter, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    fn trace_of(p: &Program, max: u64) -> (TaskProgram, TraceRun) {
        let tp = TaskFormer::default().form(p).unwrap();
        tp.validate(p).unwrap();
        let run = collect_trace(p, &tp, max).unwrap();
        (tp, run)
    }

    #[test]
    fn loop_task_re_enters_itself() {
        // A 10-iteration self-loop task must appear 10 times in the trace
        // (paper Fig. 1: tasks re-enter through exits).
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 10);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let (tp, run) = trace_of(&p, 10_000);

        // The loop back-edge produces repeated instances of the loop task.
        let loop_task = tp.task_at(multiscalar_isa::Addr(2)).unwrap();
        let n = run.events.iter().filter(|e| e.task == loop_task).count();
        assert!(n >= 9, "expected ~10 loop-task instances, got {n}");
        assert!(run.stats.dynamic_tasks >= 9);
    }

    #[test]
    fn call_return_events_have_matching_kinds() {
        let mut b = ProgramBuilder::new();
        let callee = b.begin_function("callee");
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.call_label(callee);
        b.call_label(callee);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let (_tp, run) = trace_of(&p, 10_000);

        let calls = run
            .events
            .iter()
            .filter(|e| e.kind == ExitKind::Call)
            .count();
        let rets = run
            .events
            .iter()
            .filter(|e| e.kind == ExitKind::Return)
            .count();
        assert_eq!(calls, 2);
        assert_eq!(rets, 2);
        // Each event's `next` is the entry of the task recorded by the
        // following event's execution.
        for e in run.events.iter() {
            assert!(p.fetch(e.next).is_some());
        }
    }

    #[test]
    fn instruction_counts_add_up() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 50);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let (_tp, run) = trace_of(&p, 10_000);
        // Total instructions = interpreter steps.
        let mut i = Interpreter::new(&p);
        let out = i.run(10_000).unwrap();
        assert_eq!(run.stats.instructions, out.steps);
    }

    #[test]
    fn step_limit_is_reported() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.jump(top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tp = TaskFormer::default().form(&p).unwrap();
        assert_eq!(
            collect_trace(&p, &tp, 100).unwrap_err(),
            TraceError::StepLimit
        );
    }

    /// The decoder against an oracle that never reads the compact form:
    /// on each benchmark at scale 1, the events of a plain `Vec` built from
    /// the interpreter step source's boundaries, each with its header's
    /// kind and its task's op count.
    #[test]
    fn decoded_events_equal_the_interpreters_boundaries() {
        use crate::timing::InterpSource;
        use multiscalar_workloads::{Spec92, WorkloadParams};
        let params = WorkloadParams::small(7);
        for &spec in &Spec92::ALL {
            let w = spec.build(&params);
            let tasks = TaskFormer::default().form(&w.program).unwrap();
            let mut source = InterpSource::new(&w.program, &tasks, w.max_steps);
            let mut plain: Vec<TaskEvent> = Vec::new();
            let mut instrs = 0;
            loop {
                let step = source.next_step().unwrap();
                instrs += 1;
                if let Some(b) = step.boundary {
                    let task = TaskId(b.task);
                    plain.push(TaskEvent {
                        task,
                        exit: b.exit,
                        kind: tasks.task(task).header().exits()[b.exit.index()].kind,
                        next: b.next,
                        instrs,
                    });
                    instrs = 0;
                }
                if step.halt {
                    break;
                }
            }
            let run = collect_trace(&w.program, &tasks, w.max_steps).unwrap();
            assert_eq!(run.events.len(), plain.len(), "{spec}");
            for (k, (e, want)) in run.events.iter().zip(&plain).enumerate() {
                assert_eq!(e.task, want.task, "{spec} boundary {k}: task");
                assert_eq!(e.exit, want.exit, "{spec} boundary {k}: exit");
                assert_eq!(e.kind, want.kind, "{spec} boundary {k}: kind");
                assert_eq!(e.next, want.next, "{spec} boundary {k}: next");
                assert_eq!(e.instrs, want.instrs, "{spec} boundary {k}: size");
            }
        }
    }

    #[test]
    fn stats_distributions_are_consistent() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("f");
        let l = b.new_label();
        b.branch(Cond::Eq, Reg(1), Reg(0), l);
        b.op_imm(AluOp::Add, Reg(2), Reg(2), 1);
        b.bind(l);
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(3), 20);
        let top = b.here_label();
        b.call_label(f);
        b.op_imm(AluOp::Add, Reg(4), Reg(4), 1);
        b.branch(Cond::Lt, Reg(4), Reg(3), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let (_tp, run) = trace_of(&p, 100_000);

        let s = &run.stats;
        assert_eq!(s.dynamic_tasks as usize, run.events.len());
        assert_eq!(s.by_num_exits.iter().sum::<u64>(), s.dynamic_tasks);
        assert_eq!(s.by_kind.iter().sum::<u64>(), s.dynamic_tasks);
        assert!(s.mean_task_size() > 0.0);
        assert!(s.distinct_tasks >= 3);
        let frac_sum: f64 = (1..=4).map(|n| s.frac_with_exits(n)).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}
