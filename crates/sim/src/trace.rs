//! Task-level traces: the functional simulator's view of the global
//! sequencer's job — one [`TaskEvent`] per dynamic task.
//!
//! A trace has two producers that share one per-event bookkeeping step.
//! [`collect_trace`] drains the interpreter step source (the one piece of
//! code that executes programs and detects task-boundary crossings against
//! the task former's partition). [`crate::replay::derive_trace`] rebuilds
//! the same trace from a recording, which is how the harness prepares
//! benchmarks.

use multiscalar_isa::{Addr, ExecError, ExitIndex, ExitKind, Program};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::timing::{InterpSource, StepSource};
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

    /// Fraction of dynamic exits with the given kind. `Halt` exits are
    /// never recorded, so their fraction is 0.
    pub fn frac_kind(&self, kind: ExitKind) -> f64 {
        match kind_slot(kind) {
            Some(i) if self.dynamic_tasks != 0 => {
                self.by_kind[i] as f64 / self.dynamic_tasks as f64
            }
            _ => 0.0,
        }
    }
}

/// Table 1 slot of an exit kind; `None` for `Halt`, which traces never
/// record (the halting task has no successor to predict).
pub(crate) fn kind_slot(kind: ExitKind) -> Option<usize> {
    ExitKind::TABLE1.iter().position(|&k| k == kind)
}

/// A compact struct-of-arrays task trace, shared read-only between
/// experiments (and threads) behind an [`Arc`].
///
/// Each benchmark is traced **once**; every predictor sweep then walks this
/// immutable structure. Splitting the event fields into parallel arrays
/// keeps each one densely packed (no per-event padding), which matters when
/// nine fused predictor instances stream the same multi-million-event trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedTrace {
    tasks: Vec<TaskId>,
    exits: Vec<ExitIndex>,
    kinds: Vec<ExitKind>,
    nexts: Vec<Addr>,
    instrs: Vec<u32>,
}

impl SharedTrace {
    /// Number of recorded dynamic task events.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Reassembles event `i` from the parallel arrays.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> TaskEvent {
        TaskEvent {
            task: self.tasks[i],
            exit: self.exits[i],
            kind: self.kinds[i],
            next: self.nexts[i],
            instrs: self.instrs[i],
        }
    }

    /// Iterates the events in execution order, by value (events are `Copy`).
    pub fn iter(&self) -> impl Iterator<Item = TaskEvent> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    pub(crate) fn push(&mut self, e: TaskEvent) {
        self.tasks.push(e.task);
        self.exits.push(e.exit);
        self.kinds.push(e.kind);
        self.nexts.push(e.next);
        self.instrs.push(e.instrs);
    }
}

impl<'a> IntoIterator for &'a SharedTrace {
    type Item = TaskEvent;
    type IntoIter = Box<dyn Iterator<Item = TaskEvent> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<TaskEvent> for SharedTrace {
    fn from_iter<I: IntoIterator<Item = TaskEvent>>(iter: I) -> Self {
        let mut t = SharedTrace::default();
        for e in iter {
            t.push(e);
        }
        t
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

/// Accumulates a [`TraceRun`] one dynamic task at a time — the per-event
/// step shared by [`collect_trace`] (live from the interpreter) and
/// [`crate::replay::derive_trace`] (from a recording): header lookup, exit
/// kind, the exit-count and exit-kind histograms, and distinct tasks.
pub(crate) struct TraceBuilder<'t> {
    tasks: &'t TaskProgram,
    events: SharedTrace,
    stats: TraceStats,
    /// Dense seen-bitmap instead of a HashSet: task ids are bounded by the
    /// static task count, and this is consulted once per dynamic task.
    seen: Vec<bool>,
}

impl<'t> TraceBuilder<'t> {
    pub(crate) fn new(tasks: &'t TaskProgram) -> TraceBuilder<'t> {
        TraceBuilder {
            tasks,
            events: SharedTrace::default(),
            stats: TraceStats::default(),
            seen: vec![false; tasks.static_task_count()],
        }
    }

    /// Records one dynamic task: `task` ran `instrs` instructions, left
    /// through `exit`, and control went to `next`.
    pub(crate) fn push(&mut self, task: TaskId, exit: ExitIndex, next: Addr, instrs: u32) {
        let header = self.tasks.task(task).header();
        let kind = header.exits()[exit.index()].kind;
        self.events.push(TaskEvent {
            task,
            exit,
            kind,
            next,
            instrs,
        });
        self.stats.dynamic_tasks += 1;
        self.stats.by_num_exits[header.num_exits().min(4)] += 1;
        self.stats.by_kind[kind_slot(kind).expect("halting task is never recorded")] += 1;
        if !self.seen[task.index()] {
            self.seen[task.index()] = true;
            self.stats.distinct_tasks += 1;
        }
    }

    /// The finished trace. `instructions` counts every executed
    /// instruction, the final (halting, unrecorded) task's included.
    pub(crate) fn finish(mut self, instructions: u64) -> TraceRun {
        self.stats.instructions = instructions;
        TraceRun {
            events: Arc::new(self.events),
            stats: self.stats,
        }
    }
}

/// Executes `program` under the task partition `tasks` and collects its
/// task-level trace. The final task (the one ending in `Halt`) is not
/// emitted — it has no successor to predict — but its instructions count
/// toward the totals.
///
/// # Errors
///
/// Fails on execution faults, unmatched boundary crossings (task-former
/// bugs) or step-budget exhaustion.
pub fn collect_trace(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<TraceRun, TraceError> {
    let mut source = InterpSource::new(program, tasks, max_steps);
    let mut trace = TraceBuilder::new(tasks);
    let mut total = 0u64;
    let mut cur_instrs = 0u32;
    loop {
        let step = source.next_step()?;
        total += 1;
        cur_instrs += 1;
        if let Some(b) = step.boundary {
            trace.push(TaskId(b.task), b.exit, b.next, cur_instrs);
            cur_instrs = 0;
        }
        if step.halt {
            return Ok(trace.finish(total));
        }
    }
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
