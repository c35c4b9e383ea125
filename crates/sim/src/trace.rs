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

use multiscalar_isa::{Addr, ExecError, ExitIndex, ExitKind, Program};
use multiscalar_taskform::{TaskId, TaskProgram};

use crate::replay::{derive_trace, record_replay};
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

    /// The statistics of `events`, the trace of an execution of
    /// `instructions` instructions under the partition `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a task outside `tasks` or has the `Halt`
    /// kind (recording never writes either, and
    /// [`crate::codec::check_fits`] rejects an artifact that does).
    pub(crate) fn of(events: &SharedTrace, tasks: &TaskProgram, instructions: u64) -> TraceStats {
        let mut stats = TraceStats {
            dynamic_tasks: events.len() as u64,
            instructions,
            ..TraceStats::default()
        };
        let mut runs = vec![0u64; tasks.static_task_count()];
        for t in &events.tasks {
            runs[t.index()] += 1;
        }
        for (task, &n) in tasks.tasks().iter().zip(&runs).filter(|(_, &n)| n > 0) {
            stats.distinct_tasks += 1;
            stats.by_num_exits[task.header().num_exits().min(4)] += n;
        }
        for &kind in &events.kinds {
            stats.by_kind[kind_slot(kind).expect("halting task is never recorded")] += 1;
        }
        stats
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
/// Each benchmark is traced **once**, as the boundary section of its
/// recording ([`crate::replay::InstrReplay`]); the replay cursor and every
/// predictor sweep then walk this one immutable structure. Splitting the
/// event fields into parallel arrays keeps each one densely packed (no
/// per-event padding), which matters when nine fused predictor instances
/// stream the same multi-million-event trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedTrace {
    pub(crate) tasks: Vec<TaskId>,
    pub(crate) exits: Vec<ExitIndex>,
    pub(crate) kinds: Vec<ExitKind>,
    pub(crate) nexts: Vec<Addr>,
    pub(crate) instrs: Vec<u32>,
}

impl SharedTrace {
    /// An empty trace with room for `n` events.
    pub(crate) fn with_capacity(n: usize) -> SharedTrace {
        SharedTrace {
            tasks: Vec::with_capacity(n),
            exits: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            nexts: Vec::with_capacity(n),
            instrs: Vec::with_capacity(n),
        }
    }

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
/// bugs) or step-budget exhaustion.
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
