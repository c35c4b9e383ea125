//! Driving predictors over task traces and measuring miss rates — the
//! paper's central methodology.
//!
//! Matching §3.1's idealisations: predictors are updated immediately after
//! each prediction with the true outcome (no stale-update delay), and no
//! wrong-path pollution occurs because the functional trace never goes down
//! a wrong path.
//!
//! A sweep walks the trace once for all of its predictors:
//! [`measure_exits_fused`] steps any set of exit predictors, and
//! [`measure_exits_batched`] is its lane-packed form for LEH-2bit PATH
//! batches such as Figure 10's ladder.
//!
//! The timing model's inter-task prediction is one of these passes too:
//! [`measure_outcomes`] turns a [`NextTaskPredictor`] into the
//! per-boundary [`Outcomes`] every timing walk reads.

use crate::timing::NextTaskPredictor;
use crate::trace::{kind_slot, SharedTrace};
use multiscalar_core::confidence::ConfidenceEstimator;
use multiscalar_core::dolc::MAX_PATH_KEY_DEPTH;
use multiscalar_core::ideal::{ExitInterner, IdealExitColumns, PathInterner};
use multiscalar_core::lane::BatchedExitPredictor;
use multiscalar_core::predictor::{
    CttbOnlyPredictor, ExitInfo, ExitPredictor, TaskDesc, TaskPredictor,
};
use multiscalar_core::target::{Cttb, IdealCttb, IdealTargetColumns, Ttb};
use multiscalar_isa::{Addr, ExitKind};
use multiscalar_taskform::TaskProgram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of lane-packed batched sweeps (see
/// [`measure_exits_batched`]). The lane-dispatch tests and the repository
/// benchmark assert the fast path was actually exercised by reading this
/// counter — a structural proof, not a timing one.
static LANE_PACKED_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// Number of lane-packed batched sweeps this process has run (monotonic).
pub fn lane_packed_sweeps() -> u64 {
    LANE_PACKED_SWEEPS.load(Ordering::Relaxed)
}

/// Converts the task former's headers into predictor-facing [`TaskDesc`]s,
/// indexed by [`multiscalar_taskform::TaskId`].
pub fn task_descs(tasks: &TaskProgram) -> Vec<TaskDesc> {
    tasks
        .tasks()
        .iter()
        .map(|t| {
            let exits = t
                .header()
                .exits()
                .iter()
                .map(|e| ExitInfo {
                    kind: e.kind,
                    target: e.target,
                    return_addr: e.return_addr,
                })
                .collect();
            TaskDesc::new(t.entry(), exits)
        })
        .collect()
}

/// Hit/miss counts with a convenience rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissStats {
    /// Predictions made.
    pub predictions: u64,
    /// Predictions that were wrong.
    pub misses: u64,
}

impl MissStats {
    /// Records one outcome.
    #[inline]
    pub fn record(&mut self, miss: bool) {
        self.predictions += 1;
        self.misses += miss as u64;
    }

    /// Miss rate in `[0, 1]` (0 when nothing was predicted).
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.misses as f64 / self.predictions as f64
        }
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: MissStats) {
        self.predictions += other.predictions;
        self.misses += other.misses;
    }
}

/// Full breakdown from a composite ([`TaskPredictor`]) run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullStats {
    /// Exit-index prediction accuracy.
    pub exits: MissStats,
    /// Next-task-address accuracy (exit *and* target both right).
    pub next_task: MissStats,
    /// Target accuracy per exit kind (Table 1 order), measured over events
    /// whose *actual* exit had that kind. No `Halt` slot: the halting task
    /// never appears in a trace.
    pub target_by_kind: [MissStats; 5],
}

impl FullStats {
    /// Target accuracy for one exit kind (empty stats for `Halt`, which is
    /// never predicted).
    pub fn target_stats(&self, kind: ExitKind) -> MissStats {
        kind_slot(kind)
            .map(|i| self.target_by_kind[i])
            .unwrap_or_default()
    }
}

/// Measures an exit predictor alone (Figures 6, 7, 10, 11).
pub fn measure_exits<P: ExitPredictor>(
    predictor: &mut P,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    let mut stats = MissStats::default();
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        let predicted = predictor.predict(desc);
        stats.record(predicted != e.exit);
        predictor.update(desc, e.exit);
    }
    stats
}

/// Measures many independent exit predictors in a single trace walk.
///
/// Equivalent to calling [`measure_exits`] once per predictor, but the
/// multi-million-event trace is streamed exactly once: each event is decoded
/// once and fed to every predictor. Predictors never observe each other, so
/// the per-predictor results are bit-identical to the one-at-a-time loop —
/// this is what lets a whole depth sweep (`0..=8`) ride one walk.
///
/// When every predictor in the sweep is an LEH-2bit PATH predictor (the
/// fig10/fig11 grid shape), [`measure_exits_batched`] gives the same
/// results with one SWAR word per event instead of a
/// predictor-by-predictor loop.
pub fn measure_exits_fused<P: ExitPredictor>(
    predictors: &mut [P],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<MissStats> {
    let mut stats = vec![MissStats::default(); predictors.len()];
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        for (p, s) in predictors.iter_mut().zip(stats.iter_mut()) {
            let predicted = p.predict(desc);
            s.record(predicted != e.exit);
            p.update(desc, e.exit);
        }
    }
    stats
}

/// Measures a whole LEH-2bit PATH sweep in one lane-packed trace walk —
/// the SWAR fast path of [`measure_exits_fused`].
///
/// One [`BatchedExitPredictor`] lane stands in for each scalar
/// `PathPredictor<LastExitHysteresis<2>>` of the sweep; per event the
/// batch gathers one `u64`, predicts and trains every lane with branchless
/// lane arithmetic, and reports a per-lane miss mask. Results — miss stats *and* states-touched
/// counts — are bit-identical to the scalar fused walk (`multiscalar-core`'s
/// `lane` module tests enforce the per-lane equivalence; the harness's
/// fused tests enforce it end to end against `measure_exits`).
pub fn measure_exits_batched(
    batch: &mut BatchedExitPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    LANE_PACKED_SWEEPS.fetch_add(1, Ordering::Relaxed);
    let n = batch.lanes();
    let mut stats = vec![MissStats::default(); n];
    for e in events.iter() {
        let mut miss = batch.step(&descs[e.task.index()], e.exit);
        for s in stats.iter_mut() {
            s.record(miss & 1 == 1);
            miss >>= 1;
        }
    }
    stats
        .into_iter()
        .enumerate()
        .map(|(k, s)| (s, batch.states_touched(k)))
        .collect()
}

/// What an ideal exit walk measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdealRun {
    /// Per family, per column: predictions and misses.
    pub stats: Vec<Vec<MissStats>>,
    /// Distinct states trained at each depth `0..=max_depth` (Figure 11's
    /// ideal curve).
    pub states: Vec<usize>,
}

impl IdealRun {
    fn new(
        families: &[Box<dyn IdealExitColumns>],
        events: &SharedTrace,
        extra_misses: u64,
        states: Vec<usize>,
    ) -> IdealRun {
        let predictions = events.len() as u64;
        let stats = families
            .iter()
            .map(|f| {
                f.misses()
                    .into_iter()
                    .map(|m| MissStats {
                        predictions,
                        misses: m + extra_misses,
                    })
                    .collect()
            })
            .collect();
        IdealRun { stats, states }
    }
}

fn max_depth(families: &[Box<dyn IdealExitColumns>]) -> usize {
    families.iter().map(|f| f.max_depth()).max().unwrap_or(0)
}

/// Measures ideal (alias-free) PATH prediction over interned states
/// (Figures 6, 7, 10 and 11). Per event, the task's (task, path) state is
/// interned once at every depth up to the deepest column, and every
/// family's columns predict and train on those ids. A single-exit task is
/// predicted exit 0 with no id and no training, as under
/// [`SingleExitMode::SkipPht`](multiscalar_core::history::SingleExitMode);
/// every task advances the path.
///
/// Bit-identical to measuring one
/// [`IdealPath`](multiscalar_core::ideal::IdealPath) per column with
/// [`measure_exits`], state counts included.
pub fn measure_ideal_path(
    families: &mut [Box<dyn IdealExitColumns>],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> IdealRun {
    let mut interner = PathInterner::new(max_depth(families));
    let mut ids = [0u32; MAX_PATH_KEY_DEPTH + 1];
    let mut single_exit_misses = 0;
    for e in events.iter() {
        let task = e.task.0;
        if descs[e.task.index()].single_exit() {
            single_exit_misses += u64::from(e.exit.as_u8() != 0);
        } else {
            interner.intern(task, &mut ids);
            for f in families.iter_mut() {
                f.step(&ids, e.exit);
            }
        }
        interner.push(task);
    }
    IdealRun::new(families, events, single_exit_misses, interner.states())
}

/// Measures ideal GLOBAL prediction over interned states: the history is
/// one register of every task's exit numbers, and every task trains.
/// Bit-identical to one [`IdealGlobal`](multiscalar_core::ideal::IdealGlobal)
/// per column under [`measure_exits`].
pub fn measure_ideal_global(
    families: &mut [Box<dyn IdealExitColumns>],
    events: &SharedTrace,
) -> IdealRun {
    measure_ideal_exit_history(families, events, false)
}

/// Measures ideal PER prediction over interned states: the history is the
/// task's own register of exit numbers, and every task trains.
/// Bit-identical to one [`IdealPer`](multiscalar_core::ideal::IdealPer)
/// per column under [`measure_exits`].
pub fn measure_ideal_per(
    families: &mut [Box<dyn IdealExitColumns>],
    events: &SharedTrace,
) -> IdealRun {
    measure_ideal_exit_history(families, events, true)
}

fn measure_ideal_exit_history(
    families: &mut [Box<dyn IdealExitColumns>],
    events: &SharedTrace,
    per_task: bool,
) -> IdealRun {
    let mut interner = ExitInterner::new(max_depth(families));
    let mut ids = [0u32; ExitInterner::MAX_DEPTH + 1];
    let mut global = 0u64;
    let mut own: Vec<u64> = Vec::new();
    for e in events.iter() {
        let hist = if per_task {
            let t = e.task.index();
            if t >= own.len() {
                own.resize(t + 1, 0);
            }
            &mut own[t]
        } else {
            &mut global
        };
        interner.intern(e.task.0, *hist, &mut ids);
        for f in families.iter_mut() {
            f.step(&ids, e.exit);
        }
        *hist = (*hist << 2) | u64::from(e.exit.as_u8());
    }
    IdealRun::new(families, events, 0, interner.states())
}

/// Measures the full composite predictor: exit + RAS + header + CTTB
/// (Tables 3 and 4's prediction side).
pub fn measure_full<E: ExitPredictor>(
    predictor: &mut TaskPredictor<E>,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> FullStats {
    let mut stats = FullStats::default();
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        let pred = predictor.predict(desc);
        let exit_miss = pred.exit != e.exit;
        stats.exits.record(exit_miss);
        stats
            .next_task
            .record(pred.target != Some(e.next) || exit_miss);
        // Target accuracy conditioned on the actual kind: what would the
        // right source have produced? Only meaningfully attributable when
        // the exit itself was predicted correctly.
        if !exit_miss {
            let slot = kind_slot(e.kind).expect("halting task is never recorded");
            stats.target_by_kind[slot].record(pred.target != Some(e.next));
        }
        predictor.update(desc, e.exit, e.next);
    }
    stats
}

/// One prediction outcome byte ([`Outcomes::MISS`], [`Outcomes::GATED`])
/// per boundary of a recording: what every timing walk reads in place of a
/// predictor. Built by [`measure_outcomes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcomes(Vec<u8>);

impl Outcomes {
    /// Set when the predicted next-task address was not the actual one.
    pub const MISS: u8 = 1;
    /// Set when the confidence gate withheld speculation.
    pub const GATED: u8 = 2;

    /// One byte per boundary, in trace order.
    pub fn bits(&self) -> &[u8] {
        &self.0
    }

    /// The outcomes of the same pass without its gate (the gate never
    /// trains the predictor): every gated bit cleared.
    pub fn ungated(&self) -> Outcomes {
        Outcomes(self.0.iter().map(|&b| b & !Outcomes::GATED).collect())
    }
}

/// Runs inter-task prediction over a recording's boundary section: per
/// boundary the predictor predicts, then trains on the true outcome at
/// once (§3.1). A miss is a predicted address other than the actual next
/// address. With `gate` set, a CIR [`ConfidenceEstimator`] with that
/// correct-streak threshold gates the boundaries it has low confidence
/// in, then trains on the miss bit. `None` is perfect prediction.
pub fn measure_outcomes(
    predictor: Option<&mut dyn NextTaskPredictor>,
    descs: &[TaskDesc],
    events: &SharedTrace,
    gate: Option<u8>,
) -> Outcomes {
    let Some(predictor) = predictor else {
        return Outcomes(vec![0; events.len()]);
    };
    let mut confidence = gate.map(|t| ConfidenceEstimator::new(12, t));
    let bits = events.iter().map(|e| {
        let desc = &descs[e.task.index()];
        let miss = predictor.predict_next(desc) != Some(e.next);
        predictor.resolve(desc, e.exit, e.next);
        let gated = confidence.as_mut().is_some_and(|c| {
            let low = !c.high_confidence(desc.entry());
            c.update(desc.entry(), !miss);
            low
        });
        (miss as u8 * Outcomes::MISS) | (gated as u8 * Outcomes::GATED)
    });
    Outcomes(bits.collect())
}

/// Measures headerless CTTB-only next-task prediction (§6.4.2, Table 3).
pub fn measure_cttb_only(
    predictor: &mut CttbOnlyPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    let mut stats = MissStats::default();
    for e in events.iter() {
        let cur = descs[e.task.index()].entry();
        let predicted = predictor.predict(cur);
        stats.record(predicted != Some(e.next));
        predictor.update(cur, e.next);
    }
    stats
}

/// Measures Table 3's two predictors — the full composite and the
/// headerless CTTB-only baseline — in a single trace walk.
///
/// Equivalent to [`measure_full`] followed by [`measure_cttb_only`], but
/// each event is decoded once and fed to both predictors (they never
/// observe each other), halving the trace traffic. Results are
/// bit-identical to the one-at-a-time loops.
pub fn measure_table3<E: ExitPredictor>(
    full: &mut TaskPredictor<E>,
    only: &mut CttbOnlyPredictor,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> (FullStats, MissStats) {
    let mut full_stats = FullStats::default();
    let mut only_stats = MissStats::default();
    for e in events.iter() {
        let desc = &descs[e.task.index()];
        let pred = full.predict(desc);
        let exit_miss = pred.exit != e.exit;
        full_stats.exits.record(exit_miss);
        full_stats
            .next_task
            .record(pred.target != Some(e.next) || exit_miss);
        if !exit_miss {
            let slot = kind_slot(e.kind).expect("halting task is never recorded");
            full_stats.target_by_kind[slot].record(pred.target != Some(e.next));
        }
        full.update(desc, e.exit, e.next);

        let cur = desc.entry();
        let predicted = only.predict(cur);
        only_stats.record(predicted != Some(e.next));
        only.update(cur, e.next);
    }
    (full_stats, only_stats)
}

/// A target buffer as seen by the measurement loop — implemented by the
/// real [`Ttb`] and [`Cttb`] and the alias-free [`IdealCttb`]. Each buffer
/// keeps the path it indexes by (the TTB keeps none).
pub trait TargetBuffer {
    /// Predicts the target for an indirect exit of the task at `current`.
    fn predict(&mut self, current: Addr) -> Option<Addr>;
    /// Trains with the actual target.
    fn update(&mut self, current: Addr, actual: Addr);
    /// Advances the buffer's path by the task at `current`.
    fn push(&mut self, current: Addr);
}

impl TargetBuffer for Ttb {
    fn predict(&mut self, current: Addr) -> Option<Addr> {
        Ttb::predict(self, current)
    }
    fn update(&mut self, current: Addr, actual: Addr) {
        Ttb::update(self, current, actual)
    }
    fn push(&mut self, _current: Addr) {}
}

impl TargetBuffer for Cttb {
    fn predict(&mut self, current: Addr) -> Option<Addr> {
        Cttb::predict(self, current)
    }
    fn update(&mut self, current: Addr, actual: Addr) {
        Cttb::update(self, current, actual)
    }
    fn push(&mut self, current: Addr) {
        Cttb::push(self, current)
    }
}

impl TargetBuffer for IdealCttb {
    fn predict(&mut self, current: Addr) -> Option<Addr> {
        IdealCttb::predict(self, current)
    }
    fn update(&mut self, current: Addr, actual: Addr) {
        IdealCttb::update(self, current, actual)
    }
    fn push(&mut self, current: Addr) {
        IdealCttb::push(self, current)
    }
}

/// Measures target prediction for *indirect* exits only (Figures 8 and 12):
/// the buffer is consulted and trained on `INDIRECT_BRANCH` /
/// `INDIRECT_CALL` events; every event advances the path.
pub fn measure_indirect_targets<B: TargetBuffer>(
    buffer: &mut B,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> MissStats {
    measure_indirect_targets_fused(std::slice::from_mut(buffer), descs, events)[0]
}

/// Measures many independent target buffers in a single trace walk
/// (the fused form of [`measure_indirect_targets`]).
///
/// Each buffer keeps its own path at its own depth, so results are
/// bit-identical to measuring the buffers one at a time.
pub fn measure_indirect_targets_fused<B: TargetBuffer>(
    buffers: &mut [B],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<MissStats> {
    let mut stats = vec![MissStats::default(); buffers.len()];
    for e in events.iter() {
        let cur = descs[e.task.index()].entry();
        let needs_target = e.kind.needs_target_buffer();
        for (b, s) in buffers.iter_mut().zip(stats.iter_mut()) {
            if needs_target {
                let predicted = b.predict(cur);
                s.record(predicted != Some(e.next));
                b.update(cur, e.next);
            }
            b.push(cur);
        }
    }
    stats
}

/// Measures ideal CTTB target prediction over interned states (Figures 8
/// and 12): on each indirect exit the task's (task, path) state is
/// interned once at every depth up to the deepest column, and every
/// column predicts and trains on it; every event advances the path.
/// Returns per column the stats and the distinct states it trained.
///
/// Bit-identical to one [`IdealCttb`] per depth under
/// [`measure_indirect_targets`].
pub fn measure_ideal_targets(depths: &[usize], events: &SharedTrace) -> Vec<(MissStats, usize)> {
    let mut columns = IdealTargetColumns::new(depths);
    let mut interner = PathInterner::new(columns.max_depth());
    let mut ids = [0u32; MAX_PATH_KEY_DEPTH + 1];
    let mut predictions = 0;
    for e in events.iter() {
        if e.kind.needs_target_buffer() {
            interner.intern(e.task.0, &mut ids);
            columns.step(&ids, e.next);
            predictions += 1;
        }
        interner.push(e.task.0);
    }
    let states = interner.states();
    columns
        .misses()
        .iter()
        .zip(depths)
        .map(|(&misses, &d)| {
            (
                MissStats {
                    predictions,
                    misses,
                },
                states[d],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::collect_trace;
    use multiscalar_core::automata::LastExitHysteresis;
    use multiscalar_core::dolc::Dolc;
    use multiscalar_core::history::PathPredictor;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    type Leh2 = LastExitHysteresis<2>;

    /// A loop program whose loop task alternates exits in a fixed pattern.
    fn looped_program() -> (
        multiscalar_isa::Program,
        TaskProgram,
        std::sync::Arc<SharedTrace>,
    ) {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 400);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        // A data-free inner diamond: taken when bit 0 of the counter set.
        b.op_imm(AluOp::And, Reg(3), Reg(1), 1);
        let odd = b.new_label();
        let join = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), odd);
        b.op_imm(AluOp::Add, Reg(4), Reg(4), 1);
        b.jump(join);
        b.bind(odd);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(join);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tp = TaskFormer::default().form(&p).unwrap();
        let run = collect_trace(&p, &tp, 100_000).unwrap();
        (p, tp, run.events)
    }

    #[test]
    fn perfect_oracle_has_zero_misses() {
        struct Oracle(Option<multiscalar_isa::ExitIndex>);
        impl ExitPredictor for Oracle {
            fn predict(&mut self, _t: &TaskDesc) -> multiscalar_isa::ExitIndex {
                self.0.take().unwrap()
            }
            fn update(&mut self, _t: &TaskDesc, _a: multiscalar_isa::ExitIndex) {}
            fn states_touched(&self) -> usize {
                0
            }
        }
        // Feed the oracle the actual exits (simulating perfect prediction).
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut stats = MissStats::default();
        for e in events.iter() {
            let mut o = Oracle(Some(e.exit));
            let got = o.predict(&descs[e.task.index()]);
            stats.record(got != e.exit);
        }
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.predictions, events.len() as u64);
    }

    #[test]
    fn path_predictor_learns_the_loop_pattern() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(4, 4, 6, 6, 2));
        let stats = measure_exits(&mut pred, &descs, &events);
        // The loop body alternates deterministically; with path history the
        // predictor should be nearly perfect after warmup.
        assert!(
            stats.miss_rate() < 0.10,
            "expected <10% misses on a deterministic loop, got {:.1}%",
            stats.miss_rate() * 100.0
        );
    }

    #[test]
    fn full_predictor_resolves_branch_targets_from_header() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        );
        let stats = measure_full(&mut pred, &descs, &events);
        assert_eq!(stats.exits.predictions, events.len() as u64);
        // When the exit is right, a branch target from the header is always
        // right.
        let br = stats.target_stats(ExitKind::Branch);
        assert_eq!(br.misses, 0, "header targets cannot miss");
        // Next-task misses equal exit misses here (all targets known).
        assert_eq!(stats.next_task.misses, stats.exits.misses);
    }

    #[test]
    fn cttb_only_predicts_deterministic_sequences_well() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = CttbOnlyPredictor::new(Dolc::new(5, 4, 7, 7, 2));
        let stats = measure_cttb_only(&mut pred, &descs, &events);
        assert!(
            stats.miss_rate() < 0.15,
            "CTTB-only should learn a deterministic task sequence: {:.1}%",
            stats.miss_rate() * 100.0
        );
    }

    #[test]
    fn batched_walk_matches_scalar_fused_walk_and_counts_itself() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let configs = [
            Dolc::new(0, 0, 0, 8, 1),
            Dolc::new(2, 4, 5, 5, 1),
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(6, 5, 8, 9, 3),
        ];
        let mut scalars: Vec<PathPredictor<Leh2>> =
            configs.iter().map(|&d| PathPredictor::new(d)).collect();
        let fused = measure_exits_fused(&mut scalars, &descs, &events);

        let before = lane_packed_sweeps();
        let mut batch = BatchedExitPredictor::new(&configs).expect("4 lanes fit");
        let batched = measure_exits_batched(&mut batch, &descs, &events);
        assert_eq!(lane_packed_sweeps(), before + 1);

        for (k, p) in scalars.iter().enumerate() {
            assert_eq!(batched[k], (fused[k], p.states_touched()), "lane {k}");
        }
    }

    #[test]
    fn fused_table3_walk_matches_separate_walks() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mk_full = || {
            TaskPredictor::<PathPredictor<Leh2>>::path(
                Dolc::new(4, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            )
        };
        let mk_only = || CttbOnlyPredictor::new(Dolc::new(5, 4, 7, 7, 2));

        let full_sep = measure_full(&mut mk_full(), &descs, &events);
        let only_sep = measure_cttb_only(&mut mk_only(), &descs, &events);
        let (full_fused, only_fused) =
            measure_table3(&mut mk_full(), &mut mk_only(), &descs, &events);

        assert_eq!(full_fused.exits, full_sep.exits);
        assert_eq!(full_fused.next_task, full_sep.next_task);
        assert_eq!(full_fused.target_by_kind, full_sep.target_by_kind);
        assert_eq!(only_fused, only_sep);
    }

    #[test]
    fn halt_kind_has_no_slot_and_empty_stats() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(4, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        );
        let stats = measure_full(&mut pred, &descs, &events);
        assert_eq!(stats.target_stats(ExitKind::Halt), MissStats::default());
        for e in events.iter() {
            assert_ne!(e.kind, ExitKind::Halt, "traces never record halts");
        }
    }

    #[test]
    fn perfect_outcomes_are_all_zero_and_cover_every_boundary() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        for gate in [None, Some(2)] {
            let o = measure_outcomes(None, &descs, &events, gate);
            assert_eq!(o.bits().len(), events.len());
            assert!(
                o.bits().iter().all(|&b| b == 0),
                "never a miss, never gated"
            );
        }
    }

    #[test]
    fn outcome_misses_follow_the_next_address_rule() {
        let (_p, tp, events) = looped_program();
        let descs = task_descs(&tp);
        let mk = || {
            TaskPredictor::<PathPredictor<Leh2>>::path(
                Dolc::new(4, 4, 6, 6, 2),
                Dolc::new(4, 3, 4, 4, 2),
                16,
            )
        };
        let count = |o: &Outcomes, bit: u8| o.bits().iter().filter(|&&b| b & bit != 0).count();
        let full = measure_full(&mut mk(), &descs, &events);
        let o = measure_outcomes(Some(&mut mk()), &descs, &events, Some(2));
        assert_eq!(o.bits().len(), events.len());
        // All targets here come from headers, so both rules agree.
        assert_eq!(count(&o, Outcomes::MISS) as u64, full.next_task.misses);
        assert!(count(&o, Outcomes::GATED) > 0, "cold CIR counters gate");
    }

    #[test]
    fn miss_stats_merge_and_rate() {
        let mut a = MissStats {
            predictions: 10,
            misses: 2,
        };
        let b = MissStats {
            predictions: 30,
            misses: 3,
        };
        a.merge(b);
        assert_eq!(a.predictions, 40);
        assert_eq!(a.misses, 5);
        assert!((a.miss_rate() - 0.125).abs() < 1e-12);
        assert_eq!(MissStats::default().miss_rate(), 0.0);
    }
}
