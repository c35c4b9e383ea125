//! Runtime dispatch over automaton kinds and history schemes, so the CLI
//! can select predictors the library implements with static generics.

use crate::Bench;
use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{GlobalPredictor, PathPredictor, PerTaskPredictor};
use multiscalar_core::ideal::{IdealGlobal, IdealPath, IdealPer};
use multiscalar_core::lane::{BatchedExitPredictor, LaneAutomaton};
use multiscalar_core::predictor::{ExitPredictor, TaskPredictor};
use multiscalar_core::target::{Cttb, IdealCttb};
use multiscalar_sim::measure::{
    measure_exits, measure_exits_batched, measure_exits_fused, measure_indirect_targets_fused,
    MissStats,
};
use multiscalar_sim::timing::NextTaskPredictor;

/// The three history-generation schemes of paper §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Global exit-history register.
    Global,
    /// Per-task history registers (PAp analog).
    Per,
    /// Path-based history.
    Path,
}

impl Scheme {
    /// All three schemes in the paper's order.
    pub const ALL: [Scheme; 3] = [Scheme::Global, Scheme::Per, Scheme::Path];

    /// Name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Global => "GLOBAL",
            Scheme::Per => "PER",
            Scheme::Path => "PATH",
        }
    }
}

/// Measures an *ideal* (alias-free) predictor of the given scheme and
/// depth, with the LEH-2bit automaton (the paper's choice after Fig. 6).
pub fn measure_ideal(scheme: Scheme, depth: u32, bench: &Bench) -> MissStats {
    match scheme {
        Scheme::Global => {
            let mut p: IdealGlobal<LastExitHysteresis<2>> = IdealGlobal::new(depth);
            measure_exits(&mut p, &bench.descs, &bench.trace.events)
        }
        Scheme::Per => {
            let mut p: IdealPer<LastExitHysteresis<2>> = IdealPer::new(depth);
            measure_exits(&mut p, &bench.descs, &bench.trace.events)
        }
        Scheme::Path => {
            let mut p: IdealPath<LastExitHysteresis<2>> = IdealPath::new(depth);
            measure_exits(&mut p, &bench.descs, &bench.trace.events)
        }
    }
}

/// Measures an ideal PATH predictor with the given automaton kind
/// (Figure 6's experiment).
pub fn measure_ideal_path_automaton(kind: AutomatonKind, depth: u32, bench: &Bench) -> MissStats {
    fn run<A: multiscalar_core::automata::Automaton>(depth: u32, bench: &Bench) -> MissStats {
        let mut p: IdealPath<A> = IdealPath::new(depth);
        measure_exits(&mut p, &bench.descs, &bench.trace.events)
    }
    match kind {
        AutomatonKind::Vc2Mru => run::<VotingCounters<2, true>>(depth, bench),
        AutomatonKind::Vc2Random => run::<VotingCounters<2, false>>(depth, bench),
        AutomatonKind::Leh1 => run::<LastExitHysteresis<1>>(depth, bench),
        AutomatonKind::Vc3Mru => run::<VotingCounters<3, true>>(depth, bench),
        AutomatonKind::Vc3Random => run::<VotingCounters<3, false>>(depth, bench),
        AutomatonKind::Leh2 => run::<LastExitHysteresis<2>>(depth, bench),
        AutomatonKind::LastExit => run::<LastExit>(depth, bench),
    }
}

/// Fused form of [`measure_ideal`]: measures one ideal predictor per depth
/// in a **single trace walk**. Results are bit-identical to calling
/// `measure_ideal` once per depth (the predictor instances are independent).
pub fn measure_ideal_sweep(scheme: Scheme, depths: &[u32], bench: &Bench) -> Vec<MissStats> {
    match scheme {
        Scheme::Global => {
            let mut ps: Vec<IdealGlobal<LastExitHysteresis<2>>> =
                depths.iter().map(|&d| IdealGlobal::new(d)).collect();
            measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events)
        }
        Scheme::Per => {
            let mut ps: Vec<IdealPer<LastExitHysteresis<2>>> =
                depths.iter().map(|&d| IdealPer::new(d)).collect();
            measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events)
        }
        Scheme::Path => {
            let mut ps: Vec<IdealPath<LastExitHysteresis<2>>> =
                depths.iter().map(|&d| IdealPath::new(d)).collect();
            measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events)
        }
    }
}

/// Fused form of [`measure_ideal_path_automaton`]: the whole depth sweep of
/// one automaton kind in a single trace walk.
pub fn measure_ideal_path_automaton_sweep(
    kind: AutomatonKind,
    depths: &[u32],
    bench: &Bench,
) -> Vec<MissStats> {
    fn run<A: multiscalar_core::automata::Automaton>(
        depths: &[u32],
        bench: &Bench,
    ) -> Vec<MissStats> {
        let mut ps: Vec<IdealPath<A>> = depths.iter().map(|&d| IdealPath::new(d)).collect();
        measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events)
    }
    match kind {
        AutomatonKind::Vc2Mru => run::<VotingCounters<2, true>>(depths, bench),
        AutomatonKind::Vc2Random => run::<VotingCounters<2, false>>(depths, bench),
        AutomatonKind::Leh1 => run::<LastExitHysteresis<1>>(depths, bench),
        AutomatonKind::Vc3Mru => run::<VotingCounters<3, true>>(depths, bench),
        AutomatonKind::Vc3Random => run::<VotingCounters<3, false>>(depths, bench),
        AutomatonKind::Leh2 => run::<LastExitHysteresis<2>>(depths, bench),
        AutomatonKind::LastExit => run::<LastExit>(depths, bench),
    }
}

/// Fused real-PATH sweep over DOLC configurations (Figures 10 and 11's
/// "real" curves): one trace walk, returning per-config miss stats and PHT
/// states touched.
///
/// Dispatches to the lane-packed batched engine
/// ([`measure_exits_batched`]) whenever the sweep fits its lanes — the
/// ladder always does — falling back to [`path_real_sweep_scalar`]
/// otherwise. Both paths are bit-identical (`fused_path_ladders_match...`
/// in `tests/fused.rs` gates this against one-config-at-a-time runs).
pub fn path_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<(MissStats, usize)> {
    match BatchedExitPredictor::<LastExitHysteresis<2>>::new(configs) {
        Some(mut batch) => measure_exits_batched(&mut batch, &bench.descs, &bench.trace.events),
        None => path_real_sweep_scalar::<LastExitHysteresis<2>>(configs, bench),
    }
}

/// The scalar fused real-PATH sweep: one predictor instance per
/// configuration, trained predictor-by-predictor in a single trace walk.
/// This is the pre-lane-packing engine, kept as the fallback for batch
/// shapes the packed engine rejects and as the oracle the lane-dispatch
/// tests compare the packed engine against.
pub fn path_real_sweep_scalar<A: Automaton>(
    configs: &[Dolc],
    bench: &Bench,
) -> Vec<(MissStats, usize)> {
    let mut ps: Vec<PathPredictor<A>> = configs.iter().map(|&d| PathPredictor::new(d)).collect();
    let stats = measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events);
    stats
        .into_iter()
        .zip(ps.iter().map(|p| p.states_touched()))
        .collect()
}

/// [`path_real_sweep`] generalised over automaton kinds: lane-packed for
/// the packable families, scalar for the two `VC RANDOM` kinds — their
/// tie-break consumes the per-predictor XorShift stream, which the packed
/// table cannot reproduce exactly, so they take the (bit-identical-by-
/// construction) scalar walk instead. `tests/lane_dispatch.rs` proves
/// both the fast path and the fallback via the `lane_packed_sweeps`
/// counter.
pub fn path_real_sweep_automaton(
    kind: AutomatonKind,
    configs: &[Dolc],
    bench: &Bench,
) -> Vec<(MissStats, usize)> {
    fn packed<A: LaneAutomaton>(configs: &[Dolc], bench: &Bench) -> Vec<(MissStats, usize)> {
        match BatchedExitPredictor::<A>::new(configs) {
            Some(mut batch) => measure_exits_batched(&mut batch, &bench.descs, &bench.trace.events),
            None => path_real_sweep_scalar::<A>(configs, bench),
        }
    }
    match kind {
        AutomatonKind::Vc2Mru => packed::<VotingCounters<2, true>>(configs, bench),
        AutomatonKind::Vc2Random => {
            path_real_sweep_scalar::<VotingCounters<2, false>>(configs, bench)
        }
        AutomatonKind::Leh1 => packed::<LastExitHysteresis<1>>(configs, bench),
        AutomatonKind::Vc3Mru => packed::<VotingCounters<3, true>>(configs, bench),
        AutomatonKind::Vc3Random => {
            path_real_sweep_scalar::<VotingCounters<3, false>>(configs, bench)
        }
        AutomatonKind::Leh2 => packed::<LastExitHysteresis<2>>(configs, bench),
        AutomatonKind::LastExit => packed::<LastExit>(configs, bench),
    }
}

/// Fused ideal-PATH sweep over depths (Figures 10 and 11's "ideal" curves):
/// one trace walk, returning per-depth miss stats and distinct states.
pub fn path_ideal_sweep(depths: &[u32], bench: &Bench) -> Vec<(MissStats, usize)> {
    let mut ps: Vec<IdealPath<LastExitHysteresis<2>>> =
        depths.iter().map(|&d| IdealPath::new(d)).collect();
    let stats = measure_exits_fused(&mut ps, &bench.descs, &bench.trace.events);
    stats
        .into_iter()
        .zip(ps.iter().map(|p| p.states()))
        .collect()
}

/// Fused real-CTTB sweep over DOLC configurations (Figure 12): one walk of
/// the indirect-exit stream drives every configuration.
pub fn cttb_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<MissStats> {
    let mut bufs: Vec<Cttb> = configs.iter().map(|&d| Cttb::new(d)).collect();
    measure_indirect_targets_fused(&mut bufs, &bench.descs, &bench.trace.events)
}

/// Fused ideal-CTTB sweep over path depths (Figures 8 and 12).
pub fn cttb_ideal_sweep(depths: &[usize], bench: &Bench) -> Vec<MissStats> {
    let mut bufs: Vec<IdealCttb> = depths.iter().map(|&d| IdealCttb::new(d)).collect();
    measure_indirect_targets_fused(&mut bufs, &bench.descs, &bench.trace.events)
}

/// Builds a boxed *real* exit predictor of the given scheme, LEH-2bit, with
/// the paper's Table 4 sizing (16 KB PHT = 2^15 4-bit entries, depth 7).
pub fn real_predictor_16kb(scheme: Scheme) -> Box<dyn ExitPredictor> {
    match scheme {
        Scheme::Global => Box::new(GlobalPredictor::<LastExitHysteresis<2>>::new(7, 15)),
        Scheme::Per => Box::new(PerTaskPredictor::<LastExitHysteresis<2>>::new(7, 8, 7)),
        Scheme::Path => Box::new(PathPredictor::<LastExitHysteresis<2>>::new(dolc_15bit(7))),
    }
}

/// The five predictor columns of Table 4, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table4Column {
    /// Task-address-indexed PATH at depth 0 (no history).
    Simple,
    /// GLOBAL scheme, 16 KB, depth 7.
    Global,
    /// PER scheme, 16 KB, depth 7.
    Per,
    /// PATH scheme, 16 KB, depth 7.
    Path,
    /// Perfect inter-task prediction (no predictor at all).
    Perfect,
}

impl Table4Column {
    /// All five columns in the paper's order.
    pub const ALL: [Table4Column; 5] = [
        Table4Column::Simple,
        Table4Column::Global,
        Table4Column::Per,
        Table4Column::Path,
        Table4Column::Perfect,
    ];

    /// Column name as printed in Table 4.
    pub fn name(self) -> &'static str {
        match self {
            Table4Column::Simple => "Simple",
            Table4Column::Global => "GLOBAL",
            Table4Column::Per => "PER",
            Table4Column::Path => "PATH",
            Table4Column::Perfect => "Perfect",
        }
    }

    /// Builds this column's next-task predictor with the paper's Table 4
    /// sizing (16 KB PHT, 8 KB CTTB, 64-deep RAS); `None` for Perfect.
    pub fn predictor(self) -> Option<Box<dyn NextTaskPredictor>> {
        let exit_pred: Box<dyn ExitPredictor> = match self {
            Table4Column::Simple => {
                Box::new(PathPredictor::<LastExitHysteresis<2>>::new(dolc_15bit(0)))
            }
            Table4Column::Global => real_predictor_16kb(Scheme::Global),
            Table4Column::Per => real_predictor_16kb(Scheme::Per),
            Table4Column::Path => real_predictor_16kb(Scheme::Path),
            Table4Column::Perfect => return None,
        };
        Some(Box::new(with_table4_targets(exit_pred)))
    }
}

/// Wraps an exit predictor in Table 4's target side: the 8 KB
/// `7-4-4-5 (3)` CTTB and a 64-deep RAS (Table 3's full predictor too).
pub fn with_table4_targets<E: ExitPredictor>(exit_pred: E) -> TaskPredictor<E> {
    TaskPredictor::new(exit_pred, Dolc::new(7, 4, 4, 5, 3), 64)
}

/// The paper's Figure 10 ladder of `D-O-L-C (F)` configurations, all with a
/// 14-bit index (8 KB PHT at 4 bits/entry), one per depth 0..=7.
///
/// The depth-7 entry in the paper's figure is illegible in our source; we
/// substitute `7-4-9-9 (3)` which preserves the 14-bit index (documented in
/// DESIGN.md).
pub fn exit_ladder() -> Vec<Dolc> {
    vec![
        Dolc::new(0, 0, 0, 14, 1),
        Dolc::new(1, 0, 7, 7, 1),
        Dolc::new(2, 4, 5, 5, 1),
        Dolc::new(3, 6, 8, 8, 2),
        Dolc::new(4, 5, 6, 7, 2),
        Dolc::new(5, 4, 6, 6, 2),
        Dolc::new(6, 5, 8, 9, 3),
        Dolc::new(7, 4, 9, 9, 3),
    ]
}

/// The paper's Figure 12 ladder for the CTTB: 11-bit index (8 KB at
/// 4 bytes/entry), one per depth 0..=7. These are exactly the
/// configurations printed in the paper.
pub fn cttb_ladder() -> Vec<Dolc> {
    vec![
        Dolc::new(0, 0, 0, 11, 1),
        Dolc::new(1, 0, 5, 6, 1),
        Dolc::new(2, 3, 3, 5, 1),
        Dolc::new(3, 5, 6, 6, 2),
        Dolc::new(4, 4, 5, 5, 2),
        Dolc::new(5, 5, 6, 7, 3),
        Dolc::new(6, 4, 6, 7, 3),
        Dolc::new(7, 4, 4, 5, 3),
    ]
}

/// A 15-bit-index PATH configuration (16 KB PHT) for the given depth, used
/// by Table 4.
pub fn dolc_15bit(depth: u8) -> Dolc {
    match depth {
        0 => Dolc::new(0, 0, 0, 15, 1),
        7 => Dolc::new(7, 5, 7, 8, 3), // (6*5)+7+8 = 45 bits / 3 = 15
        d => {
            // Generic construction: spread bits to reach 15 * min(F, ...).
            let f = 1 + (d as u32 + 1) / 3;
            let target = 15 * f;
            let older = if d > 1 {
                ((target - 16) / (d as u32 - 1)).min(10) as u8
            } else {
                0
            };
            let rest = target - (d as u32 - 1) * older as u32;
            let last = (rest / 2) as u8;
            let current = (rest - last as u32) as u8;
            Dolc::new(d, older, last, current, f as u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_have_constant_index_width() {
        for d in exit_ladder() {
            assert_eq!(d.index_bits(), 14, "exit ladder must stay at 8 KB: {d}");
        }
        for d in cttb_ladder() {
            assert_eq!(d.index_bits(), 11, "CTTB ladder must stay at 8 KB: {d}");
        }
    }

    #[test]
    fn ladder_depths_are_sequential() {
        for (i, d) in exit_ladder().iter().enumerate() {
            assert_eq!(d.depth(), i);
        }
        for (i, d) in cttb_ladder().iter().enumerate() {
            assert_eq!(d.depth(), i);
        }
    }

    #[test]
    fn table4_dolc_is_16kb() {
        assert_eq!(dolc_15bit(0).index_bits(), 15);
        assert_eq!(dolc_15bit(7).index_bits(), 15);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::ALL.map(|s| s.name()), ["GLOBAL", "PER", "PATH"]);
    }
}
