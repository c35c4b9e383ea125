//! Runtime dispatch over automaton kinds and history schemes, so the CLI
//! can select predictors the library implements with static generics.
//!
//! The real-PATH ladder of Figures 10 and 11 runs LEH-2bit, the paper's
//! automaton after Figure 6, on the lane-packed engine
//! ([`multiscalar_core::lane`]) when its batch fits and on the scalar
//! fused walk otherwise ([`path_real_sweep`]).

use crate::Bench;
use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::{GlobalPredictor, PathPredictor, PerTaskPredictor};
use multiscalar_core::ideal::{IdealColumns, IdealExitColumns};
use multiscalar_core::lane::BatchedExitPredictor;
use multiscalar_core::predictor::{ExitPredictor, TaskPredictor};
use multiscalar_core::target::Cttb;
use multiscalar_sim::measure::{
    measure_exits_batched, measure_exits_fused, measure_ideal_global, measure_ideal_path,
    measure_ideal_per, measure_ideal_targets, measure_indirect_targets_fused, measure_outcomes,
    MissStats, Outcomes,
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
    measure_ideal_sweep(scheme, &[depth], bench)[0]
}

/// Measures an ideal PATH predictor with the given automaton kind
/// (Figure 6's experiment).
pub fn measure_ideal_path_automaton(kind: AutomatonKind, depth: u32, bench: &Bench) -> MissStats {
    measure_ideal_path_automata(&[kind], &[depth], bench)[0][0]
}

/// The ideal sweep of [`measure_ideal`] over many depths: the scheme's
/// history is interned once per event and every depth's column steps on
/// it, in one trace walk. Bit-identical to the hash-map oracles
/// ([`IdealGlobal`](multiscalar_core::ideal::IdealGlobal),
/// [`IdealPer`](multiscalar_core::ideal::IdealPer),
/// [`IdealPath`](multiscalar_core::ideal::IdealPath)) one depth at a time.
pub fn measure_ideal_sweep(scheme: Scheme, depths: &[u32], bench: &Bench) -> Vec<MissStats> {
    let mut family = vec![ideal_columns(AutomatonKind::Leh2, depths)];
    let events = &bench.trace.events;
    let run = match scheme {
        Scheme::Global => measure_ideal_global(&mut family, events),
        Scheme::Per => measure_ideal_per(&mut family, events),
        Scheme::Path => measure_ideal_path(&mut family, &bench.descs, events),
    };
    run.stats.into_iter().next().expect("one family")
}

/// Ideal PATH sweeps of several automaton kinds in one trace walk
/// (Figure 6): each event's (task, path) state is interned once, and every
/// kind's column at every depth steps on it. One row of stats per kind,
/// one entry per depth.
pub fn measure_ideal_path_automata(
    kinds: &[AutomatonKind],
    depths: &[u32],
    bench: &Bench,
) -> Vec<Vec<MissStats>> {
    let mut families: Vec<_> = kinds.iter().map(|&k| ideal_columns(k, depths)).collect();
    measure_ideal_path(&mut families, &bench.descs, &bench.trace.events).stats
}

/// Ideal exit columns of the given automaton kind, one per depth.
pub(crate) fn ideal_columns(kind: AutomatonKind, depths: &[u32]) -> Box<dyn IdealExitColumns> {
    fn boxed<A: Automaton + 'static>(depths: &[u32]) -> Box<dyn IdealExitColumns> {
        let depths: Vec<usize> = depths.iter().map(|&d| d as usize).collect();
        Box::new(IdealColumns::<A>::new(&depths))
    }
    match kind {
        AutomatonKind::Vc2Mru => boxed::<VotingCounters<2, true>>(depths),
        AutomatonKind::Vc2Random => boxed::<VotingCounters<2, false>>(depths),
        AutomatonKind::Leh1 => boxed::<LastExitHysteresis<1>>(depths),
        AutomatonKind::Vc3Mru => boxed::<VotingCounters<3, true>>(depths),
        AutomatonKind::Vc3Random => boxed::<VotingCounters<3, false>>(depths),
        AutomatonKind::Leh2 => boxed::<LastExitHysteresis<2>>(depths),
        AutomatonKind::LastExit => boxed::<LastExit>(depths),
    }
}

/// Fused real-PATH sweep over DOLC configurations (Figures 10 and 11's
/// "real" curves): one trace walk, returning per-config miss stats and PHT
/// states touched.
///
/// Dispatches to the lane-packed batched engine
/// ([`measure_exits_batched`]) whenever the sweep fits its lanes (at most
/// [`MAX_FUSED_LANES`](multiscalar_core::lane::MAX_FUSED_LANES) configs;
/// the ladder always does), falling back to [`path_real_sweep_scalar`]
/// otherwise. Both paths are bit-identical (`fused_path_ladders_match...`
/// in `tests/fused.rs` gates this against one-config-at-a-time runs).
pub fn path_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<(MissStats, usize)> {
    match BatchedExitPredictor::new(configs) {
        Some(mut batch) => measure_exits_batched(&mut batch, &bench.descs, &bench.trace.events),
        None => path_real_sweep_scalar::<LastExitHysteresis<2>>(configs, bench),
    }
}

/// The scalar fused real-PATH sweep: one predictor instance per
/// configuration, trained predictor-by-predictor in a single trace walk.
/// This is the fallback for batches wider than the packed engine's word
/// and the oracle the lane-dispatch tests and fuzz oracle 5 compare the
/// packed engine against.
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

/// Ideal-PATH sweep over depths (Figures 10 and 11's "ideal" curves): one
/// interned trace walk, returning per-depth miss stats and the distinct
/// (task, path) states trained.
pub fn path_ideal_sweep(depths: &[u32], bench: &Bench) -> Vec<(MissStats, usize)> {
    let mut family = vec![ideal_columns(AutomatonKind::Leh2, depths)];
    let run = measure_ideal_path(&mut family, &bench.descs, &bench.trace.events);
    run.stats[0]
        .iter()
        .zip(depths)
        .map(|(&s, &d)| (s, run.states[d as usize]))
        .collect()
}

/// Fused real-CTTB sweep over DOLC configurations (Figure 12): one walk of
/// the indirect-exit stream drives every configuration.
pub fn cttb_real_sweep(configs: &[Dolc], bench: &Bench) -> Vec<MissStats> {
    let mut bufs: Vec<Cttb> = configs.iter().map(|&d| Cttb::new(d)).collect();
    measure_indirect_targets_fused(&mut bufs, &bench.descs, &bench.trace.events)
}

/// Ideal-CTTB sweep over path depths (Figures 8 and 12): one interned walk
/// of the indirect-exit stream.
pub fn cttb_ideal_sweep(depths: &[usize], bench: &Bench) -> Vec<MissStats> {
    measure_ideal_targets(depths, &bench.trace.events)
        .into_iter()
        .map(|(s, _)| s)
        .collect()
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

    /// The PATH-indexed exit predictor's configuration of this column, a
    /// 15-bit index (16 KB PHT): depth 0 for Simple, depth 7 for PATH, and
    /// `None` for the columns that index otherwise.
    pub fn path_dolc(self) -> Option<Dolc> {
        match self {
            Table4Column::Simple => Some(Dolc::new(0, 0, 0, 15, 1)),
            // (6 × 5) + 7 + 8 = 45 bits, folded 3 ways: a 15-bit index.
            Table4Column::Path => Some(Dolc::new(7, 5, 7, 8, 3)),
            Table4Column::Global | Table4Column::Per | Table4Column::Perfect => None,
        }
    }

    /// Builds this column's next-task predictor with the paper's Table 4
    /// sizing (16 KB PHT = 2^15 4-bit LEH-2bit entries, 8 KB CTTB, 64-deep
    /// RAS); `None` for Perfect.
    pub fn predictor(self) -> Option<TaskPredictor<Box<dyn ExitPredictor>>> {
        type Leh2 = LastExitHysteresis<2>;
        let exit_pred: Box<dyn ExitPredictor> = match (self, self.path_dolc()) {
            (_, Some(dolc)) => Box::new(PathPredictor::<Leh2>::new(dolc)),
            (Table4Column::Global, None) => Box::new(GlobalPredictor::<Leh2>::new(7, 15)),
            (Table4Column::Per, None) => Box::new(PerTaskPredictor::<Leh2>::new(7, 8, 7)),
            _ => return None,
        };
        Some(with_table4_targets(exit_pred))
    }

    /// This column's ungated outcome pass over `b`'s task trace: what a
    /// timing walk of the column reads.
    pub fn outcomes(self, b: &Bench) -> Outcomes {
        let mut pred = self.predictor();
        let pred = pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
        measure_outcomes(pred, &b.descs, &b.trace.events, None)
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

    /// The PATH-indexed columns [`Table4Column::predictor`] builds (Simple
    /// at depth 0, PATH at depth 7) index a 16 KB PHT.
    #[test]
    fn table4_dolc_is_16kb() {
        let dolcs: Vec<_> = Table4Column::ALL
            .iter()
            .filter_map(|c| c.path_dolc())
            .collect();
        assert_eq!(dolcs.iter().map(|d| d.depth()).collect::<Vec<_>>(), [0, 7]);
        for dolc in dolcs {
            assert_eq!(dolc.index_bits(), 15, "{dolc}");
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::ALL.map(|s| s.name()), ["GLOBAL", "PER", "PATH"]);
    }
}
