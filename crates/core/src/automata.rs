//! Multi-way prediction automata (paper §5.1).
//!
//! Scalar 2-bit saturating counters cannot predict tasks because a task has
//! up to four exits. The paper studies seven replacement automata, all
//! implemented here:
//!
//! * [`VotingCounters`] with 2- or 3-bit counters and MRU or random
//!   tie-breaking (`VC MRU`, `VC RANDOM`),
//! * [`LastExit`] (`LE`), and
//! * [`LastExitHysteresis`] with 1- or 2-bit confidence counters (`LEH`).
//!
//! The paper's finding — reproduced by this crate's benchmarks — is that
//! LEH-2bit matches 3-bit voting counters at a fraction of the storage, so
//! [`LastExitHysteresis<2>`] is the automaton used by the composite
//! [`crate::predictor::TaskPredictor`].

use crate::rng::XorShift64;
use multiscalar_isa::{ExitIndex, MAX_EXITS};

/// A prediction automaton for the multi-way task-exit problem.
///
/// One automaton sits in every pattern-history-table entry. `predict`
/// receives a tie-break generator (only the `VC RANDOM` family uses it);
/// `update` is told the actual exit after the task resolves.
pub trait Automaton: Clone + Default {
    /// Storage cost of one automaton in bits, as accounted in the paper
    /// (used to size tables for equal-storage comparisons).
    const STORAGE_BITS: u32;

    /// Short name as used in the paper's figures (e.g. `"LEH-2bit"`).
    const NAME: &'static str;

    /// The exit this automaton currently predicts.
    fn predict(&self, tie: &mut XorShift64) -> ExitIndex;

    /// Trains the automaton with the actual exit taken.
    fn update(&mut self, actual: ExitIndex);
}

/// One saturating counter per exit; the exit with the highest counter wins
/// (paper's *voting counters*, `VC`).
///
/// `BITS` is the counter width (2 or 3 in the paper). `MRU` selects the
/// tie-break rule: `true` keeps the most-recently-used exit among ties
/// (costs extra storage), `false` picks randomly.
///
/// On update, the actual exit's counter increments and all others
/// decrement, both saturating.
///
/// ```
/// use multiscalar_core::automata::{Automaton, VotingCounters};
/// use multiscalar_core::rng::XorShift64;
/// use multiscalar_isa::ExitIndex;
///
/// let mut vc: VotingCounters<2, true> = VotingCounters::default();
/// let mut tie = XorShift64::default();
/// vc.update(ExitIndex::new(3).unwrap());
/// assert_eq!(vc.predict(&mut tie), ExitIndex::new(3).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VotingCounters<const BITS: u8, const MRU: bool> {
    counters: [u8; MAX_EXITS],
    mru: u8,
}

impl<const BITS: u8, const MRU: bool> Default for VotingCounters<BITS, MRU> {
    fn default() -> Self {
        VotingCounters {
            counters: [0; MAX_EXITS],
            mru: 0,
        }
    }
}

impl<const BITS: u8, const MRU: bool> VotingCounters<BITS, MRU> {
    const MAX: u8 = (1 << BITS) - 1;

    /// Current counter values (for inspection in tests/examples).
    pub fn counters(&self) -> [u8; MAX_EXITS] {
        self.counters
    }
}

impl<const BITS: u8, const MRU: bool> Automaton for VotingCounters<BITS, MRU> {
    // 4 counters of BITS bits, plus 2 MRU bits when tie-breaking by MRU.
    const STORAGE_BITS: u32 = MAX_EXITS as u32 * BITS as u32 + if MRU { 2 } else { 0 };
    const NAME: &'static str = match (BITS, MRU) {
        (2, true) => "2-bit VC MRU",
        (2, false) => "2-bit VC RANDOM",
        (3, true) => "3-bit VC MRU",
        (3, false) => "3-bit VC RANDOM",
        _ => "VC",
    };

    fn predict(&self, tie: &mut XorShift64) -> ExitIndex {
        let max = *self.counters.iter().max().expect("non-empty");
        let tied: [bool; MAX_EXITS] = std::array::from_fn(|i| self.counters[i] == max);
        let num_tied = tied.iter().filter(|&&t| t).count();
        let winner = if num_tied == 1 {
            tied.iter().position(|&t| t).expect("exactly one winner")
        } else if MRU {
            // Keep the most recently taken exit if it is among the ties,
            // otherwise the lowest tied index.
            if tied[self.mru as usize] {
                self.mru as usize
            } else {
                tied.iter().position(|&t| t).expect("some winner")
            }
        } else {
            // Uniformly random among the tied exits.
            let pick = tie.next_below(num_tied as u32) as usize;
            tied.iter()
                .enumerate()
                .filter(|(_, &t)| t)
                .nth(pick)
                .map(|(i, _)| i)
                .expect("pick < num_tied")
        };
        ExitIndex::new(winner as u8).expect("winner < MAX_EXITS")
    }

    fn update(&mut self, actual: ExitIndex) {
        for (i, c) in self.counters.iter_mut().enumerate() {
            if i == actual.index() {
                *c = (*c + 1).min(Self::MAX);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        self.mru = actual.as_u8();
    }
}

/// Remembers the last exit taken and predicts it (paper's `LE`).
///
/// A degenerate voting counter with one bit per exit; stored as a plain
/// 2-bit exit number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LastExit {
    last: ExitIndex,
}

impl Automaton for LastExit {
    const STORAGE_BITS: u32 = 2;
    const NAME: &'static str = "LE";

    fn predict(&self, _tie: &mut XorShift64) -> ExitIndex {
        self.last
    }

    fn update(&mut self, actual: ExitIndex) {
        self.last = actual;
    }
}

/// Last exit plus a small confidence counter (paper's `LEH`).
///
/// The counter increments on correct predictions and decrements on
/// incorrect ones; the stored exit is only replaced when the counter is
/// zero *and* the prediction is wrong, so a proven prediction survives
/// occasional noise. `BITS` is the confidence width (1 or 2 in the paper).
///
/// This is the paper's recommended automaton (`LEH-2bit`): the same
/// hysteresis as 3-bit voting counters in a third of the storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LastExitHysteresis<const BITS: u8> {
    exit: ExitIndex,
    confidence: u8,
}

impl<const BITS: u8> LastExitHysteresis<BITS> {
    const MAX: u8 = (1 << BITS) - 1;

    /// Current confidence value (for inspection).
    pub fn confidence(&self) -> u8 {
        self.confidence
    }
}

impl<const BITS: u8> Automaton for LastExitHysteresis<BITS> {
    const STORAGE_BITS: u32 = 2 + BITS as u32;
    const NAME: &'static str = match BITS {
        1 => "LEH-1bit",
        2 => "LEH-2bit",
        _ => "LEH",
    };

    fn predict(&self, _tie: &mut XorShift64) -> ExitIndex {
        self.exit
    }

    fn update(&mut self, actual: ExitIndex) {
        if actual == self.exit {
            self.confidence = (self.confidence + 1).min(Self::MAX);
        } else if self.confidence == 0 {
            self.exit = actual;
        } else {
            self.confidence -= 1;
        }
    }
}

/// Runtime-selectable automaton kind — the seven automata of the paper's
/// Figure 6, in the figure's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AutomatonKind {
    /// 2-bit voting counters, MRU tie-break.
    Vc2Mru,
    /// 2-bit voting counters, random tie-break.
    Vc2Random,
    /// Last exit with 1-bit hysteresis.
    Leh1,
    /// 3-bit voting counters, MRU tie-break.
    Vc3Mru,
    /// 3-bit voting counters, random tie-break.
    Vc3Random,
    /// Last exit with 2-bit hysteresis.
    Leh2,
    /// Last exit.
    LastExit,
}

impl AutomatonKind {
    /// All seven kinds, in the order of the paper's Figure 6 legend.
    pub const ALL: [AutomatonKind; 7] = [
        AutomatonKind::Vc2Mru,
        AutomatonKind::Vc2Random,
        AutomatonKind::Leh1,
        AutomatonKind::Vc3Mru,
        AutomatonKind::Vc3Random,
        AutomatonKind::Leh2,
        AutomatonKind::LastExit,
    ];

    /// The paper's name for this automaton.
    pub fn name(self) -> &'static str {
        match self {
            AutomatonKind::Vc2Mru => VotingCounters::<2, true>::NAME,
            AutomatonKind::Vc2Random => VotingCounters::<2, false>::NAME,
            AutomatonKind::Leh1 => LastExitHysteresis::<1>::NAME,
            AutomatonKind::Vc3Mru => VotingCounters::<3, true>::NAME,
            AutomatonKind::Vc3Random => VotingCounters::<3, false>::NAME,
            AutomatonKind::Leh2 => LastExitHysteresis::<2>::NAME,
            AutomatonKind::LastExit => LastExit::NAME,
        }
    }

    /// Storage bits per PHT entry for this automaton.
    pub fn storage_bits(self) -> u32 {
        match self {
            AutomatonKind::Vc2Mru => VotingCounters::<2, true>::STORAGE_BITS,
            AutomatonKind::Vc2Random => VotingCounters::<2, false>::STORAGE_BITS,
            AutomatonKind::Leh1 => LastExitHysteresis::<1>::STORAGE_BITS,
            AutomatonKind::Vc3Mru => VotingCounters::<3, true>::STORAGE_BITS,
            AutomatonKind::Vc3Random => VotingCounters::<3, false>::STORAGE_BITS,
            AutomatonKind::Leh2 => LastExitHysteresis::<2>::STORAGE_BITS,
            AutomatonKind::LastExit => LastExit::STORAGE_BITS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    #[test]
    fn vc_learns_dominant_exit() {
        let mut vc: VotingCounters<2, true> = Default::default();
        let mut tie = XorShift64::default();
        for _ in 0..4 {
            vc.update(e(2));
        }
        assert_eq!(vc.predict(&mut tie), e(2));
        // A single contrary outcome does not flip a saturated prediction.
        vc.update(e(0));
        assert_eq!(vc.predict(&mut tie), e(2));
    }

    #[test]
    fn vc_counters_saturate() {
        let mut vc: VotingCounters<2, true> = Default::default();
        for _ in 0..10 {
            vc.update(e(1));
        }
        assert_eq!(vc.counters()[1], 3, "2-bit counter saturates at 3");
        assert_eq!(vc.counters()[0], 0);
        let mut vc3: VotingCounters<3, true> = Default::default();
        for _ in 0..10 {
            vc3.update(e(1));
        }
        assert_eq!(vc3.counters()[1], 7, "3-bit counter saturates at 7");
    }

    #[test]
    fn vc_mru_tie_break_prefers_most_recent() {
        let mut vc: VotingCounters<2, true> = Default::default();
        let mut tie = XorShift64::default();
        // Alternate 0,1 — counters tie (inc then dec), MRU should win.
        vc.update(e(0));
        vc.update(e(1)); // counters: [0,1,..] -> not tied yet
        vc.update(e(0)); // [1,0]
        vc.update(e(1)); // [0,1]
                         // After this sequence the last update was exit 1.
        let p = vc.predict(&mut tie);
        // exit 1 has the (joint-)highest counter and is MRU.
        assert_eq!(p, e(1));
    }

    #[test]
    fn vc_random_tie_break_is_among_tied() {
        let vc: VotingCounters<2, false> = Default::default(); // all zero: 4-way tie
        let mut tie = XorShift64::new(99);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[vc.predict(&mut tie).index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random ties should cover all exits"
        );
    }

    #[test]
    fn last_exit_tracks_immediately() {
        let mut le = LastExit::default();
        let mut tie = XorShift64::default();
        le.update(e(3));
        assert_eq!(le.predict(&mut tie), e(3));
        le.update(e(1));
        assert_eq!(le.predict(&mut tie), e(1), "LE flips on every change");
    }

    #[test]
    fn leh_replaces_only_after_confidence_exhausted() {
        let mut leh: LastExitHysteresis<2> = Default::default();
        let mut tie = XorShift64::default();
        // Build confidence in exit 0 (the default prediction).
        for _ in 0..3 {
            leh.update(e(0));
        }
        assert_eq!(leh.confidence(), 3);
        // Three wrong outcomes drain confidence without replacing...
        for _ in 0..3 {
            leh.update(e(2));
            assert_eq!(leh.predict(&mut tie), e(0));
        }
        // ...the fourth replaces.
        leh.update(e(2));
        assert_eq!(leh.predict(&mut tie), e(2));
    }

    #[test]
    fn leh1_has_two_miss_hysteresis() {
        // Matches the paper: LEH-1bit replaces a proven prediction only
        // after two mispredictions.
        let mut leh: LastExitHysteresis<1> = Default::default();
        let mut tie = XorShift64::default();
        leh.update(e(0));
        leh.update(e(0)); // confidence saturated at 1
        leh.update(e(3)); // miss 1: confidence -> 0, still predicts 0
        assert_eq!(leh.predict(&mut tie), e(0));
        leh.update(e(3)); // miss 2: replaced
        assert_eq!(leh.predict(&mut tie), e(3));
    }

    #[test]
    fn storage_bits_match_paper_accounting() {
        assert_eq!(VotingCounters::<2, false>::STORAGE_BITS, 8);
        assert_eq!(VotingCounters::<2, true>::STORAGE_BITS, 10);
        assert_eq!(VotingCounters::<3, false>::STORAGE_BITS, 12);
        assert_eq!(LastExit::STORAGE_BITS, 2);
        assert_eq!(LastExitHysteresis::<1>::STORAGE_BITS, 3);
        assert_eq!(LastExitHysteresis::<2>::STORAGE_BITS, 4);
        // LEH-2bit uses fewer bits than 3-bit VC — the paper's reason for
        // choosing it.
        let (leh2, vc3) = (
            LastExitHysteresis::<2>::STORAGE_BITS,
            VotingCounters::<3, false>::STORAGE_BITS,
        );
        assert!(leh2 < vc3);
    }

    #[test]
    fn kind_enum_round_trips_names() {
        for k in AutomatonKind::ALL {
            assert!(!k.name().is_empty());
            assert!(k.storage_bits() >= 2);
        }
        assert_eq!(AutomatonKind::ALL.len(), 7);
    }

    #[test]
    fn automata_converge_on_stationary_stream() {
        // Every automaton eventually predicts a constant outcome.
        fn check<A: Automaton>() {
            let mut a = A::default();
            let mut tie = XorShift64::new(5);
            for _ in 0..16 {
                a.update(e(2));
            }
            assert_eq!(a.predict(&mut tie), e(2), "{} failed to converge", A::NAME);
        }
        check::<VotingCounters<2, true>>();
        check::<VotingCounters<2, false>>();
        check::<VotingCounters<3, true>>();
        check::<VotingCounters<3, false>>();
        check::<LastExit>();
        check::<LastExitHysteresis<1>>();
        check::<LastExitHysteresis<2>>();
    }
}
