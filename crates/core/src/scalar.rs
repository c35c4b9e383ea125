//! Scalar (single-branch) predictors used for *intra-task* control-flow
//! speculation (paper §2.2) and as background for the two-level schemes
//! (paper §4.1).
//!
//! "The predictor used for intra-task prediction in our current Multiscalar
//! simulators is a bimodal predictor" — [`Bimodal`] is what the timing
//! simulator uses inside processing units. [`TwoLevelGag`] is provided for
//! completeness and comparison experiments.

use multiscalar_isa::Addr;

/// A 2-bit saturating counter, the classic taken/not-taken automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter2 {
    value: u8,
}

impl Counter2 {
    /// Predicted direction: taken when the counter is in the upper half.
    #[inline]
    pub fn predict(self) -> bool {
        self.value >= 2
    }

    /// Trains toward the actual direction.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.value = (self.value + 1).min(3);
        } else {
            self.value = self.value.saturating_sub(1);
        }
    }

    /// The raw counter state (0..=3).
    pub fn value(self) -> u8 {
        self.value
    }
}

/// A bimodal branch predictor: a table of 2-bit counters indexed by branch
/// address.
///
/// ```
/// use multiscalar_core::scalar::Bimodal;
/// use multiscalar_isa::Addr;
/// let mut b = Bimodal::new(10);
/// let pc = Addr(0x44);
/// b.update(pc, true);
/// b.update(pc, true);
/// assert!(b.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 28.
    pub fn new(index_bits: u32) -> Bimodal {
        assert!((1..=28).contains(&index_bits));
        Bimodal {
            table: vec![Counter2::default(); 1 << index_bits],
            mask: (1 << index_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        (pc.0 & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        self.table[self.index(pc)].predict()
    }

    /// Trains with the actual direction.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }

    /// Storage in bytes (2 bits per counter).
    pub fn storage_bytes(&self) -> usize {
        self.table.len() / 4
    }
}

/// A two-level GAg-style predictor: a global direction-history register
/// XOR-hashed with the branch address into a table of 2-bit counters
/// (gshare flavour of Yeh & Patt / Pan et al., paper §4.1).
#[derive(Debug, Clone)]
pub struct TwoLevelGag {
    table: Vec<Counter2>,
    history: u32,
    hist_bits: u32,
    mask: u32,
}

impl TwoLevelGag {
    /// Creates a predictor with `2^index_bits` counters and `hist_bits` of
    /// global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 28, or `hist_bits > index_bits`.
    pub fn new(index_bits: u32, hist_bits: u32) -> TwoLevelGag {
        assert!((1..=28).contains(&index_bits));
        assert!(hist_bits <= index_bits);
        TwoLevelGag {
            table: vec![Counter2::default(); 1 << index_bits],
            history: 0,
            hist_bits,
            mask: (1 << index_bits) - 1,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        let h = self.history & ((1u32 << self.hist_bits) - 1);
        ((pc.0 ^ h) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc` under current history.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        self.table[self.index(pc)].predict()
    }

    /// Trains with the actual direction and shifts the history register.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
        self.history = (self.history << 1) | taken as u32;
    }
}

/// McFarling's combining predictor: two component predictors and a chooser
/// table of 2-bit counters indexed by branch address (§4.1's \[10\]).
#[derive(Debug, Clone)]
pub struct McFarling {
    bimodal: Bimodal,
    gshare: TwoLevelGag,
    chooser: Vec<Counter2>,
    mask: u32,
}

impl McFarling {
    /// Creates a combiner of a bimodal and a gshare predictor, all tables
    /// `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 28.
    pub fn new(index_bits: u32) -> McFarling {
        McFarling {
            bimodal: Bimodal::new(index_bits),
            gshare: TwoLevelGag::new(index_bits, index_bits.min(12)),
            chooser: vec![Counter2::default(); 1 << index_bits],
            mask: (1 << index_bits) - 1,
        }
    }

    #[inline]
    fn slot(&self, pc: Addr) -> usize {
        (pc.0 & self.mask) as usize
    }

    /// Predicts using the component the chooser currently favours
    /// (chooser "taken" = use gshare).
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        if self.chooser[self.slot(pc)].predict() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Trains both components and moves the chooser toward whichever was
    /// right when exactly one was.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let b = self.bimodal.predict(pc) == taken;
        let g = self.gshare.predict(pc) == taken;
        let slot = self.slot(pc);
        match (b, g) {
            (true, false) => self.chooser[slot].update(false),
            (false, true) => self.chooser[slot].update(true),
            _ => {}
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_has_two_miss_hysteresis() {
        let mut c = Counter2::default();
        c.update(true);
        c.update(true);
        c.update(true); // saturated at 3
        assert!(c.predict());
        c.update(false); // 2 — still taken
        assert!(c.predict());
        c.update(false); // 1 — flips
        assert!(!c.predict());
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut b = Bimodal::new(8);
        let pc = Addr(0x123);
        let mut misses = 0;
        for i in 0..100 {
            // 90% taken.
            let taken = i % 10 != 0;
            if b.predict(pc) != taken {
                misses += 1;
            }
            b.update(pc, taken);
        }
        assert!(misses <= 25, "bimodal should track a strong bias: {misses}");
    }

    #[test]
    fn bimodal_aliases_distinct_branches_to_distinct_slots() {
        let mut b = Bimodal::new(8);
        b.update(Addr(1), true);
        b.update(Addr(1), true);
        assert!(b.predict(Addr(1)));
        assert!(
            !b.predict(Addr(2)),
            "independent slot stays default not-taken"
        );
        assert_eq!(b.storage_bytes(), 64);
    }

    #[test]
    fn mcfarling_is_at_least_as_good_as_its_best_component() {
        // A biased branch (bimodal turf) + an alternating branch (gshare
        // turf), interleaved.
        let (biased, alt) = (Addr(0x40), Addr(0x83));
        let mut comb = McFarling::new(12);
        let mut bim = Bimodal::new(12);
        let mut gag = TwoLevelGag::new(12, 10);
        let (mut cm, mut bm, mut gm) = (0, 0, 0);
        for i in 0..1000 {
            for (pc, taken) in [(biased, i % 16 != 0), (alt, i % 2 == 0)] {
                if i >= 300 {
                    cm += (comb.predict(pc) != taken) as u32;
                    bm += (bim.predict(pc) != taken) as u32;
                    gm += (gag.predict(pc) != taken) as u32;
                }
                comb.update(pc, taken);
                bim.update(pc, taken);
                gag.update(pc, taken);
            }
        }
        assert!(
            cm <= bm.min(gm) + 20,
            "combiner {cm} vs bimodal {bm} / gshare {gm}"
        );
    }

    #[test]
    fn gag_learns_alternation_that_bimodal_cannot() {
        let pc = Addr(0x77);
        let mut bim = Bimodal::new(10);
        let mut gag = TwoLevelGag::new(10, 8);
        let (mut bm, mut gm) = (0, 0);
        for i in 0..400 {
            let taken = i % 2 == 0;
            if i >= 100 {
                if bim.predict(pc) != taken {
                    bm += 1;
                }
                if gag.predict(pc) != taken {
                    gm += 1;
                }
            }
            bim.update(pc, taken);
            gag.update(pc, taken);
        }
        assert_eq!(gm, 0, "history predictor nails strict alternation");
        assert!(
            bm >= 100,
            "bimodal misses at least half of alternation: {bm}"
        );
    }
}
