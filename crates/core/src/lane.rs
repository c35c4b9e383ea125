//! Lane-packed (SWAR) LEH-2bit: sixteen path predictors per machine word.
//!
//! LEH-2bit, the automaton the paper picks after Figure 6 (§5.1), is a
//! 2-bit exit plus a 2-bit confidence counter, so a single `u64` holds
//! sixteen independent instances. This module exploits that for the
//! real-PATH ladder of Figures 10 and 11, which trains eight DOLC
//! configurations over one trace walk: a [`BatchedExitPredictor`] stores
//! one struct-of-arrays pattern history table whose entry `j` packs lane
//! `k` = *predictor `k`'s* automaton for index `j`, and answers "predict +
//! update" for every lane of a sweep point in one call.
//!
//! Three properties make the packing free of per-lane branching:
//!
//! * **update is branchless lane arithmetic** — equality of each lane's
//!   stored exit with the broadcast actual exit is detected with XOR and a
//!   shift-OR fold to each lane's low bit, then increment/decrement/replace
//!   masks are expanded over the affected fields by multiplication, and one
//!   masked add/subtract trains every lane at once;
//! * **gather/scatter needs no shifts** — predictor `k` always lives in
//!   lane `k`, so reading its table entry is a masked load and writing it
//!   back is a masked read-modify-write, even when the lanes index
//!   different table entries;
//! * **each lane's path is a shift register** — lane `k` keeps a
//!   [`DolcPath`] of its own configuration, so advancing the path is one
//!   shift per lane and each lane's index is computed once per event.
//!
//! # Bit-identity contract
//!
//! Each lane steps exactly as the scalar
//! [`LastExitHysteresis<2>`](crate::automata::LastExitHysteresis) would,
//! and lane `k` of a batch replays exactly what a scalar
//! [`PathPredictor`](crate::history::PathPredictor) over `configs[k]` does.
//! The exhaustive and seeded randomized tests in this module enforce it.

use crate::dolc::{Dolc, DolcPath};
use crate::predictor::TaskDesc;
use multiscalar_isa::{Addr, ExitIndex};

/// Bits per lane: the exit in bits 0–1, the confidence in bits 2–3.
const LANE_BITS: u32 = 4;

/// Widest fan-out a batched sweep supports: sixteen 4-bit lanes per `u64`.
pub const MAX_FUSED_LANES: usize = (u64::BITS / LANE_BITS) as usize;

/// Bit 0 of every lane.
const LANE_LSB: u64 = 0x1111_1111_1111_1111;

/// The exit field of every lane.
const EXIT_MASK: u64 = LANE_LSB * 0b11;

/// Trains every lane of `word` with the actual exit, exactly as
/// [`Automaton::update`](crate::automata::Automaton::update) trains each
/// lane's LEH-2bit on its own. Returns the trained word and, at each
/// lane's bit 0, whether the lane's prediction (its stored exit) missed.
fn train(word: u64, actual: u8) -> (u64, u64) {
    let bcast = LANE_LSB * actual as u64;
    // Fold "stored exit != actual" down to each lane's low bit.
    let x = (word ^ bcast) & EXIT_MASK;
    let neq = (x | (x >> 1)) & LANE_LSB;
    let eq = neq ^ LANE_LSB;
    // Confidence saturation/emptiness flags, also at each lane's low bit.
    let (c0, c1) = ((word >> 2) & LANE_LSB, (word >> 3) & LANE_LSB);
    let sat = c0 & c1;
    let zero = (c0 | c1) ^ LANE_LSB;
    // Correct => gain confidence; wrong => drain it, or replace the
    // exit once it is gone (the scalar three-way branch, as masks).
    let inc = eq & (sat ^ LANE_LSB);
    let dec = neq & (zero ^ LANE_LSB);
    let repl = neq & zero;
    let trained = word + (inc << 2) - (dec << 2);
    let repl_mask = repl * 0b11;
    ((trained & !repl_mask) | (bcast & repl_mask), neq)
}

/// A struct-of-arrays pattern history table: entry `j` is one `u64` whose
/// lane `k` holds *predictor `k`'s* LEH-2bit state for index `j`; the
/// all-zero lane is the default state (exit 0, no confidence).
///
/// Because a predictor owns a fixed lane across all entries, gathering the
/// (generally different) entries the predictors index is a shift-free OR of
/// masked loads, and scattering the trained word back is a masked
/// read-modify-write per lane.
#[derive(Debug, Clone)]
struct LanePacked {
    words: Vec<u64>,
}

impl LanePacked {
    /// Collects lane `k` of entry `idxs[k]` for each `k` into one word.
    #[inline]
    fn gather(&self, idxs: &[usize]) -> u64 {
        let mut word = 0u64;
        let mut mask = 0b1111;
        for &idx in idxs {
            word |= self.words[idx] & mask;
            mask <<= LANE_BITS;
        }
        word
    }

    /// Writes lane `k` of `word` back into entry `idxs[k]` for each `k`.
    #[inline]
    fn scatter(&mut self, idxs: &[usize], word: u64) {
        let mut mask = 0b1111;
        for &idx in idxs {
            let w = &mut self.words[idx];
            *w = (*w & !mask) | (word & mask);
            mask <<= LANE_BITS;
        }
    }
}

/// A batch of LEH-2bit path-based exit predictors trained over one shared
/// trace walk: lane `k` replays exactly what a scalar
/// [`PathPredictor<LastExitHysteresis<2>>`](crate::history::PathPredictor)
/// configured with `configs[k]` would do — same [`Dolc`] indexing, same
/// [`SkipPht`](crate::history::SingleExitMode::SkipPht) single-exit
/// handling, same per-lane `states_touched` accounting — but one
/// [`step`](Self::step) call answers predict + update for every lane.
#[derive(Debug, Clone)]
pub struct BatchedExitPredictor {
    /// Lane `k`'s path, indexed by `configs[k]`.
    paths: Vec<DolcPath>,
    pht: LanePacked,
    /// One touched-entry bitmap of `words_per_lane` words per lane.
    touched: Vec<u64>,
    touched_counts: Vec<usize>,
    words_per_lane: usize,
}

impl BatchedExitPredictor {
    /// Builds a batch over `configs`, one lane per configuration, or `None`
    /// when the batch shape does not fit: no configurations, or more than
    /// [`MAX_FUSED_LANES`] of them. Configurations may differ in depth and
    /// index width; the table is sized to the largest.
    pub fn new(configs: &[Dolc]) -> Option<BatchedExitPredictor> {
        if configs.is_empty() || configs.len() > MAX_FUSED_LANES {
            return None;
        }
        let entries = configs.iter().map(|d| d.table_entries()).max()?;
        let words_per_lane = entries.div_ceil(64);
        Some(BatchedExitPredictor {
            paths: configs.iter().map(|&d| DolcPath::new(d)).collect(),
            pht: LanePacked {
                words: vec![0; entries],
            },
            touched: vec![0; configs.len() * words_per_lane],
            touched_counts: vec![0; configs.len()],
            words_per_lane,
        })
    }

    /// Number of active lanes (= configurations).
    pub fn lanes(&self) -> usize {
        self.paths.len()
    }

    /// Distinct PHT entries lane `lane` has updated — matches the scalar
    /// predictor's `states_touched()`.
    pub fn states_touched(&self, lane: usize) -> usize {
        self.touched_counts[lane]
    }

    /// Predict + update for every lane in one call: returns a mask with bit
    /// `k` set when lane `k` mispredicted `actual`, and trains every lane —
    /// bit-identically to running each scalar predictor's `predict` then
    /// `update` for this task event.
    pub fn step(&mut self, task: &TaskDesc, actual: ExitIndex) -> u32 {
        let entry = task.entry();
        let n = self.paths.len();
        if task.single_exit() {
            // SkipPht: predict exit 0 without consulting the table, train
            // nothing, keep the path moving.
            self.push(entry);
            return if actual.index() == 0 { 0 } else { (1 << n) - 1 };
        }
        let mut idxs = [0usize; MAX_FUSED_LANES];
        for (idx, path) in idxs.iter_mut().zip(&self.paths) {
            *idx = path.index(entry);
        }
        let (trained, neq) = train(self.pht.gather(&idxs[..n]), actual.as_u8());
        self.pht.scatter(&idxs[..n], trained);
        let mut miss = 0u32;
        for (k, &idx) in idxs[..n].iter().enumerate() {
            miss |= (((neq >> (k as u32 * LANE_BITS)) & 1) as u32) << k;
            let slot = &mut self.touched[k * self.words_per_lane + idx / 64];
            let bit = 1u64 << (idx % 64);
            if *slot & bit == 0 {
                *slot |= bit;
                self.touched_counts[k] += 1;
            }
        }
        self.push(entry);
        miss
    }

    /// Shifts the newest task address into every lane's path.
    #[inline]
    fn push(&mut self, addr: Addr) {
        for path in &mut self.paths {
            path.push(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::{Automaton, LastExitHysteresis};
    use crate::history::PathPredictor;
    use crate::predictor::{ExitInfo, ExitPredictor};
    use crate::rng::XorShift64;
    use multiscalar_isa::ExitKind;

    type Leh2 = LastExitHysteresis<2>;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    /// A scalar automaton's state as a lane image: exit in bits 0–1,
    /// confidence in bits 2–3. The image pins the whole state, so equal
    /// images mean equal automata.
    fn encode(a: &Leh2) -> u64 {
        a.predict(&mut XorShift64::default()).as_u8() as u64 | (a.confidence() as u64) << 2
    }

    /// Lane `lane` of `word`.
    fn lane(word: u64, lane: usize) -> u64 {
        (word >> (lane as u32 * LANE_BITS)) & 0b1111
    }

    /// The exits the lanes would predict for `task` right now, in the low
    /// 2 bits of each lane, without training. Single-exit tasks predict
    /// exit 0 in every lane (the `SkipPht` fast path).
    fn predict_word(batch: &BatchedExitPredictor, task: &TaskDesc) -> u64 {
        if task.single_exit() {
            return 0;
        }
        let idxs: Vec<usize> = batch.paths.iter().map(|p| p.index(task.entry())).collect();
        batch.pht.gather(&idxs) & EXIT_MASK
    }

    /// Drives lane `lane` of a packed word and a scalar automaton through
    /// the same exit sequence, asserting prediction, miss bit and state
    /// agree at every step.
    fn assert_lane_matches_scalar(seq: &[u8], lanes: &[usize]) {
        for &k in lanes {
            let mut word = 0u64;
            let mut scalar = Leh2::default();
            let mut tie = XorShift64::default();
            for &x in seq {
                let want = scalar.predict(&mut tie).as_u8();
                assert_eq!(
                    lane(word, k) & 0b11,
                    want as u64,
                    "predict, lane {k}, {seq:?}"
                );
                let (trained, neq) = train(word, x);
                assert_eq!(lane(neq, k) == 1, want != x, "miss, lane {k}, {seq:?}");
                word = trained;
                scalar.update(e(x));
                assert_eq!(lane(word, k), encode(&scalar), "state, lane {k}, {seq:?}");
            }
        }
    }

    /// Every exit sequence up to length 5, every lane position (the top
    /// lane exercises the saturation/carry edge of the word).
    #[test]
    fn exhaustive_short_sequences_match_scalar() {
        let lanes: Vec<usize> = (0..MAX_FUSED_LANES).collect();
        for len in 1..=5u32 {
            for code in 0..(1u32 << (2 * len)) {
                let seq: Vec<u8> = (0..len).map(|i| ((code >> (2 * i)) & 3) as u8).collect();
                assert_lane_matches_scalar(&seq, &lanes);
            }
        }
    }

    #[test]
    fn long_seeded_sequences_match_scalar() {
        let mut rng = XorShift64::new(0xC0DE);
        let seq: Vec<u8> = (0..20_000).map(|_| (rng.next_u64() & 3) as u8).collect();
        assert_lane_matches_scalar(&seq, &[0, MAX_FUSED_LANES / 2, MAX_FUSED_LANES - 1]);
    }

    /// Lanes holding *different* states must train independently: no carry,
    /// borrow, or mask may leak across a lane boundary.
    #[test]
    fn mixed_lane_states_stay_isolated() {
        let mut rng = XorShift64::new(3);
        let mut scalars: Vec<Leh2> = (0..MAX_FUSED_LANES)
            .map(|k| {
                let mut a = Leh2::default();
                for _ in 0..(3 * k) {
                    a.update(e((rng.next_u64() & 3) as u8));
                }
                a
            })
            .collect();
        let mut word = 0u64;
        for (k, s) in scalars.iter().enumerate() {
            word |= encode(s) << (k as u32 * LANE_BITS);
        }
        let mut tie = XorShift64::default();
        for _ in 0..5_000 {
            for (k, s) in scalars.iter().enumerate() {
                let want = s.predict(&mut tie).as_u8() as u64;
                assert_eq!(lane(word, k) & 0b11, want, "lane {k} predict diverged");
            }
            let x = (rng.next_u64() & 3) as u8;
            word = train(word, x).0;
            for (k, s) in scalars.iter_mut().enumerate() {
                s.update(e(x));
                assert_eq!(lane(word, k), encode(s), "lane {k} state diverged");
            }
        }
    }

    #[test]
    fn top_lane_saturates_without_carry_out() {
        let top = MAX_FUSED_LANES - 1;
        let mut word = 0u64;
        let mut scalar = Leh2::default();
        // Far past saturation, then a burst of contrary exits: the moments
        // a saturating add/sub would carry across the word edge.
        for _ in 0..12 {
            word = train(word, 3).0;
            scalar.update(e(3));
        }
        for _ in 0..12 {
            word = train(word, 0).0;
            scalar.update(e(0));
            assert_eq!(lane(word, top), encode(&scalar));
        }
    }

    #[test]
    fn gather_scatter_round_trips_disjoint_entries() {
        let mut pht = LanePacked { words: vec![0; 64] };
        // Lane k writes entry 63-k; other lanes/entries stay default.
        let idxs: Vec<usize> = (0..16).map(|k| 63 - k).collect();
        let word = LANE_LSB * 0b0111; // exit 3, conf 1
        pht.scatter(&idxs, word);
        assert_eq!(pht.gather(&idxs), word);
        for k in 0..16 {
            assert_eq!(lane(pht.words[63 - k], k), 0b0111);
            assert_eq!(lane(pht.words[k], k), 0, "lane {k} of entry {k}");
        }
    }

    fn multi_exit_task(entry: u32, exits: usize) -> TaskDesc {
        TaskDesc::new(
            Addr(entry),
            (0..exits)
                .map(|i| ExitInfo {
                    kind: ExitKind::Branch,
                    target: Some(Addr(entry + 4 * (i as u32 + 1))),
                    return_addr: None,
                })
                .collect(),
        )
    }

    /// The end-to-end gate: a batched step stream over a task mix
    /// (including single-exit tasks) must match a bank of scalar
    /// `PathPredictor`s event for event — predictions, misses, and
    /// states-touched accounting.
    #[test]
    fn batched_predictor_matches_scalar_path_predictors() {
        let configs = [
            Dolc::new(0, 0, 0, 8, 1),
            Dolc::new(1, 0, 5, 5, 1),
            Dolc::new(2, 4, 5, 5, 2),
            Dolc::new(4, 3, 4, 5, 2),
            Dolc::new(6, 5, 8, 9, 3),
        ];
        let tasks: Vec<TaskDesc> = (0..12)
            .map(|t| {
                multi_exit_task(
                    0x100 + 16 * t,
                    if t % 3 == 0 { 1 } else { 2 + (t as usize % 3) },
                )
            })
            .collect();
        let mut batch = BatchedExitPredictor::new(&configs).expect("5 lanes fit");
        let mut scalars: Vec<PathPredictor<Leh2>> =
            configs.iter().map(|&d| PathPredictor::new(d)).collect();
        let mut rng = XorShift64::new(0x5EED);
        for _ in 0..30_000 {
            let task = &tasks[(rng.next_u64() % tasks.len() as u64) as usize];
            let n_exits = task.exits().len() as u64;
            let actual = e((rng.next_u64() % n_exits) as u8);
            let preds = predict_word(&batch, task);
            let miss = batch.step(task, actual);
            for (k, p) in scalars.iter_mut().enumerate() {
                let want = p.predict(task);
                assert_eq!(lane(preds, k), want.as_u8() as u64, "lane {k}");
                assert_eq!(miss >> k & 1 == 1, want != actual, "lane {k} miss");
                p.update(task, actual);
            }
        }
        for (k, p) in scalars.iter().enumerate() {
            assert_eq!(batch.states_touched(k), p.states_touched(), "lane {k}");
        }
    }

    #[test]
    fn batch_shape_limits_are_enforced() {
        let cfg = Dolc::new(1, 0, 5, 5, 1);
        assert!(BatchedExitPredictor::new(&[]).is_none());
        assert!(
            BatchedExitPredictor::new(&[cfg; 17]).is_none(),
            "a word packs 16 lanes, 17 configs must be rejected"
        );
        let mut full = BatchedExitPredictor::new(&[cfg; 16]).expect("16 lanes");
        assert_eq!(full.lanes(), 16);
        // All 16 lanes miss a non-zero exit on a single-exit task.
        let single = multi_exit_task(0x40, 1);
        assert_eq!(full.step(&single, e(1)), 0xFFFF);
        assert_eq!(full.step(&single, e(0)), 0);
        assert_eq!(full.states_touched(15), 0, "SkipPht trains nothing");
    }
}
