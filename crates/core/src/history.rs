//! Realizable (finite-table) history-based exit predictors: the GLOBAL,
//! PER and PATH schemes of paper §5.2, with PATH using the DOLC index
//! construction of §6.
//!
//! All three share the two-level structure of scalar branch prediction
//! (history → pattern history table of automata) adapted to the multi-way
//! task-exit problem:
//!
//! * [`GlobalPredictor`] — one global register of 2-bit *exit numbers*.
//! * [`PerTaskPredictor`] — per-task history registers and tables, hashed
//!   into finite structures (Yeh & Patt's PAp analog).
//! * [`PathPredictor`] — one global register of task *addresses* (the path),
//!   indexed through a [`Dolc`] configuration. The paper's winner.

use crate::automata::Automaton;
use crate::dolc::{Dolc, DolcPath};
use crate::predictor::{ExitPredictor, PendingIndex, TaskDesc};
use crate::rng::XorShift64;
use multiscalar_isa::ExitIndex;

/// How a predictor treats single-exit tasks (paper §6.1): "a single exit is
/// always predicted and no updates are made to the history table".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SingleExitMode {
    /// No special handling: single-exit tasks access and train the PHT.
    Off,
    /// Predict exit 0 without touching the PHT, but still advance the
    /// path/history register (the task remains part of the path identity).
    /// This is the paper's optimization and the default.
    #[default]
    SkipPht,
}

/// Marks a PHT slot as touched, returning 1 if newly touched.
#[inline]
fn touch(touched: &mut [u64], idx: usize) -> usize {
    let (w, b) = (idx / 64, idx % 64);
    let newly = (touched[w] >> b) & 1 == 0;
    touched[w] |= 1 << b;
    newly as usize
}

const EXIT0: ExitIndex = match ExitIndex::new(0) {
    Some(e) => e,
    None => unreachable!(),
};

// ---------------------------------------------------------------------------
// PATH
// ---------------------------------------------------------------------------

/// The paper's path-based exit predictor: a [`Dolc`]-indexed PHT of
/// automata, driven by a shift register of recent task addresses.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct PathPredictor<A: Automaton> {
    path: DolcPath,
    pending: PendingIndex,
    pht: Vec<A>,
    tie: XorShift64,
    mode: SingleExitMode,
    touched: Vec<u64>,
    touched_count: usize,
}

impl<A: Automaton> PathPredictor<A> {
    /// Creates a predictor with the default [`SingleExitMode::SkipPht`].
    pub fn new(dolc: Dolc) -> PathPredictor<A> {
        Self::with_mode(dolc, SingleExitMode::default())
    }

    /// Creates a predictor with an explicit single-exit policy.
    pub fn with_mode(dolc: Dolc, mode: SingleExitMode) -> PathPredictor<A> {
        let n = dolc.table_entries();
        PathPredictor {
            path: DolcPath::new(dolc),
            pending: PendingIndex::default(),
            pht: vec![A::default(); n],
            tie: XorShift64::default(),
            mode,
            touched: vec![0; n.div_ceil(64)],
            touched_count: 0,
        }
    }

    /// The index configuration.
    pub fn dolc(&self) -> Dolc {
        self.path.dolc()
    }

    /// PHT storage in bytes, accounted as in the paper
    /// (`entries * automaton bits / 8`).
    pub fn storage_bytes(&self) -> usize {
        self.pht.len() * A::STORAGE_BITS as usize / 8
    }

    /// Number of PHT entries.
    pub fn table_entries(&self) -> usize {
        self.pht.len()
    }

    fn skip(&self, task: &TaskDesc) -> bool {
        self.mode != SingleExitMode::Off && task.single_exit()
    }
}

impl<A: Automaton> ExitPredictor for PathPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if self.skip(task) {
            return EXIT0;
        }
        let entry = task.entry();
        let idx = self
            .pending
            .get(entry)
            .unwrap_or_else(|| self.path.index(entry));
        self.pending.keep(entry, idx);
        self.pht[idx].predict(&mut self.tie)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let entry = task.entry();
        let idx = self.pending.take(entry);
        if !self.skip(task) {
            let idx = idx.unwrap_or_else(|| self.path.index(entry));
            self.pht[idx].update(actual);
            self.touched_count += touch(&mut self.touched, idx);
        }
        self.path.push(entry);
    }

    fn states_touched(&self) -> usize {
        self.touched_count
    }
}

// ---------------------------------------------------------------------------
// GLOBAL
// ---------------------------------------------------------------------------

/// The GLOBAL scheme: one shared history register into which each task step
/// shifts the 2-bit number of the exit taken; the PHT is indexed by folding
/// the history together with low bits of the current task address.
#[derive(Debug, Clone)]
pub struct GlobalPredictor<A: Automaton> {
    depth: u32,
    index_bits: u32,
    hist: u64,
    pending: PendingIndex,
    pht: Vec<A>,
    tie: XorShift64,
    touched: Vec<u64>,
    touched_count: usize,
}

impl<A: Automaton> GlobalPredictor<A> {
    /// Creates a predictor with `depth` task steps of exit history and a
    /// `2^index_bits`-entry PHT.
    ///
    /// # Panics
    ///
    /// Panics if `2 * depth > 64` or `index_bits` is 0 or > 28.
    pub fn new(depth: u32, index_bits: u32) -> GlobalPredictor<A> {
        assert!(2 * depth <= 64, "exit history limited to 32 steps");
        assert!((1..=28).contains(&index_bits));
        let n = 1usize << index_bits;
        GlobalPredictor {
            depth,
            index_bits,
            hist: 0,
            pending: PendingIndex::default(),
            pht: vec![A::default(); n],
            tie: XorShift64::default(),
            touched: vec![0; n.div_ceil(64)],
            touched_count: 0,
        }
    }

    /// History depth in task steps.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// PHT storage in bytes (paper accounting).
    pub fn storage_bytes(&self) -> usize {
        self.pht.len() * A::STORAGE_BITS as usize / 8
    }

    fn index(&self, task: &TaskDesc) -> usize {
        // Intermediate = exit history (2*depth bits) ++ task address
        // (index_bits), folded by XOR into index_bits.
        let hist_bits = 2 * self.depth;
        let inter: u128 = ((self.hist & mask64(hist_bits)) as u128) << self.index_bits
            | (task.entry().0 & mask32(self.index_bits)) as u128;
        fold(inter, hist_bits + self.index_bits, self.index_bits)
    }
}

impl<A: Automaton> ExitPredictor for GlobalPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let idx = self
            .pending
            .get(task.entry())
            .unwrap_or_else(|| self.index(task));
        self.pending.keep(task.entry(), idx);
        self.pht[idx].predict(&mut self.tie)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let idx = self
            .pending
            .take(task.entry())
            .unwrap_or_else(|| self.index(task));
        self.pht[idx].update(actual);
        self.touched_count += touch(&mut self.touched, idx);
        self.hist = (self.hist << 2) | actual.as_u8() as u64;
    }

    fn states_touched(&self) -> usize {
        self.touched_count
    }
}

// ---------------------------------------------------------------------------
// PER
// ---------------------------------------------------------------------------

/// The PER scheme: per-task exit-history registers (a finite table hashed
/// by task address) and a PHT indexed by task address bits concatenated
/// with folded per-task history — the paper's analog of Yeh & Patt's PAp.
#[derive(Debug, Clone)]
pub struct PerTaskPredictor<A: Automaton> {
    depth: u32,
    addr_bits: u32,
    hist_bits: u32,
    hrt: Vec<u64>,
    pending: PendingIndex,
    pht: Vec<A>,
    tie: XorShift64,
    touched: Vec<u64>,
    touched_count: usize,
}

impl<A: Automaton> PerTaskPredictor<A> {
    /// Creates a predictor: `2^addr_bits` history registers of `depth` task
    /// steps each, and a `2^(addr_bits + hist_bits)`-entry PHT (each task's
    /// history folds into `hist_bits` bits).
    ///
    /// # Panics
    ///
    /// Panics if `2 * depth > 64` or the PHT would exceed 2^28 entries.
    pub fn new(depth: u32, addr_bits: u32, hist_bits: u32) -> PerTaskPredictor<A> {
        assert!(2 * depth <= 64);
        assert!(addr_bits + hist_bits <= 28);
        let n = 1usize << (addr_bits + hist_bits);
        PerTaskPredictor {
            depth,
            addr_bits,
            hist_bits,
            hrt: vec![0; 1usize << addr_bits],
            pending: PendingIndex::default(),
            pht: vec![A::default(); n],
            tie: XorShift64::default(),
            touched: vec![0; n.div_ceil(64)],
            touched_count: 0,
        }
    }

    /// History depth in task steps.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// PHT storage in bytes (paper accounting; the HRT is extra).
    pub fn storage_bytes(&self) -> usize {
        self.pht.len() * A::STORAGE_BITS as usize / 8
    }

    fn hrt_slot(&self, task: &TaskDesc) -> usize {
        (task.entry().0 & mask32(self.addr_bits)) as usize
    }

    fn index(&self, task: &TaskDesc) -> usize {
        let slot = self.hrt_slot(task);
        let hist = self.hrt[slot] & mask64(2 * self.depth);
        let folded = fold(hist as u128, 2 * self.depth, self.hist_bits.max(1))
            & mask32(self.hist_bits) as usize;
        (slot << self.hist_bits) | folded
    }
}

impl<A: Automaton> ExitPredictor for PerTaskPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let idx = self
            .pending
            .get(task.entry())
            .unwrap_or_else(|| self.index(task));
        self.pending.keep(task.entry(), idx);
        self.pht[idx].predict(&mut self.tie)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let idx = self
            .pending
            .take(task.entry())
            .unwrap_or_else(|| self.index(task));
        self.pht[idx].update(actual);
        self.touched_count += touch(&mut self.touched, idx);
        let slot = self.hrt_slot(task);
        self.hrt[slot] = (self.hrt[slot] << 2) | actual.as_u8() as u64;
    }

    fn states_touched(&self) -> usize {
        self.touched_count
    }
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

#[inline]
fn mask32(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

#[inline]
pub(crate) fn mask64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// XOR-folds `value` (of `total_bits`) into `out_bits`.
#[inline]
fn fold(value: u128, total_bits: u32, out_bits: u32) -> usize {
    let m = (1u128 << out_bits) - 1;
    let mut acc = 0u128;
    let mut v = value;
    let mut consumed = 0;
    while consumed < total_bits.max(1) {
        acc ^= v & m;
        v >>= out_bits;
        consumed += out_bits;
    }
    acc as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::predictor::ExitInfo;
    use multiscalar_isa::{Addr, ExitKind};

    type Leh2 = LastExitHysteresis<2>;

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    fn task(entry: u32, n: usize) -> TaskDesc {
        let exits = (0..n)
            .map(|i| ExitInfo {
                kind: ExitKind::Branch,
                target: Some(Addr(entry + 10 + i as u32)),
                return_addr: None,
            })
            .collect();
        TaskDesc::new(Addr(entry), exits)
    }

    /// Drives a predictor with a path-correlated pattern: a *randomly*
    /// chosen predecessor (P1 or P2, both always taking their own exit 0)
    /// fully determines the exit of the following task T. Only a scheme
    /// that can identify the predecessor by *address* (PATH) predicts this;
    /// exit histories are identical for both predecessors and T's own exit
    /// stream is random. Returns the miss count over the final `measure`
    /// steps.
    ///
    /// Addresses are chosen to differ in their *low-order* bits — the bits
    /// DOLC harvests (paper §6.1, heuristic 1).
    fn correlated_misses<P: ExitPredictor>(p: &mut P, warmup: usize, measure: usize) -> usize {
        let t = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(1234);
        let mut misses = 0;
        for i in 0..(warmup + measure) {
            let (pred_task, actual) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            // Predecessor step (it always takes its own exit 0).
            let _ = p.predict(pred_task);
            p.update(pred_task, e(0));
            // The correlated task.
            let got = p.predict(&t);
            if i >= warmup && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        misses
    }

    #[test]
    fn path_predictor_exploits_predecessor_correlation() {
        let mut p: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(2, 6, 8, 8, 2));
        let misses = correlated_misses(&mut p, 20, 100);
        assert_eq!(
            misses, 0,
            "depth-2 path history must separate the two predecessors"
        );
    }

    #[test]
    fn depth_zero_path_predictor_cannot_learn_correlation() {
        let mut p: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(0, 0, 0, 12, 1));
        let misses = correlated_misses(&mut p, 20, 100);
        assert!(
            misses >= 25,
            "a per-task automaton cannot see the predecessor: {misses}"
        );
    }

    #[test]
    fn global_predictor_exploits_exit_correlation() {
        // GLOBAL sees predecessor *exit numbers*, not addresses. Both
        // predecessors take exit 0, so their histories are identical —
        // GLOBAL cannot tell them apart: the paper's key weakness vs PATH.
        let mut p: GlobalPredictor<Leh2> = GlobalPredictor::new(4, 12);
        let misses = correlated_misses(&mut p, 20, 100);
        assert!(
            misses >= 25,
            "GLOBAL cannot distinguish same-exit predecessors: {misses}"
        );

        // But with alternating *exits* it learns: the correlated task's own
        // previous exit alternates, which is visible in global history.
        let mut p: GlobalPredictor<Leh2> = GlobalPredictor::new(4, 12);
        let t = task(0x100, 2);
        let mut misses = 0;
        for i in 0..200 {
            let actual = e((i % 2) as u8);
            let got = p.predict(&t);
            if i >= 50 && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        assert_eq!(misses, 0, "alternation is visible in global exit history");
    }

    #[test]
    fn per_task_predictor_learns_cyclic_behaviour() {
        let mut p: PerTaskPredictor<Leh2> = PerTaskPredictor::new(4, 8, 6);
        let t = task(0x80, 3);
        // Period-3 cycle of exits.
        let mut misses = 0;
        for i in 0..300 {
            let actual = e((i % 3) as u8);
            let got = p.predict(&t);
            if i >= 100 && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        assert_eq!(
            misses, 0,
            "PER must learn a short cycle at one decision point"
        );
    }

    #[test]
    fn single_exit_tasks_do_not_touch_pht_by_default() {
        let mut p: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(2, 4, 6, 6, 1));
        let t1 = task(0x10, 1);
        for _ in 0..10 {
            assert_eq!(p.predict(&t1), e(0));
            p.update(&t1, e(0));
        }
        assert_eq!(p.states_touched(), 0, "single-exit tasks skip the PHT");

        let mut p2: PathPredictor<Leh2> =
            PathPredictor::with_mode(Dolc::new(2, 4, 6, 6, 1), SingleExitMode::Off);
        for _ in 0..10 {
            let _ = p2.predict(&t1);
            p2.update(&t1, e(0));
        }
        assert!(
            p2.states_touched() > 0,
            "mode Off trains on single-exit tasks"
        );
    }

    #[test]
    fn states_touched_counts_distinct_entries() {
        let mut p: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(1, 0, 8, 8, 1));
        for a in 0..50u32 {
            let t = task(a * 4, 2);
            let _ = p.predict(&t);
            p.update(&t, e(0));
        }
        let touched = p.states_touched();
        assert!(touched > 1 && touched <= 50);
        // Replaying the same tasks adds no new states if paths repeat.
        let before = p.states_touched();
        let t = task(0, 2);
        let _ = p.predict(&t);
        p.update(&t, e(0));
        assert!(p.states_touched() >= before);
    }

    #[test]
    fn storage_accounting() {
        let p: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(6, 5, 8, 9, 3));
        // 16K entries * 4 bits = 8 KB — the paper's Figure 10 table size.
        assert_eq!(p.storage_bytes(), 8 * 1024);
        assert_eq!(p.table_entries(), 16 * 1024);

        let g: GlobalPredictor<Leh2> = GlobalPredictor::new(7, 15);
        assert_eq!(g.storage_bytes(), 16 * 1024, "Table 4's 16 KB PHT");

        let per: PerTaskPredictor<Leh2> = PerTaskPredictor::new(7, 8, 7);
        assert_eq!(per.storage_bytes(), 16 * 1024);
    }

    #[test]
    fn bare_update_trains_the_predicted_entry() {
        use crate::predictor::pending_tests::train_with_and_without_predicts;
        let d = Dolc::new(3, 4, 5, 5, 2);
        let (mut cached, mut bare) = (PathPredictor::<Leh2>::new(d), PathPredictor::new(d));
        train_with_and_without_predicts(&mut cached, &mut bare);
        assert!(cached.states_touched() > 50);
        assert_eq!(cached.pht, bare.pht);
        assert_eq!(cached.touched, bare.touched);

        let (mut cached, mut bare) = (
            GlobalPredictor::<Leh2>::new(4, 10),
            GlobalPredictor::new(4, 10),
        );
        train_with_and_without_predicts(&mut cached, &mut bare);
        assert!(cached.states_touched() > 50);
        assert_eq!(cached.pht, bare.pht);
        assert_eq!(cached.touched, bare.touched);

        let (mut cached, mut bare) = (
            PerTaskPredictor::<Leh2>::new(4, 6, 4),
            PerTaskPredictor::new(4, 6, 4),
        );
        train_with_and_without_predicts(&mut cached, &mut bare);
        assert!(cached.states_touched() > 50);
        assert_eq!(cached.pht, bare.pht);
        assert_eq!(cached.touched, bare.touched);
    }

    #[test]
    fn fold_consumes_all_bits() {
        assert_eq!(fold(0b1010_1010, 8, 4), 0b1010 ^ 0b1010);
        assert_eq!(fold(0xFF, 8, 8), 0xFF);
        // Flipping a high bit changes the output.
        assert_ne!(fold(1 << 13, 14, 7), fold(0, 14, 7));
    }
}
