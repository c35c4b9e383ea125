//! Ideal (alias-free) predictors — the reference models of paper §5.2.
//!
//! "We define ideal to mean there is no aliasing in any of the data
//! structures": every distinct (task, history) state gets its own
//! automaton.
//!
//! The production sweeps get that from interners. A state's id at depth 0
//! is its task index; at depth d ≥ 1 it is the dense `u32` the depth-d
//! interner hands out for (the id at depth d−1, the d-th older history
//! element). Equal histories therefore get equal ids by construction, and
//! an ideal column is a `Vec` of automata indexed by its depth's id
//! ([`IdealColumns`]). [`PathInterner`] chains task indices through one
//! hash map per depth (PATH here, and the ideal CTTB's
//! [`IdealTargetColumns`](crate::target::IdealTargetColumns));
//! [`ExitInterner`] chains 2-bit exit numbers through a 4-ary trie per
//! depth (GLOBAL and PER), so it hashes nothing. A walk interns each event
//! once and steps every column on the resulting ids, however many depths
//! and automaton families it measures.
//!
//! [`IdealGlobal`], [`IdealPer`] and [`IdealPath`] key hash maps by (task
//! entry, whole history) instead. They are the oracle the interned sweeps
//! are tested against, not a production path.
//!
//! At history depth 0 all three schemes degenerate to one automaton per
//! static task, which is why the paper's Figure 7 curves converge at the
//! left edge — reproduced by this crate's tests.

use crate::automata::Automaton;
use crate::dolc::{PathKey, PathRegister, MAX_PATH_KEY_DEPTH};
use crate::fxhash::FxHashMap;
use crate::history::{mask64, SingleExitMode};
use crate::predictor::{ExitPredictor, TaskDesc};
use crate::rng::XorShift64;
use multiscalar_isa::ExitIndex;

const EXIT0: ExitIndex = match ExitIndex::new(0) {
    Some(e) => e,
    None => unreachable!(),
};

/// Ideal GLOBAL: automaton per (task address, exact exit history of the
/// last `depth` task steps). The hash-map oracle of [`ExitInterner`]'s
/// GLOBAL walk.
#[derive(Debug, Clone)]
pub struct IdealGlobal<A: Automaton> {
    depth: u32,
    hist: u64,
    map: FxHashMap<(u32, u64), A>,
    tie: XorShift64,
}

impl<A: Automaton> IdealGlobal<A> {
    /// Creates an ideal GLOBAL predictor with `depth` steps of exit history.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 32` (history is packed 2 bits per step).
    pub fn new(depth: u32) -> IdealGlobal<A> {
        assert!(depth <= 32);
        IdealGlobal {
            depth,
            hist: 0,
            map: FxHashMap::default(),
            tie: XorShift64::default(),
        }
    }

    /// Number of distinct (task, history) states seen.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn key(&self, task: &TaskDesc) -> (u32, u64) {
        (task.entry().0, self.hist & mask64(2 * self.depth))
    }
}

impl<A: Automaton> ExitPredictor for IdealGlobal<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let key = self.key(task);
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let key = self.key(task);
        self.map.entry(key).or_default().update(actual);
        self.hist = (self.hist << 2) | actual.as_u8() as u64;
    }

    fn states_touched(&self) -> usize {
        self.states()
    }
}

/// Ideal PER: one unbounded history register per static task, automaton per
/// (task address, that task's own exit history). The hash-map oracle of
/// [`ExitInterner`]'s PER walk.
#[derive(Debug, Clone)]
pub struct IdealPer<A: Automaton> {
    depth: u32,
    // Dense direct-indexed history table (entry addresses are small program
    // offsets); grown on demand so the per-event path never hashes.
    hists: Vec<u64>,
    map: FxHashMap<(u32, u64), A>,
    tie: XorShift64,
}

impl<A: Automaton> IdealPer<A> {
    /// Creates an ideal PER predictor with `depth` steps of per-task
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 32`.
    pub fn new(depth: u32) -> IdealPer<A> {
        assert!(depth <= 32);
        IdealPer {
            depth,
            hists: Vec::new(),
            map: FxHashMap::default(),
            tie: XorShift64::default(),
        }
    }

    /// Number of distinct (task, history) states seen.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn key(&self, task: &TaskDesc) -> (u32, u64) {
        let h = self
            .hists
            .get(task.entry().0 as usize)
            .copied()
            .unwrap_or(0);
        (task.entry().0, h & mask64(2 * self.depth))
    }
}

impl<A: Automaton> ExitPredictor for IdealPer<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let key = self.key(task);
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let key = self.key(task);
        self.map.entry(key).or_default().update(actual);
        let i = task.entry().0 as usize;
        if i >= self.hists.len() {
            self.hists.resize(i + 1, 0);
        }
        self.hists[i] = (self.hists[i] << 2) | actual.as_u8() as u64;
    }

    fn states_touched(&self) -> usize {
        self.states()
    }
}

/// Ideal PATH: automaton per (task address, exact sequence of the last
/// `depth` task addresses) — unique path identification, no folding, no
/// aliasing. The hash-map oracle of [`PathInterner`]'s walk.
#[derive(Debug, Clone)]
pub struct IdealPath<A: Automaton> {
    path: PathRegister,
    map: FxHashMap<(u32, PathKey), A>,
    tie: XorShift64,
    mode: SingleExitMode,
}

impl<A: Automaton> IdealPath<A> {
    /// Creates an ideal PATH predictor of the given depth, with the paper's
    /// single-exit optimisation enabled.
    pub fn new(depth: u32) -> IdealPath<A> {
        Self::with_mode(depth, SingleExitMode::default())
    }

    /// Creates an ideal PATH predictor with an explicit single-exit policy.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds [`MAX_PATH_KEY_DEPTH`] (the paper's sweeps
    /// stop at 8).
    pub fn with_mode(depth: u32, mode: SingleExitMode) -> IdealPath<A> {
        assert!(
            depth as usize <= MAX_PATH_KEY_DEPTH,
            "ideal PATH depth {depth} too deep"
        );
        IdealPath {
            path: PathRegister::new(depth as usize),
            map: FxHashMap::default(),
            tie: XorShift64::default(),
            mode,
        }
    }

    /// Number of distinct (task, path) states seen — the "ideal
    /// implementation" curve of the paper's Figure 11.
    pub fn states(&self) -> usize {
        self.map.len()
    }

    fn skip(&self, task: &TaskDesc) -> bool {
        self.mode != SingleExitMode::Off && task.single_exit()
    }
}

impl<A: Automaton> ExitPredictor for IdealPath<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if self.skip(task) {
            return EXIT0;
        }
        let key = (task.entry().0, self.path.key());
        match self.map.get(&key) {
            Some(a) => a.predict(&mut self.tie),
            None => A::default().predict(&mut self.tie),
        }
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        if self.skip(task) {
            self.path.push(task.entry());
            return;
        }
        let key = (task.entry().0, self.path.key());
        self.map.entry(key).or_default().update(actual);
        self.path.push(task.entry());
    }

    fn states_touched(&self) -> usize {
        self.states()
    }
}

/// The history element older than the first task of a path: no task
/// index equals it, so a short path never matches a full one.
const ABSENT: u32 = u32::MAX;

/// An unassigned child in an [`ExitInterner`] trie.
const UNSET: u32 = u32::MAX;

/// The distinct task indices interned at depth 0.
#[derive(Debug, Clone, Default)]
struct TaskSet {
    seen: Vec<bool>,
    len: usize,
}

impl TaskSet {
    #[inline]
    fn insert(&mut self, task: u32) {
        let i = task as usize;
        if i >= self.seen.len() {
            self.seen.resize(i + 1, false);
        }
        if !self.seen[i] {
            self.seen[i] = true;
            self.len += 1;
        }
    }
}

/// Dense ids for ideal (task, path) states, the key of [`IdealPath`] and
/// of the ideal CTTB.
///
/// The path holds task indices, newest first, and an absent marker that no
/// task index equals where fewer tasks have been pushed than a depth
/// reads (the oracle's register starts empty). A task's index and its entry
/// address name the same task in a validated partition (each task owns
/// its entry), so these ids separate exactly the states the hash-map
/// oracles' entry-address keys do.
#[derive(Debug, Clone)]
pub struct PathInterner {
    /// `recent[i]` is the (i+1)-th older task.
    recent: [u32; MAX_PATH_KEY_DEPTH],
    /// `levels[d]` maps (id at depth d, `recent[d]`) to the id at depth
    /// d+1.
    levels: Vec<FxHashMap<u64, u32>>,
    tasks: TaskSet,
}

impl PathInterner {
    /// Creates an interner for depths `0..=max_depth` with an empty path.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` exceeds [`MAX_PATH_KEY_DEPTH`] (the paper's
    /// sweeps stop at 8).
    pub fn new(max_depth: usize) -> PathInterner {
        assert!(
            max_depth <= MAX_PATH_KEY_DEPTH,
            "ideal path depth {max_depth} too deep"
        );
        PathInterner {
            recent: [ABSENT; MAX_PATH_KEY_DEPTH],
            levels: vec![FxHashMap::default(); max_depth],
            tasks: TaskSet::default(),
        }
    }

    /// Writes the ids of `task`'s state under the current path at depths
    /// `0..=max_depth` into `ids[..=max_depth]`.
    #[inline]
    pub fn intern(&mut self, task: u32, ids: &mut [u32]) {
        self.tasks.insert(task);
        ids[0] = task;
        for (d, level) in self.levels.iter_mut().enumerate() {
            let key = (u64::from(ids[d]) << 32) | u64::from(self.recent[d]);
            let next = level.len() as u32;
            ids[d + 1] = *level.entry(key).or_insert(next);
        }
    }

    /// Advances the path: `task` becomes the most recent task.
    #[inline]
    pub fn push(&mut self, task: u32) {
        self.recent.copy_within(..MAX_PATH_KEY_DEPTH - 1, 1);
        self.recent[0] = task;
    }

    /// The number of distinct states interned at each depth
    /// `0..=max_depth`.
    pub fn states(&self) -> Vec<usize> {
        std::iter::once(self.tasks.len)
            .chain(self.levels.iter().map(|l| l.len()))
            .collect()
    }
}

/// Dense ids for ideal (task, exit history) states, the key of
/// [`IdealGlobal`] and [`IdealPer`]: a 4-ary trie per depth over 2-bit
/// exit numbers, so interning hashes nothing.
///
/// The history is a register of exit numbers, newest in the low 2 bits.
/// Registers start at 0, so an exit older than the first is exit 0, as in
/// the oracles.
#[derive(Debug, Clone)]
pub struct ExitInterner {
    /// `levels[d][id at depth d][exit]` is the id at depth d+1 ([`UNSET`]
    /// until first seen).
    levels: Vec<Vec<[u32; 4]>>,
    /// Ids handed out at each depth `1..=max_depth`.
    counts: Vec<u32>,
    tasks: TaskSet,
}

impl ExitInterner {
    /// The deepest history a `u64` register holds (2 bits per exit).
    pub const MAX_DEPTH: usize = 32;

    /// Creates an interner for depths `0..=max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` exceeds [`ExitInterner::MAX_DEPTH`], the bound
    /// of [`IdealGlobal`] and [`IdealPer`].
    pub fn new(max_depth: usize) -> ExitInterner {
        assert!(
            max_depth <= Self::MAX_DEPTH,
            "ideal exit-history depth {max_depth} too deep"
        );
        ExitInterner {
            levels: vec![Vec::new(); max_depth],
            counts: vec![0; max_depth],
            tasks: TaskSet::default(),
        }
    }

    /// Writes the ids of `task`'s state under exit history `hist` at depths
    /// `0..=max_depth` into `ids[..=max_depth]`.
    #[inline]
    pub fn intern(&mut self, task: u32, hist: u64, ids: &mut [u32]) {
        self.tasks.insert(task);
        ids[0] = task;
        let max = self.levels.len();
        if max == 0 {
            return;
        }
        if task as usize >= self.levels[0].len() {
            self.levels[0].resize(task as usize + 1, [UNSET; 4]);
        }
        for d in 0..max {
            let exit = ((hist >> (2 * d)) & 3) as usize;
            let slot = &mut self.levels[d][ids[d] as usize][exit];
            let fresh = *slot == UNSET;
            if fresh {
                *slot = self.counts[d];
                self.counts[d] += 1;
            }
            ids[d + 1] = *slot;
            if fresh && d + 1 < max {
                self.levels[d + 1].push([UNSET; 4]);
            }
        }
    }

    /// The number of distinct states interned at each depth
    /// `0..=max_depth`.
    pub fn states(&self) -> Vec<usize> {
        std::iter::once(self.tasks.len)
            .chain(self.counts.iter().map(|&c| c as usize))
            .collect()
    }
}

/// One ideal column: an automaton per state id at its depth, and its own
/// tie generator drawn in the oracle's order.
#[derive(Debug, Clone)]
struct IdealColumn<A> {
    depth: usize,
    table: Vec<A>,
    tie: XorShift64,
    misses: u64,
}

/// Ideal exit columns of one automaton family over interned state ids,
/// one column per depth. An unseen id predicts from `A::default()`, and
/// each column owns an `XorShift64::default()` tie generator, so every
/// column predicts exactly what the hash-map oracle of its depth does (VC
/// RANDOM included).
#[derive(Debug, Clone)]
pub struct IdealColumns<A> {
    columns: Vec<IdealColumn<A>>,
}

impl<A: Automaton> IdealColumns<A> {
    /// One column per entry of `depths`, in order.
    pub fn new(depths: &[usize]) -> IdealColumns<A> {
        IdealColumns {
            columns: depths
                .iter()
                .map(|&depth| IdealColumn {
                    depth,
                    table: Vec::new(),
                    tie: XorShift64::default(),
                    misses: 0,
                })
                .collect(),
        }
    }
}

/// A family of ideal exit columns as a walk steps it. Object safe, so one
/// walk steps families of different automata on each event's ids (Figure
/// 6).
pub trait IdealExitColumns {
    /// The deepest column's depth (0 for no columns).
    fn max_depth(&self) -> usize;

    /// Each column predicts from the state id at its depth in `ids`,
    /// counts a miss when that is not `actual`, then trains the state.
    fn step(&mut self, ids: &[u32], actual: ExitIndex);

    /// Misses counted by [`step`](Self::step), per column.
    fn misses(&self) -> Vec<u64>;
}

impl<A: Automaton> IdealExitColumns for IdealColumns<A> {
    fn max_depth(&self) -> usize {
        self.columns.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    #[inline]
    fn step(&mut self, ids: &[u32], actual: ExitIndex) {
        for c in &mut self.columns {
            let id = ids[c.depth] as usize;
            if id >= c.table.len() {
                c.table.resize(id + 1, A::default());
            }
            let a = &mut c.table[id];
            c.misses += u64::from(a.predict(&mut c.tie) != actual);
            a.update(actual);
        }
    }

    fn misses(&self) -> Vec<u64> {
        self.columns.iter().map(|c| c.misses).collect()
    }
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

    /// Predecessor-correlated pattern (same as history.rs tests): a random
    /// predecessor (P1 or P2, both taking their own exit 0) determines the
    /// exit of the following task T. Only PATH can identify the
    /// predecessor; exit histories are indistinguishable.
    fn run_correlated<P: ExitPredictor>(p: &mut P) -> usize {
        let t = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(77);
        let mut misses = 0;
        for i in 0..140 {
            let (pred_task, actual) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            let _ = p.predict(pred_task);
            p.update(pred_task, e(0));
            let got = p.predict(&t);
            if i >= 40 && got != actual {
                misses += 1;
            }
            p.update(&t, actual);
        }
        misses
    }

    #[test]
    fn ideal_path_separates_predecessors_ideal_global_cannot() {
        let mut path: IdealPath<Leh2> = IdealPath::new(2);
        assert_eq!(run_correlated(&mut path), 0);

        let mut global: IdealGlobal<Leh2> = IdealGlobal::new(2);
        assert!(
            run_correlated(&mut global) >= 25,
            "GLOBAL sees identical exit histories for both predecessors"
        );

        let mut per: IdealPer<Leh2> = IdealPer::new(2);
        // PER sees only T's own (random) exit stream, so it also fails.
        assert!(run_correlated(&mut per) >= 25);
    }

    #[test]
    fn depth_zero_schemes_coincide() {
        // At depth 0 all three ideal schemes are "one automaton per static
        // task" and must produce identical predictions on any stream.
        let mut g: IdealGlobal<Leh2> = IdealGlobal::new(0);
        let mut p: IdealPer<Leh2> = IdealPer::new(0);
        let mut t: IdealPath<Leh2> = IdealPath::with_mode(0, SingleExitMode::Off);
        let mut rng = XorShift64::new(11);
        for _ in 0..500 {
            let entry = 0x40 + (rng.next_below(8) * 0x10);
            let td = task(entry, 3);
            let actual = e(rng.next_below(3) as u8);
            let pg = g.predict(&td);
            let pp = p.predict(&td);
            let pt = t.predict(&td);
            assert_eq!(pg, pp);
            assert_eq!(pp, pt);
            g.update(&td, actual);
            p.update(&td, actual);
            t.update(&td, actual);
        }
    }

    #[test]
    fn ideal_path_state_count_grows_with_distinct_paths() {
        let mut p: IdealPath<Leh2> = IdealPath::new(3);
        let mut rng = XorShift64::new(5);
        for _ in 0..300 {
            let td = task(0x10 * (1 + rng.next_below(16)), 2);
            let _ = p.predict(&td);
            p.update(&td, e(rng.next_below(2) as u8));
        }
        let s = p.states();
        assert!(s > 16, "distinct paths should multiply states: {s}");
        assert_eq!(p.states_touched(), s);
    }

    #[test]
    fn unseen_state_predicts_default() {
        let mut p: IdealPath<Leh2> = IdealPath::new(4);
        let td = task(0xAA0, 2);
        assert_eq!(
            p.predict(&td),
            e(0),
            "cold prediction is the automaton default"
        );
    }

    /// One task alternating exits 0, 1, 0, ...: its last 32 exits tell
    /// the next one.
    fn alternating(i: usize) -> ExitIndex {
        e((i % 2) as u8)
    }

    #[test]
    fn ideal_global_and_per_learn_depth_32_histories() {
        // A 2 * 32-bit shift once built the history mask, which panics in
        // debug builds and masks the whole history away in release.
        let t = task(0x40, 2);
        let mut global: IdealGlobal<Leh2> = IdealGlobal::new(32);
        let mut per: IdealPer<Leh2> = IdealPer::new(32);
        let mut late_misses = [0; 2];
        for i in 0..200 {
            let actual = alternating(i);
            for (m, p) in late_misses
                .iter_mut()
                .zip([&mut global as &mut dyn ExitPredictor, &mut per])
            {
                *m += usize::from(p.predict(&t) != actual && i >= 100);
                p.update(&t, actual);
            }
        }
        assert_eq!(late_misses, [0, 0]);
    }

    #[test]
    fn interned_columns_learn_depth_32_histories() {
        let mut columns = IdealColumns::<Leh2>::new(&[32]);
        let mut interner = ExitInterner::new(32);
        let (mut ids, mut hist) = ([0u32; ExitInterner::MAX_DEPTH + 1], 0u64);
        let mut warm = 0;
        for i in 0..200 {
            if i == 100 {
                warm = columns.misses()[0];
            }
            interner.intern(0, hist, &mut ids);
            columns.step(&ids, alternating(i));
            hist = (hist << 2) | u64::from(alternating(i).as_u8());
        }
        assert_eq!(columns.misses()[0], warm, "no miss after warm-up");
        // Events 0 and 1 share the all-zero history (a missing exit is
        // exit 0), events 2..=33 each bring a new one, and from then on
        // the period repeats.
        assert_eq!(interner.states()[32], 33);
    }

    #[test]
    #[should_panic(expected = "too deep")]
    fn exit_interner_shares_the_oracles_depth_bound() {
        let _ = ExitInterner::new(33);
    }

    #[test]
    fn interned_ids_are_dense_and_separate_histories() {
        // PATH: a short path (absent older tasks) never matches a full one,
        // and equal paths get equal ids.
        let mut paths = PathInterner::new(2);
        let mut ids = [0u32; 3];
        paths.intern(7, &mut ids);
        assert_eq!(ids, [7, 0, 0]);
        paths.push(0);
        paths.intern(7, &mut ids);
        assert_eq!(ids, [7, 1, 1], "task 0 is not the absent marker");
        paths.push(0);
        paths.intern(7, &mut ids);
        assert_eq!(ids, [7, 1, 2]);
        paths.push(7);
        paths.push(0);
        paths.intern(7, &mut ids);
        assert_eq!(ids, [7, 1, 3]);
        assert_eq!(paths.states(), vec![1, 2, 4]);

        // GLOBAL/PER: history 0 is exit 0 at every depth, ids count up per
        // depth, and a new task starts fresh chains.
        let mut exits = ExitInterner::new(2);
        exits.intern(3, 0b00, &mut ids);
        assert_eq!(ids, [3, 0, 0]);
        exits.intern(3, 0b01, &mut ids);
        assert_eq!(ids, [3, 1, 1]);
        exits.intern(3, 0b0100, &mut ids);
        assert_eq!(ids, [3, 0, 2]);
        exits.intern(5, 0b00, &mut ids);
        assert_eq!(ids, [5, 2, 3]);
        assert_eq!(exits.states(), vec![2, 3, 4]);
    }

    #[test]
    fn single_exit_tasks_skip_state_creation() {
        let mut p: IdealPath<Leh2> = IdealPath::new(2);
        let td = task(0x50, 1);
        for _ in 0..5 {
            let _ = p.predict(&td);
            p.update(&td, e(0));
        }
        assert_eq!(p.states(), 0);
    }
}
