//! Target-address prediction (paper §5.3, §6.4): return-address stack,
//! task target buffer (TTB) and correlated task target buffer (CTTB).
//!
//! After the exit predictor picks an exit, the *address* of the next task
//! must be produced: header fields cover branches and calls, a
//! [`ReturnAddressStack`] covers returns, and indirect branches/calls need
//! a target buffer. The paper shows a plain address-indexed [`Ttb`] does
//! very poorly (59% misses on gcc) while a path-indexed [`Cttb`] —
//! sharing the exit predictor's DOLC index construction — does far better.

use crate::dolc::{Dolc, DolcPath, PathKey, PathRegister, MAX_PATH_KEY_DEPTH};
use crate::fxhash::FxHashMap;
use crate::predictor::PendingIndex;
use multiscalar_isa::Addr;
use std::collections::VecDeque;

/// A bounded return-address stack (RAS).
///
/// Pushed by call exits, popped by return exits; "a reasonably deep RAS is
/// nearly perfect in predicting return addresses" (paper §4.2). When full,
/// the oldest entry is discarded (deep recursion wraps, as in hardware).
///
/// ```
/// use multiscalar_core::target::ReturnAddressStack;
/// use multiscalar_isa::Addr;
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(Addr(10));
/// ras.push(Addr(20));
/// assert_eq!(ras.peek(), Some(Addr(20)));
/// assert_eq!(ras.pop(), Some(Addr(20)));
/// assert_eq!(ras.pop(), Some(Addr(10)));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReturnAddressStack {
    stack: VecDeque<Addr>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a stack holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        ReturnAddressStack {
            stack: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Pushes a return address; discards the oldest entry when full.
    pub fn push(&mut self, addr: Addr) {
        if self.capacity == 0 {
            return;
        }
        if self.stack.len() == self.capacity {
            self.stack.pop_front();
        }
        self.stack.push_back(addr);
    }

    /// Pops the most recent return address.
    pub fn pop(&mut self) -> Option<Addr> {
        self.stack.pop_back()
    }

    /// The most recent return address without popping.
    pub fn peek(&self) -> Option<Addr> {
        self.stack.back().copied()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// `true` if no addresses are stacked.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One target-buffer entry: a target address plus a 2-bit hysteresis
/// counter ("similar to the exit prediction automata", paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct TargetEntry {
    target: u32,
    confidence: u8,
    valid: bool,
}

impl TargetEntry {
    const MAX_CONF: u8 = 3;

    fn predict(&self) -> Option<Addr> {
        self.valid.then_some(Addr(self.target))
    }

    fn train(&mut self, actual: Addr) {
        if self.valid && self.target == actual.0 {
            self.confidence = (self.confidence + 1).min(Self::MAX_CONF);
        } else if !self.valid || self.confidence == 0 {
            *self = TargetEntry {
                target: actual.0,
                confidence: 0,
                valid: true,
            };
        } else {
            self.confidence -= 1;
        }
    }
}

/// A plain task target buffer: a direct-mapped table indexed by low bits of
/// the task's starting address. The paper's baseline, shown to mispredict
/// ~59% of gcc's indirect targets even at infinite size.
#[derive(Debug, Clone)]
pub struct Ttb {
    entries: Vec<TargetEntry>,
    index_bits: u32,
}

impl Ttb {
    /// Creates a TTB with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 28.
    pub fn new(index_bits: u32) -> Ttb {
        assert!((1..=28).contains(&index_bits));
        Ttb {
            entries: vec![TargetEntry::default(); 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, task: Addr) -> usize {
        (task.0 & ((1 << self.index_bits) - 1)) as usize
    }

    /// Predicts the target for an indirect exit of the task at `task`.
    pub fn predict(&self, task: Addr) -> Option<Addr> {
        self.entries[self.index(task)].predict()
    }

    /// Trains with the actual target.
    pub fn update(&mut self, task: Addr, actual: Addr) {
        let i = self.index(task);
        self.entries[i].train(actual);
    }

    /// Storage accounted as in the paper: 4 bytes per entry.
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() * 4
    }
}

/// The correlated task target buffer (CTTB): a target buffer indexed by the
/// same path-based DOLC function as the exit predictor, so different paths
/// to the same indirect jump can predict different targets.
///
/// The buffer owns its [`DolcPath`]: [`Cttb::push`] advances it by every
/// task, while [`Cttb::predict`] and [`Cttb::update`] run only on the
/// tasks whose exit needs a target buffer. An `update` reuses the index
/// the `predict` of the same task computed.
#[derive(Debug, Clone)]
pub struct Cttb {
    path: DolcPath,
    entries: Vec<TargetEntry>,
    pending: PendingIndex,
}

impl Cttb {
    /// Creates a CTTB with the given index configuration.
    pub fn new(dolc: Dolc) -> Cttb {
        Cttb {
            path: DolcPath::new(dolc),
            entries: vec![TargetEntry::default(); dolc.table_entries()],
            pending: PendingIndex::default(),
        }
    }

    /// Predicts the target reached from `current` along the path.
    pub fn predict(&mut self, current: Addr) -> Option<Addr> {
        let i = self
            .pending
            .get(current)
            .unwrap_or_else(|| self.path.index(current));
        self.pending.keep(current, i);
        self.entries[i].predict()
    }

    /// Trains with the actual target.
    pub fn update(&mut self, current: Addr, actual: Addr) {
        let i = self
            .pending
            .take(current)
            .unwrap_or_else(|| self.path.index(current));
        self.entries[i].train(actual);
    }

    /// Advances the path by the task at `addr`.
    pub fn push(&mut self, addr: Addr) {
        self.path.push(addr);
        self.pending.clear();
    }

    /// Storage accounted as in the paper: 4 bytes per entry.
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() * 4
    }
}

/// An ideal (alias-free, infinite) CTTB: one entry per distinct
/// (task, exact path) state — the paper's Figure 8 model, keyed by hash
/// map over the exact path it keeps. The oracle that
/// [`IdealTargetColumns`] is tested against.
#[derive(Debug, Clone, Default)]
pub struct IdealCttb {
    path: PathRegister,
    map: FxHashMap<(u32, PathKey), TargetEntry>,
}

impl IdealCttb {
    /// Creates an ideal CTTB keyed on paths of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds [`MAX_PATH_KEY_DEPTH`] (the paper's sweeps
    /// stop at 8).
    pub fn new(depth: usize) -> IdealCttb {
        assert!(
            depth <= MAX_PATH_KEY_DEPTH,
            "ideal CTTB depth {depth} too deep"
        );
        IdealCttb {
            path: PathRegister::new(depth),
            map: FxHashMap::default(),
        }
    }

    /// Predicts the target reached from `current` along the path.
    pub fn predict(&self, current: Addr) -> Option<Addr> {
        self.map
            .get(&(current.0, self.path.key()))
            .and_then(|e| e.predict())
    }

    /// Trains with the actual target.
    pub fn update(&mut self, current: Addr, actual: Addr) {
        self.map
            .entry((current.0, self.path.key()))
            .or_default()
            .train(actual);
    }

    /// Advances the path by the task at `addr`.
    pub fn push(&mut self, addr: Addr) {
        self.path.push(addr);
    }

    /// Number of distinct (task, path) states seen.
    pub fn states(&self) -> usize {
        self.map.len()
    }
}

/// Ideal CTTB columns over interned (task, path) state ids (a
/// [`PathInterner`](crate::ideal::PathInterner) fed on indirect exits
/// only), one column per depth: each keeps one target entry per id at its
/// depth, and an unseen id predicts nothing, as in [`IdealCttb`].
#[derive(Debug, Clone)]
pub struct IdealTargetColumns {
    depths: Vec<usize>,
    tables: Vec<Vec<TargetEntry>>,
    misses: Vec<u64>,
}

impl IdealTargetColumns {
    /// One column per entry of `depths`, in order.
    pub fn new(depths: &[usize]) -> IdealTargetColumns {
        IdealTargetColumns {
            depths: depths.to_vec(),
            tables: vec![Vec::new(); depths.len()],
            misses: vec![0; depths.len()],
        }
    }

    /// The deepest column's depth (0 for no columns).
    pub fn max_depth(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Each column predicts from the state id at its depth in `ids`,
    /// counts a miss when that is not `actual`, then trains the state.
    #[inline]
    pub fn step(&mut self, ids: &[u32], actual: Addr) {
        for ((&depth, table), misses) in self
            .depths
            .iter()
            .zip(&mut self.tables)
            .zip(&mut self.misses)
        {
            let id = ids[depth] as usize;
            if id >= table.len() {
                table.resize(id + 1, TargetEntry::default());
            }
            *misses += u64::from(table[id].predict() != Some(actual));
            table[id].train(actual);
        }
    }

    /// Misses counted by [`step`](Self::step), per column.
    pub fn misses(&self) -> &[u64] {
        &self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    #[test]
    fn ras_is_lifo() {
        let mut ras = ReturnAddressStack::new(8);
        for a in 1..=5u32 {
            ras.push(Addr(a));
        }
        for a in (1..=5u32).rev() {
            assert_eq!(ras.pop(), Some(Addr(a)));
        }
        assert!(ras.is_empty());
    }

    #[test]
    fn ras_overflow_discards_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(Addr(1));
        ras.push(Addr(2));
        ras.push(Addr(3)); // evicts 1
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(Addr(3)));
        assert_eq!(ras.pop(), Some(Addr(2)));
        assert_eq!(ras.pop(), None, "Addr(1) was lost to overflow");
    }

    #[test]
    fn ras_zero_capacity_is_inert() {
        let mut ras = ReturnAddressStack::new(0);
        ras.push(Addr(9));
        assert!(ras.is_empty());
        assert_eq!(ras.peek(), None);
        assert_eq!(ras.capacity(), 0);
    }

    #[test]
    fn target_entry_hysteresis() {
        let mut e = TargetEntry::default();
        assert_eq!(e.predict(), None, "invalid entries predict nothing");
        e.train(Addr(100));
        assert_eq!(e.predict(), Some(Addr(100)));
        e.train(Addr(100));
        e.train(Addr(100)); // confidence 2
        e.train(Addr(200)); // wrong: confidence 1, keep 100
        assert_eq!(e.predict(), Some(Addr(100)));
        e.train(Addr(200)); // confidence 0, keep
        assert_eq!(e.predict(), Some(Addr(100)));
        e.train(Addr(200)); // replace
        assert_eq!(e.predict(), Some(Addr(200)));
    }

    #[test]
    fn ttb_cannot_separate_paths() {
        // Two different execution paths reach the same task but lead to
        // different targets: a TTB thrashes, a CTTB separates them.
        let mut ttb = Ttb::new(8);
        let dolc = Dolc::new(2, 6, 8, 8, 1);
        let mut cttb = Cttb::new(dolc);

        // Path addresses must differ in their *low-order* bits — the bits
        // DOLC harvests (paper §6.1, heuristic 1). Two pushes refill the
        // depth-2 path.
        let task = Addr(0x40);
        let path_a = [Addr(0x10), Addr(0x14)];
        let path_b = [Addr(0x21), Addr(0x25)];

        let mut ttb_misses = 0;
        let mut cttb_misses = 0;
        for i in 0..100 {
            let (path, target) = if i % 2 == 0 {
                (path_a, Addr(0xA0))
            } else {
                (path_b, Addr(0xB0))
            };
            for a in path {
                cttb.push(a);
            }
            if ttb.predict(task) != Some(target) {
                ttb_misses += 1;
            }
            if cttb.predict(task) != Some(target) && i >= 4 {
                cttb_misses += 1;
            }
            ttb.update(task, target);
            cttb.update(task, target);
        }
        assert_eq!(cttb_misses, 0, "CTTB separates the two paths");
        assert!(
            ttb_misses >= 50,
            "TTB thrashes between targets: {ttb_misses}"
        );
    }

    #[test]
    fn ideal_cttb_never_aliases() {
        let mut ideal = IdealCttb::new(2);
        // Many distinct paths to the same task, each with its own target;
        // two pushes refill the depth-2 path.
        for i in 0..64u32 {
            ideal.push(Addr(i * 8));
            ideal.push(Addr(i * 8 + 4));
            ideal.update(Addr(0x40), Addr(1000 + i));
        }
        assert_eq!(ideal.states(), 64);
        for i in 0..64u32 {
            ideal.push(Addr(i * 8));
            ideal.push(Addr(i * 8 + 4));
            assert_eq!(ideal.predict(Addr(0x40)), Some(Addr(1000 + i)));
        }
    }

    #[test]
    fn storage_accounting_matches_paper() {
        // Figure 12's implementations: 11 index bits * 4 bytes = 8 KB.
        let c = Cttb::new(Dolc::new(5, 5, 6, 7, 3));
        assert_eq!(Dolc::new(5, 5, 6, 7, 3).index_bits(), 11);
        assert_eq!(c.storage_bytes(), 8 * 1024);
        assert_eq!(Ttb::new(11).storage_bytes(), 8 * 1024);
    }

    #[test]
    fn cold_buffers_predict_nothing() {
        let mut c = Cttb::new(Dolc::new(1, 0, 4, 4, 1));
        assert_eq!(c.predict(Addr(3)), None);
        let i = IdealCttb::new(1);
        assert_eq!(i.predict(Addr(3)), None);
    }

    #[test]
    fn cttb_bare_update_trains_the_predicted_entry() {
        // `cached` predicts before most updates — the same task, another
        // task, another and then the same, or the same task with no update
        // before the push (a predicted indirect exit that resolved
        // otherwise); `bare` only updates. Both must train the same
        // entries.
        let dolc = Dolc::new(3, 4, 5, 6, 2);
        let (mut cached, mut bare) = (Cttb::new(dolc), Cttb::new(dolc));
        let mut rng = XorShift64::new(0xC77B);
        for _ in 0..4000 {
            let task = Addr(rng.next_below(32) * 4);
            let target = Addr(0x1000 + rng.next_below(4));
            let train = match rng.next_below(5) {
                0 => true,
                1 => {
                    cached.predict(task);
                    true
                }
                2 => {
                    cached.predict(Addr(task.0 ^ 4));
                    true
                }
                3 => {
                    cached.predict(Addr(task.0 ^ 4));
                    cached.predict(task);
                    true
                }
                _ => {
                    cached.predict(task);
                    false
                }
            };
            if train {
                cached.update(task, target);
                bare.update(task, target);
            }
            cached.push(task);
            bare.push(task);
        }
        assert!(cached.entries.iter().filter(|e| e.valid).count() > 100);
        assert_eq!(cached.entries, bare.entries);
    }
}
