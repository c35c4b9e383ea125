//! DOLC index construction for path-based predictors (paper §6).
//!
//! A realizable path predictor cannot index its table with full task
//! addresses, so the paper builds an *intermediate index* from a few bits of
//! each task address along the path, then *folds* it down with XOR:
//!
//! * **D** — depth: how many preceding tasks represent the path,
//! * **O** — bits taken from each *older* task (current−2 … current−D),
//! * **L** — bits taken from the *last* task (current−1),
//! * **C** — bits taken from the *current* task,
//! * **F** — number of equal sub-fields XORed together to form the final
//!   index.
//!
//! Notation `D-O-L-C (F)`; e.g. `6-5-8-9 (3)` has a 42-bit intermediate
//! index folded into 14 bits → a 16K-entry table, exactly the example in
//! the paper.
//!
//! Two heuristics drive the design (both reproduced here and ablated in the
//! benches): low-order address bits carry the most information, and more
//! recent tasks deserve more bits than older ones.
//!
//! Every realizable predictor keeps its path as a [`DolcPath`]: the bits
//! its configuration reads, held as a shift register the way the hardware
//! holds them, so pushing a task is one shift and an index is a few masked
//! shifts and the fold. [`Dolc::index`] over a [`PathRegister`] of exact
//! addresses is the reference it is tested against; the ideal (alias-free)
//! predictors keep exact paths in [`PathRegister`]s.

use multiscalar_isa::Addr;
use std::collections::VecDeque;
use std::fmt;

/// A shift register of the most recent task addresses, oldest first.
///
/// The exact path: the ideal (alias-free) predictors key on it, and
/// [`Dolc::index`] over it is the reference for [`DolcPath`]. Pushing the
/// current task's entry address advances the path by one step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathRegister {
    addrs: VecDeque<u32>,
    capacity: usize,
}

impl PathRegister {
    /// Creates a register holding up to `depth` addresses.
    pub fn new(depth: usize) -> PathRegister {
        PathRegister {
            addrs: VecDeque::with_capacity(depth + 1),
            capacity: depth,
        }
    }

    /// Shifts in the newest task address, discarding the oldest when full.
    pub fn push(&mut self, addr: Addr) {
        if self.capacity == 0 {
            return;
        }
        if self.addrs.len() == self.capacity {
            self.addrs.pop_front();
        }
        self.addrs.push_back(addr.0);
    }

    /// The `i`-th most recent address (0 = last task), if present.
    pub fn recent(&self, i: usize) -> Option<Addr> {
        let n = self.addrs.len();
        (i < n).then(|| Addr(self.addrs[n - 1 - i]))
    }

    /// The exact path as a fixed-size `Copy` key (oldest→newest) — the key
    /// used by ideal, alias-free predictors. Building one never touches the
    /// heap, so it can sit on the per-event hot path.
    ///
    /// # Panics
    ///
    /// Panics when the register holds more than [`MAX_PATH_KEY_DEPTH`]
    /// addresses.
    pub fn key(&self) -> PathKey {
        let n = self.addrs.len();
        assert!(
            n <= MAX_PATH_KEY_DEPTH,
            "path too deep for a fixed key: {n}"
        );
        let mut addrs = [0u32; MAX_PATH_KEY_DEPTH];
        for (slot, &a) in addrs.iter_mut().zip(self.addrs.iter()) {
            *slot = a;
        }
        PathKey {
            len: n as u8,
            addrs,
        }
    }
}

/// Deepest path an allocation-free [`PathKey`] can hold. The paper's ideal
/// sweeps stop at depth 8, so every ideal predictor fits.
pub const MAX_PATH_KEY_DEPTH: usize = 8;

/// A fixed-size, `Copy` image of a [`PathRegister`]'s exact contents
/// (oldest→newest, `len` valid entries). Two keys compare equal exactly when
/// the underlying paths are identical, so ideal predictors stay alias-free
/// while their per-event key construction stays off the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathKey {
    len: u8,
    addrs: [u32; MAX_PATH_KEY_DEPTH],
}

/// A `D-O-L-C (F)` index configuration.
///
/// See the [module docs](self) for the meaning of the five parameters.
///
/// ```
/// use multiscalar_core::dolc::Dolc;
/// let d = Dolc::new(6, 5, 8, 9, 3); // the paper's example
/// assert_eq!(d.intermediate_bits(), 42);
/// assert_eq!(d.index_bits(), 14);
/// assert_eq!(d.table_entries(), 1 << 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dolc {
    depth: u8,
    older_bits: u8,
    last_bits: u8,
    current_bits: u8,
    folds: u8,
}

/// Widest intermediate index a configuration may build: a [`DolcPath`]
/// holds it in one `u128`.
pub const MAX_INTERMEDIATE_BITS: u32 = 128;

/// Widest folded index a configuration may build (a 2^28-entry table).
pub const MAX_INDEX_BITS: u32 = 28;

impl Dolc {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics where [`Dolc::try_new`] returns an error.
    pub fn new(depth: u8, older_bits: u8, last_bits: u8, current_bits: u8, folds: u8) -> Dolc {
        Dolc::try_new(depth, older_bits, last_bits, current_bits, folds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a configuration, or says why it is not realizable.
    ///
    /// # Errors
    ///
    /// Returns a description when `folds == 0`, a bit count exceeds 32,
    /// the configuration selects zero index bits, the intermediate index
    /// exceeds [`MAX_INTERMEDIATE_BITS`] or the folded index exceeds
    /// [`MAX_INDEX_BITS`].
    pub fn try_new(
        depth: u8,
        older_bits: u8,
        last_bits: u8,
        current_bits: u8,
        folds: u8,
    ) -> Result<Dolc, String> {
        let d = Dolc {
            depth,
            older_bits,
            last_bits,
            current_bits,
            folds,
        };
        if folds == 0 {
            return Err(format!("`{d}`: folds must be at least 1"));
        }
        if older_bits > 32 || last_bits > 32 || current_bits > 32 {
            return Err(format!("`{d}`: a task contributes at most 32 bits"));
        }
        let inter = d.intermediate_bits();
        if inter == 0 {
            return Err(format!("`{d}`: index would be empty"));
        }
        if inter > MAX_INTERMEDIATE_BITS {
            return Err(format!(
                "`{d}`: intermediate index of {inter} bits exceeds {MAX_INTERMEDIATE_BITS}"
            ));
        }
        if d.index_bits() > MAX_INDEX_BITS {
            return Err(format!("`{d}`: table would be unreasonably large"));
        }
        Ok(d)
    }

    /// Parses the paper's `"D-O-L-C (F)"` notation, e.g. `"6-5-8-9 (3)"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component, or of why a
    /// well-formed configuration is not realizable ([`Dolc::try_new`]).
    pub fn parse(s: &str) -> Result<Dolc, String> {
        let s = s.trim();
        let (dolc_part, fold_part) = match s.find('(') {
            Some(i) => {
                let f = s[i + 1..]
                    .trim_end_matches(')')
                    .trim()
                    .parse::<u8>()
                    .map_err(|e| format!("bad fold count: {e}"))?;
                (&s[..i], f)
            }
            None => (s, 1),
        };
        let parts: Vec<&str> = dolc_part.trim().split('-').collect();
        if parts.len() != 4 {
            return Err(format!("expected D-O-L-C, got `{dolc_part}`"));
        }
        let nums: Result<Vec<u8>, _> = parts.iter().map(|p| p.trim().parse::<u8>()).collect();
        let nums = nums.map_err(|e| format!("bad number in `{dolc_part}`: {e}"))?;
        Dolc::try_new(nums[0], nums[1], nums[2], nums[3], fold_part)
    }

    /// Path depth `D` (number of preceding tasks encoded).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Bits per older task, `O`.
    pub fn older_bits(&self) -> u32 {
        self.older_bits as u32
    }

    /// Bits from the last task, `L`.
    pub fn last_bits(&self) -> u32 {
        self.last_bits as u32
    }

    /// Bits from the current task, `C`.
    pub fn current_bits(&self) -> u32 {
        self.current_bits as u32
    }

    /// Fold count `F`.
    pub fn folds(&self) -> u32 {
        self.folds as u32
    }

    /// Length of the intermediate index: `(D-1)*O + L + C` (just `C` for
    /// depth 0).
    pub fn intermediate_bits(&self) -> u32 {
        if self.depth == 0 {
            self.current_bits as u32
        } else {
            (self.depth as u32 - 1) * self.older_bits as u32
                + self.last_bits as u32
                + self.current_bits as u32
        }
    }

    /// Bits in the final (folded) index: `ceil(intermediate / F)`.
    pub fn index_bits(&self) -> u32 {
        self.intermediate_bits().div_ceil(self.folds as u32)
    }

    /// Entries in a table indexed by this configuration.
    pub fn table_entries(&self) -> usize {
        1usize << self.index_bits()
    }

    /// Builds the intermediate index from the path and current task, then
    /// folds it into the final table index (`< table_entries()`).
    ///
    /// Layout (low to high): current task's `C` bits, last task's `L` bits,
    /// then `O` bits from each older task, oldest highest — so corresponding
    /// bits of different tasks do not line up under folding, preserving the
    /// low-order information (paper §6.1, heuristic 1).
    ///
    /// This walks the exact path; predictors use [`DolcPath::index`],
    /// which computes the same index from the bits alone.
    pub fn index(&self, path: &PathRegister, current: Addr) -> usize {
        let mut inter: u128 = (current.0 & mask32(self.current_bits as u32)) as u128;
        let mut shift = self.current_bits as u32;
        if self.depth > 0 {
            let last = path.recent(0).map_or(0, |a| a.0);
            inter |= ((last & mask32(self.last_bits as u32)) as u128) << shift;
            shift += self.last_bits as u32;
            for i in 1..self.depth as usize {
                let older = path.recent(i).map_or(0, |a| a.0);
                inter |= ((older & mask32(self.older_bits as u32)) as u128) << shift;
                shift += self.older_bits as u32;
            }
        }
        debug_assert_eq!(shift, self.intermediate_bits());
        self.fold(inter)
    }

    /// Folds an intermediate value into the final index by XORing `F`
    /// equal-width sub-fields.
    pub fn fold(&self, intermediate: u128) -> usize {
        fold(intermediate, self.index_bits(), self.folds as u32)
    }
}

impl fmt::Display for Dolc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{}-{} ({})",
            self.depth, self.older_bits, self.last_bits, self.current_bits, self.folds
        )
    }
}

/// One [`Dolc`] configuration's view of the path, as hardware holds it:
/// the last task's address, and the older tasks' `O`-bit fields in one
/// `u128` shift register in the order they take in the intermediate index
/// (above its `C + L` low bits).
///
/// [`push`](Self::push) is one shift, and [`index`](Self::index) three
/// masked shifts plus the `F`-way fold. Both agree bit for bit with
/// [`Dolc::index`] over a [`PathRegister`] fed the same pushes, warm-up
/// included: a task not yet seen reads as address 0. The struct is `Copy`,
/// so saving and restoring a path (a wrong-path excursion's repair) is a
/// plain copy.
///
/// ```
/// use multiscalar_core::dolc::{Dolc, DolcPath, PathRegister};
/// use multiscalar_isa::Addr;
/// let d = Dolc::new(6, 5, 8, 9, 3);
/// let (mut fast, mut exact) = (DolcPath::new(d), PathRegister::new(d.depth()));
/// for a in [0x40, 0x1234, 0x88, 0x40] {
///     assert_eq!(fast.index(Addr(a)), d.index(&exact, Addr(a)));
///     fast.push(Addr(a));
///     exact.push(Addr(a));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DolcPath {
    /// `O`-bit fields of tasks current−2 … current−D, nearest lowest.
    older: u128,
    /// Mask of the `(D-1)*O` bits `older` holds.
    older_mask: u128,
    /// The last task's address (0 before the first push).
    last: u32,
    current_mask: u32,
    /// `L` bits, or none at depth 0.
    last_mask: u32,
    /// `O` bits, and their count.
    older_field: u32,
    older_field_bits: u32,
    /// Where the last task's bits start: `C`.
    last_shift: u32,
    /// Where the older tasks' bits start: `C + L`.
    older_shift: u32,
    index_bits: u32,
    folds: u32,
    dolc: Dolc,
}

impl DolcPath {
    /// An empty path for `dolc`.
    pub fn new(dolc: Dolc) -> DolcPath {
        let deep = dolc.depth > 0;
        let older_total = if deep {
            (dolc.depth as u32 - 1) * dolc.older_bits as u32
        } else {
            0
        };
        DolcPath {
            older: 0,
            older_mask: mask128(older_total),
            last: 0,
            current_mask: mask32(dolc.current_bits as u32),
            last_mask: if deep {
                mask32(dolc.last_bits as u32)
            } else {
                0
            },
            older_field: mask32(dolc.older_bits as u32),
            older_field_bits: dolc.older_bits as u32,
            last_shift: dolc.current_bits as u32,
            older_shift: dolc.current_bits as u32 + dolc.last_bits as u32,
            index_bits: dolc.index_bits(),
            folds: dolc.folds as u32,
            dolc,
        }
    }

    /// The configuration this path serves.
    pub fn dolc(&self) -> Dolc {
        self.dolc
    }

    /// Shifts in the newest task address: the last task's `O` bits join
    /// the older fields, and the oldest field past depth `D` drops out.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        let nearest = (self.last & self.older_field) as u128;
        self.older = ((self.older << self.older_field_bits) | nearest) & self.older_mask;
        self.last = addr.0;
    }

    /// The table index of `current` along this path (`< table_entries()`).
    #[inline]
    pub fn index(&self, current: Addr) -> usize {
        let inter = (current.0 & self.current_mask) as u128
            | ((self.last & self.last_mask) as u128) << self.last_shift
            | self.older << self.older_shift;
        fold(inter, self.index_bits, self.folds)
    }
}

/// XORs `folds` consecutive `index_bits`-wide fields of `intermediate`.
#[inline]
fn fold(intermediate: u128, index_bits: u32, folds: u32) -> usize {
    let m = (1u128 << index_bits) - 1;
    let mut acc = 0u128;
    let mut v = intermediate;
    for _ in 0..folds {
        acc ^= v & m;
        v >>= index_bits;
    }
    acc as usize
}

#[inline]
fn mask32(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

#[inline]
fn mask128(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sizes() {
        // "a 6-5-8-9 (3) implementation is 6 deep ... the intermediate
        //  index is 42 bits, the actual index is 14 bits and the table has
        //  16K entries."
        let d = Dolc::new(6, 5, 8, 9, 3);
        assert_eq!(d.intermediate_bits(), 42);
        assert_eq!(d.index_bits(), 14);
        assert_eq!(d.table_entries(), 16 * 1024);
    }

    #[test]
    fn depth_zero_uses_only_current_bits() {
        let d = Dolc::new(0, 0, 0, 14, 1);
        assert_eq!(d.intermediate_bits(), 14);
        let path = PathRegister::new(0);
        let i1 = d.index(&path, Addr(0x1234));
        assert_eq!(i1, 0x1234 & 0x3FFF);
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["6-5-8-9 (3)", "0-0-0-14 (1)", "7-6-9-9 (3)", "2-4-5-5 (1)"] {
            let d = Dolc::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert!(Dolc::parse("1-2-3").is_err());
        assert!(Dolc::parse("a-b-c-d (1)").is_err());
    }

    #[test]
    fn index_is_always_in_table() {
        let d = Dolc::new(5, 4, 6, 6, 2);
        let mut path = PathRegister::new(d.depth());
        for a in 0..200u32 {
            let idx = d.index(&path, Addr(a.wrapping_mul(2654435761)));
            assert!(idx < d.table_entries());
            path.push(Addr(a.wrapping_mul(40503)));
        }
    }

    #[test]
    fn different_paths_usually_differ() {
        let d = Dolc::new(2, 8, 8, 8, 1);
        let mut p1 = PathRegister::new(2);
        let mut p2 = PathRegister::new(2);
        p1.push(Addr(0x10));
        p1.push(Addr(0x20));
        p2.push(Addr(0x11));
        p2.push(Addr(0x20));
        assert_ne!(d.index(&p1, Addr(0x30)), d.index(&p2, Addr(0x30)));
    }

    /// The key of a register holding exactly `addrs`, oldest first.
    fn key_of(addrs: &[u32]) -> PathKey {
        let mut key = PathKey {
            len: addrs.len() as u8,
            addrs: [0; MAX_PATH_KEY_DEPTH],
        };
        key.addrs[..addrs.len()].copy_from_slice(addrs);
        key
    }

    #[test]
    fn path_register_is_a_shift_register() {
        let mut p = PathRegister::new(3);
        assert_eq!((p.recent(0), p.key()), (None, key_of(&[])));
        for a in 1..=5u32 {
            p.push(Addr(a));
        }
        assert_eq!(p.key(), key_of(&[3, 4, 5]), "keeps the newest 3");
        assert_eq!(p.recent(0), Some(Addr(5)));
        assert_eq!(p.recent(2), Some(Addr(3)));
        assert_eq!(p.recent(3), None);
    }

    #[test]
    fn depth_zero_register_stays_empty() {
        let mut p = PathRegister::new(0);
        p.push(Addr(1));
        assert_eq!((p.recent(0), p.key()), (None, key_of(&[])));
    }

    #[test]
    fn fold_preserves_all_intermediate_bits() {
        // Flipping any single intermediate bit must flip the index.
        let d = Dolc::new(3, 4, 6, 6, 2); // intermediate = 2*4+6+6 = 20? no: (3-1)*4+6+6 = 20
        assert_eq!(d.intermediate_bits(), 20);
        let base = d.fold(0);
        for bit in 0..d.intermediate_bits() as u128 {
            let flipped = d.fold(1u128 << bit);
            assert_ne!(flipped, base, "bit {bit} lost by folding");
        }
    }

    #[test]
    #[should_panic(expected = "folds must be at least 1")]
    fn zero_folds_panics() {
        Dolc::new(1, 1, 1, 1, 0);
    }

    #[test]
    fn parse_rejects_unrealizable_configurations() {
        for (s, why) in [
            ("0-0-0-0 (1)", "index would be empty"),
            ("1-2-3-40 (1)", "at most 32 bits"),
            ("1-1-1-1 (0)", "folds must be at least 1"),
            ("5-32-32-32 (7)", "exceeds 128"),
            ("2-0-0-29 (1)", "unreasonably large"),
        ] {
            let err = Dolc::parse(s).expect_err(s);
            assert!(err.contains(why), "{s}: {err}");
        }
    }

    #[test]
    fn intermediate_index_is_bounded_at_128_bits() {
        // 192 bits folded 7 ways would fit a 28-bit index, but not a u128.
        assert!(Dolc::try_new(5, 32, 32, 32, 7).is_err());
        let widest = Dolc::try_new(5, 32, 0, 0, 5).expect("exactly 128 bits");
        assert_eq!(widest.intermediate_bits(), 128);
        let mut path = PathRegister::new(widest.depth());
        let mut fast = DolcPath::new(widest);
        for a in 0..12u32 {
            let addr = Addr(a.wrapping_mul(0x9E37_79B9) | 0x8000_0001);
            let idx = widest.index(&path, addr);
            assert!(idx < widest.table_entries());
            assert_eq!(fast.index(addr), idx);
            path.push(addr);
            fast.push(addr);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 128")]
    fn wide_intermediate_panics_in_new() {
        Dolc::new(5, 32, 32, 32, 7);
    }
}
