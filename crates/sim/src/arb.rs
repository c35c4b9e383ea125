//! The capacity model of the Address Resolution Buffer (ARB), the
//! Multiscalar memory disambiguation hardware of Franklin & Sohi ("ARB: A
//! Hardware Mechanism for Dynamic Reordering of Memory References", IEEE
//! ToC 1996), which the paper's processing-unit ring relies on (its
//! reference \[5\]).
//!
//! The ARB is an interleaved buffer: word address `a` lives in bank
//! `a % banks`, and each bank tracks at most `entries_per_bank` distinct
//! addresses. The timing model retires the head task at every task
//! boundary (commit is strictly FIFO), so the buffer only ever holds the
//! current task's references, and each boundary empties it. What it adds
//! to the timing is capacity: a reference to a new address in a full bank
//! cannot be tracked, so issue stalls (see
//! [`crate::timing::ARB_FULL_PENALTY`]) and the address is not inserted.
//!
//! Memory-order violations are not detected here: the core times every
//! load against the last older task's store to its address through its own
//! store table (see [`crate::timing`]).

/// Configuration of the ARB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of interleaved banks (addresses map to `addr % banks`).
    pub banks: usize,
    /// Entries per bank.
    pub entries_per_bank: usize,
}

impl Default for ArbConfig {
    fn default() -> Self {
        ArbConfig {
            banks: 8,
            entries_per_bank: 32,
        }
    }
}

/// The distinct word addresses the current task has referenced, bank by
/// bank: `entries_per_bank` address slots per bank in one flat array, of
/// which the first `len[bank]` are occupied.
#[derive(Debug, Clone)]
pub(crate) struct ArbTable {
    addrs: Vec<u32>,
    len: Vec<u32>,
    entries_per_bank: usize,
    /// `banks - 1` when `banks` is a power of two: bank selection is then a
    /// mask instead of a divide (it runs on every memory reference).
    bank_mask: Option<u32>,
}

impl ArbTable {
    /// An empty table of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(config: ArbConfig) -> ArbTable {
        assert!(config.banks > 0 && config.entries_per_bank > 0);
        ArbTable {
            addrs: vec![0; config.banks * config.entries_per_bank],
            len: vec![0; config.banks],
            entries_per_bank: config.entries_per_bank,
            bank_mask: config
                .banks
                .is_power_of_two()
                .then(|| config.banks as u32 - 1),
        }
    }

    /// Records a reference to word `addr` by the current task. Returns
    /// `false` when `addr` is new and its bank is full: the reference is
    /// not tracked, so the next reference to it is full again.
    #[inline]
    pub(crate) fn reference(&mut self, addr: u32) -> bool {
        let b = match self.bank_mask {
            Some(m) => (addr & m) as usize,
            None => addr as usize % self.len.len(),
        };
        let n = self.len[b] as usize;
        let bank = &mut self.addrs[b * self.entries_per_bank..][..self.entries_per_bank];
        if bank[..n].contains(&addr) {
            return true;
        }
        if n == bank.len() {
            return false;
        }
        bank[n] = addr;
        self.len[b] += 1;
        true
    }

    /// Empties every bank: the task boundary retires the head task, and
    /// with it every entry.
    pub(crate) fn clear(&mut self) {
        self.len.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(banks: usize, entries_per_bank: usize) -> ArbTable {
        ArbTable::new(ArbConfig {
            banks,
            entries_per_bank,
        })
    }

    #[test]
    fn distinct_addresses_fill_a_bank_up_to_its_entries() {
        let mut t = table(2, 4);
        // Even addresses all map to bank 0.
        for addr in [0, 2, 4, 6] {
            assert!(t.reference(addr), "entry for {addr}");
        }
        assert!(!t.reference(8), "a fifth distinct address overflows");
        // The odd bank is independent and still empty.
        for addr in [1, 3, 5, 7] {
            assert!(t.reference(addr), "entry for {addr}");
        }
    }

    #[test]
    fn a_repeated_address_takes_no_second_entry() {
        let mut t = table(1, 2);
        for _ in 0..5 {
            assert!(t.reference(40));
        }
        assert!(t.reference(41), "the second entry is still free");
        assert!(t.reference(40) && t.reference(41));
        assert!(!t.reference(42));
    }

    #[test]
    fn an_overflowing_address_is_not_inserted() {
        let mut t = table(1, 1);
        assert!(t.reference(10));
        assert!(!t.reference(11));
        assert!(!t.reference(11), "the rejected address is full again");
        assert!(t.reference(10), "the resident address still hits");
    }

    #[test]
    fn a_boundary_empties_every_bank() {
        let mut t = table(3, 1);
        for addr in 0..3 {
            assert!(t.reference(addr));
        }
        for addr in 3..6 {
            assert!(!t.reference(addr), "bank {} is full", addr % 3);
        }
        t.clear();
        for addr in 3..6 {
            assert!(t.reference(addr), "bank {} was emptied", addr % 3);
        }
    }

    #[test]
    fn a_one_by_one_table_overflows_on_the_second_distinct_address() {
        let mut t = table(1, 1);
        assert!(t.reference(7));
        assert!(t.reference(7));
        assert!(!t.reference(8));
    }
}
