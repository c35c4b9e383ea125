//! A tournament (hybrid) exit predictor — the natural extension the
//! paper's Figure 7 invites: PATH wins on four benchmarks but PER wins on
//! sc, so combine them with a per-task chooser (McFarling-style).
//!
//! Not part of the original paper; provided (and measured by the harness's
//! `ext-hybrid` experiment) as the design a follow-on implementation would
//! try first.

use crate::predictor::{ExitPredictor, TaskDesc};
use multiscalar_isa::ExitIndex;

/// Combines two exit predictors with a 2-bit chooser table indexed by task
/// address. Both components always train; the chooser trains toward
/// whichever component was right when exactly one of them was.
///
/// # Example
///
/// ```
/// use multiscalar_core::automata::LastExitHysteresis;
/// use multiscalar_core::dolc::Dolc;
/// use multiscalar_core::history::{PathPredictor, PerTaskPredictor};
/// use multiscalar_core::tournament::TournamentPredictor;
///
/// type Leh2 = LastExitHysteresis<2>;
/// let hybrid = TournamentPredictor::new(
///     PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
///     PerTaskPredictor::<Leh2>::new(7, 8, 6),
///     12,
/// );
/// # let _ = hybrid;
/// ```
#[derive(Debug, Clone)]
pub struct TournamentPredictor<P1, P2> {
    first: P1,
    second: P2,
    /// 2-bit counters: `>= 2` selects `second`.
    chooser: Vec<u8>,
    mask: u32,
}

impl<P1: ExitPredictor, P2: ExitPredictor> TournamentPredictor<P1, P2> {
    /// Creates a tournament over two components with a `2^index_bits`-entry
    /// chooser.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 28.
    pub fn new(first: P1, second: P2, index_bits: u32) -> TournamentPredictor<P1, P2> {
        assert!((1..=28).contains(&index_bits));
        TournamentPredictor {
            first,
            second,
            chooser: vec![1; 1 << index_bits], // weakly prefer `first`
            mask: (1 << index_bits) - 1,
        }
    }

    fn slot(&self, task: &TaskDesc) -> usize {
        (task.entry().0 & self.mask) as usize
    }

    /// The first component.
    pub fn first(&self) -> &P1 {
        &self.first
    }

    /// The second component.
    pub fn second(&self) -> &P2 {
        &self.second
    }

    /// Chooser storage in bytes (2 bits per entry).
    pub fn chooser_bytes(&self) -> usize {
        self.chooser.len() / 4
    }

    /// Predicts with both components and the chooser: `(first, second,
    /// chosen)`, where `chosen` is what [`ExitPredictor::predict`] returns.
    pub fn predict_each(&mut self, task: &TaskDesc) -> (ExitIndex, ExitIndex, ExitIndex) {
        let p1 = self.first.predict(task);
        let p2 = self.second.predict(task);
        let chosen = if self.chooser[self.slot(task)] >= 2 {
            p2
        } else {
            p1
        };
        (p1, p2, chosen)
    }
}

impl<P1: ExitPredictor, P2: ExitPredictor> ExitPredictor for TournamentPredictor<P1, P2> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        self.predict_each(task).2
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        // Re-derive the component predictions (components are deterministic
        // between predict and update; VC RANDOM ties are the lone exception
        // and only add noise to the chooser).
        let p1 = self.first.predict(task);
        let p2 = self.second.predict(task);
        let slot = self.slot(task);
        match (p1 == actual, p2 == actual) {
            (true, false) => self.chooser[slot] = self.chooser[slot].saturating_sub(1),
            (false, true) => self.chooser[slot] = (self.chooser[slot] + 1).min(3),
            _ => {}
        }
        self.first.update(task, actual);
        self.second.update(task, actual);
    }

    fn states_touched(&self) -> usize {
        self.first.states_touched() + self.second.states_touched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::dolc::Dolc;
    use crate::history::{PathPredictor, PerTaskPredictor};
    use crate::predictor::ExitInfo;
    use crate::rng::XorShift64;
    use multiscalar_isa::{Addr, ExitKind};

    type Leh2 = LastExitHysteresis<2>;
    type Hybrid = TournamentPredictor<PathPredictor<Leh2>, PerTaskPredictor<Leh2>>;

    fn hybrid() -> Hybrid {
        TournamentPredictor::new(
            PathPredictor::new(Dolc::new(4, 4, 6, 6, 2)),
            // Depth-4 history folds to 8 bits losslessly (2 bits/step), so
            // the PER component resolves short cycles exactly.
            PerTaskPredictor::new(4, 8, 8),
            10,
        )
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

    fn e(i: u8) -> ExitIndex {
        ExitIndex::new(i).unwrap()
    }

    #[test]
    fn tracks_per_on_cyclic_behaviour() {
        // A period-3 cycle at a single decision point: PER's home turf.
        let mut h = hybrid();
        let t = task(0x40, 3);
        let mut misses = 0;
        for i in 0..600 {
            let actual = e((i % 3) as u8);
            if h.predict(&t) != actual && i >= 200 {
                misses += 1;
            }
            h.update(&t, actual);
        }
        assert!(
            misses <= 8,
            "hybrid must converge to the PER component: {misses}"
        );
    }

    #[test]
    fn tracks_path_on_predecessor_correlation() {
        // A random predecessor determines the next task's exit: PATH's
        // home turf (PER sees an i.i.d. stream).
        let mut h = hybrid();
        let t = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(5);
        let mut misses = 0;
        for i in 0..600 {
            let (pred, actual) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            let _ = h.predict(pred);
            h.update(pred, e(0));
            if h.predict(&t) != actual && i >= 200 {
                misses += 1;
            }
            h.update(&t, actual);
        }
        assert!(
            misses <= 20,
            "hybrid must converge to the PATH component: {misses}"
        );
    }

    #[test]
    fn chooser_is_per_task() {
        // Task A is cyclic (PER wins), task B is predecessor-driven (PATH
        // wins); the hybrid must get *both* right simultaneously.
        let mut h = hybrid();
        let a = task(0x100, 3);
        let b_task = task(0x08, 2);
        let p1 = task(0x11, 2);
        let p2 = task(0x22, 2);
        let mut rng = XorShift64::new(6);
        let mut misses = 0;
        for i in 0..900 {
            let actual_a = e((i % 3) as u8);
            if h.predict(&a) != actual_a && i >= 400 {
                misses += 1;
            }
            h.update(&a, actual_a);

            let (pred, actual_b) = if rng.next_below(2) == 0 {
                (&p1, e(0))
            } else {
                (&p2, e(1))
            };
            let _ = h.predict(pred);
            h.update(pred, e(0));
            if h.predict(&b_task) != actual_b && i >= 400 {
                misses += 1;
            }
            h.update(&b_task, actual_b);
        }
        assert!(misses <= 40, "per-task chooser must satisfy both: {misses}");
    }

    #[test]
    fn accessors_and_storage() {
        let h = hybrid();
        assert_eq!(h.chooser_bytes(), 256);
        let _ = h.first();
        let _ = h.second();
    }
}
