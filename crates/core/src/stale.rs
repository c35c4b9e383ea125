//! Delayed-update (stale) prediction — quantifying the paper's §3.1
//! idealisation.
//!
//! The paper's functional simulator updates predictor state *immediately*
//! after each prediction and notes: "A real implementation may make
//! predictions based on stale information while waiting for non-speculative
//! outcome information to return from the execution processors." This
//! module implements that real behaviour so the idealisation can be
//! measured: [`StalePathPredictor`] applies each PHT update only after the
//! outcome has "returned from the ring" — `delay` further task predictions
//! later.
//!
//! The path register itself is *not* delayed: the global sequencer knows
//! which task it is dispatching (the path is speculative but, under the
//! paper's perfect-repair assumption, always matches the actual task
//! sequence in a trace-driven run). Only pattern-table training lags.
//!
//! The harness's `ext-staleness` experiment sweeps the delay; the paper's
//! idealisation turns out to cost a few tenths of a percent at ring-sized
//! delays — see EXPERIMENTS.md.

use crate::automata::Automaton;
use crate::dolc::{Dolc, DolcPath};
use crate::predictor::{ExitPredictor, PendingIndex, TaskDesc};
use crate::rng::XorShift64;
use multiscalar_isa::ExitIndex;
use std::collections::VecDeque;

const EXIT0: ExitIndex = match ExitIndex::new(0) {
    Some(e) => e,
    None => unreachable!(),
};

/// A path-based exit predictor whose PHT updates are applied `delay` task
/// predictions late. With `delay == 0` it behaves exactly like
/// [`crate::history::PathPredictor`].
#[derive(Debug, Clone)]
pub struct StalePathPredictor<A: Automaton> {
    path: DolcPath,
    pending_index: PendingIndex,
    pht: Vec<A>,
    tie: XorShift64,
    delay: usize,
    pending: VecDeque<(usize, ExitIndex)>,
}

impl<A: Automaton> StalePathPredictor<A> {
    /// Creates a predictor whose training lags by `delay` task predictions.
    pub fn new(dolc: Dolc, delay: usize) -> StalePathPredictor<A> {
        StalePathPredictor {
            path: DolcPath::new(dolc),
            pending_index: PendingIndex::default(),
            pht: vec![A::default(); dolc.table_entries()],
            tie: XorShift64::default(),
            delay,
            pending: VecDeque::new(),
        }
    }

    /// The configured training delay in task predictions.
    pub fn delay(&self) -> usize {
        self.delay
    }

    fn drain(&mut self, keep: usize) {
        while self.pending.len() > keep {
            let (idx, actual) = self.pending.pop_front().expect("non-empty");
            self.pht[idx].update(actual);
        }
    }
}

impl<A: Automaton> ExitPredictor for StalePathPredictor<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if task.single_exit() {
            return EXIT0;
        }
        let entry = task.entry();
        let idx = self
            .pending_index
            .get(entry)
            .unwrap_or_else(|| self.path.index(entry));
        self.pending_index.keep(entry, idx);
        self.pht[idx].predict(&mut self.tie)
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let entry = task.entry();
        let idx = self.pending_index.take(entry);
        if !task.single_exit() {
            let idx = idx.unwrap_or_else(|| self.path.index(entry));
            self.pending.push_back((idx, actual));
            self.drain(self.delay);
        }
        self.path.push(entry);
    }

    fn states_touched(&self) -> usize {
        0 // not tracked for the staleness study
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::history::PathPredictor;
    use crate::predictor::ExitInfo;
    use multiscalar_isa::{Addr, ExitKind};

    type Leh2 = LastExitHysteresis<2>;

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

    /// Drives both predictors over the same pseudo-random stream and
    /// returns their miss counts.
    fn race(delay: usize, steps: usize) -> (u64, u64) {
        let d = Dolc::new(3, 4, 6, 6, 2);
        let mut fresh: PathPredictor<Leh2> = PathPredictor::new(d);
        let mut stale: StalePathPredictor<Leh2> = StalePathPredictor::new(d, delay);
        let mut rng = XorShift64::new(42);
        let (mut fm, mut sm) = (0, 0);
        for _ in 0..steps {
            let t = task(0x10 + rng.next_below(8) * 0x8, 2);
            let actual = e((t.entry().0 >> 3 & 1) as u8); // entry-determined
            if fresh.predict(&t) != actual {
                fm += 1;
            }
            if stale.predict(&t) != actual {
                sm += 1;
            }
            fresh.update(&t, actual);
            stale.update(&t, actual);
        }
        (fm, sm)
    }

    #[test]
    fn zero_delay_matches_the_immediate_predictor() {
        let (fresh, stale) = race(0, 2000);
        assert_eq!(fresh, stale, "delay 0 must be bit-identical");
    }

    #[test]
    fn staleness_costs_accuracy_but_converges() {
        let (fresh, stale) = race(8, 4000);
        assert!(
            stale >= fresh,
            "stale training cannot beat immediate training"
        );
        // On a stationary pattern the stale predictor still learns.
        assert!(
            (stale as f64) < 4000.0 * 0.5,
            "even badly stale training must beat chance: {stale}"
        );
    }

    #[test]
    fn bare_update_queues_the_predicted_entry() {
        use crate::predictor::pending_tests::train_with_and_without_predicts;
        let d = Dolc::new(3, 4, 5, 5, 2);
        let mut cached: StalePathPredictor<Leh2> = StalePathPredictor::new(d, 5);
        let mut bare: StalePathPredictor<Leh2> = StalePathPredictor::new(d, 5);
        train_with_and_without_predicts(&mut cached, &mut bare);
        assert_eq!(cached.pending, bare.pending);
        assert_eq!(cached.pht, bare.pht);
    }

    #[test]
    fn pending_queue_is_bounded_by_delay() {
        let d = Dolc::new(2, 4, 5, 5, 1);
        let mut p: StalePathPredictor<Leh2> = StalePathPredictor::new(d, 3);
        let t = task(0x20, 2);
        for _ in 0..50 {
            let _ = p.predict(&t);
            p.update(&t, e(1));
            assert!(p.pending.len() <= 3);
        }
        assert_eq!(p.delay(), 3);
    }
}
