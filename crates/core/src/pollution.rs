//! Wrong-path pollution — the paper's second §3.1 idealisation made
//! measurable.
//!
//! The paper's functional simulator "does not continue past a mispredicted
//! task, therefore no pollution of dynamic data structures occurs because
//! of speculative updates from mispredicted tasks. Our results are accurate
//! in this regard if the mispredict recovery mechanism completely repairs
//! data structures."
//!
//! In the real machine the sequencer runs ahead: after a misprediction it
//! dispatches several wrong-path tasks (up to the ring size) and pushes
//! their addresses into the speculative path-history register before the
//! squash. [`PollutedPathPredictor`] models this: on every misprediction it
//! injects a configurable number of wrong-path path-register updates, and
//! recovery either repairs the register (pops them — the paper's
//! assumption) or leaves them (a cheap implementation). Prediction automata
//! are only updated non-speculatively, as in two-level branch predictors
//! (§4.1), so the PHT itself is never polluted.
//!
//! Measured by the harness's `ext-pollution` experiment.

use crate::automata::Automaton;
use crate::dolc::{Dolc, DolcPath};
use crate::predictor::{ExitPredictor, PendingIndex, TaskDesc};
use crate::rng::XorShift64;
use multiscalar_isa::{Addr, ExitIndex};

const EXIT0: ExitIndex = match ExitIndex::new(0) {
    Some(e) => e,
    None => unreachable!(),
};

/// A path-based exit predictor with explicit wrong-path modelling.
///
/// `update_resolved` must be told the predicted and actual exits plus the
/// *addresses* control was predicted to reach, so the wrong-path excursion
/// can be replayed into the path register.
#[derive(Debug, Clone)]
pub struct PollutedPathPredictor<A: Automaton> {
    path: DolcPath,
    pending: PendingIndex,
    pht: Vec<A>,
    tie: XorShift64,
    /// Wrong-path tasks the sequencer runs ahead by before the squash.
    wrongpath_depth: usize,
    /// Whether recovery repairs the path register (the paper's assumption).
    repair: bool,
    pollutions: u64,
}

impl<A: Automaton> PollutedPathPredictor<A> {
    /// Creates a predictor that runs `wrongpath_depth` tasks down the wrong
    /// path on each misprediction, with or without register `repair`.
    pub fn new(dolc: Dolc, wrongpath_depth: usize, repair: bool) -> Self {
        PollutedPathPredictor {
            path: DolcPath::new(dolc),
            pending: PendingIndex::default(),
            pht: vec![A::default(); dolc.table_entries()],
            tie: XorShift64::default(),
            wrongpath_depth,
            repair,
            pollutions: 0,
        }
    }

    /// Predicts the exit of `task` from the (possibly polluted) path.
    pub fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        if task.single_exit() {
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

    /// Resolves a prediction. `predicted_target` is where the sequencer
    /// believed control would go; on a misprediction the wrong-path
    /// excursion is replayed before (optionally) repairing.
    pub fn update_resolved(
        &mut self,
        task: &TaskDesc,
        predicted: ExitIndex,
        actual: ExitIndex,
        predicted_target: Option<Addr>,
        actual_target: Addr,
    ) {
        // Non-speculative automaton training, as in §4.1.
        let entry = task.entry();
        let idx = self.pending.take(entry);
        if !task.single_exit() {
            let idx = idx.unwrap_or_else(|| self.path.index(entry));
            self.pht[idx].update(actual);
        }
        self.path.push(entry);

        let mispredicted = predicted != actual || predicted_target != Some(actual_target);
        if mispredicted && self.wrongpath_depth > 0 {
            // Speculative wrong-path excursion: the sequencer pushes the
            // predicted target and synthetic successors into the register.
            let saved = self.path;
            let mut wrong = predicted_target.unwrap_or(actual_target);
            for _ in 0..self.wrongpath_depth {
                self.path.push(wrong);
                // A crude wrong-path walk: stride to a nearby address, as
                // the sequencer would follow stale header targets.
                wrong = Addr(wrong.0.wrapping_add(3));
            }
            self.pollutions += 1;
            if self.repair {
                self.path = saved;
            }
        }
    }

    /// Mispredictions that triggered a wrong-path excursion.
    pub fn pollutions(&self) -> u64 {
        self.pollutions
    }
}

/// Adapter: drives the polluted predictor through the standard
/// [`ExitPredictor`] interface by assuming the predicted target equals the
/// predicted exit's header target (exit pollution only).
#[derive(Debug, Clone)]
pub struct PollutedExitAdapter<A: Automaton> {
    inner: PollutedPathPredictor<A>,
    last_prediction: Option<ExitIndex>,
}

impl<A: Automaton> PollutedExitAdapter<A> {
    /// Wraps a polluted predictor.
    pub fn new(inner: PollutedPathPredictor<A>) -> Self {
        PollutedExitAdapter {
            inner,
            last_prediction: None,
        }
    }

    /// Mispredictions that triggered a wrong-path excursion.
    pub fn pollutions(&self) -> u64 {
        self.inner.pollutions()
    }
}

impl<A: Automaton> ExitPredictor for PollutedExitAdapter<A> {
    fn predict(&mut self, task: &TaskDesc) -> ExitIndex {
        let p = self.inner.predict(task);
        self.last_prediction = Some(p);
        p
    }

    fn update(&mut self, task: &TaskDesc, actual: ExitIndex) {
        let predicted = self.last_prediction.take().unwrap_or(actual);
        let predicted_target = task.exit_clamped(predicted).target;
        let actual_target = task.exit_clamped(actual).target.unwrap_or(task.entry());
        self.inner.update_resolved(
            task,
            predicted,
            actual,
            predicted_target.or(Some(actual_target)),
            actual_target,
        );
    }

    fn states_touched(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automata::LastExitHysteresis;
    use crate::predictor::ExitInfo;
    use multiscalar_isa::ExitKind;

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

    /// Drives a pattern with occasional forced mispredictions and returns
    /// (misses, pollutions).
    fn run(depth: usize, repair: bool) -> (u64, u64) {
        let mut p: PollutedExitAdapter<Leh2> = PollutedExitAdapter::new(
            PollutedPathPredictor::new(Dolc::new(4, 4, 6, 6, 2), depth, repair),
        );
        let mut rng = XorShift64::new(3);
        let mut misses = 0;
        for i in 0..3000u32 {
            let t = task(0x10 + (i % 8) * 8, 2);
            // Mostly-stable outcomes with 10% noise: guarantees some
            // mispredictions to pollute with.
            let actual = if rng.next_below(10) == 0 { e(1) } else { e(0) };
            if p.predict(&t) != actual && i >= 500 {
                misses += 1;
            }
            p.update(&t, actual);
        }
        (misses, p.pollutions())
    }

    #[test]
    fn bare_update_trains_the_predicted_entry() {
        // `cached` predicts before most resolutions — the same task,
        // another one, or another and then the same; `bare` only resolves.
        // Excursions and repairs move both paths alike, so both must train
        // the same entries.
        for repair in [false, true] {
            let d = Dolc::new(3, 4, 5, 5, 2);
            let mut cached: PollutedPathPredictor<Leh2> = PollutedPathPredictor::new(d, 3, repair);
            let mut bare: PollutedPathPredictor<Leh2> = PollutedPathPredictor::new(d, 3, repair);
            let mut rng = XorShift64::new(0x5077);
            for _ in 0..4000 {
                let t = task(
                    0x10 + rng.next_below(16) * 8,
                    1 + rng.next_below(3) as usize,
                );
                let actual = e(rng.next_below(t.num_exits() as u32) as u8);
                let predicted = e(rng.next_below(t.num_exits() as u32) as u8);
                let other = task(0x200 + rng.next_below(16) * 8, 2);
                match rng.next_below(4) {
                    0 => {}
                    1 => {
                        cached.predict(&t);
                    }
                    2 => {
                        cached.predict(&other);
                        cached.predict(&t);
                    }
                    _ => {
                        cached.predict(&other);
                    }
                }
                let predicted_target = t.exit_clamped(predicted).target;
                let actual_target = t.exit_clamped(actual).target.unwrap();
                for p in [&mut cached, &mut bare] {
                    p.update_resolved(&t, predicted, actual, predicted_target, actual_target);
                }
            }
            assert!(cached.pollutions() > 100);
            assert_eq!(cached.pht, bare.pht);
        }
    }

    #[test]
    fn depth_zero_is_pollution_free() {
        let (m0, p0) = run(0, false);
        let (m0r, _) = run(0, true);
        assert_eq!(m0, m0r, "repair is irrelevant without an excursion");
        assert_eq!(p0, 0);
    }

    #[test]
    fn repair_bounds_the_damage() {
        let (repaired, pr) = run(4, true);
        let (polluted, pp) = run(4, false);
        assert!(pr > 0 && pp > 0, "the noise must cause excursions");
        assert!(
            polluted >= repaired,
            "unrepaired pollution cannot help: {polluted} vs {repaired}"
        );
        // Repaired behaviour equals the no-excursion baseline.
        let (baseline, _) = run(0, true);
        assert_eq!(repaired, baseline, "perfect repair restores the ideal");
    }

    #[test]
    fn pollution_causes_extra_misses_on_correlated_streams() {
        // A predecessor-correlated pattern where the path register matters:
        // pollution of the register must cost accuracy.
        let drive = |repair: bool| {
            let mut p: PollutedExitAdapter<Leh2> = PollutedExitAdapter::new(
                PollutedPathPredictor::new(Dolc::new(2, 6, 8, 8, 2), 3, repair),
            );
            let t = task(0x08, 2);
            let p1 = task(0x11, 2);
            let p2 = task(0x22, 2);
            let mut rng = XorShift64::new(7);
            let mut misses = 0u64;
            for i in 0..4000 {
                let (pred_task, mut actual) = if rng.next_below(2) == 0 {
                    (&p1, e(0))
                } else {
                    (&p2, e(1))
                };
                // 10% noise keeps mispredictions (and hence wrong-path
                // excursions) flowing even after the pattern is learned.
                if rng.next_below(10) == 0 {
                    actual = e(1 - actual.as_u8());
                }
                let _ = p.predict(pred_task);
                p.update(pred_task, e(0));
                // Count every prediction: unrepaired pollution creates
                // extra predictor states that each pay their own learning
                // cost, so the cumulative count must be strictly worse
                // (in steady state the extra states converge — which is
                // precisely why the paper could afford the idealisation).
                let _ = i;
                if p.predict(&t) != actual {
                    misses += 1;
                }
                p.update(&t, actual);
            }
            misses
        };
        let repaired = drive(true);
        let polluted = drive(false);
        assert!(
            polluted > repaired,
            "pollution must hurt a path-correlated stream: {polluted} vs {repaired}"
        );
    }
}
