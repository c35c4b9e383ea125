//! Structural proof of the lane-packed dispatch: the sweep entry points
//! take the packed engine exactly when the automaton family supports it,
//! and the scalar fallback otherwise — asserted via the
//! `lane_packed_sweeps` counter, never inferred from timing.
//!
//! This lives in its own binary — one `#[test]` — on purpose: the counter
//! is process-global, and sharing a process with other sweep-running tests
//! would race the deltas.

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::automata::{AutomatonKind, VotingCounters};
use multiscalar_core::dolc::Dolc;
use multiscalar_harness::dispatch::{
    exit_ladder, path_real_sweep, path_real_sweep_automaton, path_real_sweep_scalar,
};
use multiscalar_harness::prepare;
use multiscalar_sim::measure::lane_packed_sweeps;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// Packable kinds advance the counter and match the scalar engine; the
/// `VC RANDOM` kinds leave it alone (their tie-break consumes per-predictor
/// RNG state the packed table cannot reproduce) and run scalar.
#[test]
fn automaton_dispatch_packs_when_it_can_and_falls_back_for_random() {
    let configs = exit_ladder();
    let benches: Vec<_> = Spec92::ALL
        .iter()
        .map(|&s| prepare(s, &WorkloadParams::small(0xC0FFEE)))
        .collect();

    // The default LEH-2bit entry point takes the packed engine on every
    // paper workload: one packed sweep each, bit-identical to the scalar
    // engine.
    for b in &benches {
        let before = lane_packed_sweeps();
        let leh2 = path_real_sweep(&configs, b);
        assert_eq!(
            lane_packed_sweeps() - before,
            1,
            "{}: the ladder sweep must take the lane-packed path",
            b.name()
        );
        assert_eq!(
            leh2,
            path_real_sweep_scalar::<LastExitHysteresis<2>>(&configs, b),
            "{}: lane-packed LEH-2bit must match the scalar engine",
            b.name()
        );
    }
    let b = benches
        .iter()
        .find(|b| b.spec == Spec92::Gcc)
        .expect("gcc is a paper workload");

    // A packable kind through the kind dispatch advances the counter too.
    // VC lanes are 16 bits wide (4 per word), so pack a 4-config subset.
    let vc_configs = &configs[..4];
    let before = lane_packed_sweeps();
    let packed = path_real_sweep_automaton(AutomatonKind::Vc3Mru, vc_configs, b);
    assert_eq!(
        lane_packed_sweeps() - before,
        1,
        "VC3-MRU must take the lane-packed path"
    );
    assert_eq!(
        packed,
        path_real_sweep_scalar::<VotingCounters<3, true>>(vc_configs, b),
        "lane-packed VC3-MRU must match the scalar engine"
    );

    // A RANDOM kind must leave the counter alone — scalar fallback — even
    // for a shape the packed engine could otherwise hold.
    let before = lane_packed_sweeps();
    let random = path_real_sweep_automaton(AutomatonKind::Vc3Random, vc_configs, b);
    assert_eq!(
        lane_packed_sweeps(),
        before,
        "VC3-RANDOM must take the scalar fallback"
    );
    assert_eq!(
        random,
        path_real_sweep_scalar::<VotingCounters<3, false>>(vc_configs, b),
        "the fallback is the scalar engine itself"
    );

    // A sweep wider than the word's lane capacity cannot pack either:
    // LEH lanes are 4 bits wide, so a u64 holds 16 — 17 configs run scalar
    // (counter unchanged) and still return correct results.
    let wide_configs: Vec<Dolc> = (0..17).map(|_| Dolc::new(4, 4, 6, 6, 2)).collect();
    let before = lane_packed_sweeps();
    let wide = path_real_sweep(&wide_configs, b);
    assert_eq!(
        lane_packed_sweeps(),
        before,
        "a 17-config LEH sweep exceeds the 16-lane word and must run scalar"
    );
    assert_eq!(
        wide,
        path_real_sweep_scalar::<LastExitHysteresis<2>>(&wide_configs, b)
    );
}
