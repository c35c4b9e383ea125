//! Structural proof of the lane-packed dispatch: `path_real_sweep` takes
//! the packed LEH-2bit engine for every batch that fits one word, and the
//! scalar fallback for a wider one — asserted via the
//! `lane_packed_sweeps` counter, never inferred from timing.
//!
//! This lives in its own binary — one `#[test]` — on purpose: the counter
//! is process-global, and sharing a process with other sweep-running tests
//! would race the deltas.

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_harness::dispatch::{exit_ladder, path_real_sweep, path_real_sweep_scalar};
use multiscalar_harness::prepare;
use multiscalar_sim::measure::lane_packed_sweeps;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// The ladder packs on every paper workload and matches the scalar engine;
/// a batch wider than the word runs scalar.
#[test]
fn ladder_sweeps_pack_and_wide_batches_fall_back() {
    let configs = exit_ladder();
    let benches: Vec<_> = Spec92::ALL
        .iter()
        .map(|&s| prepare(s, &WorkloadParams::small(0xC0FFEE)))
        .collect();

    // The LEH-2bit entry point takes the packed engine on every paper
    // workload: one packed sweep each, bit-identical to the scalar engine.
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

    // A sweep wider than the word's lane capacity cannot pack: LEH-2bit
    // lanes are 4 bits wide, so a u64 holds 16 — 17 configs run scalar
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
