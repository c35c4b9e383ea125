//! Fused sweeps must be **bit-identical** to measuring one configuration at
//! a time: the predictor instances inside a fused walk never observe each
//! other, so fusing is purely a wall-clock optimisation. The interned ideal
//! sweeps must likewise equal the hash-map oracles they replace.

use multiscalar_core::automata::{AutomatonKind, LastExitHysteresis};
use multiscalar_core::history::{PathPredictor, PerTaskPredictor};
use multiscalar_core::ideal::IdealPath;
use multiscalar_core::predictor::ExitPredictor;
use multiscalar_core::target::{Cttb, IdealCttb};
use multiscalar_core::tournament::TournamentPredictor;
use multiscalar_core::Dolc;
use multiscalar_harness::dispatch::{
    cttb_ideal_sweep, cttb_ladder, cttb_real_sweep, exit_ladder, measure_ideal,
    measure_ideal_path_automata, measure_ideal_path_automaton, measure_ideal_sweep,
    path_ideal_sweep, path_real_sweep, Scheme,
};
use multiscalar_harness::extensions::hybrid_stats;
use multiscalar_harness::fuzz::check_ideal_agreement;
use multiscalar_harness::{prepare, Bench};
use multiscalar_sim::measure::{measure_exits, measure_indirect_targets};
use multiscalar_workloads::{Spec92, WorkloadParams};

type Leh2 = LastExitHysteresis<2>;

/// Two benchmarks with different control-flow character: gcc (indirect
/// heavy) and sc (loop heavy, the PER-friendly outlier).
fn two_benches() -> Vec<Bench> {
    let params = WorkloadParams::small(0xC0FFEE);
    vec![prepare(Spec92::Gcc, &params), prepare(Spec92::Sc, &params)]
}

#[test]
fn fused_ideal_scheme_sweep_matches_one_depth_at_a_time() {
    let depths: Vec<u32> = (0..=6).collect();
    for b in &two_benches() {
        for scheme in Scheme::ALL {
            let fused = measure_ideal_sweep(scheme, &depths, b);
            let sequential: Vec<_> = depths
                .iter()
                .map(|&d| measure_ideal(scheme, d, b))
                .collect();
            assert_eq!(fused, sequential, "{} {scheme:?}", b.name());
        }
    }
}

#[test]
fn fused_automaton_sweep_matches_one_depth_at_a_time() {
    let depths: Vec<u32> = (0..=5).collect();
    let kinds = [
        AutomatonKind::Leh2,
        AutomatonKind::LastExit,
        AutomatonKind::Vc3Mru,
    ];
    for b in &two_benches() {
        let fused = measure_ideal_path_automata(&kinds, &depths, b);
        for (&kind, row) in kinds.iter().zip(&fused) {
            let sequential: Vec<_> = depths
                .iter()
                .map(|&d| measure_ideal_path_automaton(kind, d, b))
                .collect();
            assert_eq!(row, &sequential, "{} {kind:?}", b.name());
        }
    }
}

#[test]
fn interned_ideal_sweeps_match_the_hash_map_oracles() {
    // Every automaton kind under PATH (in one walk, as Figure 6 runs
    // them), GLOBAL and PER with LEH-2, and the ideal CTTB, at depths
    // 0..=8: equal miss stats and equal state counts.
    for b in &two_benches() {
        if let Err(e) = check_ideal_agreement(&AutomatonKind::ALL, &b.descs, &b.trace.events) {
            panic!("{}: {e}", b.name());
        }
    }
}

#[test]
fn hybrid_one_walk_matches_three_walks() {
    for b in &two_benches() {
        let mut path: PathPredictor<Leh2> = PathPredictor::new(Dolc::new(6, 5, 8, 9, 3));
        let mut per: PerTaskPredictor<Leh2> = PerTaskPredictor::new(7, 8, 6);
        let mut hybrid = TournamentPredictor::new(
            PathPredictor::<Leh2>::new(Dolc::new(6, 5, 8, 9, 3)),
            PerTaskPredictor::<Leh2>::new(7, 8, 6),
            10,
        );
        let separate = [
            measure_exits(&mut path, &b.descs, &b.trace.events),
            measure_exits(&mut per, &b.descs, &b.trace.events),
            measure_exits(&mut hybrid, &b.descs, &b.trace.events),
        ];
        assert_eq!(hybrid_stats(b), separate, "{}", b.name());
    }
}

#[test]
fn fused_path_ladders_match_one_config_at_a_time() {
    let configs = exit_ladder();
    for b in &two_benches() {
        let fused_real = path_real_sweep(&configs, b);
        let fused_ideal = path_ideal_sweep(
            &configs.iter().map(|d| d.depth() as u32).collect::<Vec<_>>(),
            b,
        );
        for (i, &cfg) in configs.iter().enumerate() {
            let mut real: PathPredictor<Leh2> = PathPredictor::new(cfg);
            let rs = measure_exits(&mut real, &b.descs, &b.trace.events);
            assert_eq!(
                fused_real[i],
                (rs, real.states_touched()),
                "{} real {cfg:?}",
                b.name()
            );

            let mut ideal: IdealPath<Leh2> = IdealPath::new(cfg.depth() as u32);
            let is = measure_exits(&mut ideal, &b.descs, &b.trace.events);
            assert_eq!(
                fused_ideal[i],
                (is, ideal.states()),
                "{} ideal {cfg:?}",
                b.name()
            );
        }
    }
}

#[test]
fn fused_cttb_ladders_match_one_config_at_a_time() {
    let configs = cttb_ladder();
    let depths: Vec<usize> = configs.iter().map(|d| d.depth()).collect();
    for b in &two_benches() {
        let fused_real = cttb_real_sweep(&configs, b);
        let fused_ideal = cttb_ideal_sweep(&depths, b);
        for (i, &cfg) in configs.iter().enumerate() {
            let mut real = Cttb::new(cfg);
            assert_eq!(
                fused_real[i],
                measure_indirect_targets(&mut real, &b.descs, &b.trace.events),
                "{} real {cfg:?}",
                b.name()
            );
            let mut ideal = IdealCttb::new(cfg.depth());
            assert_eq!(
                fused_ideal[i],
                measure_indirect_targets(&mut ideal, &b.descs, &b.trace.events),
                "{} ideal {cfg:?}",
                b.name()
            );
        }
    }
}
