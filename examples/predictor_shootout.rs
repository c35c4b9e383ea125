//! Predictor shoot-out: every automaton and every history scheme on one
//! benchmark, at a fixed history depth — a condensed view of the paper's
//! Figures 6 and 7 — plus the §6.1 DOLC design heuristics (folding older
//! history into the index, tapering bits toward older tasks) on a real
//! 14-bit PATH predictor.
//!
//! ```sh
//! cargo run --release --example predictor_shootout -- [benchmark] [depth]
//! ```

use multiscalar::core::automata::AutomatonKind;
use multiscalar::core::dolc::Dolc;
use multiscalar::harness::dispatch::{
    measure_ideal, measure_ideal_path_automaton, path_real_sweep, Scheme,
};
use multiscalar::harness::prepare;
use multiscalar::workloads::{Spec92, WorkloadParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let spec = args
        .next()
        .and_then(|n| Spec92::from_name(&n))
        .unwrap_or(Spec92::Gcc);
    let depth: u32 = args.next().and_then(|d| d.parse().ok()).unwrap_or(7);

    println!("preparing {spec} (this builds, task-forms and traces the program)...");
    let bench = prepare(spec, &WorkloadParams::small(42));
    println!(
        "{} dynamic tasks, {} distinct\n",
        bench.trace.stats.dynamic_tasks, bench.trace.stats.distinct_tasks
    );

    println!("history schemes (ideal, LEH-2bit automaton, depth {depth}):");
    for scheme in Scheme::ALL {
        let stats = measure_ideal(scheme, depth, &bench);
        println!(
            "  {:<8} {:>7.2}% miss",
            scheme.name(),
            stats.miss_rate() * 100.0
        );
    }

    println!("\nprediction automata (ideal PATH indexing, depth {depth}):");
    for kind in AutomatonKind::ALL {
        let stats = measure_ideal_path_automaton(kind, depth, &bench);
        println!(
            "  {:<16} {:>7.2}% miss  ({} bits/entry)",
            kind.name(),
            stats.miss_rate() * 100.0,
            kind.storage_bits()
        );
    }

    // Three configs with the same 14-bit index, in one sweep. 6-5-8-9 folds
    // 42 intermediate bits three times and gives older tasks fewer bits
    // than recent ones; 6-1-4-5 fits 14 bits unfolded, so older tasks keep
    // one bit each; 6-6-6-6 folds the same 42 bits spread uniformly. The
    // first config is both the folded and the tapered one.
    let configs = [
        ("folded", Dolc::new(6, 5, 8, 9, 3)),
        ("unfolded", Dolc::new(6, 1, 4, 5, 1)),
        ("uniform", Dolc::new(6, 6, 6, 6, 3)),
    ];
    let dolcs: Vec<Dolc> = configs.iter().map(|&(_, d)| d).collect();
    println!("\nDOLC heuristics (real PATH, LEH-2bit, 14-bit index):");
    for ((label, dolc), (stats, _)) in configs.iter().zip(path_real_sweep(&dolcs, &bench)) {
        println!(
            "  {:<9} {:<12} {:>7.2}% miss",
            label,
            dolc.to_string(),
            stats.miss_rate() * 100.0
        );
    }
}
