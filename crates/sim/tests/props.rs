//! Seeded-sweep tests: the functional simulator over random structured
//! programs — trace well-formedness, determinism, and predictor-harness
//! invariants.

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::TaskPredictor;
use multiscalar_sim::measure::{measure_full, task_descs};
use multiscalar_sim::timing::{simulate, NextTaskPredictor, TimingConfig, ISSUE_WIDTH, N_UNITS};
use multiscalar_sim::trace::collect_trace;
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::rng::{Rng, SeedableRng, StdRng};
use multiscalar_workloads::synthetic::{random_program, SyntheticConfig};

type Leh2 = LastExitHysteresis<2>;

#[test]
fn traces_are_well_formed() {
    let mut draws = StdRng::seed_from_u64(0x51B1);
    for _ in 0..48 {
        let seed = draws.gen_range(0..10_000u64);
        let functions = draws.gen_range(1..6usize);
        let constructs = draws.gen_range(1..6usize);
        let p = random_program(
            seed,
            &SyntheticConfig {
                functions,
                constructs,
                nesting: 2,
                mem_ops: 0,
            },
        );
        let tp = TaskFormer::default().form(&p).unwrap();
        let run = collect_trace(&p, &tp, 5_000_000).expect("trace succeeds");

        assert_eq!(run.events.len() as u64, run.stats.dynamic_tasks);
        for e in run.events.iter() {
            let task = tp.task(e.task);
            // The exit index refers to a real header exit of that task.
            let spec = task
                .header()
                .exits()
                .get(e.exit.index())
                .expect("exit exists");
            assert_eq!(spec.kind, e.kind);
            // Control landed on a task entry.
            assert!(tp.task_entered_at(e.next).is_some());
            // Known-target exits must match the recorded destination.
            if let Some(t) = spec.target {
                assert_eq!(t, e.next);
            }
            assert!(e.instrs >= 1);
        }
    }
}

#[test]
fn traces_are_deterministic() {
    for seed in 0..24u64 {
        let p = random_program(seed * 97, &SyntheticConfig::default());
        let tp = TaskFormer::default().form(&p).unwrap();
        let a = collect_trace(&p, &tp, 5_000_000).unwrap();
        let b = collect_trace(&p, &tp, 5_000_000).unwrap();
        assert_eq!(a.events, b.events);
    }
}

#[test]
fn full_predictor_never_panics_and_counts_every_event() {
    for seed in 0..24u64 {
        let p = random_program(seed * 89, &SyntheticConfig::default());
        let tp = TaskFormer::default().form(&p).unwrap();
        let run = collect_trace(&p, &tp, 5_000_000).unwrap();
        let descs = task_descs(&tp);
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(3, 4, 5, 6, 2),
            Dolc::new(3, 3, 4, 4, 2),
            16,
        );
        let stats = measure_full(&mut pred, &descs, &run.events);
        assert_eq!(stats.exits.predictions, run.events.len() as u64);
        assert!(stats.exits.misses <= stats.exits.predictions);
        // An exit miss implies a next-task miss, so next-task misses are
        // at least as common.
        assert!(stats.next_task.misses >= stats.exits.misses);
    }
}

#[test]
fn perfect_timing_dominates_real_timing() {
    for seed in 0..16u64 {
        let p = random_program(seed * 83, &SyntheticConfig::default());
        let tp = TaskFormer::default().form(&p).unwrap();
        let descs = task_descs(&tp);
        let config = TimingConfig::default();
        let perfect = simulate(&p, &tp, &descs, None, &config, 5_000_000).unwrap();
        let mut pred = TaskPredictor::<PathPredictor<Leh2>>::path(
            Dolc::new(3, 4, 5, 6, 2),
            Dolc::new(3, 3, 4, 4, 2),
            16,
        );
        let real = simulate(
            &p,
            &tp,
            &descs,
            Some(&mut pred as &mut dyn NextTaskPredictor),
            &config,
            5_000_000,
        )
        .unwrap();
        assert_eq!(perfect.instructions, real.instructions);
        assert!(
            perfect.cycles <= real.cycles,
            "perfect prediction can never be slower"
        );
        assert_eq!(perfect.task_mispredicts, 0);
        // IPC is bounded by the machine's peak.
        let peak = (N_UNITS as f64) * (ISSUE_WIDTH as f64);
        assert!(perfect.ipc() <= peak + 1e-9);
    }
}

#[test]
fn trace_instruction_totals_match_interpreter() {
    for seed in 0..16u64 {
        let p = random_program(seed * 79, &SyntheticConfig::default());
        let tp = TaskFormer::default().form(&p).unwrap();
        let run = collect_trace(&p, &tp, 5_000_000).unwrap();
        let mut interp = multiscalar_isa::Interpreter::new(&p);
        let out = interp.run(5_000_000).unwrap();
        assert!(out.halted);
        assert_eq!(run.stats.instructions, out.steps);
    }
}
