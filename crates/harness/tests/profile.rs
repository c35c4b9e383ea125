//! Cycle-attribution invariants: every cycle of every run is attributed to
//! exactly one cause (the breakdown sums to `TimingResult::cycles`), the
//! attribution is engine-independent (the interpreter-fed oracle and the
//! record-once replay produce byte-identical breakdowns), attaching a sink
//! never perturbs timing, and `profile --json` keeps its published schema.

use multiscalar_harness::dispatch::Table4Column;
use multiscalar_harness::experiments::walk_table4;
use multiscalar_harness::pool::Pool;
use multiscalar_harness::{prepare, profile};
use multiscalar_sim::metrics::{Cause, CycleBreakdown, UnitOccupancy};
use multiscalar_sim::replay::{record_replay, simulate_replay, simulate_replay_with_sink};
use multiscalar_sim::timing::{simulate_with_sink, NextTaskPredictor, TimingConfig, N_UNITS};
use multiscalar_workloads::{Spec92, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams::small(0xC0FFEE)
}

/// Every workload × predictor column, on both engines: the breakdown sums
/// exactly to the run's cycle count, both engines report byte-identical
/// breakdowns, and a live sink leaves the `TimingResult` untouched.
#[test]
fn attribution_sums_exactly_and_is_engine_independent() {
    let config = TimingConfig::paper();
    for spec in Spec92::ALL {
        let b = prepare(spec, &params());
        let replay = record_replay(&b.workload.program, &b.tasks, b.workload.max_steps)
            .expect("recording succeeds");
        for column in Table4Column::ALL {
            let mut legacy_bd = CycleBreakdown::new();
            let mut pred = column.predictor();
            let legacy = simulate_with_sink(
                &b.workload.program,
                &b.tasks,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
                b.workload.max_steps,
                &mut legacy_bd,
            )
            .expect("legacy simulation succeeds");

            let mut replay_bd = CycleBreakdown::new();
            let mut pred = column.predictor();
            let fast = simulate_replay_with_sink(
                &replay,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
                &mut replay_bd,
            );

            let label = format!("{spec}/{}", column.name());
            assert_eq!(legacy, fast, "{label}: engines must agree on timing");
            assert_eq!(
                legacy_bd, replay_bd,
                "{label}: engines must agree on attribution"
            );
            assert_eq!(
                legacy_bd.total(),
                legacy.cycles,
                "{label}: every cycle must be attributed exactly once"
            );
            assert!(
                legacy_bd.get(Cause::UsefulIssue) > 0,
                "{label}: some cycles must be useful issue"
            );

            // A live sink must be a pure observer: the no-sink path returns
            // the same result bit for bit.
            let mut pred = column.predictor();
            let unobserved = simulate_replay(
                &replay,
                &b.descs,
                pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
                &config,
            );
            assert_eq!(unobserved, fast, "{label}: sink must not perturb timing");
        }
    }
}

/// Masks every run of digits (including decimal points between digits)
/// with `#`, leaving structure, keys and fixed keywords intact.
fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() {
            while let Some(&n) = chars.peek() {
                if n.is_ascii_digit()
                    || (n == '.' && {
                        let mut ahead = chars.clone();
                        ahead.next();
                        ahead.peek().is_some_and(char::is_ascii_digit)
                    })
                {
                    chars.next();
                } else {
                    break;
                }
            }
            out.push('#');
        } else {
            out.push(c);
        }
    }
    out
}

/// `profile --json` keeps its golden schema: same structure, keys, cause
/// vocabulary and column order, with only the numbers free to change.
#[test]
fn profile_json_matches_golden_schema() {
    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let rows = profile::profile(&benches, &pool, false);
    let json = profile::to_json(&rows);
    assert_eq!(
        mask_numbers(&json),
        include_str!("golden/profile_schema.txt"),
        "profile.json schema drifted; update tests/golden/profile_schema.txt \
         and bump PROFILE_SCHEMA_VERSION if the change is breaking"
    );

    // Cross-check the serialised breakdowns against the structured rows.
    for row in &rows {
        for cell in &row.cells {
            assert_eq!(cell.breakdown.total(), cell.result.cycles);
        }
    }
}

/// `--occupancy` rides the same pass without perturbing it: every cell's
/// timing and breakdown match the occupancy-free run bit for bit, each
/// unit's busy + stalled + idle equals the run's cycles, and the extra
/// columns appear in the render only when requested.
#[test]
fn occupancy_is_a_pure_observer_and_sums_per_unit() {
    let pool = Pool::new(2);
    let benches = vec![prepare(Spec92::Compress, &params())];
    let plain = profile::profile(&benches, &pool, false);
    let with_occ = profile::profile(&benches, &pool, true);

    for (p_row, o_row) in plain.iter().zip(&with_occ) {
        for (p, o) in p_row.cells.iter().zip(&o_row.cells) {
            assert_eq!(p.result, o.result, "occupancy must not perturb timing");
            assert_eq!(p.breakdown, o.breakdown, "nor the attribution");
            assert!(p.occupancy.is_none());
            let occ = o.occupancy.as_ref().expect("occupancy collected");
            for u in 0..N_UNITS {
                assert_eq!(
                    occ.busy()[u] + occ.stalled()[u] + occ.idle()[u],
                    o.result.cycles,
                    "unit {u} must account for every cycle"
                );
            }
            assert!(occ.busy_frac() > 0.0, "some unit-cycles must be busy");
        }
    }

    let plain_render = profile::render(&plain);
    let occ_render = profile::render(&with_occ);
    assert!(!plain_render.contains("u.busy"));
    assert!(occ_render.contains("u.busy") && occ_render.contains("u.idle"));
    assert!(
        occ_render.starts_with(&plain_render[..plain_render.find('\n').unwrap()]),
        "shared header line"
    );
}

/// Attribution survives the lockstep lanes walk: all five Table 4 columns
/// as the lanes of one walk (`walk_table4`), each with a live `(CycleBreakdown,
/// UnitOccupancy)` sink, produce timing results *and* sink streams
/// bit-identical to the interpreter-fed scalar core's solo runs, every
/// breakdown still sums exactly to its run's cycles, and every unit still
/// accounts for every cycle.
#[test]
fn lanes_walk_preserves_attribution_and_occupancy() {
    let config = TimingConfig::paper();
    let b = prepare(Spec92::Compress, &params());

    let mut solo = Vec::new();
    for column in Table4Column::ALL {
        let mut sink = (CycleBreakdown::new(), UnitOccupancy::new());
        let mut pred = column.predictor();
        let result = simulate_with_sink(
            &b.workload.program,
            &b.tasks,
            &b.descs,
            pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor),
            &config,
            b.workload.max_steps,
            &mut sink,
        )
        .expect("legacy simulation succeeds");
        solo.push((result, sink));
    }

    let mut sinks = [(); 5].map(|()| (CycleBreakdown::new(), UnitOccupancy::new()));
    let walked = walk_table4(&b, &mut sinks);

    for (i, column) in Table4Column::ALL.iter().enumerate() {
        let label = format!("Compress/{}", column.name());
        let (solo_result, (solo_bd, solo_occ)) = &solo[i];
        let (lane_bd, lane_occ) = &sinks[i];
        assert_eq!(solo_result, &walked[i], "{label}: timing survives lanes");
        assert_eq!(solo_bd, lane_bd, "{label}: attribution survives lanes");
        assert_eq!(solo_occ, lane_occ, "{label}: occupancy survives lanes");
        assert_eq!(
            lane_bd.total(),
            walked[i].cycles,
            "{label}: every lane cycle attributed exactly once"
        );
        for u in 0..N_UNITS {
            assert_eq!(
                lane_occ.busy()[u] + lane_occ.stalled()[u] + lane_occ.idle()[u],
                walked[i].cycles,
                "{label}: unit {u} accounts for every lane cycle"
            );
        }
    }
}

/// The task-level event log is well-formed JSON lines covering the whole
/// run: one resolve per dynamic task, a squash line per non-gated
/// mispredict, and a final halt record.
#[test]
fn event_log_covers_the_run() {
    let b = prepare(Spec92::Compress, &params());
    let log = profile::events_jsonl(&b, Table4Column::Path);
    let resolves = log.lines().filter(|l| l.contains("\"resolve\"")).count();
    let squashes = log.lines().filter(|l| l.contains("\"squash\"")).count();
    assert!(resolves > 0, "log must contain task resolutions");
    assert!(squashes > 0, "a real predictor must squash somewhere");
    assert!(squashes <= resolves, "at most one squash per boundary");
    let halt = log.lines().last().expect("log is non-empty");
    assert!(
        halt.contains("\"halt\""),
        "log must end with the halt record"
    );
    for line in log.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "malformed event line: {line}"
        );
    }
}
