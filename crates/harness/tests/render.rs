//! Smoke tests for the harness's text rendering and the reproduction
//! scorecard: every renderer produces a non-degenerate table naming its
//! benchmarks, and the scorecard passes on a fresh small-scale run.

use multiscalar_harness::pool::Pool;
use multiscalar_harness::{experiments, extensions, prepare, prepare_all_with, report, verify};
use multiscalar_workloads::{Spec92, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams {
        seed: 0xC0FFEE,
        scale: 1,
    }
}

#[test]
fn every_renderer_produces_named_tables() {
    let b = prepare(Spec92::Sc, &params());
    let benches = [b];
    let pool = Pool::new(2);

    let outputs = [
        report::render_table2(&experiments::table2(&benches)),
        report::render_fig3(&experiments::fig3(&benches)),
        report::render_fig4(&experiments::fig4(&benches)),
        report::render_fig7(&experiments::fig7(&benches, &pool)),
        report::render_fig8(&experiments::fig8(&benches, &pool)),
        report::render_fig10(&experiments::fig10(&benches, &pool)),
        report::render_fig11(&experiments::fig11(&benches, &pool)),
        report::render_fig12(&experiments::fig12(&benches, &pool)),
        report::render_table3(&experiments::table3(&benches, &pool)),
        report::render_staleness(&extensions::ext_staleness(&benches)),
        report::render_pollution(&extensions::ext_pollution(&benches)),
        report::render_hybrid(&extensions::ext_hybrid(&benches)),
        report::render_memory(&extensions::ext_memory(&benches)),
        report::render_confidence(&extensions::ext_confidence(&benches)),
        report::render_intra(&extensions::ext_intra(&benches)),
    ];
    for out in outputs {
        assert!(out.lines().count() >= 3, "degenerate table:\n{out}");
        assert!(out.contains("sc"), "table must name its benchmark:\n{out}");
        // Every table carries numbers: percentages, IPC columns, or the raw
        // counts of Table 2.
        let has_numbers = out.contains('%')
            || out.contains("IPC")
            || out.contains("Tasks")
            || out.contains("ideal");
        assert!(has_numbers, "table must carry numbers:\n{out}");
    }

    let t4 = report::render_table4(&experiments::table4(&benches, &pool));
    assert!(t4.contains("Perfect") && t4.contains("PATH"));
}

#[test]
fn fig6_renderer_names_all_automata() {
    let gcc = prepare(Spec92::Gcc, &params());
    let out = report::render_fig6(&experiments::fig6(&gcc, &Pool::new(1)));
    for name in [
        "LE",
        "LEH-2bit",
        "LEH-1bit",
        "2-bit VC MRU",
        "3-bit VC RANDOM",
    ] {
        assert!(out.contains(name), "missing automaton {name}:\n{out}");
    }
}

#[test]
fn scorecard_holds_on_a_fresh_run() {
    let pool = Pool::new(2);
    let claims = verify::verify(&prepare_all_with(&params(), &pool), &pool);
    assert_eq!(claims.len(), 5, "the five conclusions of §7");
    let rendered = verify::render(&claims);
    assert!(
        rendered.contains("5/5"),
        "all claims must hold:\n{rendered}"
    );
    assert!(verify::all_hold(&claims));
}
