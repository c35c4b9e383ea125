//! End-to-end regression fixtures for the differential fuzz harness: the
//! adversarial fixtures, a pooled seed sweep, and the finding path from a
//! malformed program through shrinking to a parsed reproducer.

use multiscalar_harness::fuzz::{
    adversarial_checks, differential, fuzz_sweep, parse_case, render_finding, run_case, shrink,
    FuzzCase,
};
use multiscalar_harness::pool::Pool;
use multiscalar_isa::{Cond, ProgramBuilder, Reg};

/// A malformed program (branch escaping its function) — the lint oracle
/// must turn it into a `lint` finding, never a panic.
fn cross_function_branch() -> multiscalar_isa::Program {
    let mut b = ProgramBuilder::new();
    let main = b.begin_function("main");
    let elsewhere = b.new_label();
    b.branch(Cond::Eq, Reg(1), Reg(2), elsewhere);
    b.halt();
    b.end_function();
    b.begin_function("other");
    b.nop();
    b.bind(elsewhere);
    b.halt();
    b.end_function();
    b.finish(main).unwrap()
}

#[test]
fn differential_harness_end_to_end() {
    // Adversarial fixtures: zero-exit diagnosed, four-exit max,
    // statically-infeasible branch side.
    let failures = adversarial_checks();
    assert!(failures.is_empty(), "{failures:#?}");

    // A pooled sweep over a pinned seed prefix must come back clean, and
    // identically so at any pool width.
    let serial = fuzz_sweep(0..24, &Pool::new(1));
    let pooled = fuzz_sweep(0..24, &Pool::new(4));
    assert!(serial.findings.is_empty(), "{:#?}", serial.findings);
    assert!(pooled.findings.is_empty(), "{:#?}", pooled.findings);

    // The finding path itself: a malformed program becomes a `lint`
    // finding (diagnosed, not a panic), shrinks to a fixpoint, and its
    // artifact round-trips through the `--repro` parser.
    let (kind, detail) = differential(&cross_function_branch(), 1)
        .expect("malformed program must produce a finding");
    assert_eq!(kind, "lint", "{detail}");

    let case = FuzzCase::from_seed(3);
    let fail_everywhere = |c: &FuzzCase| {
        Some(multiscalar_harness::fuzz::Finding {
            case: *c,
            kind: "synthetic",
            detail: String::new(),
            shrunk: false,
        })
    };
    let shrunk = shrink(fail_everywhere(&case).unwrap(), fail_everywhere);
    assert!(shrunk.shrunk);
    assert_eq!(
        shrunk.case.shape,
        multiscalar_workloads::fuzz::FuzzShape::minimal(),
        "a failure reproducing everywhere must shrink to the minimal shape"
    );
    let parsed = parse_case(&render_finding(&shrunk)).unwrap();
    assert_eq!(parsed, shrunk.case);
    assert_eq!(
        run_case(&parsed).map(|f| f.kind),
        None,
        "the minimal shape itself is clean"
    );
}
