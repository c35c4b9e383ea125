//! `harness fuzz` — the differential fuzzer over every engine.
//!
//! Each seed becomes two [`FuzzCase`]s (see [`seed_cases`]): the bare
//! shape drawn by [`FuzzShape::from_seed`] — byte-identical to every
//! historical run of that seed — plus a companion with boundary-stressing
//! memory-op shapes appended, the hard cases for the bounds pass and the
//! soundness oracle. [`run_case`] drives each case through the full
//! oracle stack:
//!
//! 1. **lint** — every `multiscalar-analyze` pass must come back clean
//!    (errors are generator bugs, exactly like PR 3's lint sweep);
//! 2. **task formation** — the case's former budget (one of
//!    [`crate::extensions::TASKFORM_CONFIGS`]) must partition and validate;
//! 3. **interpreter vs replay** — the sanitize lockstep walk
//!    ([`check_replay_agreement`]) must agree step for step;
//! 4. **lanes vs scalar core** — [`check_fused_agreement`] walks four
//!    slots (perfect, PATH and the two zoo families, on four machines that
//!    share and own intra predictors and ARBs and differ in forwarding) as
//!    one lockstep lanes walk of the recording and must agree per slot,
//!    [`TimingResult`](multiscalar_sim::timing::TimingResult)s and cycle
//!    breakdowns (each summing exactly to `cycles`), with solo runs of the
//!    scalar core fed by the interpreter;
//! 5. **fast sweeps vs scalar oracles** — the lane-packed LEH-2bit sweep
//!    over the Figure 10 ladder must match the scalar fused walk, miss
//!    stats and states-touched both; then the interned ideal sweeps must
//!    match the hash-map oracles at depths 0..=8, miss stats and state
//!    counts both ([`check_ideal_agreement`]: PATH with LEH-2 and VC
//!    RANDOM, GLOBAL and PER with LEH-2, and the ideal CTTB);
//! 6. **analyzer soundness** — the bounds, dead-write, and static-exit
//!    claims the dataflow passes make must survive the concrete execution
//!    ([`multiscalar_analyze::soundness::check_execution`]): a claimed
//!    in-bounds access never faults, a claimed dead write is never read,
//!    a claimed static exit never takes another edge;
//! 7. **assembler round trip** — the program's canonical `.masm` text
//!    ([`multiscalar_isa::to_masm`]) must reassemble to the identical
//!    program, and seeded byte-level mutations of that text must never
//!    panic the assembler (accepted mutants must themselves round-trip).
//!
//! Any violation becomes a [`Finding`]; [`shrink`] walks the shape lattice
//! toward [`FuzzShape::minimal`], keeping each smaller shape that still
//! reproduces the same failure kind, and the result is dumped as a
//! `key=value` reproducer artifact replayable with `harness fuzz --repro`.
//! All oracles run under `catch_unwind`, so one finding never aborts a
//! sweep (the job pool propagates real panics — see `pool.rs`).

use crate::dispatch::ideal_columns;
use crate::extensions::TASKFORM_CONFIGS;
use crate::lint::lint_program;
use crate::pool::Pool;
use multiscalar_core::automata::{
    Automaton, AutomatonKind, LastExit, LastExitHysteresis, VotingCounters,
};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::ideal::{IdealGlobal, IdealPath, IdealPer};
use multiscalar_core::lane::BatchedExitPredictor;
use multiscalar_core::predictor::{ExitPredictor, TaskDesc, TaskPredictor};
use multiscalar_core::target::IdealCttb;
use multiscalar_core::zoo::{GatedHybridPredictor, GshareExitPredictor};
use multiscalar_isa::Program;
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::measure::{
    measure_exits_batched, measure_exits_fused, measure_ideal_global, measure_ideal_path,
    measure_ideal_per, measure_ideal_targets, measure_indirect_targets_fused, task_descs,
    MissStats,
};
use multiscalar_sim::replay::{derive_trace, record_replay};
use multiscalar_sim::sanitize::{check_fused_agreement, check_replay_agreement, FusedSlot};
use multiscalar_sim::timing::{ForwardingModel, IntraPredictorKind, TimingConfig};
use multiscalar_sim::trace::SharedTrace;
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::fuzz::{
    fuzz_program, FuzzShape, FORMER_BUDGETS, MAX_CONSTRUCTS, MAX_FUNCTIONS, MAX_MEMOPS,
    MAX_NESTING, MAX_STEPS,
};
use std::panic::AssertUnwindSafe;

type Leh2 = LastExitHysteresis<2>;

/// The pinned seed range `harness fuzz --smoke` sweeps in CI: small enough
/// to finish well under a minute, fixed so the job is deterministic.
pub const SMOKE_SEEDS: std::ops::Range<u64> = 0..64;

/// One fuzz case: the seed and the shape it fuzzes at. The shape is
/// carried explicitly (not re-derived) so shrinking can vary it while the
/// seed — and hence the generator's body stream — stays fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// Program-body seed.
    pub seed: u64,
    /// Size/shape coordinates.
    pub shape: FuzzShape,
}

impl FuzzCase {
    /// The case a bare seed runs: seed plus its derived shape.
    pub fn from_seed(seed: u64) -> FuzzCase {
        FuzzCase {
            seed,
            shape: FuzzShape::from_seed(seed),
        }
    }

    /// The program this case runs.
    pub fn program(&self) -> Program {
        fuzz_program(self.seed, &self.shape)
    }
}

/// One oracle violation, tied to the case that produced it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The (possibly shrunk) case that reproduces the failure.
    pub case: FuzzCase,
    /// Stable failure-kind tag (shrinking only accepts same-kind repros).
    pub kind: &'static str,
    /// Human-readable detail (flattened to one line in artifacts).
    pub detail: String,
    /// Whether [`shrink`] ran to a fixpoint on this finding.
    pub shrunk: bool,
}

/// Renders a panic payload for a finding detail.
fn payload_str(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f`, converting a panic (a sanitize assertion firing) into `Err`.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(payload_str)
}

/// The four slots the lanes/scalar oracle cross-checks, each a predictor
/// on a machine: perfect and the paper's PATH on the paper machine, the
/// gshare zoo family on release-at-end forwarding with no ARB, and the
/// gated hybrid on a McFarling intra predictor with a 1×1 ARB. Every new
/// predictor family is held to the same bit-identity bar as the paper's,
/// and between them the lanes share an intra predictor and an ARB, differ
/// in forwarding, and own a predictor and an ARB outright.
fn fused_slots() -> Vec<FusedSlot> {
    let cttb = Dolc::new(4, 3, 4, 4, 2);
    let paper = TimingConfig::paper();
    let tiny = ArbConfig {
        banks: 1,
        entries_per_bank: 1,
    };
    vec![
        (None, paper),
        (
            Some(Box::new(TaskPredictor::<PathPredictor<Leh2>>::path(
                Dolc::new(4, 4, 6, 6, 2),
                cttb,
                16,
            ))),
            paper,
        ),
        (
            Some(Box::new(TaskPredictor::new(
                GshareExitPredictor::<Leh2>::new(6, 12),
                cttb,
                16,
            ))),
            paper.forwarding(ForwardingModel::ReleaseAtEnd).arb(None),
        ),
        (
            Some(Box::new(TaskPredictor::new(
                GatedHybridPredictor::<Leh2>::new(8, Dolc::new(4, 4, 6, 6, 2), 8, 4),
                cttb,
                16,
            ))),
            paper
                .intra_predictor(IntraPredictorKind::McFarling)
                .arb(Some(tiny)),
        ),
    ]
}

/// Runs an arbitrary program through the whole differential oracle stack
/// under the given former budget (an index into
/// [`crate::extensions::TASKFORM_CONFIGS`]). Returns the first violation as
/// `(kind, detail)`, or `None` when every oracle passes. This is
/// [`run_case`] minus the generation step, shared with the adversarial
/// fixtures in `tests/fuzz.rs`.
pub fn differential(program: &Program, former: usize) -> Option<(&'static str, String)> {
    // Oracle 1: lint (task formation under the default budget + analyze).
    let lint = lint_program("fuzz", program.clone());
    if lint.errors() > 0 {
        let first = lint
            .diagnostics
            .iter()
            .find(|d| d.severity == multiscalar_analyze::Severity::Error)
            .map(|d| d.message.clone())
            .unwrap_or_default();
        return Some(("lint", format!("{} errors; first: {first}", lint.errors())));
    }

    // Oracle 2: formation + validation under the case's budget.
    let (label, config) = TASKFORM_CONFIGS[former % TASKFORM_CONFIGS.len()];
    let tasks = match TaskFormer::new(config).form(program) {
        Ok(t) => t,
        Err(e) => return Some(("formation", format!("budget {label}: {e}"))),
    };
    if let Err(e) = tasks.validate(program) {
        return Some(("formation", format!("budget {label}: validate: {e}")));
    }

    // Oracle 3: interpreter vs replay step feeds, in lockstep.
    match catching(|| check_replay_agreement(program, &tasks, MAX_STEPS)) {
        Ok(Ok(_steps)) => {}
        Ok(Err(e)) => return Some(("trace-error", e.to_string())),
        Err(panic) => return Some(("replay-divergence", panic)),
    }

    // Oracle 4: one lanes walk vs the interpreter-fed scalar core, four
    // mixed slots.
    let descs = task_descs(&tasks);
    match catching(|| check_fused_agreement(program, &tasks, &descs, MAX_STEPS, fused_slots())) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Some(("trace-error", e.to_string())),
        Err(panic) => return Some(("fused-divergence", panic)),
    }

    // Oracle 5: lane-packed batched sweep vs the scalar fused walk...
    let replay = match record_replay(program, &tasks, MAX_STEPS) {
        Ok(r) => r,
        Err(e) => return Some(("trace-error", e.to_string())),
    };
    let trace = derive_trace(&replay, &tasks);
    let configs = crate::dispatch::exit_ladder();
    let packed_check = catching(|| {
        let mut batch =
            BatchedExitPredictor::new(&configs).expect("the Figure 10 ladder always packs");
        let packed = measure_exits_batched(&mut batch, &descs, &trace.events);
        let mut scalars: Vec<PathPredictor<Leh2>> =
            configs.iter().map(|&d| PathPredictor::new(d)).collect();
        let stats = measure_exits_fused(&mut scalars, &descs, &trace.events);
        let scalar: Vec<_> = stats
            .into_iter()
            .zip(scalars.iter().map(|p| p.states_touched()))
            .collect();
        (packed == scalar)
            .then_some(())
            .ok_or_else(|| format!("lane-packed {packed:?}\n  vs scalar {scalar:?}"))
    });
    match packed_check {
        Ok(Ok(())) => {}
        Ok(Err(detail)) => return Some(("lane-packed-divergence", detail)),
        Err(panic) => return Some(("lane-packed-divergence", panic)),
    }
    // ...and the interned ideal sweeps vs the hash-map oracles.
    match catching(|| check_ideal_agreement(&ORACLE_KINDS, &descs, &trace.events)) {
        Ok(Ok(())) => {}
        Ok(Err(detail)) => return Some(("ideal-divergence", detail)),
        Err(panic) => return Some(("ideal-divergence", panic)),
    }

    // Oracle 6: analyzer soundness — replay the bounds, dead-write and
    // static-exit claims against the concrete execution.
    match catching(|| multiscalar_analyze::soundness::check_execution(program, &tasks, MAX_STEPS)) {
        Ok(v) if v.is_empty() => {}
        Ok(v) => {
            return Some((
                "soundness",
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            ))
        }
        Err(panic) => return Some(("soundness", panic)),
    }

    // Oracle 7: assembler round trip — the canonical `.masm` text must
    // reassemble to the identical program, and seeded text mutations must
    // never panic the assembler; whatever mutated text it still accepts
    // must itself reach a canonical fixed point.
    match catching(|| masm_roundtrip_check(program)) {
        Ok(None) => None,
        Ok(Some(detail)) => Some(("masm-roundtrip", detail)),
        Err(panic) => Some(("masm-roundtrip", panic)),
    }
}

/// The automata oracle 5 runs ideal PATH with: the paper's LEH-2 and a
/// VC RANDOM kind, whose tie draws must follow the oracle's order.
const ORACLE_KINDS: [AutomatonKind; 2] = [AutomatonKind::Leh2, AutomatonKind::Vc3Random];

/// The ideal half of oracle 5: at every depth of
/// [`DEPTHS`](crate::experiments::DEPTHS), the interned ideal sweeps must
/// equal the hash-map oracles they replace, miss stats and state counts
/// both. That covers PATH for each of `kinds` (in one walk, as Figure 6
/// runs them), GLOBAL and PER with LEH-2, and the ideal CTTB.
///
/// # Errors
///
/// Describes the first sweep that diverges.
pub fn check_ideal_agreement(
    kinds: &[AutomatonKind],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Result<(), String> {
    let depths: Vec<u32> = crate::experiments::DEPTHS.collect();
    let with_states = |stats: &[MissStats], states: &[usize]| -> Vec<(MissStats, usize)> {
        stats
            .iter()
            .zip(&depths)
            .map(|(&s, &d)| (s, states[d as usize]))
            .collect()
    };
    let compare = |what: &str, interned: Vec<(MissStats, usize)>, oracle| {
        if interned == oracle {
            Ok(())
        } else {
            Err(format!(
                "{what}: interned {interned:?}\n  vs oracle {oracle:?}"
            ))
        }
    };

    let mut families: Vec<_> = kinds.iter().map(|&k| ideal_columns(k, &depths)).collect();
    let path = measure_ideal_path(&mut families, descs, events);
    for (&kind, stats) in kinds.iter().zip(&path.stats) {
        compare(
            &format!("ideal PATH {}", kind.name()),
            with_states(stats, &path.states),
            oracle_ideal_path(kind, &depths, descs, events),
        )?;
    }

    let leh2 = || vec![ideal_columns(AutomatonKind::Leh2, &depths)];
    let global = measure_ideal_global(&mut leh2(), events);
    compare(
        "ideal GLOBAL",
        with_states(&global.stats[0], &global.states),
        oracle_exits(
            depths
                .iter()
                .map(|&d| IdealGlobal::<Leh2>::new(d))
                .collect(),
            descs,
            events,
        ),
    )?;
    let per = measure_ideal_per(&mut leh2(), events);
    compare(
        "ideal PER",
        with_states(&per.stats[0], &per.states),
        oracle_exits(
            depths.iter().map(|&d| IdealPer::<Leh2>::new(d)).collect(),
            descs,
            events,
        ),
    )?;

    let cttb_depths: Vec<usize> = depths.iter().map(|&d| d as usize).collect();
    let mut oracle: Vec<IdealCttb> = cttb_depths.iter().map(|&d| IdealCttb::new(d)).collect();
    let stats = measure_indirect_targets_fused(&mut oracle, descs, events);
    compare(
        "ideal CTTB",
        measure_ideal_targets(&cttb_depths, events),
        stats
            .into_iter()
            .zip(oracle.iter().map(|b| b.states()))
            .collect(),
    )
}

/// Miss stats and state counts of hash-map oracle predictors, measured in
/// one fused walk.
fn oracle_exits<P: ExitPredictor>(
    mut predictors: Vec<P>,
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    let stats = measure_exits_fused(&mut predictors, descs, events);
    stats
        .into_iter()
        .zip(predictors.iter().map(|p| p.states_touched()))
        .collect()
}

/// The hash-map oracle of an ideal PATH sweep: one [`IdealPath`] of the
/// given automaton per depth.
fn oracle_ideal_path(
    kind: AutomatonKind,
    depths: &[u32],
    descs: &[TaskDesc],
    events: &SharedTrace,
) -> Vec<(MissStats, usize)> {
    fn run<A: Automaton>(
        depths: &[u32],
        descs: &[TaskDesc],
        events: &SharedTrace,
    ) -> Vec<(MissStats, usize)> {
        let ps: Vec<IdealPath<A>> = depths.iter().map(|&d| IdealPath::new(d)).collect();
        oracle_exits(ps, descs, events)
    }
    match kind {
        AutomatonKind::Vc2Mru => run::<VotingCounters<2, true>>(depths, descs, events),
        AutomatonKind::Vc2Random => run::<VotingCounters<2, false>>(depths, descs, events),
        AutomatonKind::Leh1 => run::<LastExitHysteresis<1>>(depths, descs, events),
        AutomatonKind::Vc3Mru => run::<VotingCounters<3, true>>(depths, descs, events),
        AutomatonKind::Vc3Random => run::<VotingCounters<3, false>>(depths, descs, events),
        AutomatonKind::Leh2 => run::<LastExitHysteresis<2>>(depths, descs, events),
        AutomatonKind::LastExit => run::<LastExit>(depths, descs, events),
    }
}

/// How many mutated texts oracle 7 throws at the assembler per case.
const MASM_MUTANTS: usize = 8;

/// The assembler round-trip oracle: `parse(to_masm(p)) == p` exactly, and
/// the assembler is total over [`MASM_MUTANTS`] seeded byte-level
/// mutations of the canonical text — rejecting with diagnostics is fine,
/// panicking is a finding, and any *accepted* mutant must itself
/// round-trip through its own canonical form.
fn masm_roundtrip_check(program: &Program) -> Option<String> {
    let text = multiscalar_isa::to_masm(program);
    match multiscalar_isa::parse_program(&text) {
        Err(e) => return Some(format!("canonical text rejected: {e}")),
        Ok(p) if &p != program => {
            return Some("canonical text reassembles to a different program".to_string())
        }
        Ok(_) => {}
    }
    // The mutation stream is seeded from the program fingerprint, so a
    // sweep is deterministic per seed with no global randomness.
    let mut state = program.fingerprint().lo ^ 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..MASM_MUTANTS {
        let mutated = mutate_masm(&text, &mut rng);
        if let Ok(accepted) = multiscalar_isa::parse_program(&mutated) {
            let canon = multiscalar_isa::to_masm(&accepted);
            match multiscalar_isa::parse_program(&canon) {
                Ok(p) if p == accepted => {}
                Ok(_) => {
                    return Some(format!(
                        "mutant {i}: accepted text's canonical form reassembles differently"
                    ))
                }
                Err(e) => {
                    return Some(format!(
                        "mutant {i}: accepted text's canonical form is rejected: {e}"
                    ))
                }
            }
        }
    }
    None
}

/// One seeded byte-level mutation of `.masm` text: a few deletions,
/// insertions or replacements of printable ASCII (plus newlines, to move
/// statement boundaries around).
fn mutate_masm(text: &str, rng: &mut impl FnMut() -> u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let printable = |r: u64| {
        // 0..95 → space..tilde, 95 → newline.
        let c = (r % 96) as u8;
        if c == 95 {
            b'\n'
        } else {
            b' ' + c
        }
    };
    let edits = 1 + (rng() % 4) as usize;
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let pos = (rng() % bytes.len() as u64) as usize;
        match rng() % 3 {
            0 => {
                bytes.remove(pos);
            }
            1 => bytes.insert(pos, printable(rng())),
            _ => bytes[pos] = printable(rng()),
        }
    }
    // Mutations only touch single ASCII bytes, so the result is valid
    // UTF-8; `from_utf8_lossy` is belt and braces.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs one fuzz case through every oracle. `None` means the case passed.
pub fn run_case(case: &FuzzCase) -> Option<Finding> {
    let program = case.program();
    differential(&program, case.shape.former).map(|(kind, detail)| Finding {
        case: *case,
        kind,
        detail,
        shrunk: false,
    })
}

/// Shrinks a finding to a fixpoint: repeatedly re-runs the oracle stack on
/// one-step-smaller shapes ([`FuzzShape::shrink_candidates`]), adopting the
/// first candidate that reproduces the **same failure kind** (a different
/// kind is a different bug — it will surface under its own seed). The
/// candidate order descends strictly toward [`FuzzShape::minimal`], so this
/// terminates.
pub fn shrink(finding: Finding, check: impl Fn(&FuzzCase) -> Option<Finding>) -> Finding {
    let mut best = finding;
    loop {
        let repro = best
            .case
            .shape
            .shrink_candidates()
            .into_iter()
            .find_map(|shape| {
                let cand = FuzzCase {
                    seed: best.case.seed,
                    shape,
                };
                check(&cand).filter(|f| f.kind == best.kind)
            });
        match repro {
            Some(f) => best = f,
            None => break,
        }
    }
    best.shrunk = true;
    best
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds swept (end exclusive).
    pub seeds: std::ops::Range<u64>,
    /// Cases run (two per seed: bare shape + memop companion).
    pub cases: usize,
    /// Shrunk findings, in seed order.
    pub findings: Vec<Finding>,
}

/// The cases one seed contributes to a sweep: the bare seed-derived shape
/// (byte-identical to every historical run of that seed), plus a companion
/// with 1..=[`MAX_MEMOPS`] boundary-stressing memory-op shapes appended —
/// the hard cases for the bounds pass and the soundness oracle.
pub fn seed_cases(seed: u64) -> [FuzzCase; 2] {
    let base = FuzzCase::from_seed(seed);
    let hard = FuzzCase {
        seed,
        shape: FuzzShape {
            memops: 1 + (seed % MAX_MEMOPS as u64) as usize,
            ..base.shape
        },
    };
    [base, hard]
}

/// Sweeps `seeds` ([`seed_cases`] per seed), one pool job per case, then
/// shrinks every finding serially (findings are the rare path). Results are
/// deterministic in the seed range regardless of pool width: jobs are
/// independent and come back in submission order.
pub fn fuzz_sweep(seeds: std::ops::Range<u64>, pool: &Pool) -> FuzzReport {
    let cases: Vec<FuzzCase> = seeds.clone().flat_map(seed_cases).collect();
    let jobs: Vec<_> = cases.iter().map(|&case| move || run_case(&case)).collect();
    let findings = pool
        .run(jobs)
        .into_iter()
        .flatten()
        .map(|f| shrink(f, run_case))
        .collect();
    FuzzReport {
        seeds,
        cases: cases.len(),
        findings,
    }
}

/// Serialises a finding as a replayable `key=value` artifact
/// (`harness fuzz --repro FILE` re-runs it).
pub fn render_finding(f: &Finding) -> String {
    let detail_one_line = f.detail.replace('\n', "; ");
    format!(
        "seed={}\n{}kind={}\ndetail={}\n",
        f.case.seed,
        f.case.shape.render(),
        f.kind,
        detail_one_line
    )
}

/// Parses a reproducer artifact back into the case to re-run. Ignores
/// unknown keys (`kind=`/`detail=` are informational).
///
/// # Errors
///
/// A missing `seed=` line, a value that is not a number, or a shape value
/// outside the range [`FuzzShape`] documents for its key, named in the
/// message: generating a program out of range panics or runs without
/// bound, outside the oracles' panic guard.
pub fn parse_case(text: &str) -> Result<FuzzCase, String> {
    let mut case = FuzzCase::from_seed(0);
    let mut saw_seed = false;
    for line in text.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let parse = |v: &str| -> Result<u64, String> {
            v.trim()
                .parse()
                .map_err(|e| format!("bad value for {key}: {e}"))
        };
        let bounded = |v: &str, min: usize, max: usize| -> Result<usize, String> {
            let n = parse(v)?;
            usize::try_from(n)
                .ok()
                .filter(|n| (min..=max).contains(n))
                .ok_or_else(|| format!("{key}={n} is outside {min}..={max}"))
        };
        match key {
            "seed" => {
                case.seed = parse(value)?;
                saw_seed = true;
            }
            "functions" => case.shape.functions = bounded(value, 1, MAX_FUNCTIONS)?,
            "constructs" => case.shape.constructs = bounded(value, 1, MAX_CONSTRUCTS)?,
            "nesting" => case.shape.nesting = bounded(value, 0, MAX_NESTING as usize)? as u32,
            "former" => case.shape.former = bounded(value, 0, FORMER_BUDGETS - 1)?,
            "memops" => case.shape.memops = bounded(value, 0, MAX_MEMOPS)?,
            _ => {}
        }
    }
    if !saw_seed {
        return Err("reproducer has no seed= line".to_string());
    }
    Ok(case)
}

/// Renders the sweep outcome (stdout; deterministic in the seed range).
pub fn render_report(report: &FuzzReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fuzz: seeds {}..{}, {} cases, {} findings",
        report.seeds.start,
        report.seeds.end,
        report.cases,
        report.findings.len()
    );
    for f in &report.findings {
        let _ = writeln!(
            s,
            "  seed {} [{}] shape f{} c{} n{} b{} m{}: {}",
            f.case.seed,
            f.kind,
            f.case.shape.functions,
            f.case.shape.constructs,
            f.case.shape.nesting,
            f.case.shape.former,
            f.case.shape.memops,
            f.detail.replace('\n', "; ")
        );
    }
    s
}

// ---------------------------------------------------------------------------
// Adversarial fixtures: the taskform corners random generation rarely hits.
// ---------------------------------------------------------------------------

/// A loop whose body is a two-level branch tree on the iteration counter's
/// low bits. The three tree blocks form one region with exactly
/// [`multiscalar_isa::MAX_EXITS`] (four) exits — each leaf block below the
/// tree ends in a branch with two *fresh* targets, so absorbing any leaf
/// would push the region to five exits and the former must stop at four.
/// All eight iterations together take every one of the four exits.
fn four_exit_program() -> Program {
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    let mut b = ProgramBuilder::new();
    let main = b.begin_function("main");
    // Preheader: i = 0, trips = 8, zero = 0.
    b.load_imm(Reg(1), 0);
    b.load_imm(Reg(3), 8);
    b.load_imm(Reg(7), 0);
    let (odd, f, d, join) = (b.new_label(), b.new_label(), b.new_label(), b.new_label());
    // Tree root A (loop header): test i&1.
    let top = b.here_label();
    b.op_imm(AluOp::And, Reg(5), Reg(1), 1);
    b.branch(Cond::Ne, Reg(5), Reg(7), odd);
    // Even side C: test i&2 → leaf F or (fallthrough) leaf G.
    b.op_imm(AluOp::And, Reg(6), Reg(1), 2);
    b.branch(Cond::Ne, Reg(6), Reg(7), f);
    // Each leaf: bump an accumulator, then branch on an always-false
    // condition so the leaf contributes two fresh targets (the statically
    // reachable but never-taken side, and a fallthrough) — this is what
    // pins the tree region at exactly four exits.
    let leaf = |b: &mut ProgramBuilder, bump: i32| {
        let never = b.new_label();
        b.op_imm(AluOp::Add, Reg(4), Reg(4), bump);
        b.branch(Cond::Ne, Reg(5), Reg(5), never);
        b.jump(join);
        b.bind(never);
        b.jump(join);
    };
    leaf(&mut b, 1); // leaf G (even, i&2 == 0)
    b.bind(f);
    leaf(&mut b, 2); // leaf F (even, i&2 != 0)
                     // Odd side B: test i&2 → leaf D or (fallthrough) leaf E.
    b.bind(odd);
    b.op_imm(AluOp::And, Reg(6), Reg(1), 2);
    b.branch(Cond::Ne, Reg(6), Reg(7), d);
    leaf(&mut b, 3); // leaf E
    b.bind(d);
    leaf(&mut b, 4); // leaf D
    b.bind(join);
    b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(Cond::Lt, Reg(1), Reg(3), top);
    b.halt();
    b.end_function();
    b.finish(main).expect("four-exit program builds")
}

/// A loop with a branch comparing a register against itself with `Ne` —
/// the taken side exists statically (it is a real exit in the task header)
/// but can never be taken dynamically.
fn infeasible_branch_program() -> Program {
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    let mut b = ProgramBuilder::new();
    let main = b.begin_function("main");
    b.load_imm(Reg(1), 0);
    b.load_imm(Reg(4), 5);
    let dead = b.new_label();
    let top = b.here_label();
    b.branch(Cond::Ne, Reg(1), Reg(1), dead); // never taken
    b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(Cond::Lt, Reg(1), Reg(4), top);
    b.halt();
    b.bind(dead);
    b.halt();
    b.end_function();
    b.finish(main).expect("infeasible-branch program builds")
}

/// Number of checks [`adversarial_checks`] runs (for reporting).
pub const ADVERSARIAL_CHECKS: usize = 3;

/// Adversarial phase: hand-built taskform edge cases. Returns one message
/// per failed check (empty = all pass).
pub fn adversarial_checks() -> Vec<String> {
    use multiscalar_taskform::{TaskFlowGraph, TaskHeader};

    let mut failures = Vec::new();
    let mut check = |name: &str, result: Result<(), String>| {
        if let Err(e) = result {
            failures.push(format!("adversarial `{name}`: {e}"));
        }
    };

    // A zero-exit task (possible only through a buggy former; synthesised
    // here by emptying a formed header) must be *diagnosed* by the analyze
    // gate — the same gate `differential` runs first — not crash later
    // stages.
    check(
        "zero-exit-diagnosed",
        (|| {
            let p = infeasible_branch_program();
            let mut tasks = TaskFormer::default()
                .form(&p)
                .map_err(|e| format!("formation failed: {e}"))?;
            let victim = tasks
                .task_at(p.entry_point())
                .ok_or_else(|| "no task at entry".to_string())?;
            tasks.tasks_mut()[victim.index()].set_header(TaskHeader::new(vec![]));
            let diags = multiscalar_analyze::analyze(&p, &tasks, &TaskFlowGraph::build(&tasks));
            if diags.iter().any(|d| {
                d.severity == multiscalar_analyze::Severity::Error
                    && d.message == "task has no exits"
            }) {
                Ok(())
            } else {
                Err(format!("zero-exit task not diagnosed: {diags:?}"))
            }
        })(),
    );

    // The full four-exit header must survive every engine bit-identically
    // (default former budget; the branch-tree region pins itself at four
    // exits — see `four_exit_program`).
    check(
        "four-exit-max",
        (|| {
            let p = four_exit_program();
            let tasks = TaskFormer::new(TASKFORM_CONFIGS[1].1)
                .form(&p)
                .map_err(|e| format!("formation failed: {e}"))?;
            if !tasks.tasks().iter().any(|t| t.header().num_exits() == 4) {
                Err("no task reached 4 exits".to_string())
            } else {
                match differential(&p, 1) {
                    None => Ok(()),
                    Some((kind, detail)) => Err(format!("[{kind}] {detail}")),
                }
            }
        })(),
    );

    // An exit that is statically present but dynamically infeasible must
    // pass every oracle (predictor tables carry a never-observed exit).
    check("infeasible-branch-side", {
        match differential(&infeasible_branch_program(), 1) {
            None => Ok(()),
            Some((kind, detail)) => Err(format!("[{kind}] {detail}")),
        }
    });

    failures
}

/// The registry tool entry: replay one reproducer (`--repro FILE`) or run
/// the adversarial fixtures plus a seeded sweep, findings dumped as
/// artifact files and reflected in the output's pass/fail.
pub fn run_tool(ctx: &crate::registry::ExpCtx) -> Result<crate::registry::Output, String> {
    use crate::registry::Output;
    // Replaying one dumped reproducer: parse, re-run, report.
    if let Some(path) = &ctx.req.opts.repro {
        let text = crate::read_input(path)?;
        let case = parse_case(&text).map_err(|e| format!("bad reproducer {path}: {e}"))?;
        return Ok(match run_case(&case) {
            None => Output::text(format!("repro seed {}: all oracles pass\n", case.seed)),
            Some(f) => Output {
                body: format!(
                    "repro seed {}: [{}] {}\n",
                    f.case.seed,
                    f.kind,
                    f.detail.replace('\n', "; ")
                ),
                files: Vec::new(),
                ok: false,
            },
        });
    }
    let seeds = match (&ctx.req.opts.seeds, ctx.req.opts.smoke) {
        (Some(r), _) => r.clone(),
        (None, true) => SMOKE_SEEDS,
        (None, false) => {
            return Err("fuzz needs --seeds A..B (or --smoke for the pinned CI range)".to_string())
        }
    };
    // Adversarial fixtures first. Their failure detail goes to stderr (a
    // daemon log line under `serve`), the count into the body.
    let adversarial = adversarial_checks();
    for msg in &adversarial {
        eprintln!("{msg}");
    }
    let mut body = format!(
        "adversarial: {} checks, {} failures\n",
        ADVERSARIAL_CHECKS,
        adversarial.len()
    );
    let report = fuzz_sweep(seeds, ctx.pool);
    body.push_str(&render_report(&report));
    let files = report
        .findings
        .iter()
        .map(|f| {
            (
                format!("fuzz-findings/seed-{}-{}.txt", f.case.seed, f.kind),
                render_finding(f),
            )
        })
        .collect();
    Ok(Output {
        body,
        files,
        ok: adversarial.is_empty() && report.findings.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_pass_every_oracle() {
        for seed in [0, 1, 17] {
            let case = FuzzCase::from_seed(seed);
            assert!(run_case(&case).is_none(), "seed {seed} must be clean");
        }
    }

    #[test]
    fn memop_companion_cases_pass_every_oracle() {
        for seed in [0, 5, 17] {
            let [base, hard] = seed_cases(seed);
            assert_eq!(base.shape.memops, 0);
            assert!((1..=MAX_MEMOPS).contains(&hard.shape.memops), "{hard:?}");
            assert!(
                run_case(&hard).is_none(),
                "seed {seed} memop companion must be clean"
            );
        }
    }

    #[test]
    fn shrink_descends_to_a_minimal_same_kind_reproducer() {
        // A synthetic failure predicate: "fails" whenever constructs >= 2
        // and nesting >= 1. The minimal reproducer under shrink_candidates'
        // descent is exactly (constructs=2, nesting=1) with other
        // dimensions floored.
        let fails = |case: &FuzzCase| {
            (case.shape.constructs >= 2 && case.shape.nesting >= 1).then(|| Finding {
                case: *case,
                kind: "synthetic",
                detail: String::new(),
                shrunk: false,
            })
        };
        let start = FuzzCase {
            seed: 99,
            shape: FuzzShape {
                functions: 6,
                constructs: 6,
                nesting: 3,
                former: 2,
                memops: 0,
            },
        };
        let shrunk = shrink(fails(&start).unwrap(), fails);
        assert!(shrunk.shrunk);
        assert_eq!(shrunk.case.seed, 99);
        assert_eq!(shrunk.case.shape.functions, 1);
        assert_eq!(shrunk.case.shape.constructs, 2);
        assert_eq!(shrunk.case.shape.nesting, 1);
        assert_eq!(shrunk.case.shape.former, 1);
    }

    #[test]
    fn artifacts_round_trip() {
        let f = Finding {
            case: FuzzCase::from_seed(42),
            kind: "lint",
            detail: "two\nlines".to_string(),
            shrunk: true,
        };
        let text = render_finding(&f);
        assert!(text.contains("detail=two; lines"), "{text}");
        let parsed = parse_case(&text).unwrap();
        assert_eq!(parsed, f.case);
        assert!(parse_case("kind=lint\n").is_err(), "seed is mandatory");
    }

    /// Every shape the shrinker can reach from the largest shapes, at
    /// every former budget, renders to a reproducer that parses back.
    #[test]
    fn every_shrinkable_shape_round_trips() {
        let mut todo: Vec<FuzzShape> = (0..FORMER_BUDGETS)
            .map(|former| FuzzShape {
                functions: MAX_FUNCTIONS,
                constructs: MAX_CONSTRUCTS,
                nesting: MAX_NESTING,
                former,
                memops: MAX_MEMOPS,
            })
            .collect();
        let mut seen = Vec::new();
        while let Some(shape) = todo.pop() {
            if seen.contains(&shape) {
                continue;
            }
            let f = Finding {
                case: FuzzCase { seed: 7, shape },
                kind: "synthetic",
                detail: String::new(),
                shrunk: false,
            };
            assert_eq!(parse_case(&render_finding(&f)), Ok(f.case));
            todo.extend(shape.shrink_candidates());
            seen.push(shape);
        }
        let nesting = MAX_NESTING as usize + 1;
        let all = MAX_FUNCTIONS * MAX_CONSTRUCTS * nesting * (MAX_MEMOPS + 1) * FORMER_BUDGETS;
        assert_eq!(seen.len(), all, "every in-range shape is reachable");
    }

    /// A shape value outside its documented range is refused with an
    /// error that names the key, before any program is generated.
    #[test]
    fn out_of_range_shapes_are_refused() {
        for (line, range) in [
            ("functions=0", "1..=6"),
            ("functions=7", "1..=6"),
            ("constructs=0", "1..=6"),
            ("nesting=4", "0..=3"),
            ("nesting=4294967296", "0..=3"),
            ("former=3", "0..=2"),
            ("former=7", "0..=2"),
            ("memops=5", "0..=4"),
            ("memops=1000000", "0..=4"),
        ] {
            let err = parse_case(&format!("seed=1\n{line}\n")).unwrap_err();
            assert_eq!(err, format!("{line} is outside {range}"));
        }
        assert_eq!(
            parse_case("seed=1\nmemops=x\n").unwrap_err(),
            "bad value for memops: invalid digit found in string"
        );
    }
}
