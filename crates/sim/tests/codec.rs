//! Codec guarantees over the real workload set: round-trip identity on all
//! five SPEC92 analogs, a decoded recording's trace equal to a fresh
//! recording's, adversarial decoding that errs instead of panicking, the
//! load that leaves the instruction section on disk, and walks over a
//! loaded recording, which read that section chunk by chunk, equal to
//! walks over the fresh one, at chunk edges and on every benchmark.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::{TaskDesc, TaskPredictor};
use multiscalar_isa::{fingerprint_of, AluOp, Cond, Fingerprint, Program, ProgramBuilder, Reg};
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::codec::{open_replay, Rerecord, CHUNK_OPS};
use multiscalar_sim::replay::{
    derive_trace, record_replay, simulate_replay, walk_lanes, InstrReplay, Lane,
};
use multiscalar_sim::timing::{
    ForwardingModel, IntraPredictorKind, NextTaskPredictor, TimingConfig, TimingResult,
};
use multiscalar_sim::trace::collect_trace;
use multiscalar_sim::{
    decode_replay, encode_replay, measure_outcomes, task_descs, CodecError, CycleBreakdown,
    Outcomes,
};
use multiscalar_taskform::{TaskFormer, TaskProgram};
use multiscalar_workloads::{Spec92, WorkloadParams};

/// `decode(encode(r)) == r` on every workload, and the trace of the
/// decoded recording (its boundary section and statistics) equals the
/// trace of a fresh interpreter run — the property that lets one cached
/// artifact serve both the functional trace and the timing runs.
#[test]
fn round_trip_and_derived_trace_match_on_all_workloads() {
    let params = WorkloadParams::small(7);
    for &spec in &Spec92::ALL {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
        let key = fingerprint_of(&(spec.name(), params.seed, params.scale));

        let bytes = encode_replay(&replay, key);
        let decoded = decode_replay(&bytes, key).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(decoded, replay, "{spec}: round-trip must be identity");

        let derived = derive_trace(&decoded, &tasks);
        let direct = collect_trace(&w.program, &tasks, w.max_steps).unwrap();
        assert_eq!(derived.events, direct.events, "{spec}: derived events");
        assert_eq!(derived.stats, direct.stats, "{spec}: derived stats");
    }
}

/// A corrupted artifact of a real workload fails with a typed error — no
/// panic, no oversized allocation, no fabricated recording — for every
/// corruption class the cache store must survive.
#[test]
fn adversarial_decoding_errs_gracefully() {
    let params = WorkloadParams::small(7);
    let w = Spec92::Compress.build(&params);
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let key = fingerprint_of(&"adversarial");
    let bytes = encode_replay(&replay, key);

    // Truncation anywhere: header, column boundaries, mid-payload.
    for cut in [
        0,
        3,
        4,
        7,
        8,
        23,
        24,
        31,
        32,
        40,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        assert!(
            decode_replay(&bytes[..cut], key).is_err(),
            "cut at {cut} must fail"
        );
    }

    // A flipped bit in the trailing checksum itself.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    assert_eq!(
        decode_replay(&flipped, key).unwrap_err(),
        CodecError::BadChecksum
    );

    // A flipped bit in the payload.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x80;
    assert!(decode_replay(&flipped, key).is_err());

    // Wrong schema version in the header.
    let mut wrong_schema = bytes.clone();
    wrong_schema[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_replay(&wrong_schema, key).unwrap_err(),
        CodecError::BadSchema { found: u32::MAX }
    );

    // Looked up under a different key (stale or misfiled entry).
    assert!(matches!(
        decode_replay(&bytes, fingerprint_of(&"other")).unwrap_err(),
        CodecError::BadFingerprint { .. }
    ));

    // Junk appended after the checksum.
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_eq!(
        decode_replay(&trailing, key).unwrap_err(),
        CodecError::Malformed("trailing bytes after checksum")
    );

    // The pristine bytes still decode after all of the above.
    assert_eq!(decode_replay(&bytes, key).unwrap(), replay);
}

/// A compress recording, its task descriptors and its artifact bytes, for
/// the load tests.
fn compress_artifact(key: Fingerprint) -> (InstrReplay, Vec<TaskDesc>, Vec<u8>) {
    let w = Spec92::Compress.build(&WorkloadParams::small(7));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let bytes = encode_replay(&replay, key);
    (replay, task_descs(&tasks), bytes)
}

/// Where the instruction section of an encoded artifact starts: after the
/// 64-byte header, 14 bytes per boundary and the boundary checksum.
fn instr_offset(bytes: &[u8]) -> usize {
    let n = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;
    64 + 14 * n + 8
}

/// A per-test scratch file.
fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("multiscalar-codec-{tag}-{}", std::process::id()))
}

/// A re-recorder that counts its calls and hands back `fresh`'s
/// instruction section.
fn counting_rerecord(fresh: InstrReplay, errors: Arc<Mutex<Vec<CodecError>>>) -> Rerecord {
    let fresh = Mutex::new(Some(fresh));
    Box::new(move |e| {
        errors.lock().unwrap().push(e);
        fresh
            .lock()
            .unwrap()
            .take()
            .expect("re-recorded at most once")
    })
}

/// `open_replay` reads the header and the boundary section only: a bad
/// instruction chunk loads, derives the same trace, and surfaces when a
/// timing walk reaches it, where the re-recorder supplies the section and
/// the walk's result is unchanged.
#[test]
fn open_replay_leaves_the_instruction_section_to_the_walks() {
    let key = fingerprint_of(&"lazy");
    let (replay, descs, mut bytes) = compress_artifact(key);
    let path = scratch_file("lazy");
    let at = instr_offset(&bytes);
    bytes[at + 5] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let errors = Arc::new(Mutex::new(Vec::new()));
    let w = Spec92::Compress.build(&WorkloadParams::small(7));
    let tasks = TaskFormer::default().form(&w.program).unwrap();
    let fresh = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let lazy = open_replay(&path, key, counting_rerecord(fresh, Arc::clone(&errors))).unwrap();
    assert_eq!(lazy.instructions(), replay.instructions());
    let (derived, direct) = (derive_trace(&lazy, &tasks), derive_trace(&replay, &tasks));
    assert_eq!(derived.events, direct.events);
    assert_eq!(derived.stats, direct.stats);
    assert!(
        errors.lock().unwrap().is_empty(),
        "a load reads no instructions"
    );

    let config = TimingConfig::default();
    let walked = simulate_replay(&lazy, &descs, None, &config);
    assert_eq!(*errors.lock().unwrap(), [CodecError::BadChecksum]);
    assert_eq!(walked, simulate_replay(&replay, &descs, None, &config));
    // The re-recorded section is kept; a second walk re-records nothing.
    assert!(lazy.holds_instructions());
    assert_eq!(simulate_replay(&lazy, &descs, None, &config), walked);
    assert_eq!(errors.lock().unwrap().len(), 1);
    let _ = std::fs::remove_file(&path);
}

/// A pristine artifact opened from disk equals the recording once
/// compared (which reads its instruction section without keeping it) and
/// never re-records; an entry that disappears before a walk is
/// re-recorded.
#[test]
fn open_replay_fills_from_disk_or_from_the_rerecorder() {
    let key = fingerprint_of(&"pristine");
    let (replay, descs, bytes) = compress_artifact(key);
    let path = scratch_file("pristine");
    std::fs::write(&path, &bytes).unwrap();
    let errors = Arc::new(Mutex::new(Vec::new()));
    let never = |errors: &Arc<Mutex<Vec<CodecError>>>| {
        let errors = Arc::clone(errors);
        Box::new(move |e| -> InstrReplay {
            errors.lock().unwrap().push(e);
            panic!("a valid section is never re-recorded: {e}")
        }) as Rerecord
    };
    let lazy = open_replay(&path, key, never(&errors)).unwrap();
    assert_eq!(lazy, replay);
    assert!(errors.lock().unwrap().is_empty());
    assert!(!lazy.holds_instructions());

    let (fresh, _, _) = compress_artifact(key);
    let lazy = open_replay(&path, key, counting_rerecord(fresh, Arc::clone(&errors))).unwrap();
    std::fs::remove_file(&path).unwrap();
    let config = TimingConfig::default();
    assert_eq!(
        simulate_replay(&lazy, &descs, None, &config),
        simulate_replay(&replay, &descs, None, &config)
    );
    assert_eq!(
        *errors.lock().unwrap(),
        [CodecError::Io(std::io::ErrorKind::NotFound)]
    );
}

/// Truncation at either section boundary, inside either section, and
/// appended bytes all fail at load: the header sizes the file.
#[test]
fn open_replay_checks_the_length_before_any_section() {
    let key = fingerprint_of(&"length");
    let (_, _, bytes) = compress_artifact(key);
    let path = scratch_file("length");
    let at = instr_offset(&bytes);
    let cuts = [
        0,
        4,
        63,
        64,
        at - 8,
        at - 1,
        at,
        at + 1,
        bytes.len() - 8,
        bytes.len() - 1,
    ];
    let refuse = || {
        Box::new(|e| -> InstrReplay { panic!("a refused load never re-records: {e}") }) as Rerecord
    };
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = open_replay(&path, key, refuse()).unwrap_err();
        assert!(err == CodecError::Truncated, "cut at {cut}: {err:?}");
    }
    let mut longer = bytes.clone();
    longer.extend_from_slice(&[0; 3]);
    std::fs::write(&path, &longer).unwrap();
    assert_eq!(
        open_replay(&path, key, refuse()).unwrap_err(),
        CodecError::Malformed("trailing bytes after checksum")
    );
    assert_eq!(
        open_replay(&scratch_file("missing"), key, refuse()).unwrap_err(),
        CodecError::Io(std::io::ErrorKind::NotFound)
    );
    let _ = std::fs::remove_file(&path);
}

/// A loop with ALU work, memory traffic and a data-dependent intra-task
/// branch run `iters` times, then `pad` straight-line ALU ops and the halt.
fn padded_program(iters: i32, pad: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let main = b.begin_function("main");
    b.load_imm(Reg(1), 0);
    b.load_imm(Reg(2), iters);
    let top = b.here_label();
    b.op_imm(AluOp::And, Reg(3), Reg(1), 3);
    b.store(Reg(1), Reg(3), 0);
    b.load(Reg(4), Reg(3), 0);
    let skip = b.new_label();
    b.branch(Cond::Ne, Reg(3), Reg(0), skip);
    b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
    b.bind(skip);
    b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(Cond::Lt, Reg(1), Reg(2), top);
    for _ in 0..pad {
        b.op_imm(AluOp::Add, Reg(6), Reg(6), 1);
    }
    b.halt();
    b.end_function();
    b.finish(main).unwrap()
}

/// A program, its partition and a recording of exactly `ops` ops: the loop
/// runs as many times as fits, and padding makes up the rest.
fn recording_of_len(ops: u64) -> (Program, TaskProgram, InstrReplay) {
    let record = |iters: i32, pad: u64| {
        let p = padded_program(iters, pad);
        let tasks = TaskFormer::default().form(&p).unwrap();
        let r = record_replay(&p, &tasks, 10 * ops).unwrap();
        (p, tasks, r)
    };
    // Each iteration runs six or seven ops, so step up from a count that
    // surely fits until padding closes the gap.
    let mut iters = (ops / 8) as i32;
    loop {
        let gap = ops - record(iters, 0).2.instructions();
        if gap < 8 {
            let (p, tasks, r) = record(iters, gap);
            assert_eq!(r.instructions(), ops);
            return (p, tasks, r);
        }
        iters += (gap / 7) as i32;
    }
}

/// Five machines that share and split the walk's per-recording state.
fn mixed_machines() -> [TimingConfig; 5] {
    let tiny = ArbConfig {
        banks: 1,
        entries_per_bank: 1,
    };
    [
        TimingConfig::paper(),
        TimingConfig::paper().forwarding(ForwardingModel::ReleaseAtEnd),
        TimingConfig::paper().arb(None),
        TimingConfig::paper()
            .intra_predictor(IntraPredictorKind::McFarling)
            .arb(Some(tiny)),
        TimingConfig::paper()
            .intra_predictor(IntraPredictorKind::Gshare)
            .forwarding(ForwardingModel::ReleaseAtEnd),
    ]
}

/// Walks `replay` as its first `n` lanes, each with a cycle breakdown.
fn walk(
    replay: &InstrReplay,
    outcomes: &[Outcomes],
    n: usize,
) -> (Vec<TimingResult>, Vec<CycleBreakdown>) {
    let lanes: Vec<Lane> = outcomes
        .iter()
        .zip(mixed_machines())
        .take(n)
        .map(|(outcomes, config)| Lane { outcomes, config })
        .collect();
    let mut sinks = vec![CycleBreakdown::new(); n];
    (walk_lanes(replay, &lanes, &mut sinks), sinks)
}

/// The artifact of `fresh` on disk, loaded back as the artifact cache
/// loads it, walks exactly as `fresh` does at every lane count from one to
/// five, results and cycle breakdowns alike, and holds no instruction
/// section before or after; the decoded artifact equals `fresh`.
fn assert_loaded_walks_match(tag: &str, fresh: &InstrReplay, tasks: &TaskProgram) {
    let key = fingerprint_of(&tag);
    let bytes = encode_replay(fresh, key);
    assert_eq!(
        decode_replay(&bytes, key).unwrap(),
        *fresh,
        "{tag}: round trip"
    );
    let path = scratch_file(tag);
    std::fs::write(&path, &bytes).unwrap();
    let refuse =
        Box::new(|e| -> InstrReplay { panic!("a valid artifact is never re-recorded: {e}") });
    let loaded = open_replay(&path, key, refuse).unwrap();
    assert!(!loaded.holds_instructions(), "{tag}: loaded");

    let descs = task_descs(tasks);
    let events = derive_trace(fresh, tasks).events;
    let path_at = |depth| {
        TaskPredictor::<PathPredictor<LastExitHysteresis<2>>>::path(
            Dolc::new(depth, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        )
    };
    let outcomes: Vec<Outcomes> = [None, Some(0), Some(2), Some(4), None]
        .into_iter()
        .map(|depth| {
            let mut p = depth.map(path_at);
            let p = p.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
            measure_outcomes(p, &descs, &events, None)
        })
        .collect();
    for n in 1..=5 {
        assert_eq!(
            walk(&loaded, &outcomes, n),
            walk(fresh, &outcomes, n),
            "{tag}: {n} lanes"
        );
    }
    assert!(!loaded.holds_instructions(), "{tag}: walked");
    let _ = std::fs::remove_file(&path);
}

/// Recordings that end one op short of a chunk edge, exactly on it and
/// one op past it (two chunks in), walk and round-trip alike loaded and
/// fresh.
#[test]
fn recordings_at_chunk_edges_walk_alike_loaded_and_fresh() {
    let edge = 2 * CHUNK_OPS as u64;
    for ops in [edge - 1, edge, edge + 1] {
        let (_, tasks, fresh) = recording_of_len(ops);
        assert_loaded_walks_match(&format!("edge-{ops}"), &fresh, &tasks);
    }
}

/// The five scale-1 benchmarks walk and round-trip alike loaded and fresh.
#[test]
fn benchmarks_walk_alike_loaded_and_fresh() {
    let params = WorkloadParams::small(7);
    for &spec in &Spec92::ALL {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let fresh = record_replay(&w.program, &tasks, w.max_steps).unwrap();
        assert!(
            fresh.instructions() > 4 * CHUNK_OPS as u64,
            "{spec}: chunks"
        );
        assert_loaded_walks_match(spec.name(), &fresh, &tasks);
    }
}
