//! Codec guarantees over the real workload set: round-trip identity on all
//! five SPEC92 analogs, a decoded recording's trace equal to a fresh
//! recording's, adversarial decoding that errs instead of panicking, an
//! artifact layout pinned across builds, the load that leaves the
//! instruction section on disk, and walks that read the section chunk by
//! chunk, loaded and fresh alike, equal to interpreter-fed runs at chunk
//! edges and on every benchmark, and stored chunks whose bytes check out
//! but whose path does not. The recording keeps only control flow and
//! memory addresses: its regenerated steps equal the interpreter's, its
//! boundary section takes a byte per task and a target per return or
//! indirect exit, with a task longer than a byte holds escaped, and its
//! instruction section a bit per intra-task branch and a varint per memory
//! reference.

use std::hash::Hasher as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use multiscalar_core::automata::LastExitHysteresis;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::{TaskDesc, TaskPredictor};
use multiscalar_isa::{
    assemble, fingerprint_of, AluOp, Cond, ExitKind, Fingerprint, FingerprintHasher, Interpreter,
    Program, ProgramBuilder, Reg,
};
use multiscalar_sim::arb::ArbConfig;
use multiscalar_sim::codec::{open_replay, Rerecord, CHUNK_OPS};
use multiscalar_sim::replay::{
    derive_trace, record_replay, simulate_replay, walk_lanes, InstrReplay, Lane,
};
use multiscalar_sim::sanitize::check_replay_agreement;
use multiscalar_sim::timing::{
    simulate_with_sink, ForwardingModel, IntraPredictorKind, NextTaskPredictor, TimingConfig,
    TimingResult,
};
use multiscalar_sim::trace::collect_trace;
use multiscalar_sim::{
    decode_replay, encode_replay, measure_outcomes, task_descs, CodecError, CycleBreakdown,
    Outcomes,
};
use multiscalar_taskform::{TaskFormConfig, TaskFormer, TaskProgram};
use multiscalar_workloads::{fuzz, Spec92, WorkloadParams};

/// `decode(encode(r)) == r` on every workload, and the trace of the
/// decoded recording (its boundary section and statistics) equals the
/// trace of a fresh interpreter run — the property that lets one cached
/// artifact serve both the functional trace and the timing runs. Each
/// artifact's bytes are pinned too, so a recorder change that moves a
/// real recording fails here, not only in a byte comparison by hand.
#[test]
fn round_trip_and_derived_trace_match_on_all_workloads() {
    let params = WorkloadParams::small(7);
    let pinned = [
        ("gcc", "0306ca16b85f906a2439b814ead31b69"),
        ("compress", "75caa40e141ed549b2950fe568cce5dd"),
        ("espresso", "fe8d12ded81eb52ed2bfb9eda7fe3c64"),
        ("sc", "c1f7b7519e97f7a8a1c49a5d2887ab70"),
        ("xlisp", "ad04794ca1d075114be1fec50b12a21e"),
    ];
    let names: Vec<_> = Spec92::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, pinned.map(|(name, _)| name));
    for (&spec, (_, want)) in Spec92::ALL.iter().zip(pinned) {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
        let key = fingerprint_of(&(spec.name(), params.seed, params.scale));

        let bytes = encode_replay(&replay, key);
        assert_eq!(
            fingerprint_of(&bytes).to_string(),
            want,
            "{spec}: the artifact moved; the recorder, the layout, the \
             workload generator and the task former can move it, and only \
             a change that means to updates these constants"
        );
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

/// The header count at byte `at` of an encoded artifact.
fn count(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Bytes of an encoded artifact's boundary section, as its header counts
/// them: a byte per boundary and four per escaped size and stored target.
fn boundary_bytes(bytes: &[u8]) -> usize {
    let (bounds, targets, escapes) = (count(bytes, 56), count(bytes, 64), count(bytes, 72));
    bounds + 4 * (targets + escapes)
}

/// Where the instruction section of an encoded artifact starts: after the
/// 104-byte header, the boundary section and its checksum, the task
/// section (5 bytes per task and per task exit) and its checksum, then the
/// code section (the entry pc and 8 bytes per instruction) and its
/// checksum.
fn instr_offset(bytes: &[u8]) -> usize {
    let (code, tasks, exits) = (count(bytes, 48), count(bytes, 80), count(bytes, 88));
    104 + boundary_bytes(bytes) + 8 + 5 * (tasks + exits) + 8 + 4 + 8 * code + 8
}

/// The little-endian `u32` at byte `at` of `bytes`.
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
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
    // An address delta of the first chunk, past its branch count, its
    // taken bits, its address count and its delta bytes.
    let first = instr_offset(&bytes);
    let at = first + 12 + (word(&bytes, first) as usize).div_ceil(8);
    bytes[at] ^= 0x10;
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

/// The next-task predictor of lane `lane` of five: perfect prediction and
/// PATH at depths 0, 2 and 4, then perfect prediction again.
fn lane_predictor(lane: usize) -> Option<Box<dyn NextTaskPredictor>> {
    [None, Some(0), Some(2), Some(4), None][lane].map(|depth| {
        Box::new(TaskPredictor::<PathPredictor<LastExitHysteresis<2>>>::path(
            Dolc::new(depth, 4, 6, 6, 2),
            Dolc::new(4, 3, 4, 4, 2),
            16,
        )) as Box<dyn NextTaskPredictor>
    })
}

/// Five outcome passes over `fresh`, one per lane predictor.
fn five_passes(fresh: &InstrReplay, tasks: &TaskProgram) -> Vec<Outcomes> {
    let descs = task_descs(tasks);
    let events = derive_trace(fresh, tasks).events;
    (0..5)
        .map(|lane| {
            let mut p = lane_predictor(lane);
            let p = p.as_deref_mut().map(|p| p as &mut dyn NextTaskPredictor);
            measure_outcomes(p, &descs, &events, None)
        })
        .collect()
}

/// What the five lanes of a walk of `program` must equal: each lane's
/// predictor and machine run solo on the interpreter-fed scalar core, with
/// its cycle breakdown.
fn interpreted(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> (Vec<TimingResult>, Vec<CycleBreakdown>) {
    let descs = task_descs(tasks);
    (0..5)
        .zip(mixed_machines())
        .map(|(lane, config)| {
            let mut p = lane_predictor(lane);
            let p = p.as_deref_mut().map(|p| p as &mut dyn NextTaskPredictor);
            let mut sink = CycleBreakdown::new();
            let result =
                simulate_with_sink(program, tasks, &descs, p, &config, max_steps, &mut sink)
                    .unwrap();
            (result, sink)
        })
        .unzip()
}

/// `fresh`, a recording of `program`, walks at every lane count from one
/// to five as the interpreter-fed scalar core runs each lane, results and
/// cycle breakdowns alike. Its artifact on disk, loaded back as the
/// artifact cache loads it, walks exactly as `fresh` does and holds no
/// instruction section before or after; the decoded artifact equals
/// `fresh`.
fn assert_loaded_walks_match(
    tag: &str,
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
    fresh: &InstrReplay,
) {
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

    let outcomes = five_passes(fresh, tasks);
    let (results, breakdowns) = interpreted(program, tasks, max_steps);
    for n in 1..=5 {
        let walked = walk(fresh, &outcomes, n);
        assert_eq!(
            walked,
            (results[..n].to_vec(), breakdowns[..n].to_vec()),
            "{tag}: {n} lanes, fresh and interpreter-fed"
        );
        assert_eq!(
            walk(&loaded, &outcomes, n),
            walked,
            "{tag}: {n} lanes, loaded and fresh"
        );
    }
    assert!(!loaded.holds_instructions(), "{tag}: walked");
    let _ = std::fs::remove_file(&path);
}

/// Recordings that end one op short of a chunk edge, exactly on it and
/// one op past it (two chunks in) walk alike loaded, fresh and fed by the
/// interpreter, and round-trip.
#[test]
fn recordings_at_chunk_edges_walk_alike_loaded_and_fresh() {
    let edge = 2 * CHUNK_OPS as u64;
    for ops in [edge - 1, edge, edge + 1] {
        let (program, tasks, fresh) = recording_of_len(ops);
        let tag = format!("edge-{ops}");
        assert_loaded_walks_match(&tag, &program, &tasks, 10 * ops, &fresh);
    }
}

/// The artifact of a three-chunk recording (its last chunk one op) under a
/// fixed key hashes to a pinned value: the on-disk layout cannot move
/// without this test noticing, whatever both sides of a round trip agree
/// on.
#[test]
fn the_artifact_layout_is_pinned() {
    let (_, _, r) = recording_of_len(2 * CHUNK_OPS as u64 + 1);
    let bytes = encode_replay(&r, fingerprint_of(&"pinned"));
    assert_eq!(
        fingerprint_of(&bytes).to_string(),
        "05e4a65c87d9db56c2887a4ecd8ba9ee",
        "the artifact layout moved: a layout change bumps CACHE_SCHEMA and \
         this constant together"
    );
}

/// One stored chunk: its branch count and taken bits, its address count
/// and its address deltas.
#[derive(Debug, Clone, PartialEq)]
struct StoredChunk {
    branches: u32,
    taken: Vec<u8>,
    refs: u32,
    deltas: Vec<u8>,
}

impl StoredChunk {
    /// Where its last delta starts: after the last-but-one varint's final
    /// byte, the only bytes below 0x80.
    fn last_delta(&self) -> usize {
        let ends = self.deltas[..self.deltas.len() - 1]
            .iter()
            .rposition(|&b| b < 0x80);
        ends.map_or(0, |at| at + 1)
    }

    /// Where its first delta ends.
    fn first_delta_end(&self) -> usize {
        1 + self.deltas.iter().position(|&b| b < 0x80).unwrap()
    }
}

/// The chunks of an encoded artifact's instruction section.
fn chunks_of(bytes: &[u8]) -> Vec<StoredChunk> {
    let mut ops = count(bytes, 32);
    let mut at = instr_offset(bytes);
    let mut chunks = Vec::new();
    while ops > 0 {
        let branches = word(bytes, at);
        let bits = (branches as usize).div_ceil(8);
        let k = word(bytes, at + 8 + bits) as usize;
        let deltas = at + 12 + bits;
        chunks.push(StoredChunk {
            branches,
            taken: bytes[at + 4..at + 4 + bits].to_vec(),
            refs: word(bytes, at + 4 + bits),
            deltas: bytes[deltas..deltas + k].to_vec(),
        });
        at = deltas + k + 8;
        ops -= ops.min(CHUNK_OPS);
    }
    assert_eq!(at, bytes.len(), "the chunks fill the file");
    assert_eq!(
        count(bytes, 96),
        at - instr_offset(bytes),
        "the header's section length"
    );
    chunks
}

/// `bytes` with its instruction section rewritten as `chunks`, each with
/// its counts and a checksum that matches it.
fn with_chunks(bytes: &[u8], chunks: &[StoredChunk]) -> Vec<u8> {
    let mut out = bytes[..instr_offset(bytes)].to_vec();
    for (index, c) in chunks.iter().enumerate() {
        let mut chunk = c.branches.to_le_bytes().to_vec();
        chunk.extend_from_slice(&c.taken);
        chunk.extend_from_slice(&c.refs.to_le_bytes());
        chunk.extend_from_slice(&(c.deltas.len() as u32).to_le_bytes());
        chunk.extend_from_slice(&c.deltas);
        let mut sum = FingerprintHasher::new();
        sum.write_u64(index as u64);
        sum.write(&chunk);
        out.extend_from_slice(&chunk);
        out.extend_from_slice(&sum.finish().to_le_bytes());
    }
    out
}

/// One address delta moved between the first two chunks, in either
/// direction, with their counts and checksums fixed to match: the file's
/// length and its address total still fit, and only stepping the first
/// chunk finds a load or store without its delta, or a delta left over. The decoder refuses it. A walk over it loaded from disk has
/// stepped that chunk when it finds out; it re-records once and starts
/// over, and its results and cycle breakdowns equal the fresh
/// recording's.
#[test]
fn an_address_moved_between_chunks_is_refused_as_the_walk_steps_it() {
    let ops = 2 * CHUNK_OPS as u64 + 1;
    let (program, tasks, fresh) = recording_of_len(ops);
    let key = fingerprint_of(&"moved");
    let bytes = encode_replay(&fresh, key);
    let chunks = chunks_of(&bytes);
    assert_eq!(chunks.len(), 3);
    assert!(chunks[0].refs > 0 && chunks[1].refs > 0);
    let outcomes = five_passes(&fresh, &tasks);
    let unmatched = CodecError::Malformed("load/store count differs from mem_addrs");
    for forward in [true, false] {
        let mut moved = chunks.clone();
        // The first chunk's last delta or the second chunk's first.
        if forward {
            let at = moved[0].last_delta();
            let delta: Vec<u8> = moved[0].deltas.drain(at..).collect();
            moved[1].deltas.splice(..0, delta);
            (moved[0].refs, moved[1].refs) = (moved[0].refs - 1, moved[1].refs + 1);
        } else {
            let end = moved[1].first_delta_end();
            let delta: Vec<u8> = moved[1].deltas.drain(..end).collect();
            moved[0].deltas.extend(delta);
            (moved[0].refs, moved[1].refs) = (moved[0].refs + 1, moved[1].refs - 1);
        }
        let forged = with_chunks(&bytes, &moved);
        assert_eq!(forged.len(), bytes.len(), "forward {forward}");
        assert_eq!(decode_replay(&forged, key).unwrap_err(), unmatched);

        let path = scratch_file(&format!("moved-{forward}"));
        std::fs::write(&path, &forged).unwrap();
        let errors = Arc::new(Mutex::new(Vec::new()));
        let again = record_replay(&program, &tasks, 10 * ops).unwrap();
        let loaded =
            open_replay(&path, key, counting_rerecord(again, Arc::clone(&errors))).unwrap();
        assert_eq!(
            walk(&loaded, &outcomes, 5),
            walk(&fresh, &outcomes, 5),
            "forward {forward}"
        );
        assert_eq!(*errors.lock().unwrap(), [unmatched]);
        assert!(loaded.holds_instructions());
        let _ = std::fs::remove_file(&path);
    }
    // The same artifact with its chunks as stored walks without a
    // re-record.
    assert_eq!(with_chunks(&bytes, &chunks), bytes);
}

/// The five scale-1 benchmarks walk alike loaded, fresh and fed by the
/// interpreter, and round-trip.
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
        assert_loaded_walks_match(spec.name(), &w.program, &tasks, w.max_steps, &fresh);
    }
}

/// The regenerated step stream of a recording equals the interpreter's,
/// step for step (pc, registers, class, memory address, taken bit, halt
/// and boundary), on the five scale-1 benchmarks and every program under
/// `benchmarks/`.
#[test]
fn regenerated_steps_equal_the_interpreters() {
    let params = WorkloadParams::small(7);
    for &spec in &Spec92::ALL {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let steps = check_replay_agreement(&w.program, &tasks, w.max_steps)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(steps > 0, "{spec}");
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "masm"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "benchmarks/*.masm");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let asm = assemble(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let tasks = TaskFormer::default()
            .form_with_entries(&asm.program, &asm.task_entries)
            .unwrap();
        let steps = check_replay_agreement(&asm.program, &tasks, fuzz::MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(steps > 0, "{}", path.display());
    }
}

/// Bytes of a delta's zigzag varint.
fn varint_len(delta: i32) -> usize {
    let zigzag = ((delta << 1) ^ (delta >> 31)) as u32;
    (32 - zigzag.leading_zeros()).max(1).div_ceil(7) as usize
}

/// On the five scale-1 benchmarks each chunk of the instruction section
/// keeps exactly what an interpreter run of the program decides: its
/// branch count is the intra-task conditional branches among its ops (a
/// conditional branch that ends no task, the tasks' sizes taken from the
/// trace), its address count the loads and stores, and its delta bytes the
/// summed varint lengths of their deltas, each the reference's address
/// minus the previous one at its pc (0 before the first). The chunks fill
/// the section whose length the header declares.
#[test]
fn the_instruction_section_is_a_bit_per_intra_task_branch_and_a_delta_per_reference() {
    use multiscalar_isa::Instruction;
    let params = WorkloadParams::small(7);
    for &spec in &Spec92::ALL {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
        // The index of each task's last op.
        let events = derive_trace(&replay, &tasks).events;
        let mut op = 0;
        let mut ends = events.iter().map(|e| {
            op += u64::from(e.instrs);
            op - 1
        });
        let mut end = ends.next();
        let mut last = vec![0u32; w.program.len()];
        let mut want: Vec<(u32, u32, usize)> = Vec::new();
        let mut interp = Interpreter::new(&w.program);
        let mut op = 0;
        while !interp.is_halted() {
            if op % CHUNK_OPS as u64 == 0 {
                want.push((0, 0, 0));
            }
            let step = interp.step().unwrap();
            let ends_task = end == Some(op);
            if ends_task {
                end = ends.next();
            }
            let (branches, refs, bytes) = want.last_mut().unwrap();
            if matches!(step.inst, Instruction::Branch { .. }) && !ends_task {
                *branches += 1;
            }
            if let Some(addr) = step.mem_addr {
                let prev = std::mem::replace(&mut last[step.pc.0 as usize], addr);
                *refs += 1;
                *bytes += varint_len(addr.wrapping_sub(prev) as i32);
            }
            op += 1;
        }
        assert_eq!(op, replay.instructions(), "{spec}");
        assert_eq!(end, None, "{spec}: every task ends before the halt");
        let bytes = encode_replay(&replay, fingerprint_of(&spec.name()));
        let got: Vec<_> = chunks_of(&bytes)
            .into_iter()
            .map(|c| {
                assert_eq!(c.taken.len(), (c.branches as usize).div_ceil(8), "{spec}");
                (c.branches, c.refs, c.deltas.len())
            })
            .collect();
        assert_eq!(
            got, want,
            "{spec}: (branches, references, delta bytes) per chunk"
        );
    }
}

/// On the five scale-1 benchmarks the boundary section takes exactly a
/// byte per task, four bytes per boundary through a return or an indirect
/// exit (the targets a task header cannot hold) and four per task longer
/// than a byte holds, counted from the trace's events. The section's
/// length is what is left of the artifact once the header, the checksums,
/// the task and code sections and the instruction section (sized by their
/// own counts) are taken away.
#[test]
fn the_boundary_section_is_a_byte_per_task_and_a_target_per_dynamic_exit() {
    let params = WorkloadParams::small(7);
    for &spec in &Spec92::ALL {
        let w = spec.build(&params);
        let tasks = TaskFormer::default().form(&w.program).unwrap();
        let replay = record_replay(&w.program, &tasks, w.max_steps).unwrap();
        let events = derive_trace(&replay, &tasks).events;
        let dynamic = events.iter().filter(|e| !e.kind.target_known()).count();
        let long = events.iter().filter(|e| e.instrs > 63).count();
        assert!(dynamic > 0, "{spec}: returns or indirect exits");

        let bytes = encode_replay(&replay, fingerprint_of(&spec.name()));
        let (code, task_count, exits) = (count(&bytes, 48), count(&bytes, 80), count(&bytes, 88));
        let instrs = count(&bytes, 96);
        let rest = 104 + 8 + 5 * (task_count + exits) + 8 + 4 + 8 * code + 8 + instrs;
        let section = bytes.len() - rest;
        assert_eq!(
            section,
            events.len() + 4 * dynamic + 4 * long,
            "{spec}: {} tasks, {dynamic} dynamic exits, {long} escaped sizes",
            events.len()
        );
        assert_eq!(section, boundary_bytes(&bytes), "{spec}: header counts");
    }
}

/// Tasks longer than a boundary byte holds: straight-line runs of 62, 63,
/// 64 and 100 ops, each ended by a call, under a former that allows
/// 128-op tasks, so the tasks around the byte's limit of 63 ops are 63,
/// 64 and 65 ops long. The sizes above 63 go through the escape column,
/// 63 stays in its byte, and the recording round-trips, steps as the
/// interpreter does and walks alike loaded and fresh.
#[test]
fn a_task_longer_than_a_byte_holds_escapes_and_round_trips() {
    let mut b = ProgramBuilder::new();
    let f = b.begin_function("f");
    b.ret();
    b.end_function();
    let main = b.begin_function("main");
    for run in [62, 63, 64, 100] {
        for _ in 0..run {
            b.op_imm(AluOp::Add, Reg(3), Reg(3), 1);
        }
        b.call_label(f);
    }
    b.halt();
    b.end_function();
    let program = b.finish(main).unwrap();
    let config = TaskFormConfig {
        max_instrs: 128,
        max_blocks: 12,
    };
    let tasks = TaskFormer::new(config).form(&program).unwrap();
    tasks.validate(&program).unwrap();
    let fresh = record_replay(&program, &tasks, 100_000).unwrap();
    let key = fingerprint_of(&"escape");
    let bytes = encode_replay(&fresh, key);
    assert_eq!(decode_replay(&bytes, key).unwrap(), fresh, "round trip");
    let steps = check_replay_agreement(&program, &tasks, 100_000).unwrap();
    assert_eq!(steps, fresh.instructions());
    assert_loaded_walks_match("escape", &program, &tasks, 100_000, &fresh);

    let events = derive_trace(&fresh, &tasks).events;
    let sizes: Vec<u32> = events.iter().map(|e| e.instrs).collect();
    for edge in [63, 64, 65] {
        assert!(sizes.contains(&edge), "a task of {edge} ops: {sizes:?}");
    }
    let long = sizes.iter().filter(|&&n| n > 63).count();
    assert_eq!(count(&bytes, 72), long, "the escape column: {sizes:?}");
    let kinds: Vec<ExitKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ExitKind::Return), "{kinds:?}");
}
