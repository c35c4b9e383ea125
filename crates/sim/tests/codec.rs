//! Codec guarantees over the real workload set: round-trip identity on all
//! five SPEC92 analogs, a decoded recording's trace equal to a fresh
//! recording's, adversarial decoding that errs instead of panicking, and
//! the lazy load that leaves the instruction section to the first walk.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::{fingerprint_of, Fingerprint};
use multiscalar_sim::codec::{open_replay, Rerecord};
use multiscalar_sim::replay::{derive_trace, record_replay, simulate_replay, InstrReplay};
use multiscalar_sim::timing::TimingConfig;
use multiscalar_sim::trace::collect_trace;
use multiscalar_sim::{decode_replay, encode_replay, task_descs, CodecError};
use multiscalar_taskform::TaskFormer;
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
/// the lazy-load tests.
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
/// instruction section loads, derives the same trace, and surfaces at the
/// first timing walk, where the re-recorder supplies the section and the
/// walk's result is unchanged.
#[test]
fn open_replay_reads_the_instruction_section_on_first_use() {
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
    // The slot is filled once; a second walk reads nothing.
    assert_eq!(simulate_replay(&lazy, &descs, None, &config), walked);
    assert_eq!(errors.lock().unwrap().len(), 1);
    let _ = std::fs::remove_file(&path);
}

/// A pristine artifact opened lazily equals the recording once compared
/// (which reads its instruction section) and never re-records; an entry
/// that disappears before the first walk is re-recorded.
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
