//! Codec guarantees over the real workload set: round-trip identity on all
//! five SPEC92 analogs, a decoded recording's trace equal to a fresh
//! recording's, and adversarial decoding that errs instead of panicking.

use multiscalar_isa::fingerprint_of;
use multiscalar_sim::replay::{derive_trace, record_replay};
use multiscalar_sim::trace::collect_trace;
use multiscalar_sim::{decode_replay, encode_replay, CodecError};
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
