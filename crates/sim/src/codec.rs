//! Versioned binary codec for [`InstrReplay`] — the on-disk form of the
//! harness's content-addressed artifact cache.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MSRP"
//! 4       4     schema version (CACHE_SCHEMA)
//! 8       16    content fingerprint (the cache key the artifact was
//!               recorded under; readers reject a mismatch)
//! 24      8     mem_words
//! 32      ...   8 columns, each: u64 element count, then the packed
//!               elements. The instruction section: ops u32,
//!               mem_addrs u32, branch_pcs u32. The boundary section, one
//!               element per dynamic task (14 bytes): task u32, exit u8,
//!               kind u8 (its Table 1 slot), next u32, instrs u32
//! end-8   8     checksum: two-lane FxHash of every preceding byte
//! ```
//!
//! # Guarantees
//!
//! * **Round-trip equality**: `decode(encode(r, k), k) == r` for every
//!   recording (tested on all five workloads).
//! * **Graceful failure**: decoding never panics and never fabricates a
//!   recording. Truncation, bit flips, schema bumps and key mismatches all
//!   surface as a typed [`CodecError`]. On top of the checksum, the
//!   decoded columns are validated semantically, so even an artifact with
//!   a valid checksum cannot reach the replay cursor's infallible fast
//!   path (which [`crate::replay::simulate_replay`] runs on) in a state
//!   that would panic it:
//!   - the boundary columns have equal lengths, exit indices
//!     `< MAX_EXITS` and kind slots inside Table 1;
//!   - every task size is at least 1, and the sizes sum below the op
//!     count, so the halting task keeps its halt;
//!   - the op words hold one load/store per `mem_addrs` entry and one
//!     branch per `branch_pcs` entry;
//!   - every register byte names a register (or is absent);
//!   - every memory address is below `mem_words`.
//!
//!   The rest needs the program and its task partition, which the decoder
//!   never sees: that every boundary names a task of the partition, an
//!   exit of that task's header and that exit's kind, and that
//!   `mem_words` is the program's data-memory size (the timing core
//!   allocates that many words). [`check_fits`] checks all of it; the
//!   artifact cache runs it on every load.
//!
//! Bump [`CACHE_SCHEMA`] whenever this layout *or the meaning of any
//! recorded field* changes (e.g. a timing-semantics change that alters what
//! recordings capture): stale artifacts then fail decode and get evicted
//! instead of silently producing wrong results.

use multiscalar_isa::{
    memory_words, Addr, ExitIndex, ExitKind, Fingerprint, FingerprintHasher, Program, NUM_REGS,
};
use multiscalar_taskform::{TaskId, TaskProgram};
use std::fmt;
use std::hash::Hasher as _;
use std::sync::Arc;

use crate::replay::{InstrReplay, CLASS_SHIFT};
use crate::timing::{OpClass, NO_REG};
use crate::trace::{kind_slot, SharedTrace};

/// Schema version of the artifact cache: codec layout + recording
/// semantics. Any change to either must bump this.
pub const CACHE_SCHEMA: u32 = 2;

/// File magic: "Multiscalar RePlay".
pub const MAGIC: [u8; 4] = *b"MSRP";

/// Why a cache artifact failed to decode. Every variant is recoverable:
/// the cache store logs it, evicts the entry and re-records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with [`MAGIC`] — not a replay artifact.
    BadMagic,
    /// The artifact was written under a different [`CACHE_SCHEMA`].
    BadSchema {
        /// The version found in the header.
        found: u32,
    },
    /// The embedded fingerprint does not match the key the artifact was
    /// looked up under — the entry is stale or misfiled.
    BadFingerprint {
        /// The fingerprint found in the header.
        found: Fingerprint,
    },
    /// The file ended before the declared contents.
    Truncated,
    /// The trailing checksum does not match the contents.
    BadChecksum,
    /// The contents decoded but violate a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("bad magic (not a replay artifact)"),
            CodecError::BadSchema { found } => {
                write!(f, "schema version {found}, expected {CACHE_SCHEMA}")
            }
            CodecError::BadFingerprint { found } => {
                write!(f, "fingerprint mismatch (found {found})")
            }
            CodecError::Truncated => f.write_str("truncated file"),
            CodecError::BadChecksum => f.write_str("checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed contents: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FingerprintHasher::new();
    h.write(bytes);
    h.finish()
}

/// Appends one column: its element count, then each element's bytes.
fn push_col<T: Copy, const W: usize>(out: &mut Vec<u8>, vals: &[T], bytes: impl Fn(T) -> [u8; W]) {
    out.extend_from_slice(&(vals.len() as u64).to_le_bytes());
    for &v in vals {
        out.extend_from_slice(&bytes(v));
    }
}

/// Serialises a recording under cache key `key`.
pub fn encode_replay(r: &InstrReplay, key: Fingerprint) -> Vec<u8> {
    let b = &*r.bounds;
    let payload = 4 * (r.ops.len() + r.mem_addrs.len() + r.branch_pcs.len()) + 14 * b.len();
    let mut out = Vec::with_capacity(32 + 8 * 8 + payload + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CACHE_SCHEMA.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(r.mem_words as u64).to_le_bytes());
    push_col(&mut out, &r.ops, u32::to_le_bytes);
    push_col(&mut out, &r.mem_addrs, u32::to_le_bytes);
    push_col(&mut out, &r.branch_pcs, u32::to_le_bytes);
    push_col(&mut out, &b.tasks, |t| t.0.to_le_bytes());
    push_col(&mut out, &b.exits, |e| [e.as_u8()]);
    push_col(&mut out, &b.kinds, |k| {
        [kind_slot(k).expect("halting task is never recorded") as u8]
    });
    push_col(&mut out, &b.nexts, |a| a.0.to_le_bytes());
    push_col(&mut out, &b.instrs, u32::to_le_bytes);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Sequential reader over the encoded bytes; every read is bounds-checked
/// so corruption surfaces as [`CodecError::Truncated`], never a panic or an
/// oversized allocation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn read_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.read_u64()?).map_err(|_| CodecError::Truncated)
    }

    /// Reads one column of `W`-byte elements, each decoded by `f`.
    fn read_col<T, const W: usize>(
        &mut self,
        f: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.read_len()?;
        let bytes = self.take(n.checked_mul(W).ok_or(CodecError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(W)
            .map(|c| f(c.try_into().expect("W-byte chunk")))
            .collect())
    }
}

/// Deserialises a recording, validating integrity (magic, schema version,
/// checksum), identity (`expected` cache key) and structure (the boundary
/// section and the side columns against the op words). See the module
/// docs for the failure contract.
pub fn decode_replay(bytes: &[u8], expected: Fingerprint) -> Result<InstrReplay, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let schema = r.read_u32()?;
    if schema != CACHE_SCHEMA {
        return Err(CodecError::BadSchema { found: schema });
    }
    let found = Fingerprint::from_le_bytes(r.take(16)?.try_into().expect("16 bytes"));
    if found != expected {
        return Err(CodecError::BadFingerprint { found });
    }
    let mem_words =
        usize::try_from(r.read_u64()?).map_err(|_| CodecError::Malformed("mem_words overflow"))?;
    let ops = r.read_col(u32::from_le_bytes)?;
    let mem_addrs = r.read_col(u32::from_le_bytes)?;
    let branch_pcs = r.read_col(u32::from_le_bytes)?;
    let tasks = r.read_col(|b| TaskId(u32::from_le_bytes(b)))?;
    let exits = r.read_col(|[e]| ExitIndex::new(e))?;
    let kinds = r.read_col(|[k]| ExitKind::TABLE1.get(usize::from(k)).copied())?;
    let nexts = r.read_col(|b| Addr(u32::from_le_bytes(b)))?;
    let instrs = r.read_col(u32::from_le_bytes)?;

    let body_end = r.pos;
    let sum = r.read_u64()?;
    if r.pos != bytes.len() {
        return Err(CodecError::Malformed("trailing bytes after checksum"));
    }
    if sum != checksum(&bytes[..body_end]) {
        return Err(CodecError::BadChecksum);
    }

    // Structural validation: the replay cursor's fast path is infallible by
    // construction, so nothing inconsistent may get past this point even if
    // it carries a valid checksum (e.g. written by a buggy future encoder).
    let n_bounds = tasks.len();
    if [exits.len(), kinds.len(), nexts.len(), instrs.len()] != [n_bounds; 4] {
        return Err(CodecError::Malformed("boundary column lengths differ"));
    }
    let exits: Option<Vec<_>> = exits.into_iter().collect();
    let exits = exits.ok_or(CodecError::Malformed("exit index out of range"))?;
    let kinds: Option<Vec<_>> = kinds.into_iter().collect();
    let kinds = kinds.ok_or(CodecError::Malformed("kind slot outside Table 1"))?;
    // The cursor counts each task's ops down to its boundary, so a task
    // has at least one op, and the halting task keeps at least its halt
    // (which also rules out an empty recording).
    if instrs.contains(&0) {
        return Err(CodecError::Malformed("zero task size"));
    }
    let recorded = instrs.iter().fold(0u64, |s, &n| s.saturating_add(n.into()));
    if recorded >= ops.len() as u64 {
        return Err(CodecError::Malformed("task sizes leave no halting op"));
    }
    // The cursor takes one `mem_addrs` entry per load/store and one
    // `branch_pcs` entry per branch, and indexes the register scoreboard
    // and the store table without bounds checks. One branch-free pass over
    // the op words (u32 tallies per chunk, so every lane stays 32 bits
    // wide) plus a max over the addresses checks all four.
    const _: () = assert!(NO_REG == u8::MAX);
    let (mut n_mem, mut n_branch, mut bad_reg) = (0usize, 0usize, 0u32);
    for chunk in ops.chunks(1 << 16) {
        let (mut mem, mut branch) = (0u32, 0u32);
        for &op in chunk {
            let class = (op >> CLASS_SHIFT) & 0x3;
            mem += u32::from(class == OpClass::Load as u32)
                + u32::from(class == OpClass::Store as u32);
            branch += u32::from(class == OpClass::Branch as u32);
            // Adding one wraps NO_REG (255) to 0, so a byte is valid iff
            // the sum is at most NUM_REGS.
            for shift in [0, 8, 16] {
                let reg = (op >> shift).wrapping_add(1) & 0xFF;
                bad_reg |= u32::from(reg > NUM_REGS as u32);
            }
        }
        n_mem += mem as usize;
        n_branch += branch as usize;
    }
    if n_mem != mem_addrs.len() {
        return Err(CodecError::Malformed(
            "load/store count differs from mem_addrs",
        ));
    }
    if n_branch != branch_pcs.len() {
        return Err(CodecError::Malformed(
            "branch count differs from branch_pcs",
        ));
    }
    if bad_reg != 0 {
        return Err(CodecError::Malformed("register byte out of range"));
    }
    if mem_addrs
        .iter()
        .max()
        .is_some_and(|&a| a as usize >= mem_words)
    {
        return Err(CodecError::Malformed("memory address beyond mem_words"));
    }

    Ok(InstrReplay {
        ops,
        mem_addrs,
        branch_pcs,
        bounds: Arc::new(SharedTrace {
            tasks,
            exits,
            kinds,
            nexts,
            instrs,
        }),
        mem_words,
    })
}

/// Checks that a decoded recording fits the program and task partition it
/// is about to be replayed under: its `mem_words` is `program`'s
/// data-memory size, and every boundary names a task of `tasks`, an exit
/// of that task's header and that exit's kind (the timing core, the
/// predictor sweeps and [`crate::replay::derive_trace`] index the
/// partition and its headers with them). A recording of the same program
/// under another partition, or of another program, fails here even with
/// a valid checksum.
///
/// # Errors
///
/// [`CodecError::Malformed`] naming the first mismatch.
pub fn check_fits(
    replay: &InstrReplay,
    program: &Program,
    tasks: &TaskProgram,
) -> Result<(), CodecError> {
    if replay.mem_words != memory_words(program) {
        return Err(CodecError::Malformed(
            "mem_words differs from the program's memory size",
        ));
    }
    for e in replay.bounds.iter() {
        let exit = tasks
            .tasks()
            .get(e.task.index())
            .map(|t| t.header().exit(e.exit));
        let what = match exit {
            None => "boundary task outside the partition",
            Some(None) => "boundary exit past its task's header",
            Some(Some(x)) if x.kind != e.kind => "boundary kind differs from its task's header",
            Some(Some(_)) => continue,
        };
        return Err(CodecError::Malformed(what));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::record_replay;
    use multiscalar_isa::{fingerprint_of, AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    fn program() -> (Program, TaskProgram) {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 40);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 3);
        b.store(Reg(1), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        // An intra-task branch, so the recording has branch pcs.
        let skip = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), skip);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(skip);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tp = TaskFormer::default().form(&p).unwrap();
        (p, tp)
    }

    fn recording() -> InstrReplay {
        let (p, tp) = program();
        record_replay(&p, &tp, 1_000_000).unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        let r = recording();
        let key = fingerprint_of(&"key");
        let bytes = encode_replay(&r, key);
        assert_eq!(decode_replay(&bytes, key).unwrap(), r);
    }

    #[test]
    fn every_truncation_point_errs_not_panics() {
        let r = recording();
        let key = fingerprint_of(&"key");
        let bytes = encode_replay(&r, key);
        // Exhaustive head truncations through the header + column starts,
        // then a sweep of whole-percent cuts through the payload.
        for cut in (0..bytes.len().min(128)).chain((1..100).map(|p| bytes.len() * p / 100)) {
            assert!(
                decode_replay(&bytes[..cut], key).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let r = recording();
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&r, key);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_replay(&bytes, key).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::BadChecksum | CodecError::Truncated | CodecError::Malformed(_)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let r = recording();
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&r, key);
        bytes[4..8].copy_from_slice(&(CACHE_SCHEMA + 1).to_le_bytes());
        assert_eq!(
            decode_replay(&bytes, key).unwrap_err(),
            CodecError::BadSchema {
                found: CACHE_SCHEMA + 1
            }
        );
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let r = recording();
        let bytes = encode_replay(&r, fingerprint_of(&"key-a"));
        assert!(matches!(
            decode_replay(&bytes, fingerprint_of(&"key-b")).unwrap_err(),
            CodecError::BadFingerprint { .. }
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let r = recording();
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&r, key);
        bytes[0] = b'X';
        assert_eq!(
            decode_replay(&bytes, key).unwrap_err(),
            CodecError::BadMagic
        );
    }

    /// Tampers with a real recording, re-encodes it (so the checksum is
    /// valid) and decodes the result.
    fn decode_tampered(tamper: impl FnOnce(&mut InstrReplay)) -> Result<InstrReplay, CodecError> {
        let mut r = recording();
        assert!(!r.mem_addrs.is_empty() && !r.branch_pcs.is_empty());
        tamper(&mut r);
        let key = fingerprint_of(&"key");
        decode_replay(&encode_replay(&r, key), key)
    }

    #[test]
    fn dropped_memory_address_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                r.mem_addrs.pop();
            })
            .unwrap_err(),
            CodecError::Malformed("load/store count differs from mem_addrs")
        );
    }

    #[test]
    fn missing_branch_pcs_are_malformed() {
        assert_eq!(
            decode_tampered(|r| r.branch_pcs.clear()).unwrap_err(),
            CodecError::Malformed("branch count differs from branch_pcs")
        );
    }

    #[test]
    fn memory_address_beyond_mem_words_is_malformed() {
        assert_eq!(
            decode_tampered(|r| r.mem_addrs[0] = r.mem_words as u32).unwrap_err(),
            CodecError::Malformed("memory address beyond mem_words")
        );
    }

    #[test]
    fn out_of_range_register_byte_is_malformed() {
        assert_eq!(
            decode_tampered(|r| r.ops[0] = (r.ops[0] & !0xFF) | 200).unwrap_err(),
            CodecError::Malformed("register byte out of range")
        );
    }

    /// The boundary section of a recording, for in-place tampering.
    fn bounds(r: &mut InstrReplay) -> &mut SharedTrace {
        Arc::make_mut(&mut r.bounds)
    }

    #[test]
    fn unequal_boundary_columns_are_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                bounds(r).nexts.pop();
            })
            .unwrap_err(),
            CodecError::Malformed("boundary column lengths differ")
        );
    }

    #[test]
    fn zero_task_size_is_malformed() {
        assert_eq!(
            decode_tampered(|r| bounds(r).instrs[0] = 0).unwrap_err(),
            CodecError::Malformed("zero task size")
        );
    }

    #[test]
    fn task_sizes_must_leave_the_halting_task_its_op() {
        assert_eq!(
            decode_tampered(|r| {
                let ops = r.ops.len() as u32;
                let b = bounds(r);
                let recorded: u32 = b.instrs.iter().sum();
                b.instrs[0] += ops - recorded;
            })
            .unwrap_err(),
            CodecError::Malformed("task sizes leave no halting op")
        );
    }

    /// Encodes a real recording, overwrites the first byte of boundary
    /// column `col` (0 = task, 1 = exit, 2 = kind), re-seals the checksum
    /// and decodes the result.
    fn decode_forged_byte(col: usize, byte: u8) -> Result<InstrReplay, CodecError> {
        const WIDTHS: [usize; 5] = [4, 4, 4, 4, 1];
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&recording(), key);
        let mut at = 32;
        for w in WIDTHS.iter().take(3 + col) {
            let n = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            at += 8 + n * w;
        }
        bytes[at + 8] = byte;
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        decode_replay(&bytes, key)
    }

    #[test]
    fn forged_exit_beyond_max_exits_is_malformed() {
        assert_eq!(
            decode_forged_byte(1, multiscalar_isa::MAX_EXITS as u8).unwrap_err(),
            CodecError::Malformed("exit index out of range")
        );
    }

    #[test]
    fn forged_kind_slot_outside_table1_is_malformed() {
        assert_eq!(
            decode_forged_byte(2, ExitKind::TABLE1.len() as u8).unwrap_err(),
            CodecError::Malformed("kind slot outside Table 1")
        );
        // A valid slot decodes: only the slot range is the decoder's job.
        assert!(decode_forged_byte(2, 0).is_ok());
    }

    #[test]
    fn a_recording_fits_its_own_program_and_partition() {
        let (p, tp) = program();
        let r = record_replay(&p, &tp, 1_000_000).unwrap();
        assert_eq!(check_fits(&r, &p, &tp), Ok(()));
    }

    /// Tampers with a real recording, round-trips it through the codec (so
    /// it carries a valid checksum and passes every decode check) and
    /// checks it against its own program and partition.
    fn check_tampered(
        tamper: impl FnOnce(&mut InstrReplay, &TaskProgram),
    ) -> Result<(), CodecError> {
        let (p, tp) = program();
        let mut r = record_replay(&p, &tp, 1_000_000).unwrap();
        tamper(&mut r, &tp);
        let key = fingerprint_of(&"key");
        let r = decode_replay(&encode_replay(&r, key), key).expect("decodes");
        check_fits(&r, &p, &tp)
    }

    #[test]
    fn boundary_task_outside_the_partition_does_not_fit() {
        assert_eq!(
            check_tampered(|r, tp| {
                let b = bounds(r);
                let last = b.len() - 1;
                b.tasks[last] = TaskId(tp.tasks().len() as u32);
            })
            .unwrap_err(),
            CodecError::Malformed("boundary task outside the partition")
        );
    }

    #[test]
    fn exit_past_its_tasks_header_does_not_fit() {
        // In range for the decoder (below MAX_EXITS), but past the header.
        assert_eq!(
            check_tampered(|r, tp| {
                let b = bounds(r);
                let (k, n) = (0..b.len())
                    .map(|k| (k, tp.task(b.tasks[k]).header().num_exits()))
                    .find(|&(_, n)| n < multiscalar_isa::MAX_EXITS)
                    .expect("a task with a spare exit slot");
                b.exits[k] = ExitIndex::new(n as u8).unwrap();
            })
            .unwrap_err(),
            CodecError::Malformed("boundary exit past its task's header")
        );
    }

    #[test]
    fn kind_disagreeing_with_the_header_does_not_fit() {
        assert_eq!(
            check_tampered(|r, _| {
                let b = bounds(r);
                b.kinds[0] = if b.kinds[0] == ExitKind::Call {
                    ExitKind::Branch
                } else {
                    ExitKind::Call
                };
            })
            .unwrap_err(),
            CodecError::Malformed("boundary kind differs from its task's header")
        );
    }

    #[test]
    fn foreign_mem_words_do_not_fit() {
        // Larger sizes keep every address in range, so decoding accepts
        // them; the core would allocate this many words.
        for mem_words in [1 << 40, usize::MAX] {
            assert_eq!(
                check_tampered(|r, _| r.mem_words = mem_words).unwrap_err(),
                CodecError::Malformed("mem_words differs from the program's memory size")
            );
        }
    }
}
