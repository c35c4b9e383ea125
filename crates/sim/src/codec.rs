//! Versioned binary codec for [`InstrReplay`] — the on-disk form of the
//! harness's content-addressed artifact cache.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset    size   field
//! 0         4      magic "MSRP"
//! 4         4      schema version (CACHE_SCHEMA)
//! 8         16     content fingerprint (the cache key the artifact was
//!                  recorded under; readers reject a mismatch)
//! 24        8      mem_words
//! 32        64     element counts: ops, mem_addrs, code, boundaries,
//!                  targets, escapes, tasks, task exits
//! 96        8      the instruction section's length in bytes
//! 104       B      the boundary section, one byte per dynamic task: the
//!                  exit taken (bits 0..2) and the task's size in ops
//!                  (bits 2..8, 1..=63; 0 escapes a larger size)
//! 104+B     4·E    the E escaped sizes (u32 each, above 63), in order
//! 104+B+4·E 4·S    the S stored targets (u32 each): the next pc of each
//!                  boundary whose exit has no static target (a return, an
//!                  indirect branch or call), in order
//! T-8       8      boundary checksum: two-lane FxHash of bytes 0..T-8 (the
//!                  header and the boundary section)
//! T         5·N+5·X the task section, T = 112+B+4·E+4·S: the N tasks'
//!                  entry pcs (u32 each), their exit counts (u8 each), then
//!                  the X exits' kinds (u8 each: the Table 1 slot, 5 for
//!                  the halt) and static targets (u32 each; 2^32-1 where
//!                  the header has none), task after task in header order
//! C-8       8      task checksum: two-lane FxHash of the task section
//! C         4+8·L  the code section, C = T+8+5·N+5·X: the entry pc u32,
//!                  the L op words, then the L static successors (u32 each;
//!                  L, the code's length, where only a boundary can say)
//! C+4+8·L   8      code checksum: two-lane FxHash of the code section
//! I         …      the instruction section, I = C+12+8·L: one chunk per
//!                  CHUNK_OPS ops (the last chunk takes the rest), each
//!                  laid out as
//!                    4     b, the count of the chunk's intra-task
//!                          conditional branches
//!                    ⌈b/8⌉ their taken bits, bit i%8 of byte i/8 for the
//!                          i-th branch, the bits past b clear
//!                    4     m, the count of the chunk's loads and stores
//!                    4     k, the bytes of their address deltas
//!                    k     the m address deltas in program order, each a
//!                          zigzag LEB128 varint (shortest form) of the
//!                          reference's word address minus the previous
//!                          address at the same pc (0 before that pc's
//!                          first), wrapping at 2^32
//!                    8     chunk checksum: FxHash of the chunk's index
//!                          and its 12+⌈b/8⌉+k bytes
//! ```
//!
//! Both sections keep what execution decides and nothing the program or
//! the partition says. The boundary section ([`SharedTrace`]): a
//! boundary's task is the one entered at the previous boundary's next pc
//! (the first is the entry point's), and its kind and a static exit's next
//! pc are the task header's, which the task section carries. So a task
//! takes about 1.9 bytes on the five benchmarks. The instruction section:
//! the code table says which op is a conditional branch and which a load
//! or a store, and the task clock which branch crosses a boundary, so only
//! an intra-task branch keeps a bit; and most references land near the
//! previous one at the same pc, so a delta takes about 1.1 bytes.
//!
//! The header alone sizes the file: it counts the instruction section's
//! bytes too. A reader checks the file's length before it reads a section.
//! The boundary, task and code sections go through a bounded streaming
//! reader that folds each piece into the section's checksum as it arrives
//! and never allocates more than the bytes that remain. The instruction
//! section goes through a chunk reader, which hands a held section's
//! chunks out as slices of its bytes and reads a stored one's into a
//! buffer that holds one chunk: at most [`CHUNK_OPS`] taken bits and as
//! many deltas of at most five bytes, 82 KiB.
//!
//! The instruction section has this one form everywhere: the recorder
//! writes its chunks as it records ([`crate::replay::record_replay`]), a
//! fresh or decoded recording holds them, and every walk reads them
//! through the same chunk reader, from memory or from the artifact, and
//! decodes each op's bit and address as its cursor steps it. So does the
//! boundary section: the recorder writes it, a recording holds it and the
//! artifact stores it. The encoder ([`write_replay`]; [`encode_replay`] is
//! its `Vec` form) writes the header and the boundary, task and code
//! sections, then copies the chunks.
//!
//! # Guarantees
//!
//! * **Round-trip equality**: `decode(encode(r, k), k) == r` for every
//!   recording (tested on all five workloads and at chunk edges), and the
//!   bytes of a three-chunk artifact are pinned by a test.
//! * **Graceful failure**: decoding never panics and never fabricates a
//!   recording. Truncation, appended bytes, bit flips, schema bumps and
//!   key mismatches all surface as a typed [`CodecError`]. On top of the
//!   checksums, the decoded parts are validated semantically, so even an
//!   artifact with valid checksums cannot steer the replay cursor
//!   ([`crate::replay::walk_lanes`] runs on it) off a path it can
//!   regenerate.
//!
//! [`decode_replay`] reads every section at once into a recording that
//! holds them, its instruction section a copy of the artifact's chunks; it
//! needs no program, because the task table and the code table travel in
//! the artifact. [`open_replay`], the artifact cache's load, reads the
//! header and the boundary, task and code sections, which is all
//! predictor sweeps use and at most a few hundred KiB beyond the
//! boundaries. The
//! recording it returns holds no instruction section: every timing walk
//! over it reopens the artifact and reads the section chunk by chunk, and
//! no file stays open between walks. The checks split the same way:
//!
//! | when | checks |
//! |---|---|
//! | load | magic, schema, key; the file length the header declares; the boundary checksum; the task checksum; every task's exit count at most `MAX_EXITS`, the counts summing to the exit count, every kind code naming a kind of Table 1 or the halt, every static target inside the code; the code checksum; the entry inside the code, every successor at most the code's length, every register byte naming a register (or absent), no op-word bit above the halt's; every task entry inside the code and entering its own task (so no two tasks share one), the entry point entering a task; then the boundary section, decoded in order: every exit inside its derived task's header and no halt exit, every static next pc a boundary takes entering a task, every stored target inside the code and entering a task, every escaped size above 63 (so every size is at least 1), the sizes summing below the op count (so the halting task keeps its halt), and the escape and target columns used up exactly |
//! | each walk, held or stored | a stored section's header and length again; then per chunk, before any of its ops is stepped, its checksum, that it ends inside the section (and the last chunk at its end), its branch count at most its ops, its address count against the addresses left (at most one per op; the last chunk takes exactly what remains), its delta bytes at most five per address, and its taken bits past `b` clear; then, as the walk's cursor steps the chunk, one flag per rule (`ReplayCursor::check`): no pc reaches the code table's sentinel (so every op that ends no task has a static successor), the halt is the last op of the last chunk and no other, the chunk's intra-task conditional branches read exactly its `b` bits, its loads and stores exactly its `m` deltas, and those exactly its `k` bytes, every delta is a varint in its shortest form, and every address lies below `mem_words` |
//!
//! [`decode_replay`] runs the load checks, then a walk's checks with the
//! same cursor over every chunk. A held section keeps the rules, which
//! recording guarantees and decoding checks. A stored chunk that fails a
//! walk's read or check goes to the caller's [`Rerecord`], which the
//! artifact cache answers as it answers a failure at load: evict, then
//! re-record. The walk starts over at the recording's first op in the
//! re-recorded section, from the sinks it began with, and the recording
//! keeps that section for later walks, so a failure costs time once and
//! never changes a result. The rest needs the program and its task
//! partition, which the decoder never sees: that the code table is the
//! program's, that the task table is the partition's (so every boundary
//! names a task of the partition, an exit of that task's header and that
//! exit's kind), and that `mem_words` is the program's data-memory size
//! (the timing core allocates that many words). [`check_fits`] checks all
//! of it; the artifact cache runs it on every load.
//!
//! Bump [`CACHE_SCHEMA`] whenever this layout *or the meaning of any
//! recorded field* changes (e.g. a timing-semantics change that alters what
//! recordings capture): stale artifacts then fail decode and get evicted
//! instead of silently producing wrong results.

use multiscalar_isa::{
    memory_words, ExitKind, Fingerprint, FingerprintHasher, Program, MAX_EXITS, NUM_REGS,
};
use multiscalar_taskform::TaskProgram;
use std::fmt;
use std::fs::File;
use std::hash::Hasher as _;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use crate::replay::{
    Chunk, CodeEntry, CodeTable, InstrReplay, ReplayCursor, Section, SENTINEL_BIT,
};
use crate::timing::{OpClass, NO_REG};
use crate::trace::{SharedTrace, TableExit, TaskTable, NO_TARGET};

/// Schema version of the artifact cache: codec layout + recording
/// semantics. Any change to either must bump this.
pub const CACHE_SCHEMA: u32 = 8;

/// Ops per chunk of the instruction section. A chunk's taken bits take
/// at most 2 KiB, and the whole chunk, address deltas included, at most
/// 82 KiB.
pub const CHUNK_OPS: usize = 16 * 1024;

/// Bytes of one address delta at most: a `u32` in seven-bit groups.
const MAX_DELTA_BYTES: usize = 5;

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
    /// A section's or a chunk's checksum does not match its contents.
    BadChecksum,
    /// The contents decoded but violate a structural invariant.
    Malformed(&'static str),
    /// The file could not be opened or read.
    Io(io::ErrorKind),
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
            CodecError::Io(kind) => write!(f, "read failed: {kind}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> CodecError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => CodecError::Truncated,
            kind => CodecError::Io(kind),
        }
    }
}

/// Bytes of the header: magic, schema, key, `mem_words`, eight counts and
/// the instruction section's length.
const HEADER_BYTES: u64 = 104;

/// Bytes of one task, and of one task exit, in the task section: an entry
/// pc u32 and an exit count u8; a kind u8 and a static target u32.
const TASK_BYTES: u64 = 5;

/// Exit kinds by their code in a stored task table: Table 1's order, then
/// the halt.
const KINDS: [ExitKind; 6] = [
    ExitKind::Branch,
    ExitKind::Call,
    ExitKind::Return,
    ExitKind::IndirectBranch,
    ExitKind::IndirectCall,
    ExitKind::Halt,
];

/// The code of `kind` in a stored task table (see [`KINDS`]).
fn kind_code(kind: ExitKind) -> u8 {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every kind has a code") as u8
}

/// Bytes of one code-table entry: op word u32, successor u32.
const CODE_BYTES: u64 = 8;

/// Bytes the streaming section reader and writer move at a time.
const CHUNK: usize = 64 * 1024;

/// A section checksum folded in as its bytes arrive: the two-lane FxHash
/// of the whole section, whatever sizes the pieces come in.
struct StreamSum {
    hasher: FingerprintHasher,
    /// The bytes of a partial 8-byte word, carried to the next piece.
    tail: [u8; 8],
    tail_len: usize,
}

impl StreamSum {
    fn new() -> StreamSum {
        StreamSum {
            hasher: FingerprintHasher::new(),
            tail: [0; 8],
            tail_len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let n = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&bytes[..n]);
            self.tail_len += n;
            bytes = &bytes[n..];
            if self.tail_len < 8 {
                return;
            }
            self.hasher.write(&self.tail);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % 8;
        self.hasher.write(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of everything folded in, which starts the next
    /// section afresh.
    fn take(&mut self) -> u64 {
        let mut hasher = std::mem::take(&mut self.hasher);
        hasher.write(&self.tail[..self.tail_len]);
        self.tail_len = 0;
        hasher.finish()
    }
}

/// The checksum of chunk `index` of an instruction section, whose bytes
/// are `bytes`. Folding in the index makes a chunk that moved fail.
fn chunk_sum(index: u64, bytes: &[u8]) -> u64 {
    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(index);
    hasher.write(bytes);
    hasher.finish()
}

/// Appends the delta from `last` to `addr`, the word addresses of two
/// references at one pc, as a zigzag LEB128 varint: the difference
/// wrapped to an `i32`, zigzagged so small magnitudes of either sign take
/// few bits, in seven-bit groups, low group first, each but the last with
/// its top bit set.
#[inline]
pub(crate) fn put_delta(out: &mut Vec<u8>, last: u32, addr: u32) {
    let delta = addr.wrapping_sub(last) as i32;
    let mut zigzag = ((delta << 1) ^ (delta >> 31)) as u32;
    while zigzag >= 0x80 {
        out.push(zigzag as u8 | 0x80);
        zigzag >>= 7;
    }
    out.push(zigzag as u8);
}

/// Why an address delta failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BadDelta {
    /// Its bytes run past the chunk's stream.
    PastStream,
    /// It is not the shortest form of a `u32`: a last group of zero after
    /// others, or more than 32 bits.
    Overlong,
}

/// Reads one address delta ([`put_delta`]) from the front of `bytes` and
/// moves past it; the difference comes back as the `u32` to add, wrapping,
/// to the previous address. On an error `bytes` is left empty.
#[inline(always)]
pub(crate) fn read_delta(bytes: &mut &[u8]) -> Result<u32, BadDelta> {
    match bytes.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *bytes = rest;
            Ok(unzigzag(u32::from(byte)))
        }
        _ => read_long_delta(bytes),
    }
}

/// [`read_delta`] past its one-byte form.
fn read_long_delta(bytes: &mut &[u8]) -> Result<u32, BadDelta> {
    let stream = std::mem::take(bytes);
    let mut zigzag = 0u32;
    for (i, &byte) in stream.iter().enumerate() {
        if i == MAX_DELTA_BYTES {
            return Err(BadDelta::Overlong);
        }
        zigzag |= u32::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            // The fifth group holds the top four bits.
            if (i > 0 && byte == 0) || (i == MAX_DELTA_BYTES - 1 && byte > 0x0F) {
                return Err(BadDelta::Overlong);
            }
            *bytes = &stream[i + 1..];
            return Ok(unzigzag(zigzag));
        }
    }
    Err(BadDelta::PastStream)
}

/// The difference a zigzagged delta stands for, as the `u32` to add.
#[inline(always)]
fn unzigzag(zigzag: u32) -> u32 {
    (zigzag >> 1) ^ 0u32.wrapping_sub(zigzag & 1)
}

/// The header: what sizes and locates the sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    mem_words: usize,
    ops: u64,
    mem_addrs: u64,
    code: u64,
    bounds: u64,
    targets: u64,
    escapes: u64,
    tasks: u64,
    exits: u64,
    /// Bytes of the instruction section.
    instr_bytes: u64,
}

impl Header {
    /// The header of recording `r`.
    fn of(r: &InstrReplay) -> Header {
        let b = &*r.bounds;
        Header {
            mem_words: r.mem_words,
            ops: r.instructions(),
            mem_addrs: r.mem_addrs,
            code: r.code.len() as u64,
            bounds: b.len() as u64,
            targets: b.targets.len() as u64,
            escapes: b.sizes.len() as u64,
            tasks: b.table.entries.len() as u64,
            exits: b.table.exits.len() as u64,
            instr_bytes: r.section_len(),
        }
    }

    /// Where the instruction section starts: after the header, the
    /// boundary, task and code sections and their checksums.
    fn instr_offset(&self) -> Option<u64> {
        let words = self.escapes.checked_add(self.targets)?.checked_mul(4)?;
        let tasks = self
            .tasks
            .checked_add(self.exits)?
            .checked_mul(TASK_BYTES)?;
        let code = self.code.checked_mul(CODE_BYTES)?;
        self.bounds
            .checked_add(words)?
            .checked_add(tasks)?
            .checked_add(code)?
            .checked_add(HEADER_BYTES + 8 + 8 + 4 + 8)
    }

    /// The file length the header declares (`None` past `u64`): the
    /// sections its counts size, then the instruction section's bytes.
    fn file_len(&self) -> Option<u64> {
        self.instr_offset()?.checked_add(self.instr_bytes)
    }

    /// Checks that a file of `len` bytes holds exactly what the header
    /// declares, so truncation and appended bytes fail before any section
    /// is read.
    fn check_len(&self, len: u64) -> Result<(), CodecError> {
        match self.file_len() {
            Some(want) if len == want => Ok(()),
            Some(want) if len > want => Err(CodecError::Malformed("trailing bytes after checksum")),
            _ => Err(CodecError::Truncated),
        }
    }
}

/// The bounded streaming reader the header, the boundary section and the
/// code section are decoded through. It reads the source in pieces of at
/// most [`CHUNK`] bytes and folds each into the running section checksum
/// as it arrives. It knows how many bytes the source holds and never
/// allocates more than the bytes that remain, so a corrupt count cannot
/// trigger an oversized allocation.
struct SectionReader<R> {
    src: R,
    /// Bytes left in the source.
    left: u64,
    sum: StreamSum,
    buf: Vec<u8>,
}

impl<R: Read> SectionReader<R> {
    fn new(src: R, len: u64) -> SectionReader<R> {
        SectionReader {
            src,
            left: len,
            sum: StreamSum::new(),
            buf: Vec::new(),
        }
    }

    /// Reads `n` bytes into the buffer and folds them into the checksum.
    fn fill(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if n as u64 > self.left {
            return Err(CodecError::Truncated);
        }
        self.left -= n as u64;
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        self.src.read_exact(&mut self.buf[..n])?;
        self.sum.update(&self.buf[..n]);
        Ok(&self.buf[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.fill(N)?.try_into().expect("N bytes"))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads and checks the header, leaving the reader at the boundary
    /// section.
    fn header(&mut self, expected: Fingerprint) -> Result<Header, CodecError> {
        if self.array()? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let schema = u32::from_le_bytes(self.array()?);
        if schema != CACHE_SCHEMA {
            return Err(CodecError::BadSchema { found: schema });
        }
        let found = Fingerprint::from_le_bytes(self.array()?);
        if found != expected {
            return Err(CodecError::BadFingerprint { found });
        }
        let mem_words = usize::try_from(self.u64()?)
            .map_err(|_| CodecError::Malformed("mem_words overflow"))?;
        Ok(Header {
            mem_words,
            ops: self.u64()?,
            mem_addrs: self.u64()?,
            code: self.u64()?,
            bounds: self.u64()?,
            targets: self.u64()?,
            escapes: self.u64()?,
            tasks: self.u64()?,
            exits: self.u64()?,
            instr_bytes: self.u64()?,
        })
    }

    /// Reads one column of `n` elements of `W` bytes, each decoded by `f`.
    fn col<T, const W: usize>(
        &mut self,
        n: u64,
        f: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let bytes = n
            .checked_mul(W as u64)
            .filter(|&bytes| bytes <= self.left)
            .and_then(|bytes| usize::try_from(bytes).ok())
            .ok_or(CodecError::Truncated)?;
        let mut out = Vec::with_capacity(bytes / W);
        let mut rest = bytes;
        while rest > 0 {
            let take = rest.min(CHUNK - CHUNK % W);
            let piece = self.fill(take)?;
            out.extend(
                piece
                    .chunks_exact(W)
                    .map(|c| f(c.try_into().expect("W-byte element"))),
            );
            rest -= take;
        }
        Ok(out)
    }

    /// Reads a section's stored checksum and compares it with what was
    /// folded in since the previous one.
    fn seal(&mut self) -> Result<(), CodecError> {
        let computed = self.sum.take();
        let mut stored = [0u8; 8];
        if self.left < 8 {
            return Err(CodecError::Truncated);
        }
        self.src.read_exact(&mut stored)?;
        self.left -= 8;
        if u64::from_le_bytes(stored) == computed {
            Ok(())
        } else {
            Err(CodecError::BadChecksum)
        }
    }

    /// Reads and checks the boundary, task and code sections: the
    /// recording's boundary section, decoded against the task table once,
    /// and its code table.
    fn sections(&mut self, head: &Header) -> Result<(SharedTrace, CodeTable), CodecError> {
        let bytes = self.col(head.bounds, |[b]| b)?;
        let sizes = self.col(head.escapes, u32::from_le_bytes)?;
        let targets = self.col(head.targets, u32::from_le_bytes)?;
        self.seal()?;
        let (entries, counts, exits) = self.tasks(head)?;
        let code = self.code(head)?;
        let table = TaskTable::derive(entries, counts, exits, code.len());
        if !table.entries_are_distinct() {
            return Err(CodecError::Malformed(
                "task entry outside the code or shared",
            ));
        }
        let bounds = SharedTrace {
            bytes,
            sizes,
            targets,
            ..SharedTrace::new(table, code.entry)
        };
        bounds.check(head.ops).map_err(CodecError::Malformed)?;
        Ok((bounds, code))
    }

    /// Reads, checksums and validates the task section's columns: each
    /// task's entry pc and exit count, and every exit.
    fn tasks(&mut self, head: &Header) -> Result<TaskColumns, CodecError> {
        let entries = self.col(head.tasks, u32::from_le_bytes)?;
        let counts = self.col(head.tasks, |[n]| n)?;
        let kinds = self.col(head.exits, |[k]| KINDS.get(usize::from(k)).copied())?;
        let targets = self.col(head.exits, u32::from_le_bytes)?;
        self.seal()?;

        // Task ids are u32, and the largest is the decoder's "no task".
        if head.tasks >= u64::from(u32::MAX) {
            return Err(CodecError::Malformed("more tasks than task ids"));
        }
        if counts.iter().any(|&n| usize::from(n) > MAX_EXITS) {
            return Err(CodecError::Malformed("task exit count past MAX_EXITS"));
        }
        if counts.iter().map(|&n| u64::from(n)).sum::<u64>() != head.exits {
            return Err(CodecError::Malformed(
                "task exit counts differ from the exits",
            ));
        }
        if targets
            .iter()
            .any(|&t| t != NO_TARGET && u64::from(t) >= head.code)
        {
            return Err(CodecError::Malformed("static target outside the code"));
        }
        let exits = kinds
            .into_iter()
            .zip(targets)
            .map(|(kind, target)| kind.map(|kind| TableExit { kind, target }))
            .collect::<Option<Vec<_>>>()
            .ok_or(CodecError::Malformed(
                "task exit kind outside Table 1 and the halt",
            ))?;
        Ok((entries, counts, exits))
    }

    /// Reads, checksums and validates the code section.
    fn code(&mut self, head: &Header) -> Result<CodeTable, CodecError> {
        let entry = u32::from_le_bytes(self.array()?);
        let ops = self.col(head.code, u32::from_le_bytes)?;
        let succs = self.col(head.code, u32::from_le_bytes)?;
        self.seal()?;

        // The sentinel sits at the code's length, and a pc one past it
        // must still fit.
        let len = u32::try_from(ops.len())
            .ok()
            .filter(|&len| len < u32::MAX)
            .ok_or(CodecError::Malformed("code longer than the address space"))?;
        if entry >= len {
            return Err(CodecError::Malformed("entry outside the code"));
        }
        const _: () = assert!(NO_REG == u8::MAX);
        for &op in &ops {
            // Only the sentinel carries a bit above the halt's.
            if op >= SENTINEL_BIT {
                return Err(CodecError::Malformed("op word bit past the halt's"));
            }
            // Adding one wraps NO_REG (255) to 0, so a byte is valid iff
            // the sum is at most NUM_REGS.
            if [0, 8, 16]
                .iter()
                .any(|shift| (op >> shift).wrapping_add(1) & 0xFF > NUM_REGS as u32)
            {
                return Err(CodecError::Malformed("register byte out of range"));
            }
        }
        if succs.iter().any(|&s| s > len) {
            return Err(CodecError::Malformed("successor past the code"));
        }
        let entries = ops
            .into_iter()
            .zip(succs)
            .map(|(op, succ)| CodeEntry { op, succ })
            .collect();
        Ok(CodeTable::with_sentinel(entry, entries))
    }
}

/// A task section's stored columns: each task's entry pc and exit count,
/// and every exit.
type TaskColumns = (Vec<u32>, Vec<u8>, Vec<TableExit>);

/// The little-endian `u32` at byte `at` of `bytes`.
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte word"))
}

/// Where a [`ChunkReader`] reads from.
enum Source<'a> {
    /// A held section from the current chunk on; its chunks are handed out
    /// as slices of it.
    Held(&'a [u8]),
    /// An artifact at the current chunk, and the bytes of that chunk read
    /// so far.
    Stored(Box<dyn Read + 'a>, Vec<u8>),
}

/// Reads an instruction section one chunk at a time, from a recording's
/// bytes or its reopened artifact alike: a held section's chunks are
/// slices of its bytes, and a stored section's are read into one buffer
/// that holds one chunk, whatever the section's length. Each chunk is
/// checked whole before it is handed out: its checksum, that it ends
/// inside the section (and the last one at its end), its counts against
/// its ops, the addresses left and its bytes, and its unused taken bits.
/// What the ops decide (which op reads a bit or a delta, and the address
/// a delta gives) is the cursor's to check as it steps the chunk
/// ([`ReplayCursor::check`]).
pub(crate) struct ChunkReader<'a> {
    src: Source<'a>,
    /// Index of the next chunk.
    index: u64,
    /// Ops in the chunks not yet read.
    ops_left: u64,
    /// Memory addresses in the chunks not yet read.
    mem_left: u64,
    /// Bytes of the section past those of the current chunk read so far.
    bytes_left: u64,
    /// Bytes of the current chunk read so far.
    len: usize,
}

impl<'a> ChunkReader<'a> {
    /// A reader of `head`'s instruction section from `src`, which must be
    /// at its first chunk.
    fn new(src: impl Read + 'a, head: Header) -> ChunkReader<'a> {
        ChunkReader {
            src: Source::Stored(Box::new(src), Vec::new()),
            index: 0,
            ops_left: head.ops,
            mem_left: head.mem_addrs,
            bytes_left: head.instr_bytes,
            len: 0,
        }
    }

    /// A reader of `bytes`, the instruction section recording `r` holds.
    pub(crate) fn held(bytes: &'a [u8], r: &InstrReplay) -> ChunkReader<'a> {
        ChunkReader {
            src: Source::Held(bytes),
            index: 0,
            ops_left: r.instructions(),
            mem_left: r.mem_addrs,
            bytes_left: bytes.len() as u64,
            len: 0,
        }
    }

    /// The current chunk's first `len` bytes, at least as many as it has
    /// read so far; a chunk may not run past the section.
    fn fill(&mut self, len: usize) -> Result<&[u8], CodecError> {
        let more = (len - self.len) as u64;
        if more > self.bytes_left {
            return Err(CodecError::Malformed(
                "chunk runs past the instruction section",
            ));
        }
        self.bytes_left -= more;
        let read = std::mem::replace(&mut self.len, len);
        match &mut self.src {
            Source::Held(rest) => Ok(&rest[..len]),
            Source::Stored(src, raw) => {
                raw.resize(len, 0);
                src.read_exact(&mut raw[read..])?;
                Ok(raw)
            }
        }
    }

    /// Reads and checks the next chunk; `None` past the last one.
    pub(crate) fn next_chunk(&mut self) -> Result<Option<Chunk<'_>>, CodecError> {
        match &mut self.src {
            Source::Held(rest) => *rest = &rest[self.len..],
            Source::Stored(_, raw) => raw.clear(),
        }
        self.len = 0;
        if self.ops_left == 0 {
            return match self.bytes_left {
                0 => Ok(None),
                _ => Err(CodecError::Malformed(
                    "instruction section longer than its chunks",
                )),
            };
        }
        let n = self.ops_left.min(CHUNK_OPS as u64) as usize;
        let last = n as u64 == self.ops_left;
        let b = word(self.fill(4)?, 0) as usize;
        if b > n {
            return Err(CodecError::Malformed("chunk branch count past its ops"));
        }
        let bits = b.div_ceil(8);
        let counts = self.fill(12 + bits)?;
        let (m, k) = (word(counts, 4 + bits), word(counts, 8 + bits) as usize);
        // Each op consumes at most one address, and the last chunk takes
        // what is left.
        let m = u64::from(m);
        if m > n as u64 || m > self.mem_left || (last && m != self.mem_left) {
            return Err(CodecError::Malformed(
                "chunk address count differs from mem_addrs",
            ));
        }
        // So a stored chunk's buffer stays bounded.
        if k as u64 > MAX_DELTA_BYTES as u64 * m {
            return Err(CodecError::Malformed(
                "chunk delta bytes past five per address",
            ));
        }
        let index = self.index;
        self.index += 1;
        self.ops_left -= n as u64;
        self.mem_left -= m;
        let body = 12 + bits + k;
        let raw = self.fill(body + 8)?;
        let (bytes, stored) = raw.split_at(body);
        if u64::from_le_bytes(stored.try_into().expect("8-byte checksum"))
            != chunk_sum(index, bytes)
        {
            return Err(CodecError::BadChecksum);
        }
        // The last byte's bits past the chunk's branches are clear, so a
        // chunk has one form.
        if bits > 0 && u32::from(bytes[3 + bits]) >> (b - 8 * (bits - 1)) != 0 {
            return Err(CodecError::Malformed("taken bit past the chunk's branches"));
        }
        Ok(Some(Chunk {
            at: 0,
            end: n,
            last,
            taken: &bytes[4..4 + bits],
            branches: b,
            bit: 0,
            refs: m as usize,
            deltas: &bytes[12 + bits..],
        }))
    }

    /// The chunk [`ChunkReader::next_chunk`] read last, as the artifact
    /// stores it: its counts, taken bits and deltas and its checksum.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.src {
            Source::Held(rest) => &rest[..self.len],
            Source::Stored(_, raw) => raw,
        }
    }
}

/// Lays an instruction section out as the artifact's run of chunks, one op
/// at a time, sealing each chunk as it fills: what the recorder writes.
pub(crate) struct ChunkWriter {
    /// The sealed chunks.
    bytes: Vec<u8>,
    /// The open chunk's full bytes of taken bits, and its open byte,
    /// pushed once its eighth branch is written.
    taken: Vec<u8>,
    open: u8,
    /// The open chunk's intra-task conditional branches, and its loads and
    /// stores.
    branches: u32,
    refs: u32,
    /// The open chunk's address deltas.
    deltas: Vec<u8>,
    /// Per pc, the word address of its last load or store (0 before its
    /// first), which the next one's delta is taken from.
    last_addr: Vec<u32>,
    /// Ops written, and memory addresses in the sealed chunks.
    ops: u64,
    mem_addrs: u64,
}

impl ChunkWriter {
    /// A writer for the steps of a program of `code_len` instructions.
    pub(crate) fn new(code_len: usize) -> ChunkWriter {
        ChunkWriter {
            bytes: Vec::new(),
            taken: Vec::new(),
            open: 0,
            branches: 0,
            refs: 0,
            deltas: Vec::new(),
            last_addr: vec![0; code_len],
            ops: 0,
            mem_addrs: 0,
        }
    }

    /// Writes one op, the step source's step from `pc`: a taken bit if its
    /// class is `Branch` (the step source classes a conditional branch
    /// that crosses a boundary `Other`), and an address delta if it is a
    /// load or a store.
    #[inline]
    pub(crate) fn push(&mut self, pc: u32, class: OpClass, taken: bool, mem_addr: u32) {
        match class {
            OpClass::Branch => {
                self.open |= u8::from(taken) << (self.branches % 8);
                self.branches += 1;
                if self.branches.is_multiple_of(8) {
                    self.taken.push(std::mem::take(&mut self.open));
                }
            }
            OpClass::Load | OpClass::Store => {
                let last = &mut self.last_addr[pc as usize];
                put_delta(&mut self.deltas, *last, mem_addr);
                *last = mem_addr;
                self.refs += 1;
            }
            OpClass::Other => {}
        }
        self.ops += 1;
        if self.ops.is_multiple_of(CHUNK_OPS as u64) {
            self.seal();
        }
    }

    /// Ends the open chunk: its branch count and taken bits, its address
    /// count, its deltas' byte count and deltas, and its checksum.
    fn seal(&mut self) {
        if !self.branches.is_multiple_of(8) {
            self.taken.push(std::mem::take(&mut self.open));
        }
        let index = (self.ops - 1) / CHUNK_OPS as u64;
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&self.branches.to_le_bytes());
        self.bytes.append(&mut self.taken);
        self.bytes.extend_from_slice(&self.refs.to_le_bytes());
        self.bytes
            .extend_from_slice(&(self.deltas.len() as u32).to_le_bytes());
        self.bytes.append(&mut self.deltas);
        let sum = chunk_sum(index, &self.bytes[start..]);
        self.bytes.extend_from_slice(&sum.to_le_bytes());
        self.mem_addrs += u64::from(self.refs);
        (self.branches, self.refs) = (0, 0);
    }

    /// Seals the last chunk. Returns the section's bytes, without the
    /// room they grew into, its op count and its memory-address count.
    pub(crate) fn finish(mut self) -> (Vec<u8>, u64, u64) {
        if !self.ops.is_multiple_of(CHUNK_OPS as u64) {
            self.seal();
        }
        self.bytes.shrink_to_fit();
        (self.bytes, self.ops, self.mem_addrs)
    }
}

/// Reads every chunk of `r`'s instruction section and steps one cursor
/// over them, checking each chunk as a walk does.
fn check_section(r: &InstrReplay) -> Result<(), CodecError> {
    let mut chunks = r.chunks()?;
    let mut cursor = ReplayCursor::new(r);
    while let Some(mut chunk) = chunks.next_chunk()? {
        while cursor.step(&mut chunk).is_some() {}
        cursor.check(&chunk)?;
    }
    Ok(())
}

/// The encoder's side of the boundary and code sections' stream: each
/// column goes to `out` in pieces and into the section checksum as it
/// goes.
struct SectionWriter<W> {
    out: W,
    sum: StreamSum,
    buf: Vec<u8>,
}

impl<W: Write> SectionWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sum.update(bytes);
        self.out.write_all(bytes)
    }

    /// Writes one column, each element's bytes from `f`.
    fn col<T: Copy, const N: usize>(
        &mut self,
        vals: &[T],
        f: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        for piece in vals.chunks(CHUNK / N) {
            self.buf.clear();
            for &v in piece {
                self.buf.extend_from_slice(&f(v));
            }
            self.sum.update(&self.buf);
            self.out.write_all(&self.buf)?;
        }
        Ok(())
    }

    /// Ends a section with the checksum of its bytes.
    fn seal(&mut self) -> io::Result<()> {
        let sum = self.sum.take();
        self.out.write_all(&sum.to_le_bytes())
    }
}

/// Streams a recording under cache key `key` into `out` and returns it:
/// the header, the boundary and code sections, then the instruction
/// section's chunks as the recording holds them (or, loaded from disk,
/// as its artifact stores them), each checked as it is read.
///
/// # Errors
///
/// The first error `out` returns, or a chunk of a loaded recording's
/// artifact that fails its read.
pub fn write_replay<W: Write>(r: &InstrReplay, key: Fingerprint, out: W) -> io::Result<W> {
    let head = Header::of(r);
    let b = &*r.bounds;
    let mut w = SectionWriter {
        out,
        sum: StreamSum::new(),
        buf: Vec::with_capacity(CHUNK),
    };
    w.put(&MAGIC)?;
    w.put(&CACHE_SCHEMA.to_le_bytes())?;
    w.put(&key.to_le_bytes())?;
    for field in [
        head.mem_words as u64,
        head.ops,
        head.mem_addrs,
        head.code,
        head.bounds,
        head.targets,
        head.escapes,
        head.tasks,
        head.exits,
        head.instr_bytes,
    ] {
        w.put(&field.to_le_bytes())?;
    }
    w.col(&b.bytes, |byte| [byte])?;
    w.col(&b.sizes, u32::to_le_bytes)?;
    w.col(&b.targets, u32::to_le_bytes)?;
    w.seal()?;
    let t = &b.table;
    w.col(&t.entries, u32::to_le_bytes)?;
    w.col(&t.counts, |n| [n])?;
    w.col(&t.exits, |e| [kind_code(e.kind)])?;
    w.col(&t.exits, |e| e.target.to_le_bytes())?;
    w.seal()?;
    w.put(&r.code.entry.to_le_bytes())?;
    w.col(r.code.code(), |e| e.op.to_le_bytes())?;
    w.col(r.code.code(), |e| e.succ.to_le_bytes())?;
    w.seal()?;
    let mut chunks = r.chunks().map_err(io::Error::other)?;
    while chunks.next_chunk().map_err(io::Error::other)?.is_some() {
        w.out.write_all(chunks.bytes())?;
    }
    Ok(w.out)
}

/// Serialises a recording under cache key `key`: [`write_replay`] into a
/// `Vec` of exactly the artifact's length.
///
/// # Panics
///
/// If `r` was loaded from disk and a chunk of its artifact fails its read.
pub fn encode_replay(r: &InstrReplay, key: Fingerprint) -> Vec<u8> {
    let len = artifact_len(r);
    let out = Vec::with_capacity(usize::try_from(len).expect("the artifact fits memory"));
    write_replay(r, key, out).unwrap_or_else(|e| panic!("encoding a recording failed: {e}"))
}

/// The length of recording `r`'s artifact.
pub(crate) fn artifact_len(r: &InstrReplay) -> u64 {
    Header::of(r)
        .file_len()
        .expect("an in-memory recording fits u64")
}

/// Deserialises a recording, every section at once, validating integrity
/// (magic, schema version, length, checksums), identity (`expected` cache
/// key) and structure (the boundary section, the code table, and every
/// chunk, stepped and checked by a walk's cursor). The recording holds a
/// copy of the artifact's instruction section. See the module docs for
/// the failure contract.
pub fn decode_replay(bytes: &[u8], expected: Fingerprint) -> Result<InstrReplay, CodecError> {
    let mut r = SectionReader::new(bytes, bytes.len() as u64);
    let head = r.header(expected)?;
    head.check_len(bytes.len() as u64)?;
    let (bounds, code) = r.sections(&head)?;
    let replay = InstrReplay {
        section: Section::Held(r.src.to_vec()),
        instructions: head.ops,
        mem_addrs: head.mem_addrs,
        bounds: Arc::new(bounds),
        code,
        mem_words: head.mem_words,
    };
    check_section(&replay)?;
    Ok(replay)
}

/// Handles an instruction section that turned out missing or invalid
/// during a walk: it gets the error, and the instruction section of the
/// recording it returns takes the stored one's place, where the walk
/// starts over. The artifact cache evicts the entry and re-records.
pub type Rerecord = Box<dyn Fn(CodecError) -> InstrReplay + Send + Sync>;

/// A recording's instruction section left on disk: what a recording that
/// [`open_replay`] loaded keeps in its place. Each walk reopens the
/// artifact and reads the section through a [`ChunkReader`]. A section
/// that fails is re-recorded once, and the recording keeps that one.
pub(crate) struct StoredSection {
    path: PathBuf,
    key: Fingerprint,
    head: Header,
    rerecord: Rerecord,
    /// The re-recorded recording, once reading the stored section failed.
    fallback: OnceLock<Box<InstrReplay>>,
}

impl StoredSection {
    /// Reopens the artifact for a walk. Its header must still be the one
    /// loaded, and its length the one that header declares; the reader is
    /// left at the first chunk.
    pub(crate) fn open(&self) -> Result<ChunkReader<'static>, CodecError> {
        let (mut r, head) = open_checked(&self.path, self.key)?;
        if head != self.head {
            return Err(CodecError::Malformed("header changed since load"));
        }
        // Past the boundary, task and code sections and their checksums;
        // the length check bounds the offset.
        let instrs = head.instr_offset().expect("a checked length");
        r.src.seek(SeekFrom::Start(instrs))?;
        Ok(ChunkReader::new(r.src, head))
    }

    /// Bytes of the stored section, as its header declares them.
    pub(crate) fn instr_bytes(&self) -> u64 {
        self.head.instr_bytes
    }

    /// Re-records the section. The first failure goes to the re-recorder;
    /// any later one, in this walk or another, keeps the recording it made.
    pub(crate) fn fallback(&self, e: CodecError) {
        self.fallback.get_or_init(|| Box::new((self.rerecord)(e)));
    }

    /// The re-recorded recording, once reading the stored section has
    /// failed.
    pub(crate) fn replaced(&self) -> Option<&InstrReplay> {
        self.fallback.get().map(|r| &**r)
    }
}

/// Loads the artifact at `path` for cache key `expected`, reading only its
/// header and its boundary, task and code sections. It checks the
/// header, that the file's length is exactly what the header's counts
/// declare, and both sections (see the module docs). The recording it
/// returns holds no instruction section and no open file: each timing walk
/// over it reopens `path`, re-checks the header and the length, and reads
/// the instruction section chunk by chunk, checking each chunk's bytes
/// before it steps any of its ops and its path as it steps them. If a
/// chunk cannot be read or fails its checks, `rerecord` supplies the
/// section, once; the walk starts over in it, and the recording keeps it.
///
/// # Errors
///
/// [`CodecError::Io`] when `path` cannot be opened or read; any other
/// [`CodecError`] for an artifact that fails a load-time check.
pub fn open_replay(
    path: &Path,
    expected: Fingerprint,
    rerecord: Rerecord,
) -> Result<InstrReplay, CodecError> {
    let (mut r, head) = open_checked(path, expected)?;
    let (bounds, code) = r.sections(&head)?;
    let stored = StoredSection {
        path: path.to_path_buf(),
        key: expected,
        head,
        rerecord,
        fallback: OnceLock::new(),
    };
    Ok(InstrReplay {
        section: Section::Stored(stored),
        instructions: head.ops,
        mem_addrs: head.mem_addrs,
        bounds: Arc::new(bounds),
        code,
        mem_words: head.mem_words,
    })
}

/// Opens the artifact at `path` and reads its header, checking it against
/// `expected` and the file's length.
fn open_checked(
    path: &Path,
    expected: Fingerprint,
) -> Result<(SectionReader<File>, Header), CodecError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = SectionReader::new(file, len);
    let head = r.header(expected)?;
    head.check_len(len)?;
    Ok((r, head))
}

/// Checks that a decoded recording fits the program and task partition it
/// is about to be replayed under: its `mem_words` is `program`'s
/// data-memory size, its code table is the one built from `program`, and
/// its task table is the one built from `tasks`. With the decoder's
/// checks, every boundary then enters `program`'s code and names a task of
/// `tasks`, an exit of that task's header and that exit's kind (the timing
/// core, the predictor sweeps and [`crate::replay::derive_trace`] index
/// the partition and its headers with them), because the boundary section
/// stores none of them. A recording of the same program under another
/// partition, or of another program, fails here even with a valid
/// checksum.
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
    if replay.code != CodeTable::of(program) {
        return Err(CodecError::Malformed(
            "code table differs from the program's",
        ));
    }
    if replay.bounds.table != TaskTable::of(tasks, &replay.code) {
        return Err(CodecError::Malformed(
            "task table differs from the partition's",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{record_replay, HALT_BIT};
    use crate::timing::BoundaryStep;
    use crate::trace::TaskEvent;
    use multiscalar_isa::{fingerprint_of, Addr, AluOp, Cond, ExitKind, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    fn program() -> (Program, TaskProgram) {
        let mut b = ProgramBuilder::new();
        // A callee, so the boundary section stores return targets.
        let f = b.begin_function("f");
        b.op_imm(AluOp::Add, Reg(6), Reg(6), 1);
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 40);
        let top = b.here_label();
        b.call_label(f);
        b.op_imm(AluOp::And, Reg(3), Reg(1), 3);
        b.store(Reg(1), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        // An intra-task branch, so the recording has taken bits.
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
        tamper(&mut r);
        let key = fingerprint_of(&"key");
        decode_replay(&encode_replay(&r, key), key)
    }

    /// One chunk's stored fields: its branch count and taken bits, its
    /// address count and its address deltas.
    struct RawChunk {
        branches: u32,
        taken: Vec<u8>,
        refs: u32,
        deltas: Vec<u8>,
    }

    impl RawChunk {
        /// The chunk whose stored bytes `bytes` begin with.
        fn parse(bytes: &[u8]) -> RawChunk {
            let branches = word(bytes, 0);
            let bits = (branches as usize).div_ceil(8);
            let k = word(bytes, 8 + bits) as usize;
            RawChunk {
                branches,
                taken: bytes[4..4 + bits].to_vec(),
                refs: word(bytes, 4 + bits),
                deltas: bytes[12 + bits..12 + bits + k].to_vec(),
            }
        }

        /// The chunk's bytes as chunk `index` stores them, checksum last.
        fn seal(&self, index: u64) -> Vec<u8> {
            let mut out = self.branches.to_le_bytes().to_vec();
            out.extend_from_slice(&self.taken);
            out.extend_from_slice(&self.refs.to_le_bytes());
            out.extend_from_slice(&(self.deltas.len() as u32).to_le_bytes());
            out.extend_from_slice(&self.deltas);
            out.extend_from_slice(&chunk_sum(index, &out).to_le_bytes());
            out
        }

        /// Where each of its deltas starts in `deltas`.
        fn delta_starts(&self) -> Vec<usize> {
            let mut starts = vec![0];
            starts.extend(
                self.deltas
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b < 0x80)
                    .map(|(i, _)| i + 1),
            );
            starts.pop();
            starts
        }

        /// Sets the branch count to `n`, keeping the first bits and
        /// clearing any bit past `n`.
        fn set_branches(&mut self, n: u32) {
            self.branches = n;
            self.taken.resize((n as usize).div_ceil(8), 0);
            if !n.is_multiple_of(8) {
                *self.taken.last_mut().unwrap() &= (1u8 << (n % 8)) - 1;
            }
        }
    }

    /// Rewrites the first chunk of a real recording through `tamper` and
    /// reseals it, so its checksum, the recording's address total and its
    /// section's length follow the tamper. Then checks the section as
    /// decoding does.
    fn check_forged(tamper: impl FnOnce(&mut RawChunk)) -> Result<(), CodecError> {
        let mut r = recording();
        let mut chunks = r.chunks().unwrap();
        chunks.next_chunk().unwrap().expect("a chunk");
        let stored = chunks.bytes().to_vec();
        drop(chunks);
        let mut chunk = RawChunk::parse(&stored);
        let m = chunk.refs;
        assert!(m > 0 && chunk.taken.iter().any(|&b| b != 0));
        tamper(&mut chunk);
        r.mem_addrs = r.mem_addrs + u64::from(chunk.refs) - u64::from(m);
        let Section::Held(bytes) = &mut r.section else {
            unreachable!("a fresh recording holds its section")
        };
        bytes.splice(..stored.len(), chunk.seal(0));
        check_section(&r)
    }

    #[test]
    fn dropped_memory_address_is_malformed() {
        assert_eq!(
            check_forged(|c| {
                let last = *c.delta_starts().last().unwrap();
                c.deltas.truncate(last);
                c.refs -= 1;
            })
            .unwrap_err(),
            CodecError::Malformed("load/store count differs from mem_addrs")
        );
    }

    #[test]
    fn an_extra_memory_address_is_malformed() {
        // The chunk's count takes it, so only the step finds the address
        // no load or store uses.
        assert_eq!(
            check_forged(|c| {
                c.deltas.push(0);
                c.refs += 1;
            })
            .unwrap_err(),
            CodecError::Malformed("load/store count differs from mem_addrs")
        );
    }

    #[test]
    fn a_chunk_address_count_other_than_what_is_left_is_malformed() {
        // The one chunk must take every address: one more or one fewer
        // fails before its checksum is read.
        let r = recording();
        let key = fingerprint_of(&"key");
        let bytes = encode_replay(&r, key);
        let head = Header::of(&r);
        let start = head.instr_offset().unwrap() as usize;
        let at = start + 4 + (word(&bytes, start) as usize).div_ceil(8);
        let count = word(&bytes, at);
        assert_eq!(u64::from(count), head.mem_addrs);
        for forged in [count + 1, count - 1] {
            let mut bytes = bytes.clone();
            bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                decode_replay(&bytes, key).unwrap_err(),
                CodecError::Malformed("chunk address count differs from mem_addrs")
            );
        }
    }

    #[test]
    fn a_taken_bit_count_other_than_the_chunks_branches_is_malformed() {
        // One bit too many is left over; one too few leaves the last
        // branch without its bit.
        for more in [true, false] {
            assert_eq!(
                check_forged(|c| c.set_branches(if more {
                    c.branches + 1
                } else {
                    c.branches - 1
                }))
                .unwrap_err(),
                CodecError::Malformed("taken-bit count differs from the chunk's branches"),
                "one bit too {}",
                if more { "many" } else { "few" }
            );
        }
    }

    #[test]
    fn a_taken_bit_past_the_chunks_branches_is_malformed() {
        assert_eq!(
            check_forged(|c| {
                // Bit 7 of the last byte lies past the branches, once they
                // do not fill it.
                if c.branches.is_multiple_of(8) {
                    c.branches -= 1;
                }
                *c.taken.last_mut().unwrap() |= 0x80;
            })
            .unwrap_err(),
            CodecError::Malformed("taken bit past the chunk's branches")
        );
    }

    #[test]
    fn address_deltas_must_fill_their_bytes_exactly() {
        // The last delta running past the bytes, and a byte left over.
        let cases: [fn(&mut RawChunk); 2] = [
            |c| *c.deltas.last_mut().unwrap() |= 0x80,
            |c| c.deltas.push(0),
        ];
        for tamper in cases {
            assert_eq!(
                check_forged(tamper).unwrap_err(),
                CodecError::Malformed("address deltas differ from their byte count")
            );
        }
        // More than five bytes per address fails before any op is
        // stepped.
        assert_eq!(
            check_forged(|c| c.deltas = vec![0; 5 * c.refs as usize + 1]).unwrap_err(),
            CodecError::Malformed("chunk delta bytes past five per address")
        );
    }

    #[test]
    fn an_overlong_address_delta_is_malformed() {
        // The first delta with one more group, of zero bits.
        assert_eq!(
            check_forged(|c| {
                let end = c.delta_starts()[1];
                c.deltas[end - 1] |= 0x80;
                c.deltas.insert(end, 0);
            })
            .unwrap_err(),
            CodecError::Malformed("address delta not in its shortest form")
        );
    }

    #[test]
    fn address_deltas_round_trip_at_their_edges() {
        let lens = [
            (0, 1),
            (1, 1),
            (-1, 1),
            (63, 1),
            (-63, 1),
            (64, 2),
            (-64, 1),
            (8191, 2),
            (-8191, 2),
            (8192, 3),
            (-8192, 2),
            (i32::MIN, 5),
            (i32::MAX, 5),
        ];
        // The last values put the delta across the wrap of u32.
        for last in [0, 7, 1 << 31, u32::MAX - 2, u32::MAX] {
            for (delta, len) in lens {
                let addr = last.wrapping_add(delta as u32);
                let mut out = Vec::new();
                put_delta(&mut out, last, addr);
                assert_eq!(out.len(), len, "delta {delta}");
                out.push(0x55);
                let mut bytes = &out[..];
                let read = read_delta(&mut bytes).map(|d| last.wrapping_add(d));
                assert_eq!(read, Ok(addr), "delta {delta} from {last}");
                assert_eq!(bytes, [0x55], "delta {delta}: its bytes, no more");
            }
        }
        // A delta that wraps: from near the top of u32 to near 0 is +8.
        let mut out = Vec::new();
        put_delta(&mut out, u32::MAX - 2, 5);
        assert_eq!(out, [16]);
        let refused: [(&[u8], BadDelta); 7] = [
            (&[], BadDelta::PastStream),
            (&[0x80], BadDelta::PastStream),
            (&[0xFF, 0xFF, 0xFF, 0xFF], BadDelta::PastStream),
            (&[0x80, 0x00], BadDelta::Overlong),
            (&[0xFF, 0x80, 0x00], BadDelta::Overlong),
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0x10], BadDelta::Overlong),
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], BadDelta::Overlong),
        ];
        for (stored, why) in refused {
            let mut bytes = stored;
            assert_eq!(read_delta(&mut bytes), Err(why), "{stored:?}");
            assert!(bytes.is_empty(), "{stored:?}");
        }
    }

    /// The index of the first op of `r`'s entry task whose code entry
    /// satisfies `pick`, in program order from the entry point.
    fn entry_at(r: &InstrReplay, pick: impl Fn(&CodeEntry) -> bool) -> usize {
        let start = r.code.entry as usize;
        (start..r.code.len())
            .find(|&pc| pick(&r.code.code()[pc]))
            .expect("an entry to tamper with")
    }

    #[test]
    fn a_recording_must_end_on_the_halt() {
        // A last op that is no halt, and a halt before the last op.
        assert_eq!(
            decode_tampered(|r| {
                let halt = entry_at(r, |e| e.is_halt());
                r.code.code_mut()[halt].op &= !HALT_BIT;
            })
            .unwrap_err(),
            CodecError::Malformed("the halt is not the recording's last op")
        );
        assert_eq!(
            decode_tampered(|r| {
                let first = r.code.entry as usize;
                r.code.code_mut()[first].op |= HALT_BIT;
            })
            .unwrap_err(),
            CodecError::Malformed("the halt is not the recording's last op")
        );
    }

    #[test]
    fn an_op_without_a_static_successor_inside_a_task_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let first = r.code.entry as usize;
                r.code.code_mut()[first].succ = r.code.len() as u32;
            })
            .unwrap_err(),
            CodecError::Malformed("an op inside a task has no static successor")
        );
    }

    #[test]
    fn successor_past_the_code_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let len = r.code.len() as u32;
                r.code.code_mut()[0].succ = len + 1;
            })
            .unwrap_err(),
            CodecError::Malformed("successor past the code")
        );
    }

    #[test]
    fn entry_outside_the_code_is_malformed() {
        assert_eq!(
            decode_tampered(|r| r.code.entry = r.code.len() as u32).unwrap_err(),
            CodecError::Malformed("entry outside the code")
        );
    }

    #[test]
    fn op_word_bits_past_the_halt_are_malformed() {
        assert_eq!(
            decode_tampered(|r| r.code.code_mut()[0].op |= HALT_BIT << 1).unwrap_err(),
            CodecError::Malformed("op word bit past the halt's")
        );
    }

    #[test]
    fn memory_address_beyond_mem_words_is_malformed() {
        // The recording's first reference, whose delta is its address.
        assert_eq!(
            check_forged(|c| {
                let end = c.delta_starts()[1];
                let mut first = Vec::new();
                put_delta(&mut first, 0, recording().mem_words as u32);
                c.deltas.splice(..end, first);
            })
            .unwrap_err(),
            CodecError::Malformed("memory address beyond mem_words")
        );
    }

    #[test]
    fn out_of_range_register_byte_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let e = &mut r.code.code_mut()[0];
                e.op = (e.op & !0xFF) | 200;
            })
            .unwrap_err(),
            CodecError::Malformed("register byte out of range")
        );
    }

    /// The boundary section of a recording, for in-place tampering.
    fn bounds(r: &mut InstrReplay) -> &mut SharedTrace {
        Arc::make_mut(&mut r.bounds)
    }

    /// Rewrites the boundary section of `r` from its events as `tamper`
    /// leaves them, through the recorder's own `push`: the exits, the
    /// sizes and the targets of exits without a static one are kept, and
    /// the tasks follow from them.
    fn rewrite(r: &mut InstrReplay, tamper: impl FnOnce(&mut Vec<TaskEvent>)) {
        let mut events: Vec<TaskEvent> = r.bounds.iter().collect();
        tamper(&mut events);
        let entry = r.code.entry;
        let b = bounds(r);
        let mut section = SharedTrace::new(b.table.clone(), entry);
        for e in events {
            let step = BoundaryStep {
                task: e.task.0,
                exit: e.exit,
                next: e.next,
            };
            section.push(step, e.instrs);
        }
        *b = section;
    }

    /// The first boundary whose kind satisfies `pick`.
    fn first_of(events: &[TaskEvent], pick: impl Fn(ExitKind) -> bool) -> usize {
        events
            .iter()
            .position(|e| pick(e.kind))
            .expect("a boundary of that kind")
    }

    #[test]
    fn a_stored_target_that_enters_no_task_is_malformed() {
        // Past the code, and inside it where no task starts.
        let len = recording().code.len() as u32;
        let inside = {
            let r = recording();
            (0..len)
                .find(|&pc| r.bounds.table.entered_at(pc).is_none())
                .expect("a pc no task starts at")
        };
        for next in [len, inside, u32::MAX - 1] {
            assert_eq!(
                decode_tampered(|r| rewrite(r, |ev| {
                    let k = first_of(ev, |kind| kind == ExitKind::Return);
                    ev[k].next = Addr(next);
                }))
                .unwrap_err(),
                CodecError::Malformed("stored target enters no task"),
                "next {next}"
            );
        }
    }

    #[test]
    fn a_boundary_exit_past_its_tasks_header_is_malformed() {
        // Below MAX_EXITS, so the byte holds it, but past the header.
        assert_eq!(
            decode_tampered(|r| {
                let counts = r.bounds.table.counts.clone();
                rewrite(r, |ev| {
                    let (k, n) = ev
                        .iter()
                        .enumerate()
                        .map(|(k, e)| (k, counts[e.task.index()]))
                        .find(|&(_, n)| usize::from(n) < multiscalar_isa::MAX_EXITS)
                        .expect("a task with a spare exit slot");
                    ev[k].exit = multiscalar_isa::ExitIndex::new(n).unwrap();
                })
            })
            .unwrap_err(),
            CodecError::Malformed("boundary exit past its task's header")
        );
    }

    #[test]
    fn a_boundary_through_a_halt_exit_is_malformed() {
        // The halting task's halt exit, taken by a boundary of that task.
        let (halt_task, halt_exit) = {
            let r = recording();
            let t = &r.bounds.table;
            let mut at = 0;
            let found = t.counts.iter().enumerate().find_map(|(task, &n)| {
                let own = &t.exits[at..at + usize::from(n)];
                at += usize::from(n);
                own.iter()
                    .position(|e| e.kind == ExitKind::Halt)
                    .map(|i| (task as u32, i as u8))
            });
            found.expect("a task with a halt exit")
        };
        let forged = decode_tampered(|r| {
            rewrite(r, |ev| {
                let k = ev
                    .iter()
                    .position(|e| e.task.0 == halt_task)
                    .expect("a boundary of the halting task");
                ev[k].exit = multiscalar_isa::ExitIndex::new(halt_exit).unwrap();
            })
        });
        assert_eq!(
            forged.unwrap_err(),
            CodecError::Malformed("boundary through a halt exit")
        );
    }

    #[test]
    fn zero_task_size_is_malformed() {
        // A byte's size field cannot hold 0, which escapes; an escaped
        // size must be above what the byte holds, so 0 is refused too.
        for escaped in [0, 1, crate::trace::MAX_INLINE_SIZE] {
            assert_eq!(
                decode_tampered(|r| {
                    let b = bounds(r);
                    b.bytes[0] &= 0b11;
                    b.sizes.insert(0, escaped);
                })
                .unwrap_err(),
                CodecError::Malformed("escaped task size fits its byte"),
                "escaped {escaped}"
            );
        }
    }

    #[test]
    fn task_sizes_must_leave_the_halting_task_its_op() {
        assert_eq!(
            decode_tampered(|r| {
                let ops = r.instructions() as u32;
                rewrite(r, |ev| {
                    let recorded: u32 = ev.iter().map(|e| e.instrs).sum();
                    ev[0].instrs += ops - recorded;
                })
            })
            .unwrap_err(),
            CodecError::Malformed("task sizes leave no halting op")
        );
    }

    #[test]
    fn escape_and_target_columns_are_used_up_exactly() {
        type Tamper = fn(&mut SharedTrace);
        let cases: [(Tamper, &str); 4] = [
            (|b| b.bytes[0] &= 0b11, "escaped sizes run out"),
            (
                |b| b.sizes.push(100),
                "escaped sizes or stored targets left over",
            ),
            (
                |b| {
                    b.targets.pop();
                },
                "stored targets run out",
            ),
            (
                |b| b.targets.push(b.table.entries[0]),
                "escaped sizes or stored targets left over",
            ),
        ];
        for (tamper, what) in cases {
            assert_eq!(
                decode_tampered(|r| tamper(bounds(r))).unwrap_err(),
                CodecError::Malformed(what)
            );
        }
    }

    fn checksum(bytes: &[u8]) -> u64 {
        let mut h = FingerprintHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Encodes a real recording, overwrites the first byte of task-section
    /// column `col` (0 = exit counts, 1 = kind codes) whose value `pick`
    /// accepts with `byte`, re-seals the task checksum and decodes the
    /// result.
    fn decode_forged_task_byte(
        col: usize,
        pick: impl Fn(u8) -> bool,
        byte: u8,
    ) -> Result<InstrReplay, CodecError> {
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&recording(), key);
        let count = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (b, s, e, n, x) = (count(56), count(64), count(72), count(80), count(88));
        let start = 104 + b + 4 * (e + s) + 8;
        let column = [
            start + 4 * n..start + 5 * n,
            start + 5 * n..start + 5 * n + x,
        ][col]
            .clone();
        let at = column
            .clone()
            .find(|&at| pick(bytes[at]))
            .expect("a byte to forge");
        bytes[at] = byte;
        let end = start + 5 * (n + x);
        let sum = checksum(&bytes[start..end]);
        bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
        decode_replay(&bytes, key)
    }

    #[test]
    fn forged_exit_count_beyond_max_exits_is_malformed() {
        assert_eq!(
            decode_forged_task_byte(0, |_| true, multiscalar_isa::MAX_EXITS as u8 + 1).unwrap_err(),
            CodecError::Malformed("task exit count past MAX_EXITS")
        );
    }

    #[test]
    fn forged_kind_code_outside_table1_and_the_halt_is_malformed() {
        let branch = kind_code(ExitKind::Branch);
        assert_eq!(
            decode_forged_task_byte(1, |_| true, KINDS.len() as u8).unwrap_err(),
            CodecError::Malformed("task exit kind outside Table 1 and the halt")
        );
        // A static kind for a static one decodes: only the code's range is
        // the decoder's job, and `check_fits` compares the kinds.
        assert!(decode_forged_task_byte(1, |k| k == branch, kind_code(ExitKind::Call)).is_ok());
    }

    #[test]
    fn task_table_targets_and_entries_outside_the_code_are_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let len = r.code.len() as u32;
                let t = &mut bounds(r).table;
                let e = t.exits.iter_mut().find(|e| e.target != NO_TARGET).unwrap();
                e.target = len;
            })
            .unwrap_err(),
            CodecError::Malformed("static target outside the code")
        );
        let shared_or_outside: [fn(&mut TaskTable, u32); 2] = [
            |t, len| t.entries[0] = len,
            |t, _| t.entries[1] = t.entries[0],
        ];
        for tamper in shared_or_outside {
            assert_eq!(
                decode_tampered(|r| {
                    let len = r.code.len() as u32;
                    tamper(&mut bounds(r).table, len);
                })
                .unwrap_err(),
                CodecError::Malformed("task entry outside the code or shared")
            );
        }
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

    /// Rebuilds `r`'s task table from its stored parts after `tamper`.
    fn retable(
        r: &mut InstrReplay,
        tamper: impl FnOnce(&mut Vec<u32>, &mut Vec<u8>, &mut Vec<TableExit>),
    ) {
        let len = r.code.len();
        let t = &mut bounds(r).table;
        let (mut entries, mut counts, mut exits) =
            (t.entries.clone(), t.counts.clone(), t.exits.clone());
        tamper(&mut entries, &mut counts, &mut exits);
        *t = TaskTable::derive(entries, counts, exits, len);
    }

    const TABLE_DIFFERS: CodecError =
        CodecError::Malformed("task table differs from the partition's");

    #[test]
    fn boundary_task_outside_the_partition_does_not_fit() {
        // A task the partition lacks: no boundary can name it now, but the
        // table that decodes every boundary must be the partition's.
        assert_eq!(
            check_tampered(|r, _| {
                let free = (0..r.code.len() as u32)
                    .find(|&pc| r.bounds.table.entered_at(pc).is_none())
                    .expect("a pc no task starts at");
                retable(r, |entries, counts, _| {
                    entries.push(free);
                    counts.push(0);
                });
            })
            .unwrap_err(),
            TABLE_DIFFERS
        );
    }

    #[test]
    fn exit_past_its_tasks_header_does_not_fit() {
        // An exit the header lacks, on a task with a spare slot.
        assert_eq!(
            check_tampered(|r, tp| {
                let task = tp
                    .tasks()
                    .iter()
                    .position(|t| t.header().num_exits() < multiscalar_isa::MAX_EXITS)
                    .expect("a task with a spare exit slot");
                let at: usize = tp.tasks()[..=task]
                    .iter()
                    .map(|t| t.header().num_exits())
                    .sum();
                let target = tp.tasks()[0].entry().0;
                retable(r, |_, counts, exits| {
                    counts[task] += 1;
                    exits.insert(
                        at,
                        TableExit {
                            kind: ExitKind::Branch,
                            target,
                        },
                    );
                });
            })
            .unwrap_err(),
            TABLE_DIFFERS
        );
    }

    #[test]
    fn kind_disagreeing_with_the_header_does_not_fit() {
        assert_eq!(
            check_tampered(|r, _| retable(r, |_, _, exits| {
                let e = exits
                    .iter_mut()
                    .find(|e| e.kind == ExitKind::Branch)
                    .expect("a branch exit");
                e.kind = ExitKind::Call;
            }))
            .unwrap_err(),
            TABLE_DIFFERS
        );
    }

    #[test]
    fn a_static_target_disagreeing_with_the_header_is_refused() {
        // Another task's entry: the derived tasks after a boundary through
        // it change, so decoding or `check_fits` refuses it.
        let (p, tp) = program();
        let mut r = record_replay(&p, &tp, 1_000_000).unwrap();
        let entries = r.bounds.table.entries.clone();
        retable(&mut r, |_, _, exits| {
            let e = exits
                .iter_mut()
                .find(|e| e.target != NO_TARGET)
                .expect("a static exit");
            e.target = *entries.iter().find(|&&pc| pc != e.target).unwrap();
        });
        let key = fingerprint_of(&"key");
        let refused =
            decode_replay(&encode_replay(&r, key), key).and_then(|r| check_fits(&r, &p, &tp));
        assert!(refused.is_err());
    }

    #[test]
    fn a_code_table_of_another_program_does_not_fit() {
        // Another valid destination register keeps the path, so the
        // recording decodes; only the program can tell.
        assert_eq!(
            check_tampered(|r, _| {
                let e = &mut r.code.code_mut()[0];
                e.op ^= 1 << 16;
            })
            .unwrap_err(),
            CodecError::Malformed("code table differs from the program's")
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
