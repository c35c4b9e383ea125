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
//! 96        B      the boundary section, one byte per dynamic task: the
//!                  exit taken (bits 0..2) and the task's size in ops
//!                  (bits 2..8, 1..=63; 0 escapes a larger size)
//! 96+B      4·E    the E escaped sizes (u32 each, above 63), in order
//! 96+B+4·E  4·S    the S stored targets (u32 each): the next pc of each
//!                  boundary whose exit has no static target (a return, an
//!                  indirect branch or call), in order
//! T-8       8      boundary checksum: two-lane FxHash of bytes 0..T-8 (the
//!                  header and the boundary section)
//! T         5·N+5·X the task section, T = 104+B+4·E+4·S: the N tasks'
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
//!                    ⌈n/8⌉ the n ops' taken bits, bit i%8 of byte i/8
//!                    4     m, the count of the chunk's addresses
//!                    4·m   the word addresses of the m loads and stores
//!                          among those ops, in program order
//!                    8     chunk checksum: FxHash of the chunk's index
//!                          and its ⌈n/8⌉+4+4·m bytes
//! ```
//!
//! The boundary section keeps what execution decides and nothing the
//! partition says ([`SharedTrace`]): a boundary's task is the one entered
//! at the previous boundary's next pc (the first is the entry point's),
//! and its kind and a static exit's next pc are the task header's, which
//! the task section carries. So a task takes about 1.9 bytes on the five
//! benchmarks.
//!
//! The header alone sizes the file: the instruction section takes one bit
//! per op, four bytes per memory address and twelve per chunk. A reader
//! checks the file's length before it reads a section. The boundary, task
//! and code sections go through a bounded streaming reader that folds each
//! piece into the section's checksum as it arrives and never allocates
//! more than the bytes that remain. The instruction section goes through a
//! chunk reader whose buffers hold one chunk: at most [`CHUNK_OPS`] taken
//! bits and as many addresses, 66 KiB.
//!
//! The instruction section has this one form everywhere: the recorder
//! writes its chunks as it records ([`crate::replay::record_replay`]), a
//! fresh or decoded recording holds them, and every walk reads them
//! through the same chunk reader, from memory or from the artifact. So
//! does the boundary section: the recorder writes it, a recording holds it
//! and the artifact stores it. The encoder ([`write_replay`];
//! [`encode_replay`] is its `Vec` form) writes the header and the
//! boundary, task and code sections, then copies the chunks.
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
//! | load | magic, schema, key; the file length the header's counts declare; the boundary checksum; the task checksum; every task's exit count at most `MAX_EXITS`, the counts summing to the exit count, every kind code naming a kind of Table 1 or the halt, every static target inside the code; the code checksum; the entry inside the code, every successor at most the code's length, every register byte naming a register (or absent), no op-word bit above the halt's; every task entry inside the code and entering its own task (so no two tasks share one), the entry point entering a task; then the boundary section, decoded in order: every exit inside its derived task's header and no halt exit, every static next pc a boundary takes entering a task, every stored target inside the code and entering a task, every escaped size above 63 (so every size is at least 1), the sizes summing below the op count (so the halting task keeps its halt), and the escape and target columns used up exactly |
//! | each walk, held or stored | a stored section's header and length again; then per chunk, before any of its ops is stepped, its checksum, its address count against the addresses left (at most one per op; the last chunk takes exactly what remains) and every memory address below `mem_words`; then, as the walk's cursor steps the chunk, one flag per rule (`ReplayCursor::check`): no pc reaches the code table's sentinel (so every op that ends no task has a static successor), the halt is the last op of the last chunk and no other, set taken bits sit only on intra-task conditional branches, and the chunk's loads and stores use exactly its addresses |
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
use crate::timing::NO_REG;
use crate::trace::{SharedTrace, TableExit, TaskTable, NO_TARGET};

/// Schema version of the artifact cache: codec layout + recording
/// semantics. Any change to either must bump this.
pub const CACHE_SCHEMA: u32 = 7;

/// Ops per chunk of the instruction section. A chunk's taken bits take
/// 2 KiB, and the whole chunk, memory addresses included, at most 66 KiB.
pub const CHUNK_OPS: usize = 16 * 1024;

// A chunk's taken bits fill whole bytes, so the chunks of a section
// concatenate into its bit column.
const _: () = assert!(CHUNK_OPS.is_multiple_of(8));

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

/// Bytes of the header: magic, schema, key, `mem_words` and eight counts.
const HEADER_BYTES: u64 = 96;

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

    /// The file length the counts declare (`None` past `u64`): a bit per
    /// op, four bytes per memory address, and an address count and a
    /// checksum per chunk.
    fn file_len(&self) -> Option<u64> {
        let chunks = self.ops.div_ceil(CHUNK_OPS as u64);
        self.mem_addrs
            .checked_mul(4)?
            .checked_add(self.ops.div_ceil(8))?
            .checked_add(chunks * 12)?
            .checked_add(self.instr_offset()?)
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

/// Decodes little-endian words into `out`, replacing its contents.
fn get_words(bytes: &[u8], out: &mut Vec<u32>) {
    out.clear();
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte word"))),
    );
}

/// Appends `words` to `out`, little-endian.
fn put_words(out: &mut Vec<u8>, words: &[u32]) {
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Reads an instruction section one chunk at a time, from a recording's
/// bytes or its reopened artifact alike. Each chunk is checked whole
/// before it is handed out: its checksum, its address count against the
/// addresses left and its memory addresses against `mem_words`. The path
/// rules are the cursor's to check as it steps the chunk
/// ([`ReplayCursor::check`]). The buffers hold one chunk, whatever the
/// section's length.
pub(crate) struct ChunkReader<'a> {
    src: Box<dyn Read + 'a>,
    mem_words: usize,
    /// Index of the next chunk.
    index: u64,
    /// Ops in the chunks not yet read.
    ops_left: u64,
    /// Memory addresses in the chunks not yet read.
    mem_left: u64,
    /// The current chunk's bytes as stored: taken bits, address count,
    /// addresses, then the checksum.
    raw: Vec<u8>,
    /// The current chunk's memory addresses, decoded.
    mem_addrs: Vec<u32>,
}

impl<'a> ChunkReader<'a> {
    /// A reader of `head`'s instruction section from `src`, which must be
    /// at its first chunk.
    fn new(src: impl Read + 'a, head: Header) -> ChunkReader<'a> {
        ChunkReader {
            src: Box::new(src),
            mem_words: head.mem_words,
            index: 0,
            ops_left: head.ops,
            mem_left: head.mem_addrs,
            raw: Vec::new(),
            mem_addrs: Vec::new(),
        }
    }

    /// A reader of `bytes`, the instruction section recording `r` holds.
    pub(crate) fn held(bytes: &'a [u8], r: &InstrReplay) -> ChunkReader<'a> {
        ChunkReader::new(bytes, Header::of(r))
    }

    /// Reads and checks the next chunk; `None` past the last one.
    pub(crate) fn next_chunk(&mut self) -> Result<Option<Chunk<'_>>, CodecError> {
        if self.ops_left == 0 {
            return Ok(None);
        }
        let n = self.ops_left.min(CHUNK_OPS as u64) as usize;
        let last = n as u64 == self.ops_left;
        let bits = n.div_ceil(8);
        self.raw.resize(bits + 4, 0);
        self.src.read_exact(&mut self.raw)?;
        // Each op consumes at most one address, and the last chunk takes
        // what is left.
        let m = u64::from(u32::from_le_bytes(
            self.raw[bits..].try_into().expect("4-byte count"),
        ));
        if m > n as u64 || m > self.mem_left || (last && m != self.mem_left) {
            return Err(CodecError::Malformed(
                "chunk address count differs from mem_addrs",
            ));
        }
        let body = bits + 4 + 4 * m as usize;
        self.raw.resize(body + 8, 0);
        self.src.read_exact(&mut self.raw[bits + 4..])?;
        let (bytes, stored) = self.raw.split_at(body);
        if u64::from_le_bytes(stored.try_into().expect("8-byte checksum"))
            != chunk_sum(self.index, bytes)
        {
            return Err(CodecError::BadChecksum);
        }
        get_words(&bytes[bits + 4..], &mut self.mem_addrs);
        if self
            .mem_addrs
            .iter()
            .max()
            .is_some_and(|&a| a as usize >= self.mem_words)
        {
            return Err(CodecError::Malformed("memory address beyond mem_words"));
        }
        self.index += 1;
        self.ops_left -= n as u64;
        self.mem_left -= m;
        Ok(Some(Chunk {
            taken: &self.raw[..bits],
            at: 0,
            end: n,
            mem_addrs: &self.mem_addrs,
            last,
        }))
    }

    /// The chunk [`ChunkReader::next_chunk`] read last, as the artifact
    /// stores it: its taken bits, address count, addresses and checksum.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.raw
    }
}

/// Lays an instruction section out as the artifact's run of chunks, one op
/// at a time, sealing each chunk as it fills: what the recorder writes.
#[derive(Default)]
pub(crate) struct ChunkWriter {
    /// The sealed chunks, then the open chunk's full bytes of taken bits.
    bytes: Vec<u8>,
    /// Where the open chunk starts in `bytes`.
    start: usize,
    /// The open byte of taken bits, pushed once its eighth op is written.
    open: u8,
    /// The open chunk's memory addresses.
    addrs: Vec<u32>,
    /// Ops written, and memory addresses in the sealed chunks.
    ops: u64,
    mem_addrs: u64,
}

impl ChunkWriter {
    /// Writes one op: its taken bit and, for a load or a store, its word
    /// address.
    #[inline]
    pub(crate) fn push(&mut self, taken: bool, mem_addr: Option<u32>) {
        self.open |= u8::from(taken) << (self.ops % 8);
        self.addrs.extend(mem_addr);
        self.ops += 1;
        if self.ops.is_multiple_of(8) {
            self.bytes.push(std::mem::take(&mut self.open));
            // A chunk's op count is a multiple of 8, so a full chunk
            // ends on a full byte.
            if self.ops.is_multiple_of(CHUNK_OPS as u64) {
                self.seal();
            }
        }
    }

    /// Ends the open chunk, its taken bits written, with its address
    /// count, its addresses and its checksum.
    fn seal(&mut self) {
        let index = (self.ops - 1) / CHUNK_OPS as u64;
        self.bytes
            .extend_from_slice(&(self.addrs.len() as u32).to_le_bytes());
        put_words(&mut self.bytes, &self.addrs);
        let sum = chunk_sum(index, &self.bytes[self.start..]);
        self.bytes.extend_from_slice(&sum.to_le_bytes());
        self.start = self.bytes.len();
        self.mem_addrs += self.addrs.len() as u64;
        self.addrs.clear();
    }

    /// Seals the last chunk. Returns the section's bytes, its op count and
    /// its memory-address count.
    pub(crate) fn finish(mut self) -> (Vec<u8>, u64, u64) {
        if !self.ops.is_multiple_of(8) {
            self.bytes.push(self.open);
        }
        if !self.ops.is_multiple_of(CHUNK_OPS as u64) {
            self.seal();
        }
        (self.bytes, self.ops, self.mem_addrs)
    }
}

/// Reads every chunk of `r`'s instruction section and steps one cursor
/// over them, checking each chunk as a walk does.
fn check_section(r: &InstrReplay) -> Result<(), CodecError> {
    let mut chunks = r.chunks()?;
    let mut cursor = ReplayCursor::new(&r.code, &r.bounds);
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
    let len = Header::of(r)
        .file_len()
        .expect("an in-memory recording fits u64");
    let out = Vec::with_capacity(usize::try_from(len).expect("the artifact fits memory"));
    write_replay(r, key, out).unwrap_or_else(|e| panic!("encoding a recording failed: {e}"))
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

    /// Rewrites the first chunk of a real recording through `tamper` (its
    /// taken bits and its memory addresses) and reseals it, so its address
    /// count, its checksum and the recording's address total follow the
    /// tamper. Then checks the section as decoding does.
    fn check_forged(tamper: impl FnOnce(&mut Vec<u8>, &mut Vec<u32>)) -> Result<(), CodecError> {
        let mut r = recording();
        let mut chunks = r.chunks().unwrap();
        let chunk = chunks.next_chunk().unwrap().expect("a chunk");
        let (mut taken, mut addrs) = (chunk.taken.to_vec(), chunk.mem_addrs.to_vec());
        let (len, m) = (chunks.bytes().len(), addrs.len());
        drop(chunks);
        assert!(m > 0 && taken.iter().any(|&b| b != 0));
        tamper(&mut taken, &mut addrs);
        let mut forged = taken;
        forged.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
        put_words(&mut forged, &addrs);
        forged.extend_from_slice(&chunk_sum(0, &forged).to_le_bytes());
        r.mem_addrs = r.mem_addrs + addrs.len() as u64 - m as u64;
        let Section::Held(bytes) = &mut r.section else {
            unreachable!("a fresh recording holds its section")
        };
        bytes.splice(..len, forged);
        check_section(&r)
    }

    #[test]
    fn dropped_memory_address_is_malformed() {
        assert_eq!(
            check_forged(|_, addrs| {
                addrs.pop();
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
            check_forged(|_, addrs| addrs.push(0)).unwrap_err(),
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
        let at = (head.instr_offset().unwrap() + head.ops.div_ceil(8)) as usize;
        let count = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
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
    fn taken_bit_off_an_intra_task_branch_is_malformed() {
        // The first op loads an immediate.
        assert_eq!(
            check_forged(|taken, _| taken[0] |= 1).unwrap_err(),
            CodecError::Malformed("taken bit off an intra-task branch")
        );
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
        assert_eq!(
            check_forged(|_, addrs| addrs[0] = recording().mem_words as u32).unwrap_err(),
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
        let start = 96 + b + 4 * (e + s) + 8;
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
