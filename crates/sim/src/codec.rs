//! Versioned binary codec for [`InstrReplay`] — the on-disk form of the
//! harness's content-addressed artifact cache.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset    size  field
//! 0         4     magic "MSRP"
//! 4         4     schema version (CACHE_SCHEMA)
//! 8         16    content fingerprint (the cache key the artifact was
//!                 recorded under; readers reject a mismatch)
//! 24        8     mem_words
//! 32        32    element counts: ops, mem_addrs, branch_pcs, boundaries
//! 64        14·B  the boundary section, one column after another, one
//!                 element per dynamic task: task u32, exit u8, kind u8
//!                 (its Table 1 slot), next u32, instrs u32
//! 64+14·B   8     boundary checksum: two-lane FxHash of bytes 0..64+14·B
//!                 (the header and the boundary section)
//! I         …     the instruction section, I = 72+14·B: one chunk per
//!                 CHUNK_OPS op words (the last chunk takes the rest),
//!                 each laid out as
//!                   4·n   n op words
//!                   4·m   the m memory addresses those ops' loads and
//!                         stores consume, in program order
//!                   4·b   the b branch pcs their intra-task branches
//!                         consume, in program order
//!                   8     chunk checksum: FxHash of the chunk's index
//!                         and its 4·(n+m+b) bytes
//! ```
//!
//! The header alone sizes the file: the instruction section takes four
//! bytes per element of its three columns plus eight per chunk. A reader
//! checks the file's length before it reads a section. The boundary section
//! goes through a bounded streaming reader that folds each piece into the
//! section's checksum as it arrives and never allocates more than the
//! bytes that remain. The instruction section goes through a chunk reader
//! whose buffers hold one chunk: at most [`CHUNK_OPS`] op words and the
//! side entries they consume, 192 KiB. The encoder is the same layout in
//! reverse ([`write_replay`]; [`encode_replay`] is its `Vec` form).
//!
//! # Guarantees
//!
//! * **Round-trip equality**: `decode(encode(r, k), k) == r` for every
//!   recording (tested on all five workloads and at chunk edges).
//! * **Graceful failure**: decoding never panics and never fabricates a
//!   recording. Truncation, appended bytes, bit flips, schema bumps and
//!   key mismatches all surface as a typed [`CodecError`]. On top of the
//!   checksums, the decoded columns are validated semantically, so even an
//!   artifact with valid checksums cannot reach the replay cursor's
//!   infallible fast path (which [`crate::replay::walk_lanes`] runs on) in
//!   a state that would panic it.
//!
//! [`decode_replay`] reads both sections at once into a recording that
//! holds them. [`open_replay`], the artifact cache's load, reads only the
//! header and the boundary section, which is all predictor sweeps use. The
//! recording it returns holds no instruction section: every timing walk
//! over it reopens the artifact and reads the section chunk by chunk, and
//! no file stays open between walks. The checks split the same way:
//!
//! | when | checks |
//! |---|---|
//! | load | magic, schema, key; the file length the header's counts declare; the boundary checksum; exit indices `< MAX_EXITS` and kind slots inside Table 1; every task size at least 1, the sizes summing below the op count (so the halting task keeps its halt) |
//! | each walk | the header and the length again; then per chunk, before any of its ops is stepped: its loads/stores and branches against the side entries left (the last chunk takes exactly what remains), its checksum, every register byte names a register (or is absent), every memory address below `mem_words` |
//!
//! A chunk that fails goes to the caller's [`Rerecord`], which the artifact
//! cache answers as it answers a failure at load: evict, then re-record.
//! The walk continues at the failed chunk's first op in the re-recorded
//! section, and the recording keeps that section for later walks, so a
//! failure costs time once and never changes a result. The rest needs the
//! program and its task partition, which the decoder never sees: that
//! every boundary names a task of the partition, an exit of that task's
//! header and that exit's kind, and that `mem_words` is the program's
//! data-memory size (the timing core allocates that many words).
//! [`check_fits`] checks all of it; the artifact cache runs it on every
//! load.
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
use std::fs::File;
use std::hash::Hasher as _;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use crate::replay::{Chunk, InstrReplay, InstrSection, CLASS_SHIFT};
use crate::timing::{OpClass, NO_REG};
use crate::trace::{kind_slot, SharedTrace};

/// Schema version of the artifact cache: codec layout + recording
/// semantics. Any change to either must bump this.
pub const CACHE_SCHEMA: u32 = 4;

/// Op words per chunk of the instruction section. A chunk's op words take
/// 64 KiB, and the whole chunk, side entries included, at most 192 KiB.
pub const CHUNK_OPS: usize = 16 * 1024;

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

/// Bytes of the header: magic, schema, key, `mem_words` and four counts.
const HEADER_BYTES: u64 = 64;

/// Bytes of one boundary: task u32, exit u8, kind u8, next u32, instrs u32.
const BOUNDARY_BYTES: u64 = 14;

/// Bytes the boundary section's streaming reader and writer move at a time.
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

/// The header: what sizes and locates the two sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    mem_words: usize,
    ops: u64,
    mem_addrs: u64,
    branch_pcs: u64,
    bounds: u64,
}

impl Header {
    /// The header of recording `r` whose instruction section is `s`.
    fn of(r: &InstrReplay, s: &InstrSection) -> Header {
        Header {
            mem_words: r.mem_words,
            ops: s.ops.len() as u64,
            mem_addrs: s.mem_addrs.len() as u64,
            branch_pcs: s.branch_pcs.len() as u64,
            bounds: r.bounds.len() as u64,
        }
    }

    /// Where the instruction section starts: after the header, the
    /// boundary section and its checksum.
    fn instr_offset(&self) -> Option<u64> {
        self.bounds
            .checked_mul(BOUNDARY_BYTES)?
            .checked_add(HEADER_BYTES + 8)
    }

    /// The file length the counts declare (`None` past `u64`): four bytes
    /// per element of the instruction section's columns, plus a checksum
    /// per chunk.
    fn file_len(&self) -> Option<u64> {
        let words = self
            .ops
            .checked_add(self.mem_addrs)?
            .checked_add(self.branch_pcs)?;
        let sums = self.ops.div_ceil(CHUNK_OPS as u64) * 8;
        words
            .checked_mul(4)?
            .checked_add(sums)?
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

/// The bounded streaming reader the header and the boundary section are
/// decoded through. It reads the source in pieces of at most [`CHUNK`]
/// bytes and folds each into the running section checksum as it arrives.
/// It knows how many bytes the source holds and never allocates more than
/// the bytes that remain, so a corrupt count cannot trigger an oversized
/// allocation.
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
            branch_pcs: self.u64()?,
            bounds: self.u64()?,
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

    /// Skips `n` bytes of a seekable source.
    fn skip(&mut self, n: u64) -> Result<(), CodecError>
    where
        R: Seek,
    {
        if n > self.left {
            return Err(CodecError::Truncated);
        }
        self.src.seek(SeekFrom::Current(n as i64))?;
        self.left -= n;
        Ok(())
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

    /// Reads, checksums and validates the boundary section.
    fn bounds(&mut self, head: &Header) -> Result<SharedTrace, CodecError> {
        let n = head.bounds;
        let tasks = self.col(n, |b| TaskId(u32::from_le_bytes(b)))?;
        let exits = self.col(n, |[e]| ExitIndex::new(e))?;
        let kinds = self.col(n, |[k]| ExitKind::TABLE1.get(usize::from(k)).copied())?;
        let nexts = self.col(n, |b| Addr(u32::from_le_bytes(b)))?;
        let instrs = self.col(n, u32::from_le_bytes)?;
        self.seal()?;

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
        if recorded >= head.ops {
            return Err(CodecError::Malformed("task sizes leave no halting op"));
        }
        Ok(SharedTrace {
            tasks,
            exits,
            kinds,
            nexts,
            instrs,
        })
    }
}

/// What a run of op words consumes from the side columns, and whether
/// every register byte in it names a register. The cursor takes one
/// `mem_addrs` entry per load/store and one `branch_pcs` entry per branch,
/// and indexes the register scoreboard without bounds checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Census {
    /// Loads and stores.
    pub(crate) mem: usize,
    /// Intra-task branches.
    pub(crate) branches: usize,
    /// Whether every register byte is a register or [`NO_REG`].
    regs_ok: bool,
}

impl Census {
    /// One branch-free pass over `ops` (u32 tallies per 64 Ki ops, so
    /// every lane stays 32 bits wide).
    pub(crate) fn of(ops: &[u32]) -> Census {
        const _: () = assert!(NO_REG == u8::MAX);
        let (mut mem, mut branches, mut bad_reg) = (0usize, 0usize, 0u32);
        for piece in ops.chunks(1 << 16) {
            let (mut m, mut b) = (0u32, 0u32);
            for &op in piece {
                let class = (op >> CLASS_SHIFT) & 0x3;
                m += u32::from(class == OpClass::Load as u32)
                    + u32::from(class == OpClass::Store as u32);
                b += u32::from(class == OpClass::Branch as u32);
                // Adding one wraps NO_REG (255) to 0, so a byte is valid
                // iff the sum is at most NUM_REGS.
                for shift in [0, 8, 16] {
                    let reg = (op >> shift).wrapping_add(1) & 0xFF;
                    bad_reg |= u32::from(reg > NUM_REGS as u32);
                }
            }
            mem += m as usize;
            branches += b as usize;
        }
        Census {
            mem,
            branches,
            regs_ok: bad_reg == 0,
        }
    }
}

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

/// Reads an instruction section one chunk at a time. Each chunk is checked
/// whole before it is handed out: its side entries against its op words
/// and the header's counts, its checksum, its register bytes and its
/// memory addresses. The buffers hold one chunk, whatever the section's
/// length.
pub(crate) struct ChunkReader<R> {
    src: R,
    head: Header,
    /// Index of the next chunk.
    index: u64,
    /// Elements of each column read so far.
    ops_at: u64,
    mem_at: u64,
    branch_at: u64,
    /// The current chunk's bytes, as stored.
    raw: Vec<u8>,
    /// The current chunk, decoded.
    chunk: InstrSection,
}

impl<R: Read> ChunkReader<R> {
    /// A reader of `head`'s instruction section from `src`, which must be
    /// at its first chunk.
    fn new(src: R, head: Header) -> ChunkReader<R> {
        ChunkReader {
            src,
            head,
            index: 0,
            ops_at: 0,
            mem_at: 0,
            branch_at: 0,
            raw: Vec::new(),
            chunk: InstrSection::default(),
        }
    }

    /// Reads and checks the next chunk; `Ok(false)` past the last one.
    pub(crate) fn advance(&mut self) -> Result<bool, CodecError> {
        let head = self.head;
        let left = head.ops - self.ops_at;
        if left == 0 {
            return Ok(false);
        }
        let n = left.min(CHUNK_OPS as u64) as usize;
        let last = n as u64 == left;
        self.raw.resize(4 * n, 0);
        self.src.read_exact(&mut self.raw)?;
        get_words(&self.raw, &mut self.chunk.ops);
        let census = Census::of(&self.chunk.ops);
        // A chunk carries exactly what its ops consume, so the side entries
        // left bound every chunk's count and the last chunk uses them up.
        let side = |count: usize, left: u64, what| {
            if count as u64 > left || (last && count as u64 != left) {
                Err(CodecError::Malformed(what))
            } else {
                Ok(count)
            }
        };
        let m = side(
            census.mem,
            head.mem_addrs - self.mem_at,
            "load/store count differs from mem_addrs",
        )?;
        let b = side(
            census.branches,
            head.branch_pcs - self.branch_at,
            "branch count differs from branch_pcs",
        )?;
        let body = 4 * (n + m + b);
        self.raw.resize(body + 8, 0);
        self.src.read_exact(&mut self.raw[4 * n..])?;
        let (bytes, stored) = self.raw.split_at(body);
        if u64::from_le_bytes(stored.try_into().expect("8-byte checksum"))
            != chunk_sum(self.index, bytes)
        {
            return Err(CodecError::BadChecksum);
        }
        if !census.regs_ok {
            return Err(CodecError::Malformed("register byte out of range"));
        }
        get_words(&bytes[4 * n..4 * (n + m)], &mut self.chunk.mem_addrs);
        if self
            .chunk
            .mem_addrs
            .iter()
            .max()
            .is_some_and(|&a| a as usize >= head.mem_words)
        {
            return Err(CodecError::Malformed("memory address beyond mem_words"));
        }
        get_words(&bytes[4 * (n + m)..], &mut self.chunk.branch_pcs);
        self.index += 1;
        self.ops_at += n as u64;
        self.mem_at += m as u64;
        self.branch_at += b as u64;
        Ok(true)
    }

    /// The chunk the last successful [`ChunkReader::advance`] read.
    pub(crate) fn chunk(&self) -> Chunk<'_> {
        Chunk {
            ops: &self.chunk.ops,
            mem_addrs: &self.chunk.mem_addrs,
            branch_pcs: &self.chunk.branch_pcs,
            last: self.ops_at == self.head.ops,
        }
    }
}

/// Writes an instruction section as its run of chunks.
fn write_instrs<W: Write>(out: &mut W, s: &InstrSection) -> io::Result<()> {
    let chunks = s.ops.len().div_ceil(CHUNK_OPS);
    let (mut mem, mut branches) = (&s.mem_addrs[..], &s.branch_pcs[..]);
    let mut buf = Vec::with_capacity(12 * CHUNK_OPS + 8);
    for (index, ops) in s.ops.chunks(CHUNK_OPS).enumerate() {
        // Each chunk carries what its ops consume. The last takes whatever
        // is left, so a section whose columns disagree (a tampered one in
        // tests) still fills the length its header declares, and fails
        // its read.
        let (m, b) = if index + 1 == chunks {
            (mem.len(), branches.len())
        } else {
            let census = Census::of(ops);
            (census.mem, census.branches)
        };
        let (chunk_mem, rest) = mem.split_at(m);
        mem = rest;
        let (chunk_branches, rest) = branches.split_at(b);
        branches = rest;
        buf.clear();
        put_words(&mut buf, ops);
        put_words(&mut buf, chunk_mem);
        put_words(&mut buf, chunk_branches);
        out.write_all(&buf)?;
        out.write_all(&chunk_sum(index as u64, &buf).to_le_bytes())?;
    }
    Ok(())
}

/// The encoder's side of the boundary section's stream: each column goes
/// to `out` in pieces and into the section checksum as it goes.
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

/// Streams a recording under cache key `key` into `out` and returns it.
/// The instruction section of a recording loaded from disk is read whole
/// for the write and not kept.
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_replay<W: Write>(r: &InstrReplay, key: Fingerprint, out: W) -> io::Result<W> {
    write_parts(r, &r.section(), key, out)
}

/// [`write_replay`] of `r` whose instruction section is `s`.
fn write_parts<W: Write>(
    r: &InstrReplay,
    s: &InstrSection,
    key: Fingerprint,
    out: W,
) -> io::Result<W> {
    let head = Header::of(r, s);
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
        head.branch_pcs,
        head.bounds,
    ] {
        w.put(&field.to_le_bytes())?;
    }
    w.col(&b.tasks, |t| t.0.to_le_bytes())?;
    w.col(&b.exits, |e| [e.as_u8()])?;
    w.col(&b.kinds, |k| {
        [kind_slot(k).expect("halting task is never recorded") as u8]
    })?;
    w.col(&b.nexts, |a| a.0.to_le_bytes())?;
    w.col(&b.instrs, u32::to_le_bytes)?;
    w.seal()?;
    write_instrs(&mut w.out, s)?;
    Ok(w.out)
}

/// Serialises a recording under cache key `key`: [`write_replay`] into a
/// `Vec` of exactly the artifact's length.
pub fn encode_replay(r: &InstrReplay, key: Fingerprint) -> Vec<u8> {
    let s = r.section();
    let len = Header::of(r, &s)
        .file_len()
        .expect("an in-memory recording fits u64");
    let out = Vec::with_capacity(usize::try_from(len).expect("the artifact fits memory"));
    write_parts(r, &s, key, out).expect("writing to a Vec never fails")
}

/// Deserialises a recording, both sections at once, validating integrity
/// (magic, schema version, length, checksums), identity (`expected` cache
/// key) and structure (the boundary section, and every chunk's side
/// entries, registers and addresses). The recording holds its instruction
/// section. See the module docs for the failure contract.
pub fn decode_replay(bytes: &[u8], expected: Fingerprint) -> Result<InstrReplay, CodecError> {
    let mut r = SectionReader::new(bytes, bytes.len() as u64);
    let head = r.header(expected)?;
    head.check_len(bytes.len() as u64)?;
    let bounds = r.bounds(&head)?;
    // The length check bounds every count by the input's length.
    let mut s = InstrSection {
        ops: Vec::with_capacity(head.ops as usize),
        mem_addrs: Vec::with_capacity(head.mem_addrs as usize),
        branch_pcs: Vec::with_capacity(head.branch_pcs as usize),
    };
    let mut chunks = ChunkReader::new(r.src, head);
    while chunks.advance()? {
        let c = chunks.chunk();
        s.ops.extend_from_slice(c.ops);
        s.mem_addrs.extend_from_slice(c.mem_addrs);
        s.branch_pcs.extend_from_slice(c.branch_pcs);
    }
    Ok(InstrReplay::held(s, Arc::new(bounds), head.mem_words))
}

/// Handles an instruction section that turned out missing or invalid
/// during a walk: it gets the error, and the instruction section of the
/// recording it returns takes the stored one's place. The artifact cache
/// evicts the entry and re-records.
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
    /// The re-recorded section, once reading the stored one failed.
    fallback: OnceLock<InstrSection>,
}

impl StoredSection {
    /// Reopens the artifact for a walk. Its header must still be the one
    /// loaded, and its length the one that header declares; the reader is
    /// left at the first chunk.
    pub(crate) fn open(&self) -> Result<ChunkReader<File>, CodecError> {
        let (mut r, head) = open_checked(&self.path, self.key)?;
        if head != self.head {
            return Err(CodecError::Malformed("header changed since load"));
        }
        // Past the boundary section and its checksum; the length check
        // bounds the product.
        r.skip(head.bounds * BOUNDARY_BYTES + 8)?;
        Ok(ChunkReader::new(r.src, head))
    }

    /// The re-recorded section. The first failure goes to the re-recorder;
    /// any later one, in this walk or another, gets the section it made.
    pub(crate) fn fallback(&self, e: CodecError) -> &InstrSection {
        self.fallback
            .get_or_init(|| (self.rerecord)(e).into_section())
    }

    /// The re-recorded section, once reading the stored one has failed.
    pub(crate) fn held(&self) -> Option<&InstrSection> {
        self.fallback.get()
    }
}

/// Loads the artifact at `path` for cache key `expected`, reading only its
/// header and boundary section. It checks the header, that the file's
/// length is exactly what the header's counts declare and the boundary
/// section (see the module docs). The recording it returns holds no
/// instruction section and no open file: each timing walk over it reopens
/// `path`, re-checks the header and the length, and reads the instruction
/// section chunk by chunk, checking each chunk before it steps any of its
/// ops. If a chunk cannot be read or fails its checks, `rerecord` supplies
/// the section, once; the walk continues in it, and the recording keeps it.
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
    let bounds = r.bounds(&head)?;
    let stored = StoredSection {
        path: path.to_path_buf(),
        key: expected,
        head,
        rerecord,
        fallback: OnceLock::new(),
    };
    Ok(InstrReplay::stored(
        stored,
        head.ops,
        Arc::new(bounds),
        head.mem_words,
    ))
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
        assert!(!instrs(&mut r).mem_addrs.is_empty() && !instrs(&mut r).branch_pcs.is_empty());
        tamper(&mut r);
        let key = fingerprint_of(&"key");
        decode_replay(&encode_replay(&r, key), key)
    }

    /// The instruction section of a fresh recording, for in-place
    /// tampering.
    fn instrs(r: &mut InstrReplay) -> &mut InstrSection {
        r.section_mut()
    }

    #[test]
    fn dropped_memory_address_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                instrs(r).mem_addrs.pop();
            })
            .unwrap_err(),
            CodecError::Malformed("load/store count differs from mem_addrs")
        );
    }

    #[test]
    fn missing_branch_pcs_are_malformed() {
        assert_eq!(
            decode_tampered(|r| instrs(r).branch_pcs.clear()).unwrap_err(),
            CodecError::Malformed("branch count differs from branch_pcs")
        );
    }

    #[test]
    fn memory_address_beyond_mem_words_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let mem_words = r.mem_words as u32;
                instrs(r).mem_addrs[0] = mem_words;
            })
            .unwrap_err(),
            CodecError::Malformed("memory address beyond mem_words")
        );
    }

    #[test]
    fn out_of_range_register_byte_is_malformed() {
        assert_eq!(
            decode_tampered(|r| {
                let ops = &mut instrs(r).ops;
                ops[0] = (ops[0] & !0xFF) | 200;
            })
            .unwrap_err(),
            CodecError::Malformed("register byte out of range")
        );
    }

    /// The boundary section of a recording, for in-place tampering.
    fn bounds(r: &mut InstrReplay) -> &mut SharedTrace {
        Arc::make_mut(&mut r.bounds)
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
                let ops = r.instructions() as u32;
                let b = bounds(r);
                let recorded: u32 = b.instrs.iter().sum();
                b.instrs[0] += ops - recorded;
            })
            .unwrap_err(),
            CodecError::Malformed("task sizes leave no halting op")
        );
    }

    fn checksum(bytes: &[u8]) -> u64 {
        let mut h = FingerprintHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Encodes a real recording, overwrites the first byte of boundary
    /// column `col` (0 = task, 1 = exit, 2 = kind), re-seals the boundary
    /// checksum and decodes the result.
    fn decode_forged_byte(col: usize, byte: u8) -> Result<InstrReplay, CodecError> {
        let key = fingerprint_of(&"key");
        let mut bytes = encode_replay(&recording(), key);
        let n = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;
        bytes[64 + [0, 4 * n, 5 * n][col]] = byte;
        let end = 64 + 14 * n;
        let sum = checksum(&bytes[..end]);
        bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
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
