//! The on-disk content-addressed artifact cache.
//!
//! Recording a benchmark's [`InstrReplay`] is the only interpreter pass
//! preparation needs (the functional trace is the recording's boundary
//! section, see [`multiscalar_sim::derive_trace`]) — and it is also the
//! expensive part.
//! This store persists recordings across processes, keyed by the *content*
//! of everything that determines them:
//!
//! ```text
//! key = fingerprint( CACHE_SCHEMA,
//!                    generator config  (name, seed, scale, version),
//!                    program structure (code, functions, data, targets),
//!                    task partition    (tasks, headers, address map),
//!                    step budget )
//! ```
//!
//! Change any input — a generator tweak, a task-former change, a codec or
//! timing-semantics bump — and the key moves, so stale artifacts are never
//! *served*; they are simply unreachable garbage (`harness cache clear`
//! removes them wholesale, and `harness cache gc --cache-max-bytes N`
//! evicts least-recently-used entries past a size cap).
//!
//! # Concurrency and integrity
//!
//! Writes go to a process-unique temp file in the cache directory and are
//! published with an atomic rename, so concurrent harness invocations (or
//! the `--threads` pool's parallel preparation jobs) never observe a
//! half-written entry — the worst race is two processes recording the same
//! key and one rename winning, which is harmless because both artifacts are
//! byte-identical by determinism.
//!
//! A load reads what predictor sweeps use and little more: the header,
//! the file's length, the boundary section and the program's code table
//! (see [`multiscalar_sim::codec`]), then checks that the recording fits
//! the program and task partition it will be replayed under
//! ([`check_fits`]). The recording it returns never holds its instruction
//! section (the intra-task branches' taken bits and the address deltas):
//! each timing walk reopens the entry and reads the section chunk by chunk,
//! checking each chunk's bytes before it steps any of its ops and its path
//! as it steps them. **Any** failure, at load or during a walk — truncation, bit
//! rot, a stale schema, a misfiled entry, a forged recording of another
//! program or partition — degrades gracefully: a warning on stderr, the
//! entry evicted, and a fresh recording in its place, as if the cache
//! were cold. A failure during a walk turns that load's hit into a miss;
//! the walk starts over in the fresh recording, which the loaded one keeps
//! for later walks. A corrupt cache can cost time, never correctness.
//! [`load_or_record`] is the one load path.

use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use multiscalar_isa::{Fingerprint, FingerprintHasher, Program};
use multiscalar_sim::codec::{
    check_fits, open_replay, write_replay, CodecError, Rerecord, CACHE_SCHEMA,
};
use multiscalar_sim::replay::{record_replay, InstrReplay};
use multiscalar_sim::trace::TraceError;
use multiscalar_taskform::TaskProgram;
use multiscalar_workloads::{Spec92, WorkloadParams};
use std::hash::Hash as _;

/// File extension of replay artifacts in the cache directory.
pub const REPLAY_EXT: &str = "replay";

/// The default cache directory (relative to the working directory) the CLI
/// uses when `--cache-dir` is not given.
pub const DEFAULT_DIR: &str = ".multiscalar-cache";

/// The cache key of one benchmark's replay artifact: every input that
/// determines the recorded bytes, folded into one content address.
pub fn replay_key(
    spec: Spec92,
    params: &WorkloadParams,
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    CACHE_SCHEMA.hash(&mut h);
    spec.config_fingerprint(params).hash(&mut h);
    program.fingerprint().hash(&mut h);
    tasks.fingerprint().hash(&mut h);
    max_steps.hash(&mut h);
    h.finish128()
}

/// The cache key `spec` would be prepared under, computed **without**
/// recording anything: building the workload and forming tasks is cheap
/// (no interpreter pass), and those are all the key depends on. `harness
/// cache stats` uses this to report warm/cold per experiment.
pub fn key_for(spec: Spec92, params: &WorkloadParams) -> Fingerprint {
    let w = spec.build(params);
    let tasks = multiscalar_taskform::TaskFormer::default()
        .form(&w.program)
        .unwrap_or_else(|e| panic!("{spec}: task formation failed: {e}"));
    replay_key(spec, params, &w.program, &tasks, w.max_steps)
}

/// The recording of `program` under `tasks` that `key` addresses: served
/// from `cache` when it holds a valid one, otherwise recorded and, when a
/// cache is given, stored for the next run. The one load path of
/// benchmark preparation, `ext-taskform`'s partitions and `harness asm`.
///
/// # Errors
///
/// The recording's failure modes: execution faults, unmatched boundary
/// crossings, intra-task transfers without a static successor, and
/// step-budget exhaustion.
pub fn load_or_record(
    cache: Option<&ArtifactCache>,
    key: Fingerprint,
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<InstrReplay, TraceError> {
    if let Some(replay) = cache.and_then(|c| c.load_replay(key, program, tasks, max_steps)) {
        return Ok(replay);
    }
    let replay = record_replay(program, tasks, max_steps)?;
    if let Some(c) = cache {
        c.store_replay(key, &replay);
    }
    Ok(replay)
}

/// Monotonic hit/miss/store/eviction counters, shared across the pool's
/// preparation jobs (all atomic; relaxed ordering is enough for counters).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    touch_failures: AtomicU64,
}

/// A point-in-time snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Artifacts written.
    pub stores: u64,
    /// Invalid entries removed (each eviction also counts as a miss).
    pub evictions: u64,
    /// Served hits whose LRU recency touch failed (e.g. a read-only cache
    /// directory). The hit still serves; `gc`'s eviction order just goes
    /// stale for that entry, which is why the failure is surfaced instead
    /// of swallowed.
    pub touch_failures: u64,
}

/// What [`ArtifactCache::gc`] did: entries removed vs. retained, in files
/// and bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// LRU entries evicted to get under the cap.
    pub removed: usize,
    /// Bytes those evictions freed.
    pub removed_bytes: u64,
    /// Entries still on disk.
    pub kept: usize,
    /// Bytes still on disk.
    pub kept_bytes: u64,
}

/// The content-addressed artifact store: a directory of
/// `<key-hex>.replay` files plus in-process counters. Share one instance
/// (behind `&` — all methods take `&self`) across the preparation pool.
/// A clone is another handle on the same directory and counters.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
    counters: Arc<Counters>,
}

impl ArtifactCache {
    /// A store rooted at `dir`. The directory is created lazily on first
    /// write; a missing directory just means every lookup misses.
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            dir: dir.into(),
            counters: Arc::default(),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the artifact for `key` lives.
    pub fn entry_path(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{key}.{REPLAY_EXT}"))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            touch_failures: self.counters.touch_failures.load(Ordering::Relaxed),
        }
    }

    /// Loads the replay recorded under `key` and checks it fits `program`
    /// under `tasks`. `None` on any miss *or* failure; invalid entries are
    /// evicted (with a warning on stderr — stdout stays byte-identical
    /// between cold and warm runs) so the caller silently re-records.
    ///
    /// The load reads the entry's header, boundary section and code table
    /// only. Each timing walk over the recording reads its instruction
    /// section chunk by chunk and checks each chunk's path as it steps it;
    /// the first time a chunk is missing or invalid, the entry is evicted
    /// the same way, the hit is recounted as a miss, `program` is
    /// re-recorded under `tasks` within `max_steps` and stored, and the
    /// walk starts over on the fresh recording.
    pub fn load_replay(
        &self,
        key: Fingerprint,
        program: &Program,
        tasks: &TaskProgram,
        max_steps: u64,
    ) -> Option<InstrReplay> {
        let path = self.entry_path(key);
        let rerecord = self.rerecorder(key, program, tasks, max_steps);
        match open_replay(&path, key, rerecord)
            .and_then(|r| check_fits(&r, program, tasks).map(|()| r))
        {
            Err(CodecError::Io(std::io::ErrorKind::NotFound)) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Ok(replay) => {
                // LRU recency signal for `gc`: a served entry is touched so
                // its mtime orders it after never-hit entries. Best-effort —
                // a read-only cache still serves hits, it just ages — but the
                // failure is counted so `cache stats` / the traffic summary
                // can report that gc's LRU order is going stale.
                let touched = std::fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(std::time::SystemTime::now()));
                if touched.is_err() {
                    self.counters.touch_failures.fetch_add(1, Ordering::Relaxed);
                }
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(replay)
            }
            Err(e) => {
                self.evict(key, e);
                None
            }
        }
    }

    /// Removes the invalid entry under `key` with a warning, counting an
    /// eviction and a miss.
    fn evict(&self, key: Fingerprint, e: CodecError) {
        let path = self.entry_path(key);
        eprintln!(
            "cache: evicting invalid entry {} ({e}); re-recording",
            path.display()
        );
        let _ = std::fs::remove_file(&path);
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// What a loaded recording runs, at most once, when a walk finds a
    /// chunk of its instruction section missing or invalid: the load's
    /// failure path, late. The entry is evicted, the load's hit becomes a
    /// miss, and the recording is made again and stored; the walk starts
    /// over on its section from its first op, and the loaded recording
    /// keeps it.
    fn rerecorder(
        &self,
        key: Fingerprint,
        program: &Program,
        tasks: &TaskProgram,
        max_steps: u64,
    ) -> Rerecord {
        let cache = self.clone();
        let (program, tasks) = (program.clone(), tasks.clone());
        Box::new(move |e| {
            cache.counters.hits.fetch_sub(1, Ordering::Relaxed);
            cache.evict(key, e);
            // The stored recording came from this program, partition and
            // budget, so recording them again succeeds.
            let replay = record_replay(&program, &tasks, max_steps)
                .unwrap_or_else(|e| panic!("re-recording a cached artifact failed: {e}"));
            cache.store_replay(key, &replay);
            replay
        })
    }

    /// Persists a recording under `key`: stream it into a process-unique
    /// temp file through a `BufWriter`, then rename it into place
    /// atomically. Store failures only warn — the cache is an accelerator,
    /// never a correctness dependency.
    pub fn store_replay(&self, key: Fingerprint, replay: &InstrReplay) {
        // Unique per process *and* per call, so parallel writers (pool
        // jobs, concurrent harness invocations) never share a temp file.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            ".{key}.{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            let file = BufWriter::new(std::fs::File::create(&tmp)?);
            write_replay(replay, key, file)?.flush()?;
            std::fs::rename(&tmp, &path)
        };
        match publish() {
            Ok(()) => {
                self.counters.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("cache: could not store {} ({e})", path.display());
            }
        }
    }

    /// The `(file name, size in bytes)` of every replay artifact on disk,
    /// sorted by name (deterministic output for `harness cache stats`).
    pub fn disk_entries(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(REPLAY_EXT) {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
            out.push((name, size));
        }
        out.sort();
        out
    }

    /// Probes whether every on-disk entry's recency (mtime) can be bumped —
    /// the signal [`Self::gc`] orders LRU eviction by. Each entry is
    /// re-stamped with its *current* mtime, so the probe never perturbs
    /// eviction order. Returns `(failures, entries probed)`; a nonzero
    /// failure count means hits are being served without aging the entry
    /// (`harness cache stats` reports it).
    pub fn probe_touch(&self) -> (usize, usize) {
        let mut failures = 0;
        let mut probed = 0;
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(REPLAY_EXT) {
                continue;
            }
            probed += 1;
            let restamp = entry
                .metadata()
                .and_then(|m| m.modified())
                .and_then(|mtime| {
                    std::fs::File::options()
                        .append(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(mtime))
                });
            failures += restamp.is_err() as usize;
        }
        (failures, probed)
    }

    /// Evicts least-recently-used replay artifacts until the ones that
    /// remain total at most `max_bytes` (`harness cache gc
    /// --cache-max-bytes N`).
    ///
    /// Recency is the filesystem mtime: [`Self::store_replay`] sets it on
    /// publish and [`Self::load_replay`] bumps it on every hit, so eviction
    /// order is true LRU. Ties (same-second filesystems) break by file name
    /// for determinism. Each removal counts in
    /// [`CacheStats::evictions`].
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        let dir = match std::fs::read_dir(&self.dir) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        let mut entries: Vec<(std::time::SystemTime, String, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(REPLAY_EXT) {
                continue;
            }
            let meta = entry.metadata()?;
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            total += meta.len();
            entries.push((
                mtime,
                entry.file_name().to_string_lossy().into_owned(),
                meta.len(),
                path,
            ));
        }
        entries.sort();
        let mut oldest = entries.iter();
        while total > max_bytes {
            let Some((_, _, size, path)) = oldest.next() else {
                break;
            };
            std::fs::remove_file(path)?;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            report.removed += 1;
            report.removed_bytes += size;
            total -= size;
        }
        report.kept = entries.len() - report.removed;
        report.kept_bytes = total;
        Ok(report)
    }

    /// Removes every replay artifact (and stray temp file) from the cache
    /// directory; returns how many files were removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        let dir = match std::fs::read_dir(&self.dir) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str());
            let name = entry.file_name();
            let stray_tmp = name.to_string_lossy().ends_with(".tmp");
            if ext == Some(REPLAY_EXT) || stray_tmp {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// The cache key every benchmark would be prepared under at `params`.
fn bench_keys(params: &WorkloadParams) -> Vec<(Spec92, Fingerprint)> {
    Spec92::ALL
        .iter()
        .map(|&s| (s, key_for(s, params)))
        .collect()
}

/// The content address of everything an experiment reads: its name folded
/// with the cache key of each artifact it prepares.
fn input_fingerprint(name: &str, inputs: &[Fingerprint]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    name.hash(&mut h);
    for key in inputs {
        key.hash(&mut h);
    }
    h.finish128()
}

/// `harness cache stats`: what is on disk, plus — via the registry's
/// declared input sets — which benchmarks and experiments the cache
/// already covers at these workload parameters. Each experiment's line
/// carries the content address of its inputs: its name folded with the
/// cache keys of its declared benchmarks, or for `ext-taskform` of the
/// fifteen partitions the helper behind the study itself derives.
pub fn stats_report(store: &ArtifactCache, params: &WorkloadParams) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let entries = store.disk_entries();
    let total: u64 = entries.iter().map(|(_, size)| size).sum();
    let _ = writeln!(out, "cache directory: {}", store.dir().display());
    let _ = writeln!(out, "entries: {} ({} bytes)", entries.len(), total);
    for (name, size) in &entries {
        let _ = writeln!(out, "  {name}  {size}");
    }
    // `gc` evicts in LRU (mtime) order and hits bump the served entry's
    // mtime best-effort; report here when that recency signal is broken
    // (read-only cache dir) instead of letting it fail silently.
    let (touch_failures, probed) = store.probe_touch();
    if touch_failures > 0 {
        let _ = writeln!(
            out,
            "recency touch: FAILING for {touch_failures} of {probed} entries \
             (hits will not age entries; gc LRU order goes stale)"
        );
    } else {
        let _ = writeln!(out, "recency touch: ok ({probed} entries writable)");
    }
    let keys = bench_keys(params);
    let _ = writeln!(
        out,
        "benchmark artifacts (seed {}, scale {}):",
        params.seed, params.scale
    );
    for &(spec, key) in &keys {
        let state = if store.entry_path(key).exists() {
            "cached"
        } else {
            "cold"
        };
        let _ = writeln!(out, "  {:<10} {key}  {state}", spec.name());
    }
    let _ = writeln!(out, "experiment inputs:");
    let key_of = |spec: Spec92| keys.iter().find(|(s, _)| *s == spec).expect("every spec").1;
    for exp in crate::registry::REGISTRY {
        // `ext-taskform` prepares its own fifteen partitions instead of a
        // declared benchmark set, so its inputs are their entries.
        let inputs: Vec<Fingerprint> = if exp.name == "ext-taskform" {
            crate::extensions::taskform_partitions(params)
                .map(|p| p.key)
                .collect()
        } else {
            exp.benches.specs().iter().map(|&s| key_of(s)).collect()
        };
        if inputs.is_empty() {
            continue;
        }
        let warm = inputs.iter().all(|&key| store.entry_path(key).exists());
        let state = if warm { "warm" } else { "cold" };
        let fp = input_fingerprint(exp.name, &inputs);
        let _ = writeln!(out, "  {:<16} {fp}  {state}", exp.name);
    }
    out
}

/// The registry tool entry for `harness cache <stats|clear|gc>`. Operates
/// on the invocation's resolved cache directory even when `--no-cache`
/// disabled preparation caching.
pub fn run_tool(ctx: &crate::registry::ExpCtx) -> Result<crate::registry::Output, String> {
    use crate::proto::CacheAction;
    use crate::registry::Output;
    let store = ArtifactCache::new(ctx.cache_dir.clone());
    match ctx.req.opts.cache_action {
        Some(CacheAction::Stats) => Ok(Output::text(stats_report(&store, &ctx.req.params))),
        Some(CacheAction::Clear) => match store.clear() {
            Ok(n) => Ok(Output::text(format!(
                "removed {n} artifacts from {}\n",
                store.dir().display()
            ))),
            Err(e) => Err(format!("cache clear failed: {e}")),
        },
        Some(CacheAction::Gc) => {
            let Some(max_bytes) = ctx.req.opts.cache_max_bytes else {
                return Err("cache gc needs --cache-max-bytes N".to_string());
            };
            match store.gc(max_bytes) {
                Ok(r) => Ok(Output::text(format!(
                    "evicted {} artifacts ({} bytes), kept {} ({} bytes) in {}\n",
                    r.removed,
                    r.removed_bytes,
                    r.kept,
                    r.kept_bytes,
                    store.dir().display()
                ))),
                Err(e) => Err(format!("cache gc failed: {e}")),
            }
        }
        None => Err(
            "usage: harness cache <stats|clear|gc> [--cache-dir DIR] [--seed N] \
             [--scale N] [--cache-max-bytes N]"
                .to_string(),
        ),
    }
}
