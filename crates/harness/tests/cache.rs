//! The artifact cache's correctness contract: cold, warm, corrupted and
//! concurrently-shared caches all produce byte-identical results — the
//! cache may only ever change wall-clock.

use std::path::PathBuf;

use multiscalar_core::rng::XorShift64;
use multiscalar_harness::cache::ArtifactCache;
use multiscalar_harness::experiments;
use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::OutputFormat;
use multiscalar_harness::{prepare_set_cached, report, Bench};
use multiscalar_sim::codec::CHUNK_OPS;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// A per-test scratch cache directory (tests in one binary may run in
/// parallel, so each test tags its own).
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "multiscalar-cache-test-{tag}-{}",
        std::process::id()
    ))
}

fn cleanup(dir: &PathBuf) {
    let _ = ArtifactCache::new(dir).clear();
    let _ = std::fs::remove_dir(dir);
}

fn render_table4(benches: &[Bench], pool: &Pool) -> String {
    report::render_table4(&experiments::table4(benches, pool))
}

/// Every observable of a prepared benchmark matches between two
/// preparations — recordings, keys, traces and the rendered Table 4.
fn assert_equivalent(a: &[Bench], b: &[Bench], pool: &Pool, what: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.key, y.key, "{what}: cache key ({})", x.name());
        assert_eq!(*x.replay, *y.replay, "{what}: recording ({})", x.name());
        assert_eq!(
            x.trace.events,
            y.trace.events,
            "{what}: trace ({})",
            x.name()
        );
        assert_eq!(x.trace.stats, y.trace.stats, "{what}: stats ({})", x.name());
    }
    assert_eq!(
        render_table4(a, pool),
        render_table4(b, pool),
        "{what}: rendered Table 4"
    );
}

/// Cold fill then warm read: the warm run serves every benchmark from disk
/// (counter-proven: zero misses, so zero interpreter passes) and all
/// results are byte-identical to the cold run's.
#[test]
fn warm_cache_reproduces_cold_results_without_recording() {
    let dir = scratch_dir("coldwarm");
    let pool = Pool::new(1);
    let params = WorkloadParams::small(3);

    let cold_store = ArtifactCache::new(&dir);
    cold_store.clear().unwrap();
    let cold = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&cold_store));
    let s = cold_store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (0, 5, 5, 0));

    let warm_store = ArtifactCache::new(&dir);
    let warm = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&warm_store));
    let s = warm_store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (5, 0, 0, 0));

    // And against a cache-free preparation — the cache changes nothing.
    let uncached = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, None);
    assert_equivalent(&cold, &warm, &pool, "cold vs warm");
    assert_equivalent(&cold, &uncached, &pool, "cold vs uncached");
    cleanup(&dir);
}

/// A corrupted entry is evicted with a warning and silently re-recorded:
/// same results, one eviction, and the repaired entry serves the next run.
#[test]
fn corrupt_entry_is_evicted_and_rerecorded() {
    let dir = scratch_dir("corrupt");
    let pool = Pool::new(1);
    let params = WorkloadParams::small(3);

    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let baseline = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&store));

    // Overwrite one artifact with garbage and truncate another.
    std::fs::write(store.entry_path(baseline[0].key), b"garbage").unwrap();
    let victim = store.entry_path(baseline[1].key);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let repaired_store = ArtifactCache::new(&dir);
    let repaired = prepare_set_cached(
        Spec92::ALL.as_slice(),
        &params,
        &pool,
        Some(&repaired_store),
    );
    let s = repaired_store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (3, 2, 2, 2));
    assert_equivalent(&baseline, &repaired, &pool, "corrupt-repair");

    // The re-recorded entries are valid again.
    let verify_store = ArtifactCache::new(&dir);
    let verified = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&verify_store));
    let s = verify_store.stats();
    assert_eq!((s.hits, s.misses), (5, 0));
    assert_equivalent(&baseline, &verified, &pool, "post-repair");
    cleanup(&dir);
}

/// A stale-schema artifact (written under a future `CACHE_SCHEMA`) is
/// rejected and replaced, not served.
#[test]
fn stale_schema_entry_is_evicted() {
    let dir = scratch_dir("schema");
    let pool = Pool::new(1);
    let params = WorkloadParams::small(3);

    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let baseline = prepare_set_cached(&[Spec92::Compress], &params, &pool, Some(&store));

    // Bump the schema field in the header (offset 4..8, little-endian).
    let path = store.entry_path(baseline[0].key);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let store = ArtifactCache::new(&dir);
    let again = prepare_set_cached(&[Spec92::Compress], &params, &pool, Some(&store));
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (0, 1, 1, 1));
    assert_equivalent(&baseline, &again, &pool, "schema-evict");
    cleanup(&dir);
}

/// A recording with a valid checksum but a foreign task partition — the
/// same program formed with the `small (8/2)` budget, stored under the
/// default partition's key — names tasks the default partition does not
/// have. It is evicted and re-recorded like a corrupt entry, never
/// replayed, and `table4`'s output stays byte-identical.
#[test]
fn foreign_partition_recording_is_evicted_and_rerecorded() {
    use multiscalar_harness::extensions::TASKFORM_CONFIGS;
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;
    use multiscalar_sim::{encode_replay, record_replay};
    use multiscalar_taskform::TaskFormer;

    let dir = scratch_dir("foreign");
    let pool = Pool::new(1);
    let spec = Spec92::Compress;
    let mut request = Request::new("table4");
    request.params = WorkloadParams::small(3);
    request.bench = Some(spec);
    let run = |store: &ArtifactCache| {
        let resources = registry::Resources {
            pool: &pool,
            store: Some(store),
            cache_dir: dir.clone(),
            source: None,
        };
        registry::dispatch(&request, &resources)
            .expect("table4 runs")
            .body
    };

    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let cold = run(&store);

    let (label, small) = TASKFORM_CONFIGS[0];
    assert_eq!(label, "small (8/2)");
    let w = spec.build(&request.params);
    let tasks = TaskFormer::new(small).form(&w.program).unwrap();
    let foreign = record_replay(&w.program, &tasks, w.max_steps).unwrap();
    let key = multiscalar_harness::cache::key_for(spec, &request.params);
    std::fs::write(store.entry_path(key), encode_replay(&foreign, key)).unwrap();

    let store = ArtifactCache::new(&dir);
    let repaired = run(&store);
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (0, 1, 1, 1));
    assert_eq!(cold, repaired, "the re-recorded run is byte-identical");

    let store = ArtifactCache::new(&dir);
    assert_eq!(run(&store), cold);
    assert_eq!((store.stats().hits, store.stats().misses), (1, 0));
    cleanup(&dir);
}

/// A stored artifact with one forged exit byte — below `MAX_EXITS`, so the
/// decoder accepts it, but past its task's header exits — and a re-sealed
/// checksum is evicted and re-recorded, never replayed or traced, and
/// `table4`'s output stays byte-identical.
#[test]
fn forged_exit_past_the_header_is_evicted_and_rerecorded() {
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;
    use multiscalar_isa::MAX_EXITS;
    use multiscalar_taskform::{TaskFormer, TaskId};

    let dir = scratch_dir("forged-exit");
    let pool = Pool::new(1);
    let spec = Spec92::Compress;
    let mut request = Request::new("table4");
    request.params = WorkloadParams::small(3);
    request.bench = Some(spec);
    let run = |store: &ArtifactCache| {
        let resources = registry::Resources {
            pool: &pool,
            store: Some(store),
            cache_dir: dir.clone(),
            source: None,
        };
        registry::dispatch(&request, &resources)
            .expect("table4 runs")
            .body
    };

    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let cold = run(&store);

    // The 64-byte header ends with the boundary count; the boundary
    // section follows it, tasks (u32) first, then exits (u8), and its
    // checksum covers the header and the section.
    let path = store.entry_path(multiscalar_harness::cache::key_for(spec, &request.params));
    let mut bytes = std::fs::read(&path).unwrap();
    let n = Layout::of(&bytes).bounds;
    let (tasks_at, exits_at) = (64, 64 + 4 * n);
    let partition = TaskFormer::default()
        .form(&spec.build(&request.params).program)
        .unwrap();
    let (k, spare) = (0..n)
        .map(|k| {
            let t = u32::from_le_bytes(bytes[tasks_at + 4 * k..][..4].try_into().unwrap());
            (k, partition.task(TaskId(t)).header().num_exits())
        })
        .find(|&(_, exits)| exits < MAX_EXITS)
        .expect("a task with a spare exit slot");
    bytes[exits_at + k] = spare as u8;
    reseal_bounds(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let store = ArtifactCache::new(&dir);
    let repaired = run(&store);
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (0, 1, 1, 1));
    assert_eq!(cold, repaired, "the re-recorded run is byte-identical");
    cleanup(&dir);
}

/// `gc` evicts least-recently-used entries past the byte cap: a hit bumps
/// an entry's recency so it survives, the oldest cold entries go first
/// (counter-verified), and the evicted benchmarks are simply re-recorded —
/// byte-identically — on the next preparation.
#[test]
fn gc_evicts_lru_entries_past_the_byte_cap() {
    use std::time::{Duration, SystemTime};
    let dir = scratch_dir("gc");
    let pool = Pool::new(1);
    let params = WorkloadParams::small(3);

    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let baseline = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&store));

    // Pin distinct mtimes (same-second filesystems would otherwise tie):
    // entry 0 oldest ... entry 4 newest.
    let now = SystemTime::now();
    let mut sizes = Vec::new();
    for (i, b) in baseline.iter().enumerate() {
        let path = store.entry_path(b.key);
        sizes.push(std::fs::metadata(&path).unwrap().len());
        let f = std::fs::File::options().append(true).open(&path).unwrap();
        f.set_modified(now - Duration::from_secs((10 - i as u64) * 1000))
            .unwrap();
    }

    // A hit bumps entry 0 to most-recent, so LRU order is now 1, 2, 3, 4, 0.
    let hit = &baseline[0];
    assert!(store
        .load_replay(
            hit.key,
            &hit.workload.program,
            &hit.tasks,
            hit.workload.max_steps
        )
        .is_some());

    // Cap so that exactly the two oldest cold entries (1 and 2) must go.
    let total: u64 = sizes.iter().sum();
    let report = store.gc(total - sizes[1] - sizes[2]).unwrap();
    assert_eq!(report.removed, 2, "exactly the two LRU entries are evicted");
    assert_eq!(report.removed_bytes, sizes[1] + sizes[2]);
    assert_eq!(report.kept, 3);
    assert_eq!(report.kept_bytes, total - sizes[1] - sizes[2]);
    assert_eq!(
        store.stats().evictions,
        2,
        "each removal counts as an eviction"
    );
    for (i, b) in baseline.iter().enumerate() {
        assert_eq!(
            store.entry_path(b.key).exists(),
            i != 1 && i != 2,
            "entry {i}: the hit entry and the two newest survive"
        );
    }

    // The evicted benchmarks re-record; everything stays byte-identical.
    let after = ArtifactCache::new(&dir);
    let repaired = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&after));
    let s = after.stats();
    assert_eq!((s.hits, s.misses, s.stores), (3, 2, 2));
    assert_equivalent(&baseline, &repaired, &pool, "post-gc");

    // A cap the cache already fits under removes nothing; a missing
    // directory reports an empty cache rather than an error.
    let report = after.gc(u64::MAX).unwrap();
    assert_eq!((report.removed, report.kept), (0, 5));
    let ghost = ArtifactCache::new(scratch_dir("gc-missing"));
    assert_eq!(ghost.gc(0).unwrap(), Default::default());
    cleanup(&dir);
}

/// A file-sourced replay (`harness asm FILE`) keys on the source bytes:
/// an untouched file is a counted warm hit on the second run, any edit —
/// even a comment — re-records, and the rendered body never depends on
/// which side of the cache served it.
#[test]
fn file_replay_cache_rekeys_on_source_edit() {
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;

    let dir = scratch_dir("masm-file");
    let src = std::env::temp_dir().join(format!("masm-cache-test-{}.masm", std::process::id()));
    std::fs::write(
        &src,
        "func! main\n  li r1, 2\n  addi r1, r1, 3\n  halt\nend\n",
    )
    .unwrap();

    let pool = Pool::new(1);
    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let mut request = Request::new("asm");
    request.opts.file = Some(src.to_string_lossy().into_owned());
    let run = |store: &ArtifactCache, request: &Request| {
        let resources = registry::Resources {
            pool: &pool,
            store: Some(store),
            cache_dir: dir.clone(),
            source: None,
        };
        registry::dispatch(request, &resources).expect("asm runs")
    };

    let cold = run(&store, &request);
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores), (0, 1, 1), "cold run records");

    let warm = run(&store, &request);
    let s = store.stats();
    assert_eq!(
        (s.hits, s.misses, s.stores),
        (1, 1, 1),
        "untouched file hits"
    );
    assert_eq!(cold.body, warm.body, "warm body must be byte-identical");

    // A comment-only edit leaves the assembled program identical, but the
    // key folds the source bytes — the stale artifact must not be served.
    let text = std::fs::read_to_string(&src).unwrap();
    std::fs::write(&src, format!("; edited\n{text}")).unwrap();
    let edited = run(&store, &request);
    let s = store.stats();
    assert_eq!(
        (s.hits, s.misses, s.stores),
        (1, 2, 2),
        "edited file re-records"
    );
    assert_eq!(cold.body, edited.body, "same program, same rendered body");

    let _ = std::fs::remove_file(&src);
    cleanup(&dir);
}

/// Regression: when entries share an mtime (1-second filesystem
/// granularity makes this the common case for one `harness all` run), gc's
/// eviction order must not depend on directory-iteration order — ties
/// break deterministically by fingerprint file name.
#[test]
fn gc_breaks_mtime_ties_deterministically_by_fingerprint() {
    use std::time::{Duration, SystemTime};
    let run_once = |tag: &str| -> Vec<String> {
        let dir = scratch_dir(tag);
        let store = ArtifactCache::new(&dir);
        store.clear().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        // Four same-size pseudo-entries, written in an order unrelated to
        // their names, all pinned to one mtime.
        let names = ["dddd0000", "aaaa0000", "cccc0000", "bbbb0000"];
        let stamp = SystemTime::now() - Duration::from_secs(1000);
        for name in names {
            let path = dir.join(format!("{name}.replay"));
            std::fs::write(&path, [0u8; 64]).unwrap();
            std::fs::File::options()
                .append(true)
                .open(&path)
                .unwrap()
                .set_modified(stamp)
                .unwrap();
        }
        // Keep two: with every mtime equal, only the name order decides.
        let report = store.gc(128).unwrap();
        assert_eq!((report.removed, report.kept), (2, 2), "{tag}");
        let mut kept: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        kept.sort();
        cleanup(&dir);
        let _ = std::fs::remove_dir_all(scratch_dir(tag));
        kept
    };
    let first = run_once("gc-tie-a");
    let second = run_once("gc-tie-b");
    assert_eq!(first, second, "tie-break must not depend on the run");
    assert_eq!(
        first,
        vec!["cccc0000.replay".to_string(), "dddd0000.replay".to_string()],
        "the lexicographically smallest fingerprints evict first"
    );
}

/// The LRU recency touch on a hit is best-effort, but no longer silent:
/// healthy caches count zero failures, and `probe_touch` re-stamps every
/// entry with its current mtime (so probing never perturbs LRU order).
#[test]
fn touch_failures_are_counted_and_probe_preserves_mtime() {
    let dir = scratch_dir("touch");
    let store = ArtifactCache::new(&dir);
    store.clear().unwrap();
    let params = WorkloadParams::small(11);
    let benches = prepare_set_cached(&[Spec92::Compress], &params, &Pool::new(1), Some(&store));
    let b = &benches[0];
    assert!(store
        .load_replay(b.key, &b.workload.program, &b.tasks, b.workload.max_steps)
        .is_some());
    let s = store.stats();
    assert_eq!(s.hits, 1);
    assert_eq!(s.touch_failures, 0, "a writable cache never fails to touch");

    let path = store.entry_path(benches[0].key);
    let before = std::fs::metadata(&path).unwrap().modified().unwrap();
    assert_eq!(store.probe_touch(), (0, 1));
    let after = std::fs::metadata(&path).unwrap().modified().unwrap();
    assert_eq!(before, after, "probing must not bump recency");
    cleanup(&dir);
}

/// One warm cache shared by pools of every width yields byte-identical
/// preparations — the counters are atomic and entries are immutable, so
/// parallel readers cannot interfere.
#[test]
fn shared_warm_cache_is_deterministic_across_pool_widths() {
    let dir = scratch_dir("threads");
    let params = WorkloadParams::small(3);

    let fill = ArtifactCache::new(&dir);
    fill.clear().unwrap();
    let serial = prepare_set_cached(Spec92::ALL.as_slice(), &params, &Pool::new(1), Some(&fill));

    for threads in [2, 8] {
        let pool = Pool::new(threads);
        let store = ArtifactCache::new(&dir);
        let parallel = prepare_set_cached(Spec92::ALL.as_slice(), &params, &pool, Some(&store));
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (5, 0), "warm at {threads} threads");
        assert_equivalent(&serial, &parallel, &pool, "pool width");
    }
    cleanup(&dir);
}

/// Where an artifact's parts start (see `multiscalar_sim::codec`): the
/// 64-byte header, the boundary section (14 bytes per boundary) and its
/// checksum, the code section (the entry pc, then a 4-byte op word and a
/// 4-byte successor per instruction) and its checksum, then the
/// instruction section's chunks.
struct Layout {
    bounds: usize,
    bound_sum: usize,
    /// Instructions in the code table.
    code_len: usize,
    /// Where the code section starts: its entry pc, then the op words.
    code: usize,
    /// Where the successors start.
    succs: usize,
    code_sum: usize,
    instrs: usize,
    chunks: Vec<ChunkAt>,
}

/// Where chunk `index` of the instruction section starts and what it
/// holds: the taken bits of its `n` ops, its address count, the `m` memory
/// addresses those ops consume, then its checksum. Its op `plain` is not
/// a conditional branch.
#[derive(Debug, Clone, Copy)]
struct ChunkAt {
    index: usize,
    bits: usize,
    n: usize,
    count: usize,
    mem: usize,
    m: usize,
    sum: usize,
    plain: usize,
}

/// For each `CHUNK_OPS` ops of compress at scale 1, found by running the
/// program: the memory references among them, and the first of them that
/// is not a conditional branch.
fn ops_per_chunk() -> &'static [(usize, usize)] {
    static FACTS: std::sync::OnceLock<Vec<(usize, usize)>> = std::sync::OnceLock::new();
    FACTS.get_or_init(|| {
        use multiscalar_isa::Instruction;
        let w = Spec92::Compress.build(&WorkloadParams::small(3));
        let mut interp = multiscalar_isa::Interpreter::new(&w.program);
        let mut facts: Vec<(usize, Option<usize>)> = Vec::new();
        let mut ops = 0;
        while !interp.is_halted() {
            if ops % CHUNK_OPS == 0 {
                facts.push((0, None));
            }
            let step = interp.step().unwrap();
            let (refs, plain) = facts.last_mut().unwrap();
            *refs += step.mem_addr.is_some() as usize;
            if !matches!(step.inst, Instruction::Branch { .. }) {
                plain.get_or_insert(ops % CHUNK_OPS);
            }
            ops += 1;
        }
        facts
            .into_iter()
            .map(|(refs, plain)| (refs, plain.expect("an op that is not a branch")))
            .collect()
    })
}

impl Layout {
    /// The layout of `bytes`, an artifact of compress at scale 1.
    fn of(bytes: &[u8]) -> Layout {
        let count = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let bounds = count(56);
        let code_len = count(48);
        let bound_sum = 64 + 14 * bounds;
        let code = bound_sum + 8;
        let succs = code + 4 + 4 * code_len;
        let code_sum = succs + 4 * code_len;
        let instrs = code_sum + 8;
        let mut chunks = Vec::new();
        let (mut at, mut left) = (instrs, count(32));
        for (index, &(m, plain)) in ops_per_chunk().iter().enumerate() {
            let n = left.min(CHUNK_OPS);
            let count = at + n.div_ceil(8);
            let c = ChunkAt {
                index,
                bits: at,
                n,
                count,
                mem: count + 4,
                m,
                sum: count + 4 + 4 * m,
                plain,
            };
            assert_eq!(bytes[count..count + 4], (m as u32).to_le_bytes());
            chunks.push(c);
            at = c.sum + 8;
            left -= n;
        }
        assert_eq!(left, 0, "the chunks hold every op");
        assert_eq!(at, bytes.len(), "the chunks fill the file");
        Layout {
            bounds,
            bound_sum,
            code_len,
            code,
            succs,
            code_sum,
            instrs,
            chunks,
        }
    }

    /// The first, a middle and the last chunk.
    fn picks(&self) -> [ChunkAt; 3] {
        let c = &self.chunks;
        assert!(c.len() >= 3, "an artifact of several chunks");
        [c[0], c[c.len() / 2], c[c.len() - 1]]
    }
}

/// Recomputes the boundary checksum of `bytes` after a forgery inside the
/// header or the boundary section.
fn reseal_bounds(bytes: &mut [u8]) {
    use multiscalar_isa::FingerprintHasher;
    use std::hash::Hasher as _;
    let end = Layout::of(bytes).bound_sum;
    let mut h = FingerprintHasher::new();
    h.write(&bytes[..end]);
    let sum = h.finish();
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Recomputes the checksum of chunk `c` of `bytes` after a forgery inside
/// it: the hash of its index and its bytes.
fn reseal_chunk(bytes: &mut [u8], c: ChunkAt) {
    use multiscalar_isa::FingerprintHasher;
    use std::hash::Hasher as _;
    let mut h = FingerprintHasher::new();
    h.write_u64(c.index as u64);
    h.write(&bytes[c.bits..c.sum]);
    let sum = h.finish();
    bytes[c.sum..c.sum + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Runs `experiment` on compress at scale 1 through the registry with a
/// fresh handle on the cache in `dir`; returns its stdout and the cache's
/// `(hits, misses, stores, evictions)`.
fn run_compress(experiment: &str, dir: &std::path::Path) -> (String, (u64, u64, u64, u64)) {
    run_compress_as(experiment, OutputFormat::Text, dir)
}

/// [`run_compress`] with the output in `format`.
fn run_compress_as(
    experiment: &str,
    format: OutputFormat,
    dir: &std::path::Path,
) -> (String, (u64, u64, u64, u64)) {
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;
    let mut request = Request::new(experiment);
    request.params = WorkloadParams::small(3);
    request.bench = Some(Spec92::Compress);
    request.format = format;
    let store = ArtifactCache::new(dir);
    let pool = Pool::new(1);
    let resources = registry::Resources {
        pool: &pool,
        store: Some(&store),
        cache_dir: dir.to_path_buf(),
        source: None,
    };
    let body = registry::dispatch(&request, &resources)
        .unwrap_or_else(|e| panic!("{experiment} runs: {e}"))
        .body;
    let s = store.stats();
    (body, (s.hits, s.misses, s.stores, s.evictions))
}

/// The cache entry of compress at scale 1 in `dir`.
fn compress_entry(dir: &std::path::Path) -> PathBuf {
    ArtifactCache::new(dir).entry_path(multiscalar_harness::cache::key_for(
        Spec92::Compress,
        &WorkloadParams::small(3),
    ))
}

/// One corruption of a stored artifact.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Keep only the first `n` bytes.
    Cut(usize),
    /// Flip bit `bit` of byte `at`.
    Flip { at: usize, bit: u8 },
    /// Append `n` zero bytes.
    Append(usize),
    /// Write a schema-5 header (the layout that stored no address count
    /// per chunk).
    Schema5,
    /// Point boundary `k`'s next task past the code, and re-seal the
    /// boundary checksum.
    NextOutsideCode(usize),
    /// Set the taken bit of chunk `c`'s op `c.plain`, which is not a
    /// conditional branch, and re-seal the chunk's checksum.
    StrayTaken(ChunkAt),
}

impl Mutation {
    fn apply(self, pristine: &[u8]) -> Vec<u8> {
        let mut bytes = pristine.to_vec();
        match self {
            Mutation::Cut(n) => bytes.truncate(n),
            Mutation::Flip { at, bit } => bytes[at] ^= 1 << bit,
            Mutation::Append(n) => bytes.resize(bytes.len() + n, 0),
            Mutation::Schema5 => bytes[4..8].copy_from_slice(&5u32.to_le_bytes()),
            Mutation::NextOutsideCode(k) => {
                let l = Layout::of(&bytes);
                // Columns: tasks u32, exits u8, kinds u8, then nexts u32.
                let at = 64 + 6 * l.bounds + 4 * k;
                bytes[at..at + 4].copy_from_slice(&(l.code_len as u32).to_le_bytes());
                reseal_bounds(&mut bytes);
            }
            Mutation::StrayTaken(c) => {
                bytes[c.bits + c.plain / 8] |= 1 << (c.plain % 8);
                reseal_chunk(&mut bytes, c);
            }
        }
        bytes
    }
}

/// Writes each mutation of a real scale-1 compress artifact into its cache
/// entry, then prepares and runs `table4`: nothing panics, stdout equals
/// the pristine run's, and the cache counts `(0 hits, 1 miss, 1 store,
/// 1 eviction)` whether the rejection came at load (header, length,
/// boundary section) or during the timing walk (an instruction chunk).
/// A mutation picked with `profile` set runs `profile --json` on its own
/// copy too, whose breakdown must equal the pristine run's.
fn mutations_are_rejected_and_rerecorded(tag: &str, pick: fn(&[u8], &mut XorShift64) -> Cases) {
    let dir = scratch_dir(tag);
    cleanup(&dir);
    let (pristine_out, cold) = run_compress("table4", &dir);
    assert_eq!(cold, (0, 1, 1, 0));
    let (pristine_profile, _) = run_compress_as("profile", OutputFormat::Json, &dir);
    let path = compress_entry(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let mut rng = XorShift64::new(0x5EC7_1045);
    let mutations = pick(&pristine, &mut rng);
    for (m, profile) in mutations {
        std::fs::write(&path, m.apply(&pristine)).unwrap();
        let (out, counts) = run_compress("table4", &dir);
        assert_eq!(counts, (0, 1, 1, 1), "{m:?}");
        assert!(
            out == pristine_out,
            "{m:?}: stdout differs from the pristine run"
        );
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "{m:?}: re-stored");
        if profile {
            std::fs::write(&path, m.apply(&pristine)).unwrap();
            let (out, counts) = run_compress_as("profile", OutputFormat::Json, &dir);
            assert_eq!(counts, (0, 1, 1, 1), "{m:?}: profile");
            assert!(
                out == pristine_profile,
                "{m:?}: profile --json differs from the pristine run"
            );
        }
    }
    cleanup(&dir);
}

/// Mutations, each with whether it also runs `profile --json`.
type Cases = Vec<(Mutation, bool)>;

/// Mutations that run `table4` only.
fn table4_only(m: impl IntoIterator<Item = Mutation>) -> Cases {
    m.into_iter().map(|m| (m, false)).collect()
}

/// `n` positions drawn uniformly from `range`.
fn draws(rng: &mut XorShift64, range: std::ops::Range<usize>, n: usize) -> Vec<usize> {
    (0..n)
        .map(|_| range.start + rng.next_below((range.end - range.start) as u32) as usize)
        .collect()
}

/// Truncation at every section boundary, at the edges of and inside the
/// first, a middle and the last instruction chunk, and at random points;
/// appended bytes and a schema-5 header.
#[test]
fn truncated_extended_and_stale_artifacts_are_rerecorded() {
    mutations_are_rejected_and_rerecorded("mut-length", |bytes, rng| {
        let l = Layout::of(bytes);
        let last = l.chunks[l.chunks.len() - 1];
        let mut cuts = vec![
            0,
            4,
            8,
            24,
            32,
            63,
            64,
            l.bound_sum,
            l.code,
            l.instrs,
            last.sum,
        ];
        cuts.extend([
            l.bound_sum - 1,
            l.code + 4,
            l.succs,
            l.code_sum,
            l.code_sum + 7,
        ]);
        cuts.extend([l.instrs - 1, l.instrs + 1, bytes.len() - 1]);
        for c in l.picks() {
            // A chunk's start, the middle of its taken bits, its address
            // count, its addresses and its checksum.
            cuts.extend([
                c.bits,
                c.bits + c.n / 16,
                c.count + 2,
                c.mem,
                c.sum,
                c.sum + 4,
            ]);
        }
        cuts.extend(draws(rng, 0..bytes.len(), 20));
        let mut m = table4_only(cuts.into_iter().map(Mutation::Cut));
        m.extend(table4_only([1, 3, 8, 4096].map(Mutation::Append)));
        m.push((Mutation::Schema5, false));
        m
    });
}

/// A flipped bit in every header byte.
#[test]
fn every_flipped_header_byte_is_rerecorded() {
    mutations_are_rejected_and_rerecorded("mut-header", |_, rng| {
        table4_only((0..64).map(|at| Mutation::Flip {
            at,
            bit: rng.next_below(8) as u8,
        }))
    });
}

/// Flipped bits inside each section and in each checksum. The boundary
/// and code sections' are refused at load, among them a code entry's
/// register byte, class bits and successor, and so is a boundary whose
/// next task lies past the code under a re-sealed checksum. The
/// instruction section's are refused when the walk reaches their chunk:
/// in the first chunk before any op is stepped, in a middle or the last
/// chunk after the earlier chunks were, so those also run `profile
/// --json`, whose breakdown must stay pristine. In each of the three
/// chunks the flips hit a taken-bit byte, a memory address, the chunk
/// checksum and the address count.
#[test]
fn flipped_section_and_checksum_bytes_are_rerecorded() {
    mutations_are_rejected_and_rerecorded("mut-sections", |bytes, rng| {
        let l = Layout::of(bytes);
        let last = l.chunks[l.chunks.len() - 1];
        let flip = |at: usize, rng: &mut XorShift64| Mutation::Flip {
            at,
            bit: rng.next_below(8) as u8,
        };
        let mut at = draws(rng, 64..l.bound_sum, 35);
        at.extend(draws(rng, l.instrs..last.sum, 45));
        at.extend(draws(rng, l.code..l.code_sum, 20));
        at.extend(l.bound_sum..l.code);
        at.extend(l.code_sum..l.instrs);
        at.extend(last.sum..bytes.len());
        let mut m: Vec<(Mutation, bool)> =
            at.into_iter().map(|at| (flip(at, rng), false)).collect();
        // One code entry's first source register byte, class bits (bits
        // 24..26 of its op word) and successor.
        let entry = rng.next_below(l.code_len as u32) as usize;
        let op = l.code + 4 + 4 * entry;
        m.extend(table4_only([
            flip(op, rng),
            Mutation::Flip {
                at: op + 3,
                bit: rng.next_below(2) as u8,
            },
            flip(l.succs + 4 * entry + rng.next_below(2) as usize, rng),
            Mutation::NextOutsideCode(rng.next_below(l.bounds as u32) as usize),
        ]));
        for (k, c) in l.picks().into_iter().enumerate() {
            assert!(c.m > 0, "chunk {k} carries memory addresses");
            let bits = c.bits + rng.next_below(c.n.div_ceil(8) as u32) as usize;
            let addr = c.mem + 4 * rng.next_below(c.m as u32) as usize;
            let sum = c.sum + rng.next_below(8) as usize;
            let count = Mutation::Flip {
                at: c.count,
                bit: 0,
            };
            let cases = [flip(bits, rng), flip(addr, rng), flip(sum, rng), count];
            m.extend(cases.map(|case| (case, k > 0)));
        }
        m
    });
}

/// A taken bit set on an op that is not a conditional branch, under a
/// re-sealed chunk checksum, in the first, a middle and the last chunk:
/// the chunk reads clean, and only stepping it finds the bit, after the
/// walk has stepped ops of it. The walk starts over on the re-recorded
/// section, so `table4` stays pristine, and so does `profile --json`'s
/// breakdown after the middle and the last chunk, which the walk reaches
/// after stepping whole earlier chunks.
#[test]
fn a_stray_taken_bit_under_a_resealed_checksum_is_rerecorded() {
    mutations_are_rejected_and_rerecorded("mut-stray-taken", |bytes, _| {
        let l = Layout::of(bytes);
        l.picks()
            .into_iter()
            .map(|c| (Mutation::StrayTaken(c), c.index > 0))
            .collect()
    });
}

/// A sweep reads only the boundary section: with one byte of the
/// instruction section flipped, `fig7` is a clean hit with pristine
/// output, and `table4` on the same entry then evicts and re-records it.
#[test]
fn a_sweep_never_reads_the_instruction_section() {
    let dir = scratch_dir("lazy");
    cleanup(&dir);
    let (table4, _) = run_compress("table4", &dir);
    let (fig7, warm) = run_compress("fig7", &dir);
    assert_eq!(warm, (1, 0, 0, 0));
    let path = compress_entry(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let l = Layout::of(&bytes);
    let at = l.chunks[l.chunks.len() - 1].sum - 8;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let (out, counts) = run_compress("fig7", &dir);
    assert_eq!(counts, (1, 0, 0, 0), "a sweep reads no instructions");
    assert_eq!(out, fig7);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "the entry stays as it was"
    );

    let (out, counts) = run_compress("table4", &dir);
    assert_eq!(counts, (0, 1, 1, 1), "the walk finds the bad chunk");
    assert_eq!(out, table4);
    assert_ne!(
        std::fs::read(&path).unwrap(),
        bytes,
        "re-recorded and stored"
    );
    assert_eq!(run_compress("table4", &dir), (table4, (1, 0, 0, 0)));
    cleanup(&dir);
}

/// Compress at scale 1 prepared through a fresh handle on the cache in
/// `dir`, and that handle.
fn prepare_compress(dir: &std::path::Path, pool: &Pool) -> (Vec<Bench>, ArtifactCache) {
    let store = ArtifactCache::new(dir);
    let benches = prepare_set_cached(
        &[Spec92::Compress],
        &WorkloadParams::small(3),
        pool,
        Some(&store),
    );
    (benches, store)
}

/// A recording loaded from the artifact cache holds no instruction
/// section, before a walk and after one: the walk reads the section chunk
/// by chunk and keeps none of it. A fresh recording holds its section.
#[test]
fn a_loaded_recording_never_holds_its_instruction_section() {
    let dir = scratch_dir("holds");
    cleanup(&dir);
    let pool = Pool::new(1);
    let (cold, _) = prepare_compress(&dir, &pool);
    assert!(cold[0].replay.holds_instructions(), "a fresh recording");
    let (warm, store) = prepare_compress(&dir, &pool);
    assert!(!warm[0].replay.holds_instructions(), "a loaded recording");
    assert_eq!(render_table4(&warm, &pool), render_table4(&cold, &pool));
    assert!(!warm[0].replay.holds_instructions(), "after a walk");
    assert_eq!(render_table4(&warm, &pool), render_table4(&cold, &pool));
    assert!(!warm[0].replay.holds_instructions(), "after a second walk");
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (1, 0, 0, 0));
    cleanup(&dir);
}

/// A walk that finds a bad chunk in the middle of the section re-records
/// once and starts over on the fresh section, which the recording keeps: a
/// second walk reads that section, not the file (corrupted again here),
/// and evicts nothing more.
#[test]
fn a_second_walk_after_a_mid_walk_fallback_reads_the_kept_section() {
    let dir = scratch_dir("fallback");
    cleanup(&dir);
    let pool = Pool::new(1);
    let (cold, _) = prepare_compress(&dir, &pool);
    let pristine = render_table4(&cold, &pool);
    let path = compress_entry(&dir);
    let flip = || {
        let mut bytes = std::fs::read(&path).unwrap();
        let [_, middle, _] = Layout::of(&bytes).picks();
        bytes[middle.mem + 4 * (middle.m / 2)] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
    };
    flip();

    let (warm, store) = prepare_compress(&dir, &pool);
    assert_eq!(store.stats().hits, 1, "the boundary section loads");
    assert_eq!(render_table4(&warm, &pool), pristine);
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.evictions), (0, 1, 1, 1));
    assert!(
        warm[0].replay.holds_instructions(),
        "the fresh section is kept"
    );

    flip();
    assert_eq!(render_table4(&warm, &pool), pristine);
    let s = store.stats();
    assert_eq!(
        (s.hits, s.misses, s.stores, s.evictions),
        (0, 1, 1, 1),
        "no second eviction"
    );
    cleanup(&dir);
}

/// `ext-taskform` loads each of its fifteen partitions through the cache:
/// a cold run records and stores each distinct one (budgets that form the
/// same partition share its key, so the later ones hit), a warm run reads
/// all fifteen and records nothing, and both print what an uncached run
/// prints.
#[test]
fn ext_taskform_reads_its_partitions_from_the_cache() {
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;
    let dir = scratch_dir("taskform");
    cleanup(&dir);
    let pool = Pool::new(1);
    let mut request = Request::new("ext-taskform");
    request.params = WorkloadParams::small(3);
    let run = |store: Option<&ArtifactCache>| {
        let resources = registry::Resources {
            pool: &pool,
            store,
            cache_dir: dir.clone(),
            source: None,
        };
        registry::dispatch(&request, &resources)
            .expect("ext-taskform runs")
            .body
    };
    let counts = |s: &ArtifactCache| {
        let s = s.stats();
        (s.hits, s.misses, s.stores, s.evictions)
    };
    let uncached = run(None);
    let cold = ArtifactCache::new(&dir);
    assert_eq!(run(Some(&cold)), uncached);
    let (hits, misses, stores, evictions) = counts(&cold);
    assert_eq!((hits + misses, stores, evictions), (15, misses, 0));
    let warm = ArtifactCache::new(&dir);
    assert_eq!(run(Some(&warm)), uncached);
    assert_eq!(counts(&warm), (15, 0, 0, 0));
    cleanup(&dir);
}

/// The state `cache stats` reports for `experiment` at scale 1 on `store`.
fn coverage(store: &ArtifactCache, experiment: &str) -> String {
    let report = multiscalar_harness::cache::stats_report(store, &WorkloadParams::small(3));
    let line = report
        .lines()
        .find(|l| l.split_whitespace().next() == Some(experiment))
        .unwrap_or_else(|| panic!("no {experiment} line in:\n{report}"));
    line.split_whitespace().last().unwrap().to_string()
}

/// Dispatches `experiment` at scale 1 through `store`.
fn dispatch_through(store: &ArtifactCache, experiment: &str) {
    use multiscalar_harness::proto::Request;
    use multiscalar_harness::registry;
    let mut request = Request::new(experiment);
    request.params = WorkloadParams::small(3);
    let pool = Pool::new(1);
    let resources = registry::Resources {
        pool: &pool,
        store: Some(store),
        cache_dir: store.dir().to_path_buf(),
        source: None,
    };
    registry::dispatch(&request, &resources).unwrap_or_else(|e| panic!("{experiment} runs: {e}"));
}

/// `cache stats` covers `ext-taskform`'s fifteen partition entries: its
/// line reads `cold` on an empty directory and `warm` once one
/// `ext-taskform` run has stored them.
#[test]
fn cache_stats_reports_ext_taskform_coverage() {
    let dir = scratch_dir("taskform-stats");
    cleanup(&dir);
    let store = ArtifactCache::new(&dir);
    assert_eq!(coverage(&store, "ext-taskform"), "cold");
    dispatch_through(&store, "ext-taskform");
    assert_eq!(coverage(&store, "ext-taskform"), "warm");
    cleanup(&dir);
}

/// `verify` declares the five benchmarks it scores, so `cache stats`
/// prints a line for it: `cold` on an empty directory and `warm` once one
/// `verify` run has stored their entries.
#[test]
fn cache_stats_reports_verify_coverage() {
    let dir = scratch_dir("verify-stats");
    cleanup(&dir);
    let store = ArtifactCache::new(&dir);
    assert_eq!(coverage(&store, "verify"), "cold");
    dispatch_through(&store, "verify");
    assert_eq!(coverage(&store, "verify"), "warm");
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores), (0, 5, 5));
    cleanup(&dir);
}
