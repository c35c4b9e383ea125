//! The artifact cache's correctness contract: cold, warm, corrupted and
//! concurrently-shared caches all produce byte-identical results — the
//! cache may only ever change wall-clock.

use std::path::PathBuf;

use multiscalar_harness::cache::ArtifactCache;
use multiscalar_harness::experiments;
use multiscalar_harness::pool::Pool;
use multiscalar_harness::{prepare_set_cached, report, Bench};
use multiscalar_sim::timing::TimingConfig;
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
    report::render_table4(&experiments::table4(benches, &TimingConfig::paper(), pool))
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
    use multiscalar_isa::{FingerprintHasher, MAX_EXITS};
    use multiscalar_taskform::{TaskFormer, TaskId};
    use std::hash::Hasher as _;

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

    // Past the 32-byte header, each column is a u64 count and then its
    // elements: ops, mem_addrs and branch_pcs (u32), then the boundary
    // section's tasks (u32) and exits (u8).
    let path = store.entry_path(multiscalar_harness::cache::key_for(spec, &request.params));
    let mut bytes = std::fs::read(&path).unwrap();
    let count = |bytes: &[u8], at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
    };
    let mut at = 32;
    for _ in 0..3 {
        at += 8 + 4 * count(&bytes, at);
    }
    let n = count(&bytes, at);
    let (tasks_at, exits_at) = (at + 8, at + 8 + 4 * n + 8);
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
    let end = bytes.len() - 8;
    let mut h = FingerprintHasher::new();
    h.write(&bytes[..end]);
    let sum = h.finish();
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
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
        .load_replay(hit.key, &hit.workload.program, &hit.tasks)
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
        .load_replay(b.key, &b.workload.program, &b.tasks)
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
