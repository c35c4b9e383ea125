//! `harness serve` — the resident experiment daemon.
//!
//! Starting the harness pays two costs the CLI re-pays on every
//! invocation: preparing benchmarks (build + task-form + record, or at
//! best a disk read through the artifact cache) and running the
//! experiment itself. The server pays each cost **once**: prepared
//! [`Bench`]es live in an in-memory pool (their replays and traces are
//! immutable behind `Arc`, so serving one to a request is a cheap clone),
//! and rendered [`Output`]s are memoised in a byte-capped LRU result
//! cache keyed by [`registry::result_key`] — the experiment's
//! content-addressed inputs × workload parameters × output format × tool
//! options. A repeated request is served byte-identical from memory
//! without touching a benchmark at all.
//!
//! The wire protocol is line-delimited JSON over stdio or a Unix socket
//! (see [`crate::proto`]): one [`Envelope`] per request line, one
//! [`Response`] per response line. Requests dispatch through the same
//! [`registry::dispatch`] path as the CLI — the server adds residency and
//! memoisation, never behavior — so a request's body is exactly the bytes
//! `harness <experiment> ...` would print to stdout.
//!
//! Three layers of caching compose:
//!
//! 1. the on-disk [`ArtifactCache`] (PR 5) warms cold *preparation*
//!    across processes;
//! 2. the resident bench pool keeps *prepared* benchmarks hot within the
//!    server's lifetime;
//! 3. the result cache keeps *rendered* outputs hot, with hit/miss/evict
//!    counters reported by the `stats` command.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::cache::ArtifactCache;
use crate::pool::Pool;
use crate::proto::{Command, Envelope, Request, Response};
use crate::registry::{self, BenchSource, Output};
use crate::Bench;
use multiscalar_isa::Fingerprint;
use multiscalar_workloads::{Spec92, WorkloadParams};

/// One benchmark spec paired with its replay-artifact cache key.
type BenchKeys = Vec<(Spec92, Fingerprint)>;

/// Everything `harness serve` is configured with. These are process-level
/// resources (where the server runs), deliberately outside [`Request`]
/// (what a client computes): two clients of one server share one pool,
/// one artifact store and one result cache.
pub struct ServeConfig {
    /// The job pool experiments fan out on (and batches fan out on).
    pub pool: Pool,
    /// The resolved artifact-cache directory.
    pub cache_dir: PathBuf,
    /// Disable the on-disk artifact cache (preparation still memoises in
    /// memory; only cross-process warming is lost).
    pub no_cache: bool,
    /// Byte cap for the in-memory result cache; least-recently-used
    /// entries are evicted past it.
    pub result_max_bytes: u64,
    /// Serve on this Unix socket instead of stdio.
    pub socket: Option<PathBuf>,
}

/// Default result-cache cap: plenty for every registry entry at several
/// parameter points, small enough to never matter on a laptop.
pub const DEFAULT_RESULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// One memoised rendered result.
struct CachedResult {
    output: Output,
    bytes: u64,
    last_used: u64,
}

/// The byte-capped LRU result cache plus its counters. Recency is a
/// monotonic tick bumped on every lookup — cheap, deterministic, and
/// immune to wall-clock weirdness.
struct ResultCache {
    entries: HashMap<Fingerprint, CachedResult>,
    total_bytes: u64,
    max_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    fn new(max_bytes: u64) -> ResultCache {
        ResultCache {
            entries: HashMap::new(),
            total_bytes: 0,
            max_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A hit clones the memoised output (bodies are the dominant cost and
    /// clients consume them immediately; sharing `Arc<str>` would buy
    /// nothing measurable at this cache's size).
    fn get(&mut self, key: Fingerprint) -> Option<Output> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(e.output.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: Fingerprint, output: &Output) {
        let bytes = result_bytes(output);
        self.tick += 1;
        let prev = self.entries.insert(
            key,
            CachedResult {
                output: output.clone(),
                bytes,
                last_used: self.tick,
            },
        );
        self.total_bytes += bytes;
        if let Some(p) = prev {
            self.total_bytes -= p.bytes;
        }
        // Evict LRU-first until under the cap. An oversized output evicts
        // everything including itself — the counters then show the churn
        // instead of the cache silently lying about residency.
        while self.total_bytes > self.max_bytes {
            let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let e = self.entries.remove(&lru).expect("present");
            self.total_bytes -= e.bytes;
            self.evictions += 1;
        }
    }
}

/// What one cached result costs the cap: its rendered bytes plus a small
/// per-entry overhead so a flood of tiny entries still hits the cap.
fn result_bytes(output: &Output) -> u64 {
    let files: usize = output
        .files
        .iter()
        .map(|(name, content)| name.len() + content.len())
        .sum();
    (output.body.len() + files + 64) as u64
}

/// The resident server: one instance serves every connection.
pub struct Server {
    pool: Pool,
    store: Option<ArtifactCache>,
    cache_dir: PathBuf,
    /// Prepared benchmarks, keyed by their replay-artifact key (which
    /// folds spec + workload parameters, so every parameter point gets
    /// its own residency).
    benches: Mutex<HashMap<Fingerprint, Bench>>,
    /// Benchmark cache keys per parameter point. [`cache::key_for`]
    /// rebuilds the workload to fingerprint it, so the five keys are
    /// computed once per (seed, scale) rather than once per request.
    bench_keys: Mutex<HashMap<(u64, u32), BenchKeys>>,
    results: Mutex<ResultCache>,
    requests: AtomicU64,
    shutdown: AtomicBool,
}

impl Server {
    /// A fresh server with empty caches.
    pub fn new(config: &ServeConfig) -> Server {
        let store = if config.no_cache {
            None
        } else {
            Some(ArtifactCache::new(config.cache_dir.clone()))
        };
        Server {
            pool: config.pool,
            store,
            cache_dir: config.cache_dir.clone(),
            benches: Mutex::new(HashMap::new()),
            bench_keys: Mutex::new(HashMap::new()),
            results: Mutex::new(ResultCache::new(config.result_max_bytes)),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The benchmark cache keys at `params`, memoised per (seed, scale).
    fn keys_for(&self, params: &WorkloadParams) -> BenchKeys {
        let mut memo = lock(&self.bench_keys);
        memo.entry((params.seed, params.scale))
            .or_insert_with(|| registry::bench_keys(params))
            .clone()
    }

    /// Runs one request through the shared dispatch path, memoising the
    /// rendered output when the experiment declares itself cache-safe.
    pub fn run_request(&self, id: Option<i128>, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let exp = registry::find(&req.experiment);
        // `fuzz --repro` reads a file the request doesn't fingerprint, so
        // repro runs are never memoised even though fuzz itself is pure.
        let memoise = exp.is_some_and(|e| e.cache_safe) && req.opts.repro.is_none();
        let key = memoise.then(|| {
            let keys = self.keys_for(&req.params);
            registry::result_key(exp.expect("found"), req, &keys)
        });
        if let Some(key) = key {
            if let Some(output) = lock(&self.results).get(key) {
                return ok_response(id, true, &output);
            }
        }
        let res = registry::Resources {
            pool: &self.pool,
            store: self.store.as_ref(),
            cache_dir: self.cache_dir.clone(),
            source: Some(self),
        };
        match registry::dispatch(req, &res) {
            Ok(output) => {
                if let Some(key) = key {
                    lock(&self.results).insert(key, &output);
                }
                ok_response(id, false, &output)
            }
            Err(error) => Response::Error { id, error },
        }
    }

    /// Executes one parsed command. The bool asks the serving loop to stop
    /// after writing the response.
    pub fn handle(&self, env: &Envelope) -> (Response, bool) {
        match &env.cmd {
            Command::Run(req) => (self.run_request(env.id, req), false),
            Command::Batch(reqs) => {
                // Fan the batch out on the server's own pool; `Pool::run`
                // returns results in job order, so responses line up with
                // requests no matter how execution interleaves.
                let responses = self.pool.run(
                    reqs.iter()
                        .map(|r| move || self.run_request(None, r))
                        .collect(),
                );
                (
                    Response::Batch {
                        id: env.id,
                        responses,
                    },
                    false,
                )
            }
            Command::Stats => (
                Response::Stats {
                    id: env.id,
                    stats: self.stats(),
                },
                false,
            ),
            Command::Ping => (
                Response::Ok {
                    id: env.id,
                    cached: false,
                    exit_ok: true,
                    files: Vec::new(),
                    body: "pong\n".to_string(),
                },
                false,
            ),
            Command::Shutdown => (
                Response::Ok {
                    id: env.id,
                    cached: false,
                    exit_ok: true,
                    files: Vec::new(),
                    body: "shutting down\n".to_string(),
                },
                true,
            ),
        }
    }

    /// One request line in, one response line out (no trailing newline).
    /// Parse errors come back as `Response::Error` with a `null` id.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match crate::proto::parse_line(line) {
            Ok(env) => {
                let (resp, stop) = self.handle(&env);
                (resp.to_json(), stop)
            }
            Err(error) => (
                Response::Error {
                    id: crate::proto::salvage_id(line),
                    error,
                }
                .to_json(),
                false,
            ),
        }
    }

    /// Server counters, in a pinned order (golden tests mask the values,
    /// not the keys).
    pub fn stats(&self) -> Vec<(String, u64)> {
        let mut stats = Vec::new();
        let mut push = |k: &str, v: u64| stats.push((k.to_string(), v));
        push("requests", self.requests.load(Ordering::Relaxed));
        {
            let rc = lock(&self.results);
            push("result_hits", rc.hits);
            push("result_misses", rc.misses);
            push("result_evictions", rc.evictions);
            push("result_entries", rc.entries.len() as u64);
            push("result_bytes", rc.total_bytes);
            push("result_max_bytes", rc.max_bytes);
        }
        push("bench_resident", lock(&self.benches).len() as u64);
        if let Some(store) = &self.store {
            let s = store.stats();
            push("store_hits", s.hits);
            push("store_misses", s.misses);
            push("store_stores", s.stores);
            push("store_evictions", s.evictions);
        }
        stats
    }

    /// Serves one line-delimited connection: requests from `input`,
    /// responses to `output` (flushed per line so a blocked reader never
    /// stalls behind buffering). Returns `true` if a shutdown command
    /// asked the whole server to stop.
    ///
    /// Lines are read into one reused buffer of at most
    /// [`MAX_LINE_BYTES`]. A longer line, or one that is not UTF-8, gets
    /// one error response (with the client's id when it can be salvaged)
    /// and the rest of it is discarded; the connection keeps serving.
    pub fn serve_connection<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> bool {
        let mut buf = Vec::new();
        while let Ok(Some(fits)) = read_capped_line(&mut input, &mut buf) {
            let (resp, stop) = if !fits {
                let error = format!("request line longer than {MAX_LINE_BYTES} bytes");
                (Response::Error { id: None, error }.to_json(), false)
            } else {
                match std::str::from_utf8(&buf) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => self.handle_line(line),
                    Err(_) => {
                        let id = crate::proto::salvage_id(&String::from_utf8_lossy(&buf));
                        let error = "request line is not UTF-8".to_string();
                        (Response::Error { id, error }.to_json(), false)
                    }
                }
            };
            if writeln!(output, "{resp}").is_err() {
                break;
            }
            let _ = output.flush();
            if stop {
                self.shutdown.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }
}

/// The longest request line a connection reads, its newline excluded: far
/// above any `batch` line, and the most one line can make a connection
/// hold.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads one line of `input` into `buf` without its `\n` or `\r\n`,
/// keeping at most [`MAX_LINE_BYTES`] of it: `Some(true)` when the line
/// fits, `Some(false)` when it was longer (the rest is read and
/// discarded), `None` at the end of the input.
fn read_capped_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    // One byte past the cap may be the `\r` of a `\r\n`, which the cap
    // excludes as it excludes the `\n`.
    const HELD: usize = MAX_LINE_BYTES + 1;
    buf.clear();
    let (mut fits, mut read) = (true, false);
    loop {
        let piece = match input.fill_buf() {
            Ok(piece) => piece,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if piece.is_empty() {
            break;
        }
        read = true;
        let (take, newline) = match piece.iter().position(|&b| b == b'\n') {
            Some(at) => (at, true),
            None => (piece.len(), false),
        };
        if fits && buf.len() + take <= HELD {
            buf.extend_from_slice(&piece[..take]);
        } else {
            fits = false;
            buf.clear();
        }
        input.consume(take + newline as usize);
        if newline {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            break;
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        fits = false;
        buf.clear();
    }
    Ok(read.then_some(fits))
}

/// The server's resident bench pool, substituted into [`registry::dispatch`]
/// in place of per-invocation preparation: missing benchmarks are prepared
/// once (warming from the artifact cache when one is attached) and every
/// later request clones the resident, `Arc`-shared preparation.
impl BenchSource for Server {
    fn benches(
        &self,
        specs: &[Spec92],
        params: &WorkloadParams,
        pool: &Pool,
        cache: Option<&ArtifactCache>,
    ) -> Vec<Bench> {
        let keys = self.keys_for(params);
        let key_of = |spec: Spec92| {
            keys.iter()
                .find(|(s, _)| *s == spec)
                .map(|(_, k)| *k)
                .expect("key for every spec")
        };
        // Holding the lock across preparation serialises concurrent
        // warm-ups of the same parameter point — exactly the "prepare
        // once" the server exists for. Distinct connections pay at most
        // one preparation per benchmark per parameter point.
        let mut resident = lock(&self.benches);
        let missing: Vec<Spec92> = specs
            .iter()
            .copied()
            .filter(|&s| !resident.contains_key(&key_of(s)))
            .collect();
        if !missing.is_empty() {
            for bench in crate::prepare_set_cached(&missing, params, pool, cache) {
                resident.insert(bench.key, bench);
            }
        }
        specs
            .iter()
            .map(|&s| resident.get(&key_of(s)).expect("prepared").clone())
            .collect()
    }
}

/// Locks one of the server's maps, poisoned or not. A panic in an
/// experiment or a preparation poisons the lock it runs under, but each
/// map is written only after the call that can panic returns, so its data
/// is whole, and one panic must not fail every later request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ok_response(id: Option<i128>, cached: bool, output: &Output) -> Response {
    Response::Ok {
        id,
        cached,
        exit_ok: output.ok,
        files: output.files.iter().map(|(name, _)| name.clone()).collect(),
        body: output.body.clone(),
    }
}

/// Runs the server on stdio: one client, requests on stdin, responses on
/// stdout, diagnostics on stderr. Returns when stdin closes or a shutdown
/// command arrives.
pub fn serve_stdio(config: &ServeConfig) {
    let server = Server::new(config);
    eprintln!(
        "serve: ready on stdio ({} threads, result cache {} bytes, artifacts {})",
        config.pool.threads(),
        config.result_max_bytes,
        if config.no_cache {
            "disabled".to_string()
        } else {
            config.cache_dir.display().to_string()
        }
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    server.serve_connection(stdin.lock(), stdout.lock());
}

/// Runs the server on a Unix socket, one thread per connection sharing the
/// one resident [`Server`]. A shutdown command from any connection stops
/// the accept loop. A failed accept is logged and retried, and finished
/// connections' threads are reaped as new ones start.
#[cfg(unix)]
pub fn serve_unix(config: &ServeConfig, path: &std::path::Path) -> Result<(), String> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::Arc;

    // A stale socket file from a dead server would make bind fail; a live
    // server holding it would race us anyway, so removal is safe.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| format!("could not bind {}: {e}", path.display()))?;
    let server = Arc::new(Server::new(config));
    eprintln!(
        "serve: ready on {} ({} threads, result cache {} bytes)",
        path.display(),
        config.pool.threads(),
        config.result_max_bytes
    );
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut failing = false;
    for stream in listener.incoming() {
        if server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // A failed accept (out of descriptors, say) is logged once per run
        // of failures; open connections may free what it needs.
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                if !std::mem::replace(&mut failing, true) {
                    eprintln!("serve: accept failed ({e}); retrying");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        failing = false;
        // A finished connection's thread keeps its stack until its handle
        // is dropped.
        workers.retain(|w| !w.is_finished());
        let server = Arc::clone(&server);
        let path = path.to_path_buf();
        workers.push(std::thread::spawn(move || {
            let reader = std::io::BufReader::new(&stream);
            if server.serve_connection(reader, &stream) {
                // Wake the accept loop so it observes the shutdown flag.
                let _ = UnixStream::connect(&path);
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// `harness serve` entry point: Unix socket when `--socket` is given,
/// stdio otherwise.
pub fn serve_main(config: &ServeConfig) -> Result<(), String> {
    match &config.socket {
        #[cfg(unix)]
        Some(path) => serve_unix(config, path),
        #[cfg(not(unix))]
        Some(_) => Err("--socket requires a Unix platform".to_string()),
        None => {
            serve_stdio(config);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(dir: &std::path::Path, max_bytes: u64) -> ServeConfig {
        ServeConfig {
            pool: Pool::new(2),
            cache_dir: dir.join("cache"),
            no_cache: false,
            result_max_bytes: max_bytes,
            socket: None,
        }
    }

    #[test]
    fn lru_evicts_oldest_first_and_counts() {
        let mut rc = ResultCache::new(400);
        let out = |body: &str| Output::text(body.to_string());
        let k = |n: u64| {
            use std::hash::Hash as _;
            let mut h = multiscalar_isa::FingerprintHasher::new();
            n.hash(&mut h);
            h.finish128()
        };
        rc.insert(k(1), &out(&"a".repeat(100)));
        rc.insert(k(2), &out(&"b".repeat(100)));
        assert!(rc.get(k(1)).is_some()); // k1 now more recent than k2
        rc.insert(k(3), &out(&"c".repeat(100)));
        assert_eq!(rc.evictions, 1);
        assert!(rc.get(k(2)).is_none(), "k2 was LRU and must be gone");
        assert!(rc.get(k(1)).is_some());
        assert!(rc.get(k(3)).is_some());
        assert_eq!(rc.hits, 3);
        assert_eq!(rc.misses, 1);
    }

    #[test]
    fn oversized_entry_does_not_wedge_the_cache() {
        let mut rc = ResultCache::new(50);
        let mut h = multiscalar_isa::FingerprintHasher::new();
        use std::hash::Hash as _;
        1u64.hash(&mut h);
        rc.insert(h.finish128(), &Output::text("x".repeat(1000)));
        assert_eq!(rc.entries.len(), 0);
        assert_eq!(rc.total_bytes, 0);
        assert_eq!(rc.evictions, 1);
    }

    #[test]
    fn a_poisoned_lock_does_not_take_the_server_down() {
        let dir = std::env::temp_dir().join("serve-unit-poison");
        let mut config = test_config(&dir, 1 << 20);
        config.no_cache = true;
        let server = Server::new(&config);
        std::thread::scope(|s| {
            let benches = s.spawn(|| {
                let _held = server.benches.lock();
                panic!("a panic while the bench pool is locked");
            });
            let results = s.spawn(|| {
                let _held = server.results.lock();
                panic!("a panic while the result cache is locked");
            });
            assert!(benches.join().is_err() && results.join().is_err());
        });
        assert!(server.benches.is_poisoned() && server.results.is_poisoned());
        let (resp, _) = server.handle_line(r#"{"id":1,"cmd":"stats"}"#);
        assert!(resp.starts_with(r#"{"id":1,"ok":true"#), "{resp}");
        let (resp, _) =
            server.handle_line(r#"{"id":2,"experiment":"table2","bench":"xlisp","scale":1}"#);
        assert!(resp.starts_with(r#"{"id":2,"ok":true"#), "{resp}");
    }

    #[test]
    fn ping_and_errors_respond_without_touching_experiments() {
        let dir = std::env::temp_dir().join("serve-unit-ping");
        let server = Server::new(&test_config(&dir, 1024));
        let (resp, stop) = server.handle_line(r#"{"id":7,"cmd":"ping"}"#);
        assert_eq!(
            resp,
            r#"{"id":7,"ok":true,"cached":false,"exit":0,"files":[],"body":"pong\n"}"#
        );
        assert!(!stop);
        let (resp, _) = server.handle_line(r#"{"experiment":"nope"}"#);
        assert_eq!(
            resp,
            r#"{"id":null,"ok":false,"error":"unknown experiment `nope`"}"#
        );
        let (resp, _) = server.handle_line("not json");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        let (_, stop) = server.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(stop);
    }
}
