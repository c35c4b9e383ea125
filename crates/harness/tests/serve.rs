//! Integration tests for `harness serve`: protocol shape (golden),
//! counter-verified byte-identical memoisation, the requests it never
//! memoises, concurrent-client independence, preparing each benchmark
//! once, batch ordering and LRU eviction.

use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::{CacheAction, Request, Response};
use multiscalar_harness::registry;
use multiscalar_harness::serve::{self, ServeConfig, Server};
use std::sync::atomic::{AtomicU64, Ordering};

/// Masks every standalone run of digits with `#` (same rule as the lint
/// golden: digits inside letter-prefixed identifiers are kept).
fn mask_numbers(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ident = false;
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_digit() && !in_ident {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            out.push('#');
        } else {
            in_ident = c.is_ascii_alphabetic() || (in_ident && c.is_ascii_digit());
            out.push(c);
        }
    }
    out
}

/// A per-test scratch directory (unique per process + call).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "harness-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str, max_bytes: u64) -> ServeConfig {
    ServeConfig {
        pool: Pool::new(2),
        cache_dir: scratch_dir(tag),
        no_cache: false,
        result_max_bytes: max_bytes,
        socket: None,
    }
}

/// A scale-1 request for `experiment` (small enough for tests, large
/// enough to exercise real preparation).
fn req(experiment: &str) -> Request {
    let mut r = Request::new(experiment);
    r.params.scale = 1;
    r
}

fn stat(server: &Server, key: &str) -> u64 {
    server
        .stats()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("stats has no `{key}` counter"))
}

/// The protocol's response shapes are pinned against a golden file:
/// envelope echo, salvaged ids on malformed requests, error texts, the
/// stats key set and order. None of these lines prepares a benchmark, so
/// the golden stays fast and parameter-independent.
#[test]
fn protocol_shapes_match_golden() {
    let server = Server::new(&config("golden", serve::DEFAULT_RESULT_MAX_BYTES));
    let lines = [
        r#"{"id":1,"cmd":"ping"}"#,
        r#"{"id":2,"cmd":"stats"}"#,
        r#"{"id":3,"experiment":"nope"}"#,
        r#"{"id":4,"experiment":"table4","format":"yaml"}"#,
        r#"{"id":5,"experiment":"ext-hybrid","format":"csv"}"#,
        r#"{"id":6,"experiment":"table2","bogus":1}"#,
        r#"{"cmd":"batch","requests":[{"experiment":"nope"},{"experiment":"also-nope"}]}"#,
        r#"not json"#,
        r#"{"id":9,"cmd":"shutdown"}"#,
    ];
    let mut out = String::new();
    let mut stopped = false;
    for line in lines {
        assert!(!stopped, "shutdown must be the last line");
        let (resp, stop) = server.handle_line(line);
        out.push_str(&resp);
        out.push('\n');
        stopped = stop;
    }
    assert!(stopped, "shutdown line must stop the server");
    assert_eq!(
        mask_numbers(&out),
        include_str!("golden/serve_proto.txt"),
        "serve protocol drifted; update tests/golden/serve_proto.txt \
         if the change is deliberate"
    );
}

/// The tentpole property: a repeated identical request is served from the
/// in-memory result cache — counter-verified, byte-identical, and equal
/// to what the CLI's own dispatch path produces for the same request.
#[test]
fn repeated_request_is_a_counted_byte_identical_cache_hit() {
    let cfg = config("memo", serve::DEFAULT_RESULT_MAX_BYTES);
    let server = Server::new(&cfg);
    let request = req("table2");

    let first = server.run_request(Some(1), &request);
    let Response::Ok {
        cached: false,
        body: cold_body,
        exit_ok: true,
        ..
    } = first
    else {
        panic!("cold run must be an uncached Ok: {first:?}");
    };
    assert_eq!(stat(&server, "result_misses"), 1);
    assert_eq!(stat(&server, "result_hits"), 0);

    let second = server.run_request(Some(2), &request);
    let Response::Ok {
        cached: true,
        body: warm_body,
        ..
    } = second
    else {
        panic!("repeat must be a cached Ok: {second:?}");
    };
    assert_eq!(stat(&server, "result_hits"), 1);
    assert_eq!(stat(&server, "result_misses"), 1);
    assert_eq!(cold_body, warm_body, "cache hit must be byte-identical");

    // The memoised body is exactly what the CLI path renders for the
    // same request — the server adds residency, never behavior.
    let pool = Pool::new(2);
    let resources = registry::Resources {
        pool: &pool,
        store: None,
        cache_dir: cfg.cache_dir.clone(),
        source: None,
    };
    let cli = registry::dispatch(&request, &resources).expect("table2 runs");
    assert_eq!(
        cli.body, cold_body,
        "serve and CLI must render the same bytes"
    );

    // Preparation happened once: the second request never touched a
    // benchmark (five SPEC92 analogs resident, no more).
    assert_eq!(stat(&server, "bench_resident"), 5);
}

/// `stats` counts the resident recordings' bytes as their artifacts do
/// (`InstrReplay::held_bytes`): without a store, the five recordings a
/// scale-1 `table2` prepares hold their whole artifacts, and so do fresh
/// recordings a cold store has just written; loaded from a warm store,
/// they hold all but their instruction sections, which stay on disk.
#[test]
fn bench_bytes_counts_what_the_resident_recordings_hold() {
    use multiscalar_workloads::Spec92;
    let request = req("table2");
    let benches =
        multiscalar_harness::prepare_set_cached(&Spec92::ALL, &request.params, &Pool::new(2), None);
    let artifacts: Vec<Vec<u8>> = benches
        .iter()
        .map(|b| multiscalar_sim::encode_replay(&b.replay, b.key))
        .collect();
    let whole: u64 = artifacts.iter().map(|a| a.len() as u64).sum();
    // The header's section length (see `multiscalar_sim::codec`).
    let sections: u64 = artifacts
        .iter()
        .map(|a| u64::from_le_bytes(a[96..104].try_into().unwrap()))
        .sum();
    assert!(sections > 0 && sections < whole);
    let run = |server: &Server| match server.run_request(Some(1), &request) {
        Response::Ok { exit_ok: true, .. } => {}
        other => panic!("table2 failed: {other:?}"),
    };

    let mut uncached = config("bench-bytes", serve::DEFAULT_RESULT_MAX_BYTES);
    uncached.no_cache = true;
    let server = Server::new(&uncached);
    run(&server);
    assert_eq!(stat(&server, "bench_resident"), 5);
    assert_eq!(stat(&server, "bench_bytes"), whole, "--no-cache");

    let cfg = config("bench-bytes-store", serve::DEFAULT_RESULT_MAX_BYTES);
    let cold = Server::new(&cfg);
    run(&cold);
    assert_eq!(stat(&cold, "store_stores"), 5);
    assert_eq!(stat(&cold, "bench_bytes"), whole, "fresh recordings");
    let warm = Server::new(&cfg);
    run(&warm);
    assert_eq!(stat(&warm, "store_hits"), 5);
    assert_eq!(stat(&warm, "bench_bytes"), whole - sections, "loaded");
    let _ = std::fs::remove_dir_all(&cfg.cache_dir);
}

/// `asm`/`disasm` are first-class tool experiments behind the same
/// [`registry::dispatch`] path the server and CLI share. Their rendered
/// bodies — counts, canonical disassembly, rustc-style and JSON error
/// rendering — are pinned against a golden file over committed fixtures.
/// And because a request that reads the disk — a source file, a fuzz
/// reproducer, the cache directory — can print other bytes once the disk
/// changes, the server must never memoise one: an identical repeat
/// request is counter-verified to re-run.
#[test]
fn masm_tool_dispatch_matches_golden_and_disk_reads_are_never_memoised() {
    let pool = Pool::new(2);
    let resources = registry::Resources {
        pool: &pool,
        store: None,
        cache_dir: scratch_dir("masm-golden"),
        source: None,
    };
    let cases = [
        ("asm", "tests/fixtures/demo.masm", false),
        ("disasm", "tests/fixtures/demo.masm", false),
        ("asm", "tests/fixtures/broken.masm", false),
        ("asm", "tests/fixtures/broken.masm", true),
    ];
    let mut out = String::new();
    for (tool, file, json) in cases {
        let mut r = req(tool);
        r.opts.file = Some(file.to_string());
        if json {
            r.format = multiscalar_harness::proto::OutputFormat::Json;
        }
        let fmt = if json { "json" } else { "text" };
        let output = registry::dispatch(&r, &resources).expect("masm tools dispatch");
        out.push_str(&format!("== {tool} {file} ({fmt}) ok={}\n", output.ok));
        out.push_str(&output.body);
        if !output.body.ends_with('\n') {
            out.push('\n');
        }
    }
    let golden = include_str!("golden/masm_tools.txt");
    if out != golden {
        let dump = std::env::temp_dir().join("masm_tools_actual.txt");
        std::fs::write(&dump, &out).unwrap();
        panic!(
            "masm tool output drifted; actual written to {} — copy it over \
             tests/golden/masm_tools.txt if the change is deliberate",
            dump.display()
        );
    }

    let cfg = config("masm-memo", serve::DEFAULT_RESULT_MAX_BYTES);
    std::fs::create_dir_all(&cfg.cache_dir).unwrap();
    let repro = cfg.cache_dir.join("repro.txt");
    std::fs::write(&repro, "seed=1\n").unwrap();
    let server = Server::new(&cfg);
    let mut disasm = req("disasm");
    disasm.opts.file = Some("tests/fixtures/demo.masm".to_string());
    let mut fuzz = req("fuzz");
    fuzz.opts.repro = Some(repro.display().to_string());
    let mut stats = req("cache");
    stats.opts.cache_action = Some(CacheAction::Stats);
    for r in [&disasm, &fuzz, &stats] {
        for id in 0..2 {
            match server.run_request(Some(id), r) {
                Response::Ok { cached, .. } => {
                    assert!(!cached, "`{}` must never be memoised", r.experiment)
                }
                other => panic!("`{}` run failed: {other:?}", r.experiment),
            }
        }
    }
    assert_eq!(stat(&server, "result_hits"), 0);
    assert_eq!(stat(&server, "result_misses"), 0);
    // A usage error names no file, so it goes through the memo and counts
    // one miss, like every other failing request for a known experiment.
    let usage = server.run_request(Some(9), &req("asm"));
    assert!(matches!(usage, Response::Error { .. }), "{usage:?}");
    assert_eq!(stat(&server, "result_misses"), 1);
    let _ = std::fs::remove_dir_all(&cfg.cache_dir);
}

/// `lint FILE` reads its file on every request: a file edited between two
/// identical requests is linted again, and the second answer reports the
/// edit rather than replaying the first.
#[test]
fn an_edited_lint_file_is_linted_again() {
    let cfg = config("lint-edit", serve::DEFAULT_RESULT_MAX_BYTES);
    std::fs::create_dir_all(&cfg.cache_dir).unwrap();
    let path = cfg.cache_dir.join("edited.masm");
    std::fs::copy("tests/fixtures/demo.masm", &path).unwrap();
    let server = Server::new(&cfg);
    let mut r = req("lint");
    r.opts.file = Some(path.display().to_string());
    let first = server.run_request(Some(1), &r);
    assert!(
        matches!(
            first,
            Response::Ok {
                cached: false,
                exit_ok: true,
                ..
            }
        ),
        "the clean file lints clean: {first:?}"
    );
    std::fs::write(&path, "func! main\n  frobnicate r1\n  halt\nend\n").unwrap();
    match server.run_request(Some(2), &r) {
        Response::Ok {
            cached,
            exit_ok,
            body,
            ..
        } => {
            assert!(!cached, "an edited file must be linted again");
            assert!(!exit_ok, "the edit fails lint");
            assert!(body.contains("E102"), "{body}");
        }
        other => panic!("lint run failed: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&cfg.cache_dir);
}

/// Every tool that reads a file a request names reads at most
/// `MAX_INPUT_BYTES` of it: a file one byte longer, and on unix
/// `/dev/zero`, is refused by each of them with one error that names the
/// limit.
#[test]
fn a_file_over_the_input_cap_is_refused_by_every_reader() {
    use multiscalar_harness::MAX_INPUT_BYTES;
    let dir = scratch_dir("input-cap");
    std::fs::create_dir_all(&dir).unwrap();
    let long = dir.join("long.masm");
    std::fs::write(&long, vec![b';'; MAX_INPUT_BYTES as usize + 1]).unwrap();
    let mut paths = vec![long.display().to_string()];
    if cfg!(unix) {
        paths.push("/dev/zero".to_string());
    }
    let pool = Pool::new(1);
    let resources = registry::Resources {
        pool: &pool,
        store: None,
        cache_dir: dir.join("cache"),
        source: None,
    };
    for path in &paths {
        let refused = format!("{path} is longer than the limit of {MAX_INPUT_BYTES} bytes");
        for tool in ["lint", "asm", "disasm", "fuzz"] {
            let mut r = req(tool);
            if tool == "fuzz" {
                r.opts.repro = Some(path.clone());
            } else {
                r.opts.file = Some(path.clone());
            }
            let got = registry::dispatch(&r, &resources).err();
            assert_eq!(got.as_deref(), Some(refused.as_str()), "{tool} {path}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent clients interleave without affecting each other: every
/// response is byte-identical to the serial reference, whatever the
/// thread schedule.
#[test]
fn concurrent_clients_get_independent_byte_identical_responses() {
    let server = Server::new(&config("conc", serve::DEFAULT_RESULT_MAX_BYTES));
    let names = ["fig3", "table2", "fig3"];

    // Serial reference bodies, computed through the same server (the
    // first run warms the caches; determinism is what's under test).
    let reference: Vec<String> = names
        .iter()
        .map(|n| match server.run_request(None, &req(n)) {
            Response::Ok { body, .. } => body,
            other => panic!("reference run failed: {other:?}"),
        })
        .collect();

    let results: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    names
                        .iter()
                        .map(|n| match server.run_request(None, &req(n)) {
                            Response::Ok { body, .. } => body,
                            other => panic!("concurrent run failed: {other:?}"),
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for bodies in &results {
        assert_eq!(
            bodies, &reference,
            "a concurrent client saw different bytes than the serial reference"
        );
    }
}

/// Four clients send the same cold request to a fresh server at once:
/// each benchmark is prepared once, outside the pool's lock, however many
/// requests wait on it.
#[test]
fn concurrent_cold_requests_prepare_each_benchmark_once() {
    let server = Server::new(&config("cold-race", serve::DEFAULT_RESULT_MAX_BYTES));
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for id in 0..4 {
            let (server, start) = (&server, &start);
            scope.spawn(move || {
                start.wait();
                match server.run_request(Some(id), &req("table2")) {
                    Response::Ok { exit_ok: true, .. } => {}
                    other => panic!("table2 failed: {other:?}"),
                }
            });
        }
    });
    for key in ["store_misses", "store_stores", "bench_resident"] {
        assert_eq!(stat(&server, key), 5, "{key}");
    }
}

/// Batch responses come back in request order regardless of execution
/// interleaving on the pool.
#[test]
fn batch_responses_preserve_request_order() {
    let server = Server::new(&config("batch", serve::DEFAULT_RESULT_MAX_BYTES));
    let (resp, stop) = server.handle_line(
        r#"{"id":11,"cmd":"batch","requests":[{"experiment":"fig3","scale":1},{"experiment":"table2","scale":1}]}"#,
    );
    assert!(!stop);
    let fig3_at = resp.find("Figure 3").expect("fig3 body present");
    let table2_at = resp.find("Table 2").expect("table2 body present");
    assert!(
        fig3_at < table2_at,
        "batch responses out of request order: {resp}"
    );
}

/// A byte cap smaller than one rendered result forces the LRU path:
/// inserts evict, nothing stays resident, and the eviction counter says
/// so.
#[test]
fn tiny_result_cap_evicts_and_never_serves_hits() {
    let server = Server::new(&config("evict", 256));
    let request = req("table2");
    for id in 0..2 {
        match server.run_request(Some(id), &request) {
            Response::Ok { cached, .. } => {
                assert!(!cached, "nothing can be cached under a 256-byte cap")
            }
            other => panic!("run failed: {other:?}"),
        }
    }
    assert_eq!(stat(&server, "result_hits"), 0);
    assert_eq!(stat(&server, "result_misses"), 2);
    assert!(stat(&server, "result_evictions") >= 1);
    assert_eq!(stat(&server, "result_entries"), 0);
    assert_eq!(stat(&server, "result_bytes"), 0);
}

/// Feeds `input` to one connection of a fresh server; returns its
/// response lines and the server.
fn converse(tag: &str, input: impl std::io::BufRead) -> (Vec<String>, Server) {
    let server = Server::new(&config(tag, serve::DEFAULT_RESULT_MAX_BYTES));
    let mut out = Vec::new();
    assert!(!server.serve_connection(input, &mut out), "no shutdown");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    (text.lines().map(str::to_string).collect(), server)
}

/// A line longer than the reader's cap gets one error response without
/// an id (the line is not held, so nothing can be salvaged), and the
/// connection goes on to answer the next line. The cap excludes the line
/// ending: a line of exactly the cap is served whether it ends in `\n` or
/// `\r\n`, also when the `\r` and the `\n` arrive in separate reads, and
/// one byte more is refused.
#[test]
fn an_overlong_line_is_answered_and_the_connection_keeps_serving() {
    let mut input = vec![b'x'; 2 << 20];
    input.extend_from_slice(b"\n{\"id\":7,\"cmd\":\"ping\"}\n");
    let (lines, server) = converse("long-line", &input[..]);
    let (pong, _) = server.handle_line(r#"{"id":7,"cmd":"ping"}"#);
    let too_long = format!(
        r#"{{"id":null,"ok":false,"error":"request line longer than {} bytes"}}"#,
        serve::MAX_LINE_BYTES
    );
    assert_eq!(lines, [too_long.clone(), pong.clone()]);

    // A ping padded with spaces to exactly the cap, then one byte longer.
    let mut at_cap = br#"{"id":8,"cmd":"ping"}"#.to_vec();
    at_cap.resize(serve::MAX_LINE_BYTES, b' ');
    let (pong8, _) = server.handle_line(std::str::from_utf8(&at_cap).unwrap());
    assert!(pong8.starts_with(r#"{"id":8,"ok":true"#), "{pong8}");
    for ending in [&b"\n"[..], b"\r\n"] {
        let mut input = at_cap.clone();
        input.extend_from_slice(ending);
        input.push(b' ');
        input.extend_from_slice(&at_cap);
        input.extend_from_slice(ending);
        input.extend_from_slice(b"{\"id\":7,\"cmd\":\"ping\"}\n");
        let expected = [pong8.clone(), too_long.clone(), pong.clone()];
        assert_eq!(converse("cap-line", &input[..]).0, expected);
        // Reads of one byte past the cap split a `\r\n` at the cap.
        let split = std::io::BufReader::with_capacity(serve::MAX_LINE_BYTES + 1, &input[..]);
        assert_eq!(converse("cap-line-split", split).0, expected);
    }
}

/// A line that is not UTF-8 gets one error response with the id salvaged
/// from it, and the connection goes on to answer the next line.
#[test]
fn a_non_utf8_line_is_answered_and_the_connection_keeps_serving() {
    let input = b"{\"id\":3,\"experiment\":\"\xff\xfe\"}\r\n{\"id\":7,\"cmd\":\"ping\"}\n";
    let (lines, server) = converse("utf8", &input[..]);
    let (pong, _) = server.handle_line(r#"{"id":7,"cmd":"ping"}"#);
    assert_eq!(
        lines,
        [
            r#"{"id":3,"ok":false,"error":"request line is not UTF-8"}"#.to_string(),
            pong
        ]
    );
}

/// A line nested far deeper than the protocol's three levels gets one
/// error response naming the byte where the nesting went too deep, and
/// the connection goes on to answer the next line.
#[test]
fn a_deeply_nested_line_is_answered_and_the_connection_keeps_serving() {
    use multiscalar_harness::proto::MAX_JSON_DEPTH;
    let mut input = "[".repeat(100_000);
    input.push_str("\n{\"id\":7,\"cmd\":\"ping\"}\n");
    let (lines, server) = converse("deep", input.as_bytes());
    let (pong, _) = server.handle_line(r#"{"id":7,"cmd":"ping"}"#);
    let too_deep = format!(
        r#"{{"id":null,"ok":false,"error":"nesting deeper than {MAX_JSON_DEPTH} levels at byte {MAX_JSON_DEPTH}"}}"#
    );
    assert_eq!(lines, [too_deep, pong]);
}

/// Hostile fuzz reproducers: each shape value outside its documented
/// range gets one error response that names the key, before any program
/// is generated (a zero function count would panic the generator, a huge
/// memop count would run for minutes), and the connection keeps serving.
#[test]
fn out_of_range_fuzz_repros_are_refused_and_the_connection_keeps_serving() {
    let dir = scratch_dir("repro");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = [
        "functions=0",
        "memops=1000000",
        "nesting=4294967296",
        "former=7",
    ];
    let mut input = String::new();
    let mut expected = Vec::new();
    for (id, line) in bad.iter().enumerate() {
        let path = dir.join(format!("repro-{id}.txt"));
        std::fs::write(&path, format!("seed=1\n{line}\n")).unwrap();
        let path = path.display();
        input.push_str(&format!(
            "{{\"id\":{id},\"experiment\":\"fuzz\",\"repro\":\"{path}\"}}\n"
        ));
        expected.push(format!(
            r#"{{"id":{id},"ok":false,"error":"bad reproducer {path}: {line} is outside "#
        ));
    }
    input.push_str("{\"id\":9,\"cmd\":\"ping\"}\n");
    let (lines, server) = converse("repro", input.as_bytes());
    let (pong, _) = server.handle_line(r#"{"id":9,"cmd":"ping"}"#);
    assert_eq!(lines.len(), bad.len() + 1, "{lines:?}");
    for (line, prefix) in lines.iter().zip(&expected) {
        assert!(line.starts_with(prefix.as_str()), "{line}");
    }
    assert_eq!(lines[bad.len()], pong);
    assert!(pong.contains("pong"), "{pong}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every request field refuses a bad value with the same text through the
/// command line and the wire, since the command line's parser applies each
/// flag as the wire field it names; a value at the limit passes both and
/// asks for the same request. The one difference is a number past `i128`,
/// which no wire line can hold. Two cases run the real binary, so the text
/// is what a user sees on stderr.
#[test]
fn the_cli_and_the_wire_refuse_bad_values_alike() {
    use multiscalar_harness::proto::{parse_args, parse_line, Command, MAX_SCALE, MAX_SEED_RANGE};
    let cases: [(&[&str], &str, &str); 11] = [
        (
            &["table2", "--seed", "-1"],
            r#""seed":-1"#,
            "bad value for `seed`",
        ),
        (
            &["table2", "--seed", "x"],
            r#""seed":"x""#,
            "field `seed` must be an integer, got string",
        ),
        (
            &["table2", "--scale", "-3"],
            r#""scale":-3"#,
            "bad value for `scale`",
        ),
        (
            &["table2", "--scale", "65"],
            r#""scale":65"#,
            "scale 65 is above the limit of 64",
        ),
        (
            &["table2", "--bench", "nope"],
            r#""bench":"nope""#,
            "unknown benchmark `nope`",
        ),
        (
            &["table2", "--format", "yaml"],
            r#""format":"yaml""#,
            "unknown format `yaml` (text|csv|json)",
        ),
        (
            &["fuzz", "--seeds", "5..5"],
            r#""seeds":"5..5""#,
            "empty seed range `5..5`",
        ),
        (
            &["fuzz", "--seeds", "7..1000008"],
            r#""seeds":"7..1000008""#,
            "seed range `7..1000008` is wider than the limit of 1000000 seeds",
        ),
        (
            &["cache", "purge"],
            r#""cache_action":"purge""#,
            "unknown cache action `purge` (stats|clear|gc)",
        ),
        (
            &["cache", "gc", "--cache-max-bytes", "-1"],
            r#""cache_max_bytes":-1"#,
            "bad value for `cache_max_bytes`",
        ),
        (
            &["cache", "gc", "--cache-max-bytes", "x"],
            r#""cache_max_bytes":"x""#,
            "field `cache_max_bytes` must be an integer, got string",
        ),
    ];
    let cli = |argv: &[&str]| parse_args(argv.iter().copied()).map(|(r, _)| Command::Run(r));
    let wire = |experiment: &str, field: &str| {
        parse_line(&format!(r#"{{"experiment":"{experiment}",{field}}}"#)).map(|env| env.cmd)
    };
    for (argv, field, error) in cases {
        assert_eq!(cli(argv).err().as_deref(), Some(error), "{argv:?}");
        assert_eq!(
            wire(argv[0], field).err().as_deref(),
            Some(error),
            "{field}"
        );
    }

    // Values at the limits pass both, and `-0` is 0 on both.
    assert_eq!((MAX_SCALE, MAX_SEED_RANGE), (64, 1_000_000));
    let accepted: [(&[&str], &str); 4] = [
        (&["table2", "--scale", "64"], r#""scale":64"#),
        (
            &["fuzz", "--seeds", "0..1000000"],
            r#""seeds":"0..1000000""#,
        ),
        (&["table2", "--seed", "-0"], r#""seed":-0"#),
        (
            &["cache", "--cache-max-bytes", "-0"],
            r#""cache_max_bytes":-0"#,
        ),
    ];
    for (argv, field) in accepted {
        let request = cli(argv);
        assert!(request.is_ok(), "{argv:?}: {request:?}");
        assert_eq!(request, wire(argv[0], field), "{argv:?}");
    }

    // Past `i128`, the command line refuses a value as out of the field's
    // range, as it does one past `u64`. The wire cannot read the number,
    // so it refuses the whole line at the number's byte.
    let huge = "9".repeat(40);
    for (field, flag) in [
        ("seed", "--seed"),
        ("scale", "--scale"),
        ("cache_max_bytes", "--cache-max-bytes"),
    ] {
        for value in ["18446744073709551616", &huge, &format!("-{huge}")] {
            assert_eq!(
                cli(&["cache", "gc", flag, value]).err(),
                Some(format!("bad value for `{field}`")),
                "{flag} {value}"
            );
        }
    }
    assert_eq!(
        wire("table2", &format!(r#""seed":{huge}"#))
            .err()
            .as_deref(),
        Some("bad number at byte 30")
    );

    let run = |scale: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["nope", "--no-cache", "--scale", scale])
            .output()
            .expect("the harness binary runs");
        assert_eq!(out.status.code(), Some(1));
        String::from_utf8(out.stderr).unwrap()
    };
    assert_eq!(run("65"), "scale 65 is above the limit of 64\n");
    // 64 passes the flag, so the binary goes on to refuse the experiment
    // and print the usage text.
    let stderr = run("64");
    assert!(
        stderr.starts_with("unknown experiment `nope`\nusage: harness <"),
        "{stderr}"
    );
}

/// A `harness serve --socket` child limited to `fds` open descriptors,
/// and its socket. Dropping it kills a server the test has not shut down
/// and removes its scratch directory.
#[cfg(unix)]
struct SocketServer {
    child: std::process::Child,
    socket: std::path::PathBuf,
}

#[cfg(unix)]
impl SocketServer {
    /// Starts the server and waits until it accepts.
    fn start(tag: &str, fds: u32) -> SocketServer {
        use std::process::{Command, Stdio};
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("serve.sock");
        let child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n {fds}; exec \"$0\" serve --socket \"$1\" --no-cache --threads 1"
            ))
            .arg(env!("CARGO_BIN_EXE_harness"))
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh runs");
        let server = SocketServer { child, socket };
        for _ in 0..1000 {
            if std::os::unix::net::UnixStream::connect(&server.socket).is_ok() {
                return server;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("the server never accepted on {}", server.socket.display());
    }

    /// Sends `line` on a new connection and returns the response.
    fn ask(&self, line: &str) -> String {
        use std::io::{BufRead, Write};
        let mut stream =
            std::os::unix::net::UnixStream::connect(&self.socket).expect("the server accepts");
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        std::io::BufReader::new(&stream)
            .read_line(&mut response)
            .unwrap();
        response
    }

    /// Shuts the server down and checks that it exits 0.
    fn shut_down(mut self) {
        assert!(self
            .ask(r#"{"id":0,"cmd":"shutdown"}"#)
            .contains("shutting down"));
        let status = self.child.wait().unwrap();
        assert!(status.success(), "{status:?}");
    }
}

#[cfg(unix)]
impl Drop for SocketServer {
    fn drop(&mut self) {
        // A no-op once the server has been waited for.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = self.socket.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A socket server out of descriptors keeps serving: with more
/// connections held open than its limit allows, accepting fails, which
/// it logs, and once they close the next connection's `ping` is answered.
#[cfg(unix)]
#[test]
fn a_socket_server_outlives_running_out_of_descriptors() {
    use std::io::BufRead;
    let mut server = SocketServer::start("fds", 12);
    let stderr = std::io::BufReader::new(server.child.stderr.take().expect("piped"));
    let (tx, lines) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stderr.lines() {
            let _ = tx.send(line.expect("UTF-8 stderr"));
        }
    });
    let held: Vec<_> = (0..16)
        .map(|_| std::os::unix::net::UnixStream::connect(&server.socket).expect("queued"))
        .collect();
    // Within a generous deadline, so a server that stopped accepting fails
    // the test rather than hanging it.
    let deadline = std::time::Duration::from_secs(30);
    assert!(
        std::iter::from_fn(|| lines.recv_timeout(deadline).ok())
            .any(|line| line.starts_with("serve: accept failed")),
        "the server never logged a failed accept"
    );
    drop(held);
    let pong = server.ask(r#"{"id":1,"cmd":"ping"}"#);
    assert!(pong.contains("pong"), "{pong}");
    server.shut_down();
    reader
        .join()
        .expect("the stderr reader ends with the server");
}

/// A socket server reaps each finished connection's thread: 64 sequential
/// connections leave its memory map within a few lines of where the first
/// left it.
#[cfg(target_os = "linux")]
#[test]
fn a_socket_server_reaps_finished_connection_threads() {
    let server = SocketServer::start("reap", 1024);
    let maps = || {
        std::fs::read_to_string(format!("/proc/{}/maps", server.child.id()))
            .unwrap()
            .lines()
            .count()
    };
    assert!(server.ask(r#"{"id":1,"cmd":"ping"}"#).contains("pong"));
    let first = maps();
    for id in 2..=64 {
        assert!(server
            .ask(&format!(r#"{{"id":{id},"cmd":"ping"}}"#))
            .contains("pong"));
    }
    let last = maps();
    server.shut_down();
    assert!(
        last <= first + 8,
        "{first} map lines after one connection, {last} after 64"
    );
}
