//! The typed experiment protocol shared by the CLI and `harness serve`.
//!
//! One [`Request`] describes one experiment run — name, workload
//! parameters, output format, tool options — and one [`Response`] carries
//! its structured outcome. [`Request::set_field`] names and checks every
//! request field: the serve protocol's [`parse_line`] applies a request
//! object's fields through it, and the command line's [`parse_args`]
//! applies each request flag as the wire field it names. So the CLI prints
//! to stderr the message the wire answers (a number past `i128`, which no
//! wire line can hold, aside).
//!
//! The wire format is line-delimited JSON: one request object per line in,
//! one response object per line out. A tiny in-tree JSON codec (the build
//! container has no registry access, so no serde) covers the protocol's
//! needs: objects, arrays, strings with full escape handling, integers,
//! booleans and null. Floats are rejected — every numeric protocol field
//! is an integer, and refusing floats keeps every request field exact.
//!
//! ```text
//! → {"id":1,"cmd":"run","experiment":"table2","scale":1}
//! ← {"id":1,"ok":true,"cached":false,"exit":0,"files":[],"body":"..."}
//! ```
//!
//! Unknown fields and bad values are protocol errors, not warnings:
//! `{"experiment":"table2","bogus":1}` yields
//! `{"ok":false,"error":"unknown field `bogus`"}`.

use crate::pool::Pool;
use crate::registry;
use crate::serve::ServeConfig;
use multiscalar_workloads::{Spec92, WorkloadParams};
use std::ffi::OsString;
use std::num::IntErrorKind;

/// Which rendering of an experiment's one run a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputFormat {
    /// The human-readable table (the default).
    #[default]
    Text,
    /// The experiment's CSV export, on stdout.
    Csv,
    /// The experiment's JSON serialisation (`--json`).
    Json,
}

/// A `harness cache` sub-action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheAction {
    /// Report disk entries plus per-experiment warm/cold coverage.
    Stats,
    /// Remove every artifact.
    Clear,
    /// Evict LRU artifacts past `--cache-max-bytes`.
    Gc,
}

/// Tool-specific request options. Every field has a CLI flag and a wire
/// field of the same meaning; tools read the ones they declare and ignore
/// the rest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ToolOpts {
    /// Collect per-ring-unit occupancy (`profile --occupancy`).
    pub occupancy: bool,
    /// Fail lint on warnings (`lint --deny warnings`).
    pub deny_warnings: bool,
    /// Render the speculation-quality report (`lint --speculation`).
    pub speculation: bool,
    /// Run the pinned CI configuration (`fuzz --smoke`).
    pub smoke: bool,
    /// Explain one diagnostic code (`lint --explain CODE`).
    pub explain: Option<String>,
    /// Fuzz seed range (`fuzz --seeds A..B`).
    pub seeds: Option<std::ops::Range<u64>>,
    /// Replay one dumped fuzz reproducer (`fuzz --repro FILE`).
    pub repro: Option<String>,
    /// The `harness cache` sub-action.
    pub cache_action: Option<CacheAction>,
    /// Byte cap for `cache gc` (`--cache-max-bytes N`).
    pub cache_max_bytes: Option<u64>,
    /// Output directory for the `csv` exporter (`--csv DIR`).
    pub csv_dir: Option<String>,
    /// Input `.masm` source file (`asm FILE`, `disasm FILE`, `lint FILE`).
    pub file: Option<String>,
}

/// One experiment request: everything that determines one run's output,
/// and so the key `harness serve` memoises that output under. Process-level
/// resources — thread pool width, artifact-cache location — deliberately
/// live *outside* the request, in the [`ServeConfig`]: two clients of one
/// server may not ask for different cache directories, and a request's
/// output must not depend on where it runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// Registry name of the experiment or tool to run.
    pub experiment: String,
    /// Workload parameters (seed, scale).
    pub params: WorkloadParams,
    /// Narrow preparation to one benchmark (`--bench`).
    pub bench: Option<Spec92>,
    /// Which rendering of the run to return.
    pub format: OutputFormat,
    /// Tool-specific options.
    pub opts: ToolOpts,
}

impl Request {
    /// A request for `experiment` with every other field at its CLI
    /// default (the parameters `harness <experiment>` alone would use).
    pub fn new(experiment: impl Into<String>) -> Request {
        Request {
            experiment: experiment.into(),
            params: WorkloadParams::standard(0xC0FFEE),
            bench: None,
            format: OutputFormat::default(),
            opts: ToolOpts::default(),
        }
    }

    /// Whether the run's bytes depend on the disk: it reads a `.masm`
    /// source (`file`) or a fuzz reproducer (`repro`), or reports on or
    /// changes the cache directory (`cache_action`). (Preparation's reads
    /// of the artifact store never change a run's bytes.) The same such
    /// request can print different bytes once the disk changes, so the
    /// server never memoises one. The rule reads the fields, not what the
    /// experiment does with them: `table2` with a stray `file`, or `lint`
    /// with both `explain` and `file`, is not memoised either, which costs
    /// a fresh run and never a stale answer.
    pub fn reads_disk(&self) -> bool {
        let o = &self.opts;
        o.file.is_some() || o.repro.is_some() || o.cache_action.is_some()
    }

    /// Applies one wire field to the request under construction: the one
    /// field list, shared by [`parse_line`] and [`parse_args`], so both
    /// fail on an unknown field or a bad value with the same text.
    pub fn set_field(&mut self, key: &str, value: &Json) -> Result<(), String> {
        match key {
            "experiment" => self.experiment = value.as_str(key)?.to_string(),
            "seed" => self.params.seed = value.as_u64(key)?,
            "scale" => {
                let scale = value.as_u64(key)?;
                self.params.scale = u32::try_from(scale)
                    .ok()
                    .filter(|&s| s <= MAX_SCALE)
                    .ok_or(format!("scale {scale} is above the limit of {MAX_SCALE}"))?;
            }
            "bench" => {
                let name = value.as_str(key)?;
                self.bench =
                    Some(Spec92::from_name(name).ok_or(format!("unknown benchmark `{name}`"))?);
            }
            "format" => {
                self.format = match value.as_str(key)? {
                    "text" => OutputFormat::Text,
                    "csv" => OutputFormat::Csv,
                    "json" => OutputFormat::Json,
                    name => return Err(format!("unknown format `{name}` (text|csv|json)")),
                }
            }
            "occupancy" => self.opts.occupancy = value.as_bool(key)?,
            "deny_warnings" => self.opts.deny_warnings = value.as_bool(key)?,
            "speculation" => self.opts.speculation = value.as_bool(key)?,
            "smoke" => self.opts.smoke = value.as_bool(key)?,
            "explain" => self.opts.explain = Some(value.as_str(key)?.to_string()),
            "seeds" => self.opts.seeds = Some(parse_seed_range(value.as_str(key)?)?),
            "repro" => self.opts.repro = Some(value.as_str(key)?.to_string()),
            "cache_action" => {
                self.opts.cache_action = Some(match value.as_str(key)? {
                    "stats" => CacheAction::Stats,
                    "clear" => CacheAction::Clear,
                    "gc" => CacheAction::Gc,
                    name => return Err(format!("unknown cache action `{name}` (stats|clear|gc)")),
                })
            }
            "cache_max_bytes" => self.opts.cache_max_bytes = Some(value.as_u64(key)?),
            "csv_dir" => self.opts.csv_dir = Some(value.as_str(key)?.to_string()),
            "file" => self.opts.file = Some(value.as_str(key)?.to_string()),
            other => return Err(format!("unknown field `{other}`")),
        }
        Ok(())
    }
}

/// The largest workload scale a request may ask for: far above the
/// documented 1–4, and a bound on what one request can make a process
/// record and hold.
pub const MAX_SCALE: u32 = 64;

/// The widest seed range a request may ask for.
pub const MAX_SEED_RANGE: u64 = 1_000_000;

/// The widest job pool a command line may ask for (`--threads N`), far
/// above any machine's cores: a bound on the workers one sweep starts.
pub const MAX_THREADS: usize = 256;

/// Parses a `"seeds":"A..B"` range, refusing an empty one and one wider
/// than [`MAX_SEED_RANGE`].
fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = spec
        .split_once("..")
        .ok_or(format!("bad seed range `{spec}` (want A..B)"))?;
    let start: u64 = a
        .parse()
        .map_err(|e| format!("bad seed range start: {e}"))?;
    let end: u64 = b.parse().map_err(|e| format!("bad seed range end: {e}"))?;
    if start >= end {
        return Err(format!("empty seed range `{spec}`"));
    }
    if end - start > MAX_SEED_RANGE {
        return Err(format!(
            "seed range `{spec}` is wider than the limit of {MAX_SEED_RANGE} seeds"
        ));
    }
    Ok(start..end)
}

/// One protocol command, parsed from a request line's envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one experiment.
    Run(Request),
    /// Run a batch of experiments, fanned out on the server's pool;
    /// responses come back in request order.
    Batch(Vec<Request>),
    /// Report server counters (result cache, artifact store, residency).
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop serving after responding.
    Shutdown,
}

/// A parsed request line: optional client-chosen id (echoed back on the
/// response) plus the command.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client correlation id, echoed verbatim.
    pub id: Option<i128>,
    /// What to do.
    pub cmd: Command,
}

/// Parses one request line. `cmd` defaults to `"run"` when absent.
pub fn parse_line(line: &str) -> Result<Envelope, String> {
    let json = parse_json(line)?;
    let Json::Obj(fields) = &json else {
        return Err("request must be a JSON object".to_string());
    };
    let mut id = None;
    let mut cmd_name = "run".to_string();
    let mut requests = None;
    let mut request = Request::new("");
    let mut saw_request_field = false;
    for (key, value) in fields {
        match key.as_str() {
            "id" => id = Some(value.as_int("id")?),
            "cmd" => cmd_name = value.as_str("cmd")?.to_string(),
            "requests" => {
                let Json::Arr(items) = value else {
                    return Err("`requests` must be an array".to_string());
                };
                let mut batch = Vec::with_capacity(items.len());
                for item in items {
                    batch.push(parse_request_obj(item)?);
                }
                requests = Some(batch);
            }
            _ => {
                request.set_field(key, value)?;
                saw_request_field = true;
            }
        }
    }
    let cmd = match cmd_name.as_str() {
        "run" => {
            if request.experiment.is_empty() {
                return Err("missing field `experiment`".to_string());
            }
            Command::Run(request)
        }
        "batch" => {
            if saw_request_field {
                return Err("batch takes a `requests` array, not inline run fields".to_string());
            }
            Command::Batch(requests.ok_or("missing field `requests`")?)
        }
        "stats" => Command::Stats,
        "ping" => Command::Ping,
        "shutdown" => Command::Shutdown,
        other => {
            return Err(format!(
                "unknown cmd `{other}` (run|batch|stats|ping|shutdown)"
            ))
        }
    };
    Ok(Envelope { id, cmd })
}

/// Parses one request object (no envelope: `id` is rejected, `cmd` may
/// only be `"run"`) — the element type of a batch's `requests` array.
fn parse_request_obj(json: &Json) -> Result<Request, String> {
    let Json::Obj(fields) = json else {
        return Err("each batch request must be a JSON object".to_string());
    };
    let mut request = Request::new("");
    for (key, value) in fields {
        match key.as_str() {
            "cmd" if value.as_str("cmd")? == "run" => {}
            "cmd" => return Err("batch requests can only be `run` commands".to_string()),
            _ => request.set_field(key, value)?,
        }
    }
    if request.experiment.is_empty() {
        return Err("missing field `experiment`".to_string());
    }
    Ok(request)
}

/// Best-effort id extraction for error responses when the envelope
/// itself failed to parse (unknown field, bad value): the client still
/// gets its correlation id back whenever the line was valid JSON.
pub fn salvage_id(line: &str) -> Option<i128> {
    match parse_json(line).ok()? {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == "id")
            .and_then(|(_, v)| v.as_int("id").ok()),
        _ => None,
    }
}

/// How a request flag's command-line form becomes its wire field's value.
#[derive(Clone, Copy)]
enum Kind {
    /// `--flag N`: an integer token is a JSON number (past `i128`, the
    /// far end, which every integer field refuses), any other a string.
    Int,
    /// `--flag VALUE`: the token is a JSON string.
    Str(&'static str),
    /// `--flag`: the field is `true`.
    Switch,
    /// `--flag`: the field is this string (`--json` is `format=json`).
    Is(&'static str),
    /// `--flag WORD`: `WORD` is the one value, and the field is `true`
    /// (`--deny warnings` is `deny_warnings`).
    Word(&'static str),
}

/// Every request flag, the wire field it sets and its value kind (with
/// the value's name in the usage text), in usage order. `experiment` is
/// the first argument, and `cache_action` and `file` also have positional
/// forms ([`positional_field`]).
const REQUEST_FLAGS: [(&str, &str, Kind); 15] = [
    ("--seed", "seed", Kind::Int),
    ("--scale", "scale", Kind::Int),
    ("--bench", "bench", Kind::Str("NAME")),
    ("--csv", "csv_dir", Kind::Str("DIR")),
    ("--deny", "deny_warnings", Kind::Word("warnings")),
    ("--format", "format", Kind::Str("text|csv|json")),
    ("--json", "format", Kind::Is("json")),
    ("--occupancy", "occupancy", Kind::Switch),
    ("--smoke", "smoke", Kind::Switch),
    ("--cache-max-bytes", "cache_max_bytes", Kind::Int),
    ("--seeds", "seeds", Kind::Str("A..B")),
    ("--repro", "repro", Kind::Str("FILE")),
    ("--explain", "explain", Kind::Str("CODE")),
    ("--speculation", "speculation", Kind::Switch),
    ("--file", "file", Kind::Str("FILE.masm")),
];

/// Applies one process flag's value to the config.
type Apply = fn(&mut ServeConfig, String) -> Result<(), String>;

/// Every process flag, its value's name in the usage text (none for a
/// switch) and how it applies. These say where a run happens, not what it
/// computes, so they fill the [`ServeConfig`], never the [`Request`].
const PROCESS_FLAGS: [(&str, Option<&str>, Apply); 5] = [
    ("--threads", Some("N"), |config, value| {
        let threads = value
            .parse()
            .map_err(|e| format!("bad thread count: {e}"))?;
        if threads > MAX_THREADS {
            return Err(format!(
                "thread count {threads} is above the limit of {MAX_THREADS}"
            ));
        }
        config.pool = Pool::new(threads);
        Ok(())
    }),
    ("--cache-dir", Some("DIR"), |config, value| {
        config.cache_dir = value.into();
        Ok(())
    }),
    ("--no-cache", None, |config, _| {
        config.no_cache = true;
        Ok(())
    }),
    ("--socket", Some("PATH"), |config, value| {
        config.socket = Some(value.into());
        Ok(())
    }),
    ("--result-max-bytes", Some("N"), |config, value| {
        config.result_max_bytes = value
            .parse()
            .map_err(|e| format!("bad result cache cap: {e}"))?;
        Ok(())
    }),
];

/// The field a positional argument sets while it is unset: `cache_action`
/// for `harness cache ACTION`, `file` for `harness asm|disasm|lint FILE`.
fn positional_field(request: &Request) -> Option<&'static str> {
    match request.experiment.as_str() {
        "cache" if request.opts.cache_action.is_none() => Some("cache_action"),
        "asm" | "disasm" | "lint" if request.opts.file.is_none() => Some("file"),
        _ => None,
    }
}

/// Parses a command line's arguments (the program name left out) into the
/// request they ask for and the process settings it runs with: each request
/// flag goes through [`Request::set_field`] as the wire field it names, and
/// each process flag fills the [`ServeConfig`]. A repeated flag keeps its
/// last value; an argument that is not UTF-8 is refused.
pub fn parse_args(
    args: impl IntoIterator<Item = impl Into<OsString>>,
) -> Result<(Request, ServeConfig), String> {
    let mut args = args.into_iter().map(|arg| {
        OsString::into_string(arg.into())
            .map_err(|arg| format!("argument `{}` is not UTF-8", arg.to_string_lossy()))
    });
    let mut request = Request::new(args.next().unwrap_or_else(|| Err(usage()))?);
    let mut config = ServeConfig {
        pool: Pool::auto(),
        cache_dir: crate::cache::DEFAULT_DIR.into(),
        no_cache: false,
        result_max_bytes: crate::serve::DEFAULT_RESULT_MAX_BYTES,
        socket: None,
    };
    while let Some(flag) = args.next() {
        let flag = flag?;
        let mut value = || args.next().unwrap_or(Err(format!("{flag} needs a value")));
        if let Some(&(_, field, kind)) = REQUEST_FLAGS.iter().find(|(name, ..)| *name == flag) {
            let json = match kind {
                Kind::Int => {
                    let token = value()?;
                    match token.parse() {
                        Ok(n) => Json::Num(n),
                        Err(e) if *e.kind() == IntErrorKind::PosOverflow => Json::Num(i128::MAX),
                        Err(e) if *e.kind() == IntErrorKind::NegOverflow => Json::Num(i128::MIN),
                        Err(_) => Json::Str(token),
                    }
                }
                Kind::Str(_) => Json::Str(value()?),
                Kind::Switch => Json::Bool(true),
                Kind::Is(fixed) => Json::Str(fixed.to_string()),
                Kind::Word(word) => {
                    let token = value()?;
                    if token != word {
                        let class = &flag[2..];
                        return Err(format!("unknown {class} class `{token}` (only `{word}`)"));
                    }
                    Json::Bool(true)
                }
            };
            request.set_field(field, &json)?;
        } else if let Some(&(_, named, apply)) = PROCESS_FLAGS.iter().find(|(f, ..)| *f == flag) {
            // A switch takes no value.
            apply(&mut config, named.map_or(Ok(String::new()), |_| value())?)?;
        } else if let Some(field) = positional_field(&request).filter(|_| !flag.starts_with('-')) {
            request.set_field(field, &Json::Str(flag))?;
        } else {
            return Err(format!("unknown flag `{flag}`\n{}", usage()));
        }
    }
    Ok((request, config))
}

/// The usage text, built from the registry and the two flag tables so it
/// cannot drift from what dispatch and [`parse_args`] accept; `serve` is
/// the one subcommand outside the registry.
pub fn usage() -> String {
    let names: Vec<&str> = registry::REGISTRY.iter().map(|e| e.name).collect();
    let request_flags = REQUEST_FLAGS.iter().map(|&(flag, _, kind)| match kind {
        Kind::Int => (flag, Some("N")),
        Kind::Str(name) | Kind::Word(name) => (flag, Some(name)),
        Kind::Switch | Kind::Is(_) => (flag, None),
    });
    let flags: String = request_flags
        .chain(PROCESS_FLAGS.map(|(flag, named, _)| (flag, named)))
        .map(|(flag, named)| match named {
            Some(name) => format!(" [{flag} {name}]"),
            None => format!(" [{flag}]"),
        })
        .collect();
    format!(
        "usage: harness <{}|serve> [ARG]{flags}\n\
         ARG is FILE.masm for asm, disasm and lint, and stats|clear|gc for cache",
        names.join("|")
    )
}

/// One response line: the structured outcome of one command.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The command executed; `body` holds the exact bytes the CLI would
    /// print to stdout and `exit_ok` whether it would exit 0.
    Ok {
        /// Echoed request id.
        id: Option<i128>,
        /// Served from the server's in-memory result cache.
        cached: bool,
        /// Whether the run passed (`false` maps to CLI exit code 1:
        /// failed verify claims, denied lint warnings, fuzz findings).
        exit_ok: bool,
        /// Artifact files the run produces (names only; the CLI writes
        /// them, the server reports them).
        files: Vec<String>,
        /// The rendered result.
        body: String,
    },
    /// A batch's responses, in request order.
    Batch {
        /// Echoed request id.
        id: Option<i128>,
        /// One response per request, same order.
        responses: Vec<Response>,
    },
    /// Server counters, as ordered key/value pairs.
    Stats {
        /// Echoed request id.
        id: Option<i128>,
        /// Counter name → value, in a pinned order.
        stats: Vec<(String, u64)>,
    },
    /// The command was rejected or failed; `error` is the exact text the
    /// CLI prints to stderr.
    Error {
        /// Echoed request id.
        id: Option<i128>,
        /// What went wrong.
        error: String,
    },
}

impl Response {
    /// Serialises the response as one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        match self {
            Response::Ok {
                id,
                cached,
                exit_ok,
                files,
                body,
            } => {
                w.field_opt_num("id", *id);
                w.field_bool("ok", true);
                w.field_bool("cached", *cached);
                w.field_num("exit", if *exit_ok { 0 } else { 1 });
                w.field_str_array("files", files);
                w.field_str("body", body);
            }
            Response::Batch { id, responses } => {
                w.field_opt_num("id", *id);
                w.field_bool("ok", true);
                w.field_raw_array("responses", responses.iter().map(|r| r.to_json()));
            }
            Response::Stats { id, stats } => {
                w.field_opt_num("id", *id);
                w.field_bool("ok", true);
                let mut inner = JsonWriter::new();
                for (k, v) in stats {
                    inner.field_num(k, *v as i128);
                }
                w.field_raw("stats", &inner.finish());
            }
            Response::Error { id, error } => {
                w.field_opt_num("id", *id);
                w.field_bool("ok", false);
                w.field_str("error", error);
            }
        }
        w.finish()
    }

    /// The echoed request id.
    pub fn id(&self) -> Option<i128> {
        match self {
            Response::Ok { id, .. }
            | Response::Batch { id, .. }
            | Response::Stats { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON value model, parser and writer.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are integers ([`Json::Num`]): every
/// numeric protocol field is one, and rejecting floats keeps every
/// request field exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (wide enough for any `u64` field).
    Num(i128),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order (duplicate keys are a parse
    /// error, so order is unambiguous).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The value as a string, or a field-typed error.
    pub fn as_str(&self, field: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!(
                "field `{field}` must be a string, got {}",
                other.type_name()
            )),
        }
    }

    /// The value as an integer, or a field-typed error.
    pub fn as_int(&self, field: &str) -> Result<i128, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!(
                "field `{field}` must be an integer, got {}",
                other.type_name()
            )),
        }
    }

    /// The value as a `u64`, or a field-typed error.
    pub fn as_u64(&self, field: &str) -> Result<u64, String> {
        u64::try_from(self.as_int(field)?).map_err(|_| format!("bad value for `{field}`"))
    }

    /// The value as a bool, or a field-typed error.
    pub fn as_bool(&self, field: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!(
                "field `{field}` must be a bool, got {}",
                other.type_name()
            )),
        }
    }
}

/// Arrays and objects a JSON document may nest: the protocol nests three
/// (the envelope, a batch's `requests` array and each request object),
/// and the limit keeps the parser's recursion and the tree's drop off the
/// end of the stack.
pub const MAX_JSON_DEPTH: usize = 16;

/// Parses one JSON document; trailing non-whitespace is an error, and so
/// is nesting deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    /// The value at `pos`, inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "floats are not part of this protocol (byte {start})"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<i128>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad surrogate pair".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("lone surrogate")?
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape `\\{}`", char::from(other))),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every other step consumes
                    // whole ASCII bytes, so `pos` is on a char boundary
                    // and the slice costs nothing, however long the rest.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid utf-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate field `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `value` into `out` as a JSON string literal (with quotes).
pub fn write_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An append-only single-object JSON writer: fields come out in call
/// order, so serialisations are deterministic.
struct JsonWriter {
    out: String,
    first: bool,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_json_str(&mut self.out, key);
        self.out.push(':');
    }

    fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        write_json_str(&mut self.out, value);
    }

    fn field_num(&mut self, key: &str, value: i128) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    fn field_opt_num(&mut self, key: &str, value: Option<i128>) {
        self.key(key);
        match value {
            Some(n) => self.out.push_str(&n.to_string()),
            None => self.out.push_str("null"),
        }
    }

    fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn field_str_array(&mut self, key: &str, values: &[String]) {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            write_json_str(&mut self.out, v);
        }
        self.out.push(']');
    }

    fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.out.push_str(raw);
    }

    fn field_raw_array(&mut self, key: &str, raws: impl Iterator<Item = String>) {
        self.key(key);
        self.out.push('[');
        for (i, r) in raws.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&r);
        }
        self.out.push(']');
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_workloads::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn every_wire_field_parses_into_the_request() {
        let line = r#"{"experiment":"fuzz","seed":42,"scale":2,"bench":"gcc","format":"json","occupancy":true,"deny_warnings":true,"speculation":true,"smoke":true,"explain":"E102","seeds":"3..9","repro":"r.txt","cache_action":"gc","cache_max_bytes":1024,"csv_dir":"out","file":"a.masm"}"#;
        let want = Request {
            experiment: "fuzz".to_string(),
            params: WorkloadParams { seed: 42, scale: 2 },
            bench: Some(Spec92::Gcc),
            format: OutputFormat::Json,
            opts: ToolOpts {
                occupancy: true,
                deny_warnings: true,
                speculation: true,
                smoke: true,
                explain: Some("E102".to_string()),
                seeds: Some(3..9),
                repro: Some("r.txt".to_string()),
                cache_action: Some(CacheAction::Gc),
                cache_max_bytes: Some(1024),
                csv_dir: Some("out".to_string()),
                file: Some("a.masm".to_string()),
            },
        };
        assert_eq!(parse_line(line).unwrap().cmd, Command::Run(want));
    }

    #[test]
    fn unknown_field_is_a_structured_error() {
        let err = parse_line(r#"{"experiment":"table2","bogus":1}"#).unwrap_err();
        assert_eq!(err, "unknown field `bogus`");
        // Timing runs are always replay-fed; there is no engine field.
        let err = parse_line(r#"{"experiment":"table4","engine":"replay"}"#).unwrap_err();
        assert_eq!(err, "unknown field `engine`");
    }

    #[test]
    fn bad_values_reject_with_cli_error_text() {
        let err = parse_line(r#"{"experiment":"table4","format":"yaml"}"#).unwrap_err();
        assert_eq!(err, "unknown format `yaml` (text|csv|json)");
        let err = parse_line(r#"{"experiment":"fuzz","seeds":"9..3"}"#).unwrap_err();
        assert_eq!(err, "empty seed range `9..3`");
    }

    #[test]
    fn floats_and_duplicates_are_rejected() {
        assert!(parse_json("1.5").unwrap_err().contains("floats"));
        assert!(parse_json(r#"{"a":1,"a":2}"#)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |open: &str, close: &str, n| open.repeat(n) + "1" + &close.repeat(n);
        assert!(parse_json(&nest("[", "]", MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nest(r#"{"a":"#, "}", MAX_JSON_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nest("[", "]", MAX_JSON_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_JSON_DEPTH} levels at byte {MAX_JSON_DEPTH}")
        );
        // A nested value keeps its field-typed error.
        let err = parse_line(r#"{"experiment":[["table2"]]}"#).unwrap_err();
        assert_eq!(err, "field `experiment` must be a string, got array");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse_json(r#""a\"b\\c\nA😀""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nA😀".to_string()));
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn a_string_filling_a_line_parses_in_one_pass() {
        // One pass over a 1 MiB string takes milliseconds; re-reading the
        // rest of the line at each character takes tens of seconds.
        let text = "dé".repeat((1 << 20) / 3);
        let start = std::time::Instant::now();
        let v = parse_json(&format!("\"{text}\"")).unwrap();
        let took = start.elapsed();
        assert_eq!(v, Json::Str(text));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    /// `--threads` is refused past [`MAX_THREADS`] by the parser, before
    /// any pool exists; this test calls nothing but the parser, so it
    /// starts no thread.
    #[test]
    fn the_thread_count_has_a_limit() {
        let parse = |threads: &str| {
            let argv = ["fuzz", "--seeds", "0..1000000", "--threads", threads];
            parse_args(argv).map(|(_, config)| config.pool.threads())
        };
        assert_eq!(MAX_THREADS, 256);
        assert_eq!(
            parse("257"),
            Err("thread count 257 is above the limit of 256".to_string())
        );
        assert_eq!(parse("256"), Ok(256));
        assert_eq!(parse("0"), Ok(1));
    }

    /// One seeded command line for the argv oracle: the arguments, the
    /// JSON object of the request they ask for (fields in first-set order,
    /// each holding its last value) and the process settings they name.
    struct Vector {
        argv: Vec<String>,
        object: Vec<(String, String)>,
        threads: Option<usize>,
        cache_dir: Option<String>,
        no_cache: bool,
        socket: Option<String>,
        result_max_bytes: Option<u64>,
    }

    impl Vector {
        fn set(&mut self, field: &str, json: String) {
            match self.object.iter_mut().find(|(f, _)| f == field) {
                Some(slot) => slot.1 = json,
                None => self.object.push((field.to_string(), json)),
            }
        }

        fn line(&self) -> String {
            let fields: Vec<String> = self
                .object
                .iter()
                .map(|(field, json)| format!("{}:{json}", json_str(field)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }

    fn json_str(value: &str) -> String {
        let mut out = String::new();
        write_json_str(&mut out, value);
        out
    }

    /// A valid value for a string field or a process flag: printable and
    /// awkward characters alike (quotes, escapes, a newline, a control
    /// byte, a leading dash, non-ASCII), sometimes reading as an integer.
    fn any_token(rng: &mut StdRng) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', '0', '7', '-', '.', '/', ' ', '"', '\\', '\n', '\u{1}', 'é', '😀',
        ];
        (0..rng.gen_range(0..6usize))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    /// A valid value for request field `field`, as its command-line token.
    fn valid_token(field: &str, rng: &mut StdRng) -> String {
        let pick =
            |rng: &mut StdRng, names: &[&str]| names[rng.gen_range(0..names.len())].to_string();
        match field {
            "seed" | "cache_max_bytes" => match rng.gen_range(0..3) {
                0 => u64::MAX.to_string(),
                1 => rng.gen_range(0..100u64).to_string(),
                _ => rng.gen::<u64>().to_string(),
            },
            "scale" => rng.gen_range(0..MAX_SCALE + 1).to_string(),
            "bench" => pick(rng, &Spec92::ALL.map(Spec92::name)),
            "format" => pick(rng, &["text", "csv", "json"]),
            "cache_action" => pick(rng, &["stats", "clear", "gc"]),
            "seeds" => {
                let start = rng.gen_range(0..1u64 << 40);
                format!("{start}..{}", start + rng.gen_range(1..MAX_SEED_RANGE + 1))
            }
            _ => any_token(rng),
        }
    }

    /// A seeded command line of valid values only: request flags of every
    /// kind, process flags, and the positional forms, repeats included.
    fn valid_vector(rng: &mut StdRng) -> Vector {
        const EXPERIMENTS: [&str; 8] = [
            "table2", "fig6", "lint", "asm", "disasm", "cache", "fuzz", "serve",
        ];
        let experiment = EXPERIMENTS[rng.gen_range(0..EXPERIMENTS.len())];
        let mut v = Vector {
            argv: vec![experiment.to_string()],
            object: vec![("experiment".to_string(), json_str(experiment))],
            threads: None,
            cache_dir: None,
            no_cache: false,
            socket: None,
            result_max_bytes: None,
        };
        for _ in 0..rng.gen_range(0..8) {
            let pick = rng.gen_range(0..REQUEST_FLAGS.len() + PROCESS_FLAGS.len() + 1);
            if let Some(&(flag, field, kind)) = REQUEST_FLAGS.get(pick) {
                v.argv.push(flag.to_string());
                let (token, json) = match kind {
                    Kind::Int => {
                        let token = valid_token(field, rng);
                        (Some(token.clone()), token)
                    }
                    Kind::Str(_) => {
                        let token = valid_token(field, rng);
                        let json = json_str(&token);
                        (Some(token), json)
                    }
                    Kind::Switch => (None, "true".to_string()),
                    Kind::Is(fixed) => (None, json_str(fixed)),
                    Kind::Word(word) => (Some(word.to_string()), "true".to_string()),
                };
                v.argv.extend(token);
                v.set(field, json);
            } else if let Some(&(flag, _, _)) = PROCESS_FLAGS.get(pick - REQUEST_FLAGS.len()) {
                v.argv.push(flag.to_string());
                let token = match flag {
                    "--threads" => {
                        let n = rng.gen_range(0..MAX_THREADS + 1);
                        v.threads = Some(n);
                        n.to_string()
                    }
                    "--result-max-bytes" => {
                        let n = rng.gen::<u64>();
                        v.result_max_bytes = Some(n);
                        n.to_string()
                    }
                    "--cache-dir" => v.cache_dir.insert(any_token(rng)).clone(),
                    "--socket" => v.socket.insert(any_token(rng)).clone(),
                    _ => {
                        v.no_cache = true;
                        continue;
                    }
                };
                v.argv.push(token);
            } else {
                let unset = |field: &str| v.object.iter().all(|(f, _)| f != field);
                let field = match experiment {
                    "cache" if unset("cache_action") => "cache_action",
                    "asm" | "disasm" | "lint" if unset("file") => "file",
                    _ => continue,
                };
                let mut token = valid_token(field, rng);
                // A positional argument never starts with a dash.
                if token.starts_with('-') {
                    token.insert(0, 'p');
                }
                v.set(field, json_str(&token));
                v.argv.push(token);
            }
        }
        v
    }

    /// The same command line with one invalid argument appended: a bad
    /// request value, a bad process value, a flag without its value, an
    /// unknown flag or a stray positional.
    fn plant_defect(v: &Vector, rng: &mut StdRng) -> Vec<String> {
        const BAD: [&[&str]; 14] = [
            &["--seed", "-1"],
            &["--seed", "x"],
            &["--seed", "1.5"],
            &["--scale", "65"],
            &["--scale", "18446744073709551616"],
            &["--bench", "nope"],
            &["--format", "yaml"],
            &["--seeds", "5..5"],
            &["--seeds", "7..1000008"],
            &["--deny", "errors"],
            &["--cache-max-bytes", ""],
            &["--threads", "257"],
            &["--result-max-bytes", "-1"],
            &["--bogus"],
        ];
        let mut argv = v.argv.clone();
        match rng.gen_range(0..3) {
            0 => argv.extend(
                BAD[rng.gen_range(0..BAD.len())]
                    .iter()
                    .map(|s| s.to_string()),
            ),
            1 => {
                let takes_value: Vec<&str> = REQUEST_FLAGS
                    .iter()
                    .filter(|(_, _, kind)| !matches!(kind, Kind::Switch | Kind::Is(_)))
                    .map(|&(flag, ..)| flag)
                    .chain(PROCESS_FLAGS.iter().filter(|f| f.1.is_some()).map(|f| f.0))
                    .collect();
                argv.push(takes_value[rng.gen_range(0..takes_value.len())].to_string());
            }
            _ => argv.extend(["purge", "stray"].map(String::from)),
        }
        argv
    }

    /// One to four seeded edits of a command line: a byte of one argument
    /// deleted, inserted or replaced (any byte, so on unix an argument may
    /// stop being UTF-8), or an argument dropped or doubled.
    fn mutate(argv: &[String], rng: &mut StdRng) -> Vec<OsString> {
        let mut args: Vec<Vec<u8>> = argv.iter().map(|a| a.clone().into_bytes()).collect();
        for _ in 0..rng.gen_range(1..5) {
            let i = rng.gen_range(0..args.len());
            let arg = &mut args[i];
            match rng.gen_range(0..5) {
                0 if !arg.is_empty() => {
                    arg.remove(rng.gen_range(0..arg.len()));
                }
                1 => arg.insert(rng.gen_range(0..arg.len() + 1), rng.gen::<u32>() as u8),
                2 if !arg.is_empty() => {
                    let at = rng.gen_range(0..arg.len());
                    arg[at] = rng.gen::<u32>() as u8;
                }
                3 if args.len() > 1 => {
                    args.remove(i);
                }
                _ => {
                    let copy = args[i].clone();
                    args.insert(i, copy);
                }
            }
        }
        #[cfg(unix)]
        let arg = <OsString as std::os::unix::ffi::OsStringExt>::from_vec;
        #[cfg(not(unix))]
        let arg = |bytes: Vec<u8>| OsString::from(String::from_utf8_lossy(&bytes).into_owned());
        args.into_iter().map(arg).collect()
    }

    /// A total-input oracle for command lines. Seeded argument vectors
    /// built from the two flag tables, and byte-mutated copies of them,
    /// each parse to a request or to one error, and never panic; one with
    /// an argument that is not UTF-8 is refused. A vector of valid values
    /// parses to the request [`parse_line`] builds from the matching JSON
    /// object and to the process settings it names; one with a defect
    /// appended is refused. Nothing is dispatched, so no thread starts.
    #[test]
    fn command_lines_are_total_and_valid_ones_match_the_wire() {
        fn parse<A: Into<OsString> + Clone + std::fmt::Debug + std::panic::RefUnwindSafe>(
            argv: &[A],
        ) -> Result<(Request, ServeConfig), String> {
            std::panic::catch_unwind(|| parse_args(argv.to_vec()))
                .unwrap_or_else(|_| panic!("{argv:?} panicked the parser"))
        }
        let (_, auto) = parse(&["table2"]).expect("a bare command line parses");
        let mut rng = StdRng::seed_from_u64(0xA4C5);
        let mut not_utf8 = 0;
        for _ in 0..600 {
            let v = valid_vector(&mut rng);
            let (request, config) = parse(&v.argv).unwrap_or_else(|e| panic!("{:?}: {e}", v.argv));
            let Command::Run(wire) = parse_line(&v.line()).expect("valid JSON").cmd else {
                panic!("{} is not a run", v.line());
            };
            assert_eq!(request, wire, "{:?} against {}", v.argv, v.line());
            let threads = v.threads.map_or(auto.pool.threads(), |n| n.max(1));
            assert_eq!(config.pool.threads(), threads, "{:?}", v.argv);
            let cache_dir = v
                .cache_dir
                .as_ref()
                .map_or(auto.cache_dir.clone(), Into::into);
            assert_eq!(config.cache_dir, cache_dir, "{:?}", v.argv);
            assert_eq!(config.no_cache, v.no_cache, "{:?}", v.argv);
            assert_eq!(
                config.socket,
                v.socket.as_ref().map(Into::into),
                "{:?}",
                v.argv
            );
            let cap = v.result_max_bytes.unwrap_or(auto.result_max_bytes);
            assert_eq!(config.result_max_bytes, cap, "{:?}", v.argv);

            let bad = plant_defect(&v, &mut rng);
            match parse(&bad) {
                Err(e) => assert!(!e.is_empty(), "{bad:?}"),
                Ok(_) => panic!("{bad:?} parsed"),
            }
            for argv in [&v.argv, &bad] {
                for _ in 0..3 {
                    let mutant = mutate(argv, &mut rng);
                    match parse(&mutant) {
                        Err(e) => assert!(!e.is_empty(), "{mutant:?}"),
                        Ok(_) if mutant.iter().any(|a| a.to_str().is_none()) => {
                            panic!("{mutant:?} parsed")
                        }
                        Ok(_) => {}
                    }
                    not_utf8 += mutant.iter().any(|a| a.to_str().is_none()) as usize;
                }
            }
        }
        // On unix the mutator's stray bytes reach the parser as they are.
        assert!(
            cfg!(not(unix)) || not_utf8 > 100,
            "{not_utf8} vectors not UTF-8"
        );
        let missing = parse(&["table2", "--file"]).err();
        assert_eq!(missing.as_deref(), Some("--file needs a value"));
    }

    #[test]
    fn response_serialisation_is_stable() {
        let r = Response::Ok {
            id: Some(3),
            cached: true,
            exit_ok: true,
            files: vec!["profile.json".to_string()],
            body: "hi\n".to_string(),
        };
        assert_eq!(
            r.to_json(),
            r#"{"id":3,"ok":true,"cached":true,"exit":0,"files":["profile.json"],"body":"hi\n"}"#
        );
        let e = Response::Error {
            id: None,
            error: "unknown field `x`".to_string(),
        };
        assert_eq!(
            e.to_json(),
            r#"{"id":null,"ok":false,"error":"unknown field `x`"}"#
        );
    }
}
