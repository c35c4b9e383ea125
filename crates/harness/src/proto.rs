//! The typed experiment protocol shared by the CLI and `harness serve`.
//!
//! One [`Request`] describes one experiment run — name, workload
//! parameters, output format, tool options — and one [`Response`] carries
//! its structured outcome. `parse_args` (the CLI) and the serve protocol
//! both deserialise into the same `Request`, and both render errors from
//! the same [`Response::Error`] text, so a request rejected over the wire
//! fails with exactly the message the CLI would print to stderr.
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

use multiscalar_workloads::{Spec92, WorkloadParams};

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

impl OutputFormat {
    /// Parses a `--format` / `"format"` value.
    pub fn from_name(name: &str) -> Option<OutputFormat> {
        match name {
            "text" => Some(OutputFormat::Text),
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            _ => None,
        }
    }
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

impl CacheAction {
    /// Parses a cache action name.
    pub fn from_name(name: &str) -> Option<CacheAction> {
        match name {
            "stats" => Some(CacheAction::Stats),
            "clear" => Some(CacheAction::Clear),
            "gc" => Some(CacheAction::Gc),
            _ => None,
        }
    }
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
/// live *outside* the request (`main::Invocation`,
/// [`crate::serve::ServeConfig`]): two clients of one server may not ask
/// for different cache directories, and a request's output must not
/// depend on where it runs.
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

    /// Applies one wire field to the request under construction. Shared by
    /// the envelope parser; unknown fields and bad values error with the
    /// exact text the CLI prints for the matching flag.
    pub fn set_field(&mut self, key: &str, value: &Json) -> Result<(), String> {
        match key {
            "experiment" => self.experiment = value.as_str(key)?.to_string(),
            "seed" => self.params.seed = value.as_u64(key)?,
            "scale" => self.params.scale = check_scale(value.as_u64(key)?)?,
            "bench" => {
                let name = value.as_str(key)?;
                self.bench =
                    Some(Spec92::from_name(name).ok_or(format!("unknown benchmark `{name}`"))?);
            }
            "format" => {
                let name = value.as_str(key)?;
                self.format = OutputFormat::from_name(name)
                    .ok_or(format!("unknown format `{name}` (text|csv|json)"))?;
            }
            "occupancy" => self.opts.occupancy = value.as_bool(key)?,
            "deny_warnings" => self.opts.deny_warnings = value.as_bool(key)?,
            "speculation" => self.opts.speculation = value.as_bool(key)?,
            "smoke" => self.opts.smoke = value.as_bool(key)?,
            "explain" => self.opts.explain = Some(value.as_str(key)?.to_string()),
            "seeds" => self.opts.seeds = Some(parse_seed_range(value.as_str(key)?)?),
            "repro" => self.opts.repro = Some(value.as_str(key)?.to_string()),
            "cache_action" => {
                let name = value.as_str(key)?;
                self.opts.cache_action = Some(
                    CacheAction::from_name(name)
                        .ok_or(format!("unknown cache action `{name}` (stats|clear|gc)"))?,
                );
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

/// Checks a `--scale N` / `"scale":N` value against [`MAX_SCALE`] — one
/// check for both surfaces, so both reject the same scales with the same
/// text.
pub fn check_scale(scale: u64) -> Result<u32, String> {
    u32::try_from(scale)
        .ok()
        .filter(|&s| s <= MAX_SCALE)
        .ok_or(format!("scale {scale} is above the limit of {MAX_SCALE}"))
}

/// Parses a `--seeds A..B` / `"seeds":"A..B"` range — one code path for
/// both surfaces, so both reject `5..5`, and a range wider than
/// [`MAX_SEED_RANGE`], with the same text.
pub fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, String> {
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
