//! `harness` — regenerates the paper's tables and figures.
//!
//! ```text
//! harness <experiment> [--seed N] [--scale N] [--bench NAME] [--threads N]
//!                      [--format text|csv|json] [--cache-dir DIR] [--no-cache]
//! harness serve [--socket PATH] [--result-max-bytes N] [...]
//! ```
//!
//! The experiment names are the entries of [`registry::REGISTRY`]; `usage`
//! lists them.
//!
//! The binary is a thin shell around the typed request pipeline: parse
//! the command line into a [`Request`] (`multiscalar_harness::proto`),
//! run it through [`registry::dispatch`] — the one execution path shared
//! with `harness serve` — and render the structured
//! [`registry::Output`]: body to stdout, artifact files to disk, `ok` to
//! the exit code, errors to stderr. Every subcommand, including the
//! tools (`lint`, `fuzz`, `verify`, `cache`, `asm`, `disasm`), is a
//! registry entry; nothing dispatches outside the registry.
//!
//! Benchmarks are prepared **once** per invocation (traces are shared,
//! immutable, behind `Arc`) through the on-disk artifact cache
//! (`.multiscalar-cache` by default; `--no-cache` disables, `harness
//! cache stats|clear|gc` manages), and every sweep fans out over a
//! `--threads`-wide job pool. Output is byte-identical for every thread
//! count and for cold, warm or disabled caches. `harness serve` keeps
//! prepared benchmarks and rendered results resident across requests —
//! see `multiscalar_harness::serve`.

use multiscalar_harness::cache::{self, ArtifactCache};
use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::{parse_seed_range, CacheAction, OutputFormat, Request};
use multiscalar_harness::registry;
use multiscalar_harness::serve::{self, ServeConfig};
use multiscalar_workloads::Spec92;
use std::process::ExitCode;

/// One parsed invocation: the typed request plus the process-level
/// resources it runs with (pool width, cache location, serve endpoints).
struct Invocation {
    request: Request,
    pool: Pool,
    cache_dir: std::path::PathBuf,
    no_cache: bool,
    socket: Option<std::path::PathBuf>,
    result_max_bytes: u64,
}

fn parse_args() -> Result<Invocation, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut request = Request::new(experiment);
    let mut pool = Pool::auto();
    let mut cache_dir = None;
    let mut no_cache = false;
    let mut socket = None;
    let mut result_max_bytes = serve::DEFAULT_RESULT_MAX_BYTES;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                request.params.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?
            }
            "--scale" => {
                request.params.scale = value()?.parse().map_err(|e| format!("bad scale: {e}"))?
            }
            "--bench" => {
                let name = value()?;
                request.bench =
                    Some(Spec92::from_name(&name).ok_or(format!("unknown benchmark `{name}`"))?);
            }
            "--csv" => request.opts.csv_dir = Some(value()?),
            "--cache-dir" => cache_dir = Some(std::path::PathBuf::from(value()?)),
            "--no-cache" => no_cache = true,
            "--occupancy" => request.opts.occupancy = true,
            "--threads" => {
                pool = Pool::new(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                )
            }
            "--deny" => {
                let what = value()?;
                if what != "warnings" {
                    return Err(format!("unknown deny class `{what}` (only `warnings`)"));
                }
                request.opts.deny_warnings = true;
            }
            "--json" => request.format = OutputFormat::Json,
            "--format" => {
                let name = value()?;
                request.format = OutputFormat::from_name(&name)
                    .ok_or(format!("unknown format `{name}` (text|csv|json)"))?;
            }
            "--smoke" => request.opts.smoke = true,
            "--seeds" => request.opts.seeds = Some(parse_seed_range(&value()?)?),
            "--repro" => request.opts.repro = Some(value()?),
            "--explain" => request.opts.explain = Some(value()?),
            "--file" => request.opts.file = Some(value()?),
            "--speculation" => request.opts.speculation = true,
            "--cache-max-bytes" => {
                request.opts.cache_max_bytes = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad cache size cap: {e}"))?,
                )
            }
            "--socket" => socket = Some(std::path::PathBuf::from(value()?)),
            "--result-max-bytes" => {
                result_max_bytes = value()?
                    .parse()
                    .map_err(|e| format!("bad result cache cap: {e}"))?
            }
            action
                if !action.starts_with('-')
                    && request.experiment == "cache"
                    && request.opts.cache_action.is_none() =>
            {
                request.opts.cache_action = Some(
                    CacheAction::from_name(action)
                        .ok_or(format!("unknown cache action `{action}` (stats|clear|gc)"))?,
                );
            }
            // `harness asm FILE` / `disasm FILE` / `lint FILE` — the
            // positional form of `--file`.
            path if !path.starts_with('-')
                && matches!(request.experiment.as_str(), "asm" | "disasm" | "lint")
                && request.opts.file.is_none() =>
            {
                request.opts.file = Some(path.to_string());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(Invocation {
        request,
        pool,
        cache_dir: cache_dir.unwrap_or_else(|| std::path::PathBuf::from(cache::DEFAULT_DIR)),
        no_cache,
        socket,
        result_max_bytes,
    })
}

/// The usage line. The experiment list comes from the registry, so it
/// cannot drift from what dispatch accepts; `serve` is the one subcommand
/// outside it.
fn usage() -> String {
    let names: Vec<&str> = registry::REGISTRY
        .iter()
        .map(|e| e.name)
        .chain(["serve"])
        .collect();
    format!(
        "usage: harness <{}> [ARG] \
         [--seed N] [--scale N] [--bench NAME] [--csv DIR] [--threads N] \
         [--deny warnings] [--format text|csv|json] [--json] [--occupancy] [--smoke] \
         [--cache-dir DIR] [--no-cache] [--cache-max-bytes N] [--seeds A..B] [--repro FILE] \
         [--explain CODE] [--speculation] [--file FILE.masm] [--socket PATH] \
         [--result-max-bytes N]\n\
         ARG is FILE.masm for asm, disasm and lint, and stats|clear|gc for cache",
        names.join("|")
    )
}

/// One stderr line summarising the invocation's cache traffic — stderr so
/// stdout stays byte-identical between cold, warm and disabled caches.
fn report_cache(store: Option<&ArtifactCache>) {
    if let Some(c) = store {
        let s = c.stats();
        // Touch failures appear only when they happened, so the summary
        // line stays byte-identical on healthy caches.
        let touch = if s.touch_failures > 0 {
            format!(", {} touch failures", s.touch_failures)
        } else {
            String::new()
        };
        eprintln!(
            "cache: {} hits, {} misses, {} stores, {} evictions{touch} ({})",
            s.hits,
            s.misses,
            s.stores,
            s.evictions,
            c.dir().display()
        );
    }
}

fn main() -> ExitCode {
    let inv = match parse_args() {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // The resident server: same registry, same dispatch, plus residency
    // and result memoisation (see `multiscalar_harness::serve`).
    if inv.request.experiment == "serve" {
        let config = ServeConfig {
            pool: inv.pool,
            cache_dir: inv.cache_dir,
            no_cache: inv.no_cache,
            result_max_bytes: inv.result_max_bytes,
            socket: inv.socket,
        };
        return match serve::serve_main(&config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let store = if inv.no_cache {
        None
    } else {
        Some(ArtifactCache::new(inv.cache_dir.clone()))
    };
    let resources = registry::Resources {
        pool: &inv.pool,
        store: store.as_ref(),
        cache_dir: inv.cache_dir.clone(),
        source: None,
    };
    let outcome = registry::dispatch(&inv.request, &resources);
    // Loads, timing walks and re-recordings all finish inside
    // dispatch, so the traffic summary is final here (stderr — stdout
    // stays byte-identical cold vs warm). Skip the line for a tool that
    // prepares no benchmark and never touched the store.
    let prepared_benches =
        registry::find(&inv.request.experiment).is_some_and(|e| !e.benches.specs().is_empty());
    let touched = store
        .as_ref()
        .is_some_and(|s| s.stats() != cache::CacheStats::default());
    if prepared_benches || touched {
        report_cache(store.as_ref());
    }

    match outcome {
        Ok(out) => {
            for (name, content) in &out.files {
                let path = std::path::Path::new(name);
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("could not create {}: {e}", parent.display());
                        return ExitCode::FAILURE;
                    }
                }
                if let Err(e) = std::fs::write(path, content) {
                    eprintln!("could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
            print!("{}", out.body);
            if out.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            if e.starts_with("unknown experiment") {
                eprintln!("{e}\n{}", usage());
            } else {
                eprintln!("{e}");
            }
            ExitCode::FAILURE
        }
    }
}
