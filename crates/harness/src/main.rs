//! `harness` — regenerates the paper's tables and figures:
//! `harness <experiment> [flags]`, or `harness serve [flags]`. The
//! experiment names are the entries of [`registry::REGISTRY`];
//! [`proto::usage`] lists them with every flag.
//!
//! The binary is a thin shell around the typed request pipeline:
//! [`proto::parse_args`] turns the command line into a `Request` (each
//! request flag applied as the wire field it names) and a
//! [`serve::ServeConfig`] (the process flags), [`registry::dispatch`] runs
//! it — the one execution path shared with `harness serve` — and `main`
//! renders the structured [`registry::Output`]: body to stdout, artifact
//! files to disk, `ok` to the exit code, errors to stderr. Every
//! subcommand, including the tools (`lint`, `fuzz`, `verify`, `cache`,
//! `asm`, `disasm`), is a registry entry; nothing dispatches outside the
//! registry.
//!
//! Benchmarks are prepared **once** per invocation (traces are shared,
//! immutable, behind `Arc`) through the on-disk artifact cache
//! (`.multiscalar-cache` by default; `--no-cache` disables, `harness
//! cache stats|clear|gc` manages), and every sweep fans out over a
//! `--threads`-wide job pool (at most [`proto::MAX_THREADS`]). Output is
//! byte-identical for every thread count and for cold, warm or disabled
//! caches. `harness serve` keeps prepared benchmarks and rendered results
//! resident across requests — see `multiscalar_harness::serve`.

use multiscalar_harness::cache::{self, ArtifactCache};
use multiscalar_harness::{proto, registry, serve};
use std::process::ExitCode;

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

/// Prints `error` to stderr and fails the process.
fn fail(error: impl std::fmt::Display) -> ExitCode {
    eprintln!("{error}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let (request, config) = match proto::parse_args(std::env::args_os().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };

    // The resident server: same registry, same dispatch, plus residency
    // and result memoisation (see `multiscalar_harness::serve`).
    if request.experiment == "serve" {
        return serve::serve_main(&config).map_or_else(fail, |()| ExitCode::SUCCESS);
    }

    let store = if config.no_cache {
        None
    } else {
        Some(ArtifactCache::new(config.cache_dir.clone()))
    };
    let resources = registry::Resources {
        pool: &config.pool,
        store: store.as_ref(),
        cache_dir: config.cache_dir.clone(),
        source: None,
    };
    let outcome = registry::dispatch(&request, &resources);
    // Loads, timing walks and re-recordings all finish inside
    // dispatch, so the traffic summary is final here (stderr — stdout
    // stays byte-identical cold vs warm). Skip the line for a tool that
    // prepares no benchmark and never touched the store.
    let entry = registry::find(&request.experiment);
    let prepared_benches = entry.is_some_and(|e| !e.benches.specs().is_empty());
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
                        return fail(format_args!("could not create {}: {e}", parent.display()));
                    }
                }
                if let Err(e) = std::fs::write(path, content) {
                    return fail(format_args!("could not write {}: {e}", path.display()));
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
        Err(e) if entry.is_none() => fail(format_args!("{e}\n{}", proto::usage())),
        Err(e) => fail(e),
    }
}
