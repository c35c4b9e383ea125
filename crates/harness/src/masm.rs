//! `harness asm FILE` / `harness disasm FILE` — the file-sourced `.masm`
//! frontend behind [`crate::registry::dispatch`].
//!
//! `asm` assembles a `.masm` file with the two-pass assembler
//! ([`multiscalar_isa::assemble`]), forms tasks with the file's declared
//! `.task` entries as mandatory task boundaries, runs every analyze pass,
//! and records (or loads from the artifact cache) an instruction replay.
//! Assembly errors render rustc-style through the shared diagnostic
//! machinery — with `--json`, as JSON lines carrying `line`/`col`.
//!
//! `disasm` assembles the file and prints its canonical form
//! ([`multiscalar_isa::to_masm`]): the fixed point CI byte-diffs
//! (`asm → disasm → asm` — disassembling a canonical file reproduces it).
//!
//! File-sourced replays are cached under [`file_replay_key`], which folds
//! the **source bytes** alongside the program and task fingerprints: any
//! edit to the file — even a comment — moves the key, so a stale artifact
//! is never served for a changed file, while an untouched file stays warm
//! across invocations.

use crate::cache::load_or_record;
use crate::registry::{ExpCtx, Output};
use multiscalar_isa::{Fingerprint, FingerprintHasher, Program};
use multiscalar_sim::codec::CACHE_SCHEMA;
use multiscalar_taskform::{TaskFlowGraph, TaskFormer, TaskProgram};
use std::hash::Hash as _;

/// The step budget file-sourced replays record under — the fuzz budget:
/// hand-written corpus programs are small, and a file that exhausts it is
/// reported as a failing run rather than looping forever.
pub const FILE_MAX_STEPS: u64 = multiscalar_workloads::fuzz::MAX_STEPS;

/// The artifact-cache key of a file-sourced replay. Unlike
/// [`crate::cache::replay_key`] there is no generator config to fold —
/// the source text *is* the configuration, so its bytes go into the key
/// directly, alongside everything derived from them.
pub fn file_replay_key(
    source: &str,
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    CACHE_SCHEMA.hash(&mut h);
    "masm-file".hash(&mut h);
    source.hash(&mut h);
    program.fingerprint().hash(&mut h);
    tasks.fingerprint().hash(&mut h);
    max_steps.hash(&mut h);
    h.finish128()
}

/// Reads the request's `.masm` file, or the usage error for `tool`.
fn read_source(ctx: &ExpCtx, tool: &str) -> Result<(String, String), String> {
    let path = ctx
        .req
        .opts
        .file
        .clone()
        .ok_or(format!("usage: harness {tool} FILE.masm"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("could not read {path}: {e}"))?;
    Ok((path, text))
}

/// Renders assembly errors per the request's format: rustc-style carets
/// into the source for text, JSON lines (with `line`/`col`) for `--json`.
fn render_asm_errors(
    ctx: &ExpCtx,
    path: &str,
    text: &str,
    errs: &[multiscalar_isa::AsmDiagnostic],
) -> Output {
    let diags = multiscalar_analyze::asm_diagnostics(errs);
    let body = if ctx.req.format == crate::proto::OutputFormat::Json {
        multiscalar_analyze::render_all_json(&diags)
    } else {
        multiscalar_analyze::render_all_in_source(&diags, path, text)
    };
    Output {
        body,
        files: Vec::new(),
        ok: false,
    }
}

/// `harness asm FILE`: assemble, form (honouring `.task` entries), analyze,
/// and record or load the cached replay. The body reports counts only, so
/// it is byte-identical for cold, warm and disabled caches.
pub fn run_asm(ctx: &ExpCtx) -> Result<Output, String> {
    let (path, text) = read_source(ctx, "asm")?;
    let asm = match multiscalar_isa::assemble(&text) {
        Ok(a) => a,
        Err(errs) => return Ok(render_asm_errors(ctx, &path, &text, &errs)),
    };
    let program = asm.program;
    let tasks = TaskFormer::default()
        .form_with_entries(&program, &asm.task_entries)
        .map_err(|e| format!("{path}: task formation failed: {e}"))?;
    let tfg = TaskFlowGraph::build(&tasks);
    let diags = multiscalar_analyze::analyze(&program, &tasks, &tfg);

    let key = file_replay_key(&text, &program, &tasks, FILE_MAX_STEPS);
    let replay = load_or_record(ctx.store, key, &program, &tasks, FILE_MAX_STEPS)
        .map_err(|e| format!("{path}: replay failed: {e}"))?;

    let mut body = format!("asm {path}\n");
    body.push_str(&format!("  functions: {}\n", program.functions().len()));
    body.push_str(&format!("  instructions: {}\n", program.code().len()));
    body.push_str(&format!("  data words: {}\n", program.initial_data().len()));
    body.push_str(&format!(
        "  declared task entries: {}\n",
        asm.task_entries.len()
    ));
    body.push_str(&format!("  tasks: {}\n", tasks.tasks().len()));
    body.push_str(&format!(
        "  replay instructions: {}\n",
        replay.instructions()
    ));
    let errors = diags
        .iter()
        .filter(|d| d.severity == multiscalar_analyze::Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == multiscalar_analyze::Severity::Warning)
        .count();
    let notes = diags.len() - errors - warnings;
    if !diags.is_empty() {
        body.push_str(&multiscalar_analyze::render_all(&diags, &program));
    }
    body.push_str(&format!(
        "  diagnostics: {errors} errors, {warnings} warnings, {notes} notes\n"
    ));
    Ok(Output {
        body,
        files: Vec::new(),
        ok: errors == 0,
    })
}

/// `harness disasm FILE`: assemble the file and print its canonical
/// disassembly — the round-trip-stable form `asm` accepts back verbatim.
pub fn run_disasm(ctx: &ExpCtx) -> Result<Output, String> {
    let (path, text) = read_source(ctx, "disasm")?;
    match multiscalar_isa::assemble(&text) {
        Ok(asm) => Ok(Output::text(multiscalar_isa::to_masm(&asm.program))),
        Err(errs) => Ok(render_asm_errors(ctx, &path, &text, &errs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "\
func! main
  li r1, 3
loop:
  addi r1, r1, -1
  bne r1, r0, loop
  halt
end
";

    #[test]
    fn file_key_folds_source_bytes() {
        let asm = multiscalar_isa::assemble(PROGRAM).unwrap();
        let tasks = TaskFormer::default()
            .form_with_entries(&asm.program, &asm.task_entries)
            .unwrap();
        let k1 = file_replay_key(PROGRAM, &asm.program, &tasks, FILE_MAX_STEPS);
        let k2 = file_replay_key(PROGRAM, &asm.program, &tasks, FILE_MAX_STEPS);
        assert_eq!(k1, k2, "same source, same key");

        // A comment-only edit leaves the program identical but must move
        // the key: the source bytes are part of the content address.
        let commented = format!("; a comment\n{PROGRAM}");
        let asm2 = multiscalar_isa::assemble(&commented).unwrap();
        assert_eq!(asm2.program, asm.program, "comment changes nothing");
        let k3 = file_replay_key(&commented, &asm2.program, &tasks, FILE_MAX_STEPS);
        assert_ne!(k1, k3, "edited source must re-key");
    }
}
