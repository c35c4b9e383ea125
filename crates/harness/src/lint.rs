//! `harness lint` — runs every `multiscalar-analyze` pass over the built-in
//! workloads plus a sweep of synthetic programs; the CI correctness gate
//! for the task-formation pipeline. `harness lint FILE.masm` instead
//! assembles one source file and lints it alone, rendering assembly
//! errors rustc-style with source spans.

use multiscalar_analyze::{analyze, Diagnostic, Severity};
use multiscalar_taskform::{TaskFlowGraph, TaskFormer};
use multiscalar_workloads::synthetic::{random_program, SyntheticConfig};
use multiscalar_workloads::{Spec92, WorkloadParams};

/// How many synthetic seeds the lint sweeps in addition to the five
/// built-in workloads.
pub const SYNTHETIC_SEEDS: u64 = 8;

/// Lint results for one target program.
#[derive(Debug, Clone)]
pub struct LintTarget {
    /// Target name (`gcc`, ..., `synthetic/3`).
    pub name: String,
    /// The linted program (kept for rendering spans).
    pub program: multiscalar_isa::Program,
    /// All diagnostics, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintTarget {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Number of note-severity diagnostics (never fail a run).
    pub fn notes(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Note)
            .count()
    }
}

/// Lints one already-built program.
pub fn lint_program(name: &str, program: multiscalar_isa::Program) -> LintTarget {
    lint_program_with_entries(name, program, &[])
}

/// [`lint_program`] honouring declared task entries (a `.masm` file's
/// `.task` directives): formation treats them as mandatory boundaries, so
/// the lint passes check exactly the partition `harness asm` runs.
pub fn lint_program_with_entries(
    name: &str,
    program: multiscalar_isa::Program,
    entries: &[multiscalar_isa::Addr],
) -> LintTarget {
    let diagnostics = match TaskFormer::default().form_with_entries(&program, entries) {
        Ok(tasks) => {
            let tfg = TaskFlowGraph::build(&tasks);
            analyze(&program, &tasks, &tfg)
        }
        // Task formation refusing a program is itself a finding; the IR
        // pass still runs so the underlying cause is visible too.
        Err(e) => {
            let mut diags = multiscalar_analyze::analyze_program(&program);
            diags.push(Diagnostic::new(
                &multiscalar_analyze::diag::codes::FORMATION_FAILED,
                format!("task formation failed: {e}"),
            ));
            diags
        }
    };
    LintTarget {
        name: name.to_string(),
        program,
        diagnostics,
    }
}

/// Lints the five built-in workloads and [`SYNTHETIC_SEEDS`] synthetic
/// programs derived from `params.seed`.
pub fn lint_all(params: &WorkloadParams) -> Vec<LintTarget> {
    let mut targets = Vec::new();
    for &spec in Spec92::ALL.iter() {
        let w = spec.build(params);
        targets.push(lint_program(w.name, w.program));
    }
    for i in 0..SYNTHETIC_SEEDS {
        let seed = params.seed.wrapping_add(i);
        let p = random_program(seed, &SyntheticConfig::default());
        targets.push(lint_program(&format!("synthetic/{seed}"), p));
    }
    targets
}

/// Renders a lint run as human-readable text (one block per target with
/// findings, then a summary line).
pub fn render(targets: &[LintTarget]) -> String {
    let mut out = String::new();
    for t in targets {
        if t.diagnostics.is_empty() {
            continue;
        }
        out.push_str(&format!("# {}\n", t.name));
        out.push_str(&multiscalar_analyze::render_all(&t.diagnostics, &t.program));
        out.push('\n');
    }
    let errors: usize = targets.iter().map(|t| t.errors()).sum();
    let warnings: usize = targets.iter().map(|t| t.warnings()).sum();
    let notes: usize = targets.iter().map(|t| t.notes()).sum();
    out.push_str(&format!(
        "linted {} targets: {errors} errors, {warnings} warnings, {notes} notes\n",
        targets.len()
    ));
    out
}

/// Renders a lint run as JSON lines; each line carries its target name.
pub fn render_json(targets: &[LintTarget]) -> String {
    let mut out = String::new();
    for t in targets {
        for d in &t.diagnostics {
            out.push_str(&format!(
                "{{\"target\":\"{}\",\"diagnostic\":{}}}\n",
                t.name,
                d.render_json()
            ));
        }
    }
    out
}

/// Renders one catalog entry for `harness lint --explain <CODE>`.
pub fn render_explain(code: &multiscalar_analyze::diag::Code) -> String {
    let mut out = format!(
        "{} ({}, pass `{}`): {}\n\n",
        code.id, code.severity, code.pass, code.brief
    );
    // Re-wrap the catalog's long-form text to ~76 columns.
    let mut col = 0;
    for word in code.explain.split_whitespace() {
        if col > 0 && col + 1 + word.len() > 76 {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
    out
}

/// `true` if the run should fail CI: any error, or any warning when
/// `deny_warnings` is set.
pub fn failed(targets: &[LintTarget], deny_warnings: bool) -> bool {
    targets
        .iter()
        .any(|t| t.errors() > 0 || (deny_warnings && t.warnings() > 0))
}

/// Builds the ranked squash-proneness report for `harness lint
/// --speculation` over the same target set as [`lint_all`].
pub fn speculation_report(params: &WorkloadParams) -> String {
    use multiscalar_taskform::TaskFormer;
    let mut out = String::new();
    for t in lint_all(params) {
        let Ok(tasks) = TaskFormer::default().form(&t.program) else {
            continue;
        };
        let report = multiscalar_analyze::spec::analyze(&t.program, &tasks);
        out.push_str(&multiscalar_analyze::spec::render_report(
            &t.name, &t.program, &report,
        ));
    }
    out
}

/// The registry tool entry: `--explain`, `--speculation`, or the full
/// lint sweep rendered as text or JSON per the request's format, with
/// denied warnings reported as a failing (but rendered) output.
pub fn run_tool(ctx: &crate::registry::ExpCtx) -> Result<crate::registry::Output, String> {
    use crate::proto::OutputFormat;
    use crate::registry::Output;
    // `--explain CODE` prints the catalog entry and touches no program.
    if let Some(code) = &ctx.req.opts.explain {
        return match multiscalar_analyze::diag::codes::lookup(code) {
            Some(c) => Ok(Output::text(render_explain(c))),
            None => {
                let mut msg = format!("unknown diagnostic code `{code}`; known codes:");
                for c in multiscalar_analyze::diag::codes::ALL {
                    msg.push_str(&format!("\n  {}  {}", c.id, c.brief));
                }
                Err(msg)
            }
        };
    }
    if ctx.req.opts.speculation {
        return Ok(Output::text(speculation_report(&ctx.req.params)));
    }
    // `harness lint FILE.masm`: assemble the file and lint it alone.
    // Assembly errors render through the same diagnostic machinery with
    // source spans (rustc-style carets, or `line`/`col` in JSON).
    if let Some(path) = &ctx.req.opts.file {
        let text = crate::read_input(path)?;
        let target = match multiscalar_isa::assemble(&text) {
            Ok(asm) => lint_program_with_entries(path, asm.program, &asm.task_entries),
            Err(errs) => {
                let diags = multiscalar_analyze::asm_diagnostics(&errs);
                let body = if ctx.req.format == OutputFormat::Json {
                    multiscalar_analyze::render_all_json(&diags)
                } else {
                    multiscalar_analyze::render_all_in_source(&diags, path, &text)
                };
                return Ok(Output {
                    body,
                    files: Vec::new(),
                    ok: false,
                });
            }
        };
        let targets = std::slice::from_ref(&target);
        let body = if ctx.req.format == OutputFormat::Json {
            render_json(targets)
        } else {
            render(targets)
        };
        return Ok(Output {
            body,
            files: Vec::new(),
            ok: !failed(targets, ctx.req.opts.deny_warnings),
        });
    }
    let targets = lint_all(&ctx.req.params);
    let body = if ctx.req.format == OutputFormat::Json {
        render_json(&targets)
    } else {
        render(&targets)
    };
    Ok(Output {
        body,
        files: Vec::new(),
        ok: !failed(&targets, ctx.req.opts.deny_warnings),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_workloads_and_synthetics_lint_clean() {
        let targets = lint_all(&WorkloadParams::small(7));
        assert!(!failed(&targets, true), "{}", render(&targets));
    }

    #[test]
    fn lint_reports_a_broken_program() {
        use multiscalar_isa::{Cond, ProgramBuilder, Reg};
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let elsewhere = b.new_label();
        b.branch(Cond::Eq, Reg(1), Reg(2), elsewhere);
        b.halt();
        b.end_function();
        b.begin_function("other");
        b.nop();
        b.bind(elsewhere);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let t = lint_program("broken", p);
        assert!(t.errors() > 0);
        let text = render(std::slice::from_ref(&t));
        assert!(text.contains("error[ir]"), "{text}");
        let json = render_json(std::slice::from_ref(&t));
        assert!(json.contains("\"target\":\"broken\""), "{json}");
    }
}
