//! The diagnostic type shared by every analyzer pass, plus the two
//! renderers: a human-readable rustc-style one and a machine-readable
//! JSON-lines one for CI.
//!
//! Every finding carries a stable [`Code`] (`E0xx` errors, `W0xx`
//! warnings, `N0xx` notes) from the [`codes`] catalog. Codes are part of
//! the CLI contract: they appear in both renderers, `harness lint
//! --explain <CODE>` prints the catalog's long-form description, and the
//! golden-file tests pin them, so a code is never reused for a different
//! finding once released.

use multiscalar_isa::{Addr, Program};
use multiscalar_taskform::TaskId;
use std::fmt;

/// How bad a finding is.
///
/// Errors are correctness violations (speculation hardware would misbehave
/// or the program is malformed); warnings are soundness-preserving but
/// undesirable (lost performance, dead metadata); notes are observations
/// that are expected in ordinary programs (assumption-based bounds
/// classifications, dead writes in generated code) and never fail a lint
/// run, even under `--deny warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An observation; never fails a lint run.
    Note,
    /// Suspicious but not a correctness violation (perf lints, dead exits).
    Warning,
    /// A violated invariant the simulator relies on.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which analyzer pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// The `.masm` assembler frontend (`multiscalar_isa::asm`).
    Asm,
    /// Instruction-level IR validation ([`crate::ir`]).
    Ir,
    /// Task/TFG structural checking ([`crate::tfg_check`]).
    Tfg,
    /// Create-mask dataflow analysis ([`crate::mask`]).
    Mask,
    /// Interval-based memory bounds checking ([`crate::bounds`]).
    Bounds,
    /// Register liveness lints ([`crate::liveness`]).
    Liveness,
}

impl Pass {
    /// Short lowercase name used in both renderers (`error[tfg][E020]: ...`).
    pub fn name(self) -> &'static str {
        match self {
            Pass::Asm => "asm",
            Pass::Ir => "ir",
            Pass::Tfg => "tfg",
            Pass::Mask => "create-mask",
            Pass::Bounds => "bounds",
            Pass::Liveness => "liveness",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A stable diagnostic code. Identity is the `id` string; two codes are
/// equal iff their ids are.
#[derive(Debug)]
pub struct Code {
    /// Stable identifier: `E0xx` for errors, `W0xx` for warnings, `N0xx`
    /// for notes. Never reused across releases.
    pub id: &'static str,
    /// Severity every diagnostic with this code carries.
    pub severity: Severity,
    /// Pass every diagnostic with this code originates from.
    pub pass: Pass,
    /// One-line summary shown by `harness lint --explain` listings.
    pub brief: &'static str,
    /// Long-form description printed by `harness lint --explain <CODE>`.
    pub explain: &'static str,
}

impl PartialEq for Code {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Code {}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id)
    }
}

/// The stable code catalog. Every emission site references exactly one
/// entry; `--explain` and the golden tests iterate [`codes::ALL`].
pub mod codes {
    use super::{Code, Pass, Severity};

    macro_rules! catalog {
        ($($name:ident = $id:literal, $sev:ident, $pass:ident, $brief:literal, $explain:literal;)*) => {
            $(
                #[doc = concat!("`", $id, "`: ", $brief)]
                pub static $name: Code = Code {
                    id: $id,
                    severity: Severity::$sev,
                    pass: Pass::$pass,
                    brief: $brief,
                    explain: $explain,
                };
            )*
            /// Every code in the catalog, in id order.
            pub static ALL: &[&Code] = &[$(&$name),*];
        };
    }

    catalog! {
        // --- ir: instruction-level validation -------------------------
        ORPHAN_INSTRUCTION = "E001", Error, Ir,
            "instruction belongs to no function",
            "Every instruction must lie inside some function's address \
             range. The task former partitions functions, so an orphan \
             instruction would never be assigned to a task and could only \
             be reached by a malformed transfer.";
        EMPTY_FUNCTION = "E002", Error, Ir,
            "function is empty",
            "A function with an empty address range has no entry \
             instruction; calling it would fetch from another function's \
             body or past the end of the program.";
        FALL_OFF_END = "E003", Error, Ir,
            "function can fall off its end",
            "The last instruction of a function must be an unconditional \
             transfer (return, jump, halt). Otherwise sequential execution \
             falls through into whatever function is laid out next, which \
             the task former and both simulators assume cannot happen.";
        REGISTER_RANGE = "E004", Error, Ir,
            "register out of range",
            "A source or destination register index is outside the \
             architectural file (r0..r31). The interpreter would panic on \
             the access; hardware would alias a wrong register.";
        TRANSFER_RANGE = "E005", Error, Ir,
            "transfer target out of range",
            "A branch or jump targets an address outside the program. \
             Fetch at the target would fail.";
        CROSS_FUNCTION_BRANCH = "E006", Error, Ir,
            "branch target lies in a different function",
            "Branches and jumps must stay inside their function; \
             inter-function control transfer is only legal through calls \
             and returns. A cross-function branch breaks the CFG builder's \
             per-function invariant and the task former's function \
             partitioning.";
        CALL_NOT_ENTRY = "E007", Error, Ir,
            "call target is not a function entry",
            "Direct and indirect calls must land on a function's first \
             instruction: the return-address stack and the task former's \
             call-exit headers both assume it.";
        BAD_INDIRECT_TARGET = "E008", Error, Ir,
            "declared indirect target is invalid",
            "An address in a `JumpIndirect` instruction's declared target \
             metadata is out of range or lies in a different function. The \
             sequencer predicts among declared targets, so an invalid \
             entry could be predicted and fetched.";
        STRAY_INDIRECT_METADATA = "E009", Error, Ir,
            "indirect-target metadata on a non-indirect instruction",
            "Declared-target metadata is only meaningful on `JumpIndirect` \
             and `CallIndirect`. Metadata on any other instruction \
             indicates a builder or transformation bug.";

        // --- tfg: task partition / task-flow-graph structure ----------
        UNTASKED_INSTRUCTION = "E020", Error, Tfg,
            "instruction belongs to no task",
            "The task partition must cover the whole program: an \
             instruction outside every task would be unreachable under \
             task-by-task sequencing, or reached without a header.";
        TASK_MAP_OVERRUN = "E021", Error, Tfg,
            "task map extends past the end of the program",
            "The address-to-task map claims addresses beyond the last \
             instruction; the partition disagrees with the program it was \
             formed over.";
        TASK_OWNERSHIP = "E022", Error, Tfg,
            "task entry or block not owned by the task",
            "A task's entry or one of its block starts resolves to a \
             different task (overlapping tasks) or to no task at all. Only \
             one task can own an address.";
        NO_EXITS = "E023", Error, Tfg,
            "task has no exits",
            "A task with no exits can never hand control to a successor: \
             the global sequencer would stall forever at its head.";
        TOO_MANY_EXITS = "E024", Error, Tfg,
            "task exceeds the header exit limit",
            "Task headers encode at most MAX_EXITS exits (paper \u{a7}2.1); \
             a header beyond the limit is unencodable.";
        EXIT_SOURCE = "E025", Error, Tfg,
            "exit source lies outside the task or program",
            "An exit specifier names a source instruction the task does \
             not own; the hardware decodes specifiers in place of the \
             task's own instructions, so a foreign source is meaningless.";
        EXIT_TARGET_NOT_TASK = "E026", Error, Tfg,
            "exit target or call return point does not start a task",
            "The sequencer predicts among exit targets and call return \
             points; each must itself be a task entry or prediction could \
             start execution mid-task, skipping its header.";
        EXIT_SPEC_MISMATCH = "E027", Error, Tfg,
            "exit specifier does not match its instruction",
            "The exit specifier must describe the instruction that \
             realises it (kind, target, return address) because the \
             hardware decodes the specifier *instead of* the instruction.";
        TFG_DISAGREES = "E028", Error, Tfg,
            "task flow graph disagrees with the task headers",
            "The TFG is derived from the headers; a node count or arc that \
             disagrees with the header exits means the derivation (or a \
             later mutation) corrupted it.";
        ENTRY_NOT_TASK = "E029", Error, Tfg,
            "program entry point does not start a task",
            "Execution begins at the program entry; if no task starts \
             there, the sequencer has no first task to dispatch.";
        ENTRY_NOT_BLOCK = "E030", Error, Tfg,
            "task entry does not start a basic block",
            "A task entry in the middle of a basic block means the \
             partition split an instruction sequence the CFG considers \
             atomic; per-task reachability cannot be computed.";
        FORMATION_FAILED = "E034", Error, Tfg,
            "task formation failed",
            "The task former rejected the program outright, so only \
             instruction-level diagnostics are available. The message \
             carries the former's own error.";
        UNREACHABLE_TASK = "W020", Warning, Tfg,
            "task is unreachable from the program entry",
            "No chain of statically-known exit targets, call return \
             points, or declared indirect targets reaches this task. It \
             wastes header space and predictor reach but cannot affect \
             execution.";
        DEAD_EXIT_UNREACHABLE = "W021", Warning, Tfg,
            "dead exit: source block is unreachable within the task",
            "The exit's source block cannot be reached from the task \
             entry inside the task, so the exit can never be taken; it \
             occupies one of the at-most-four header slots for nothing.";
        DEAD_EXIT_INFEASIBLE = "W022", Warning, Tfg,
            "dead exit: branch side is statically infeasible",
            "The exit sits on the statically dead side of a conditional \
             comparing a register with itself; the branch always goes the \
             other way, so the exit can never be taken.";

        // --- create-mask --------------------------------------------
        MASK_UNSOUND = "E040", Error, Mask,
            "unsound create mask",
            "The task may write a register its create mask omits. A \
             younger task could consume a stale value without waiting — \
             silent wrong execution (paper \u{a7}2.1's forwarding contract).";
        MASK_OVERWIDE = "W040", Warning, Mask,
            "over-wide create mask",
            "The mask promises a register the task can provably never \
             write. Younger consumers stall until the task retires waiting \
             for a value that never comes — a pure performance loss.";

        // --- bounds: interval-based memory bounds ---------------------
        OOB_ACCESS = "E050", Error, Bounds,
            "provably out-of-bounds memory access",
            "Interval analysis proves every execution reaching this \
             load/store computes an effective address outside interpreter \
             memory; executing it always faults. The fuzz soundness oracle \
             cross-checks this claim: if the instruction executes without \
             faulting, the analyzer is wrong.";
        UNPROVEN_ACCESS = "W050", Warning, Bounds,
            "memory access not provably in bounds",
            "The derived address interval straddles the memory bound: the \
             analysis can neither prove the access safe nor prove it \
             faults. The message carries the interval so the producer can \
             add masking or a guard the analysis understands.";
        STACK_ASSUMED = "N050", Note, Bounds,
            "stack access classified under the bounded-stack assumption",
            "The address is stack-pointer-relative in a (possibly \
             recursive) callee, where recursion depth — and hence the \
             concrete SP — is not statically bounded. The pass classifies \
             such accesses under the documented assumption that the stack \
             region [data_len, STACK_TOP] is never exhausted, rather than \
             claiming a proof; they are reported as notes, not counted \
             clean, and never fed to the soundness oracle as claims.";

        // --- liveness -------------------------------------------------
        DEAD_WRITE = "N060", Note, Liveness,
            "dead write: value is never read",
            "Backward liveness (with per-callee use/kill summaries) proves \
             no path from this write reaches a read of the register before \
             its next definition. The write wastes an issue slot and a \
             forwarding send. The fuzz soundness oracle cross-checks dead \
             claims: a read of the written value anywhere in a concrete \
             run disproves the analysis.";
        UNINIT_READ = "N061", Note, Liveness,
            "register may be read before initialisation",
            "Forward must-initialisation cannot prove every path to this \
             read defines the register first. The interpreter zero-fills \
             registers so execution is still deterministic, which is why \
             this is a note; relying on the implicit zero is usually a \
             generator or compiler bug. Registers never written anywhere \
             in the program are exempt (the conventional zero register \
             idiom).";

        // --- asm: .masm assembler frontend ----------------------------
        ASM_SYNTAX = "E101", Error, Asm,
            "malformed assembly syntax",
            "The lexer or statement parser could not make sense of the \
             line: an unexpected token, a stray character, or trailing \
             tokens after a complete statement. The assembler recovers at \
             the next line, so one syntax error does not hide findings in \
             the rest of the file.";
        ASM_UNKNOWN_MNEMONIC = "E102", Error, Asm,
            "unknown mnemonic or directive",
            "The statement head is neither an instruction mnemonic \
             (add/addi/beq/li/ld/st/j/jr/call/callr/ret/halt/nop, ...) \
             nor a recognised directive (.data/.zero/.task). Mnemonics \
             are matched case-sensitively in lowercase, exactly as the \
             disassembler prints them.";
        ASM_BAD_REGISTER = "E103", Error, Asm,
            "bad register name",
            "Register operands are written r0..r31. Anything else — a \
             different prefix, an index at or past the architectural file \
             size, or a bare symbol where a register is required — is \
             rejected rather than silently aliased.";
        ASM_OUT_OF_RANGE = "E104", Error, Asm,
            "value out of encodable range",
            "A constant evaluated fine but does not fit where it is used: \
             immediates must fit in i32, data words in a 32-bit word, \
             `.zero` counts in 0..=2^20, the whole data section in 2^22 \
             words, and code addresses inside the assembled program. The \
             message carries the offending value and the accepted range.";
        ASM_DUPLICATE_LABEL = "E105", Error, Asm,
            "duplicate label",
            "Labels share one global namespace with functions and data \
             labels (the disassembler numbers its labels globally, so \
             round-tripping requires it). The second binding is reported \
             and the first kept; the message cites the original line.";
        ASM_UNDEFINED_SYMBOL = "E106", Error, Asm,
            "undefined symbol",
            "An expression references a name that no function, code \
             label, or data label defines anywhere in the file. Forward \
             references are fine — resolution happens in the second pass \
             against the complete symbol table — so this means the name \
             is defined nowhere at all.";
        ASM_DUPLICATE_FUNCTION = "E107", Error, Asm,
            "duplicate function name",
            "Two `func` blocks bind the same name. The call target and \
             symbol value would be ambiguous; the second definition is \
             rejected.";
        ASM_BAD_STRUCTURE = "E108", Error, Asm,
            "misplaced statement",
            "The file's block structure is broken: an instruction or \
             `end` outside any `func`, a `func` starting inside another \
             function, or a `func` left unclosed at end of file. The \
             assembler closes or skips as needed and keeps going.";
        ASM_BAD_FUNCTION = "E109", Error, Asm,
            "malformed function body",
            "A function body violates an invariant the rest of the stack \
             relies on: it is empty, or its last instruction can fall \
             through past the function's end (it must be an unconditional \
             transfer — jump, return, or halt). These mirror the E002 and \
             E003 program-level checks but fire at assembly time with \
             source spans.";
        ASM_BAD_EXPRESSION = "E110", Error, Asm,
            "constant expression does not evaluate",
            "Evaluation of a constant expression failed: division by \
             zero or 64-bit signed overflow, or the expression nests \
             deeper than 64 levels (each parenthesis, unary minus, \
             lo()/hi() and chained operator adds one). Expressions \
             support + - * /, unary minus, parentheses, and lo()/hi() \
             16-bit splits over integers and symbol values.";
        ASM_BAD_TASK = "E111", Error, Asm,
            "misplaced .task directive",
            "`.task` marks the next instruction as a Multiscalar task \
             entry, so it must appear inside a function and be followed \
             by an instruction in the same function. A `.task` at top \
             level, or dangling before `end`, marks nothing.";
        ASM_BAD_ENTRY = "E112", Error, Asm,
            "program entry is ambiguous or missing",
            "Exactly one function may carry the `func!` entry marker. \
             With no marker the last function in the file is the entry \
             (matching the disassembler's layout); with two markers, or \
             with no functions at all, there is no well-defined place to \
             start execution.";
    }

    /// Looks a code up by id (`lookup("E050")`).
    pub fn lookup(id: &str) -> Option<&'static Code> {
        ALL.iter().copied().find(|c| c.id.eq_ignore_ascii_case(id))
    }
}

/// A location in `.masm` source text: 1-based line and column plus the
/// length of the offending token run, for caret rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SrcLoc {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Length of the region in characters (at least 1).
    pub len: u32,
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The finding's stable catalog code.
    pub code: &'static Code,
    /// Error, warning, or note (always `code.severity`, duplicated for
    /// ergonomic filtering).
    pub severity: Severity,
    /// The pass that found it (always `code.pass`).
    pub pass: Pass,
    /// The task the finding concerns, when task-scoped.
    pub task: Option<TaskId>,
    /// Human-readable description.
    pub message: String,
    /// The instruction address the finding anchors to, when address-scoped.
    pub span: Option<Addr>,
    /// The `.masm` source location, when the finding came from assembling
    /// text (assembler diagnostics only; analyzer passes leave it `None`).
    pub src: Option<SrcLoc>,
}

impl Diagnostic {
    /// Creates a diagnostic from a catalog code; severity and pass come
    /// from the code.
    pub fn new(code: &'static Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity,
            pass: code.pass,
            task: None,
            message: message.into(),
            span: None,
            src: None,
        }
    }

    /// Converts an assembler diagnostic into the shared type, resolving
    /// its stable code against the catalog and carrying the source span.
    pub fn from_asm(d: &multiscalar_isa::AsmDiagnostic) -> Diagnostic {
        let code = codes::lookup(d.code).unwrap_or(&codes::ASM_SYNTAX);
        let mut out = Diagnostic::new(code, d.message.clone());
        out.src = Some(SrcLoc {
            line: d.span.line,
            col: d.span.col,
            len: d.span.len.max(1),
        });
        out
    }

    /// Attaches the task the finding concerns.
    pub fn in_task(mut self, task: TaskId) -> Diagnostic {
        self.task = Some(task);
        self
    }

    /// Attaches the instruction address the finding anchors to.
    pub fn at(mut self, addr: Addr) -> Diagnostic {
        self.span = Some(addr);
        self
    }

    /// Renders one diagnostic rustc-style:
    ///
    /// ```text
    /// error[tfg][E026]: exit target pc 17 does not start a task
    ///   --> main+5 (pc 17) in task#3
    /// ```
    ///
    /// The `-->` line is omitted when the diagnostic has no span or task.
    pub fn render(&self, program: &Program) -> String {
        let mut s = format!(
            "{}[{}][{}]: {}",
            self.severity, self.pass, self.code.id, self.message
        );
        let mut loc = String::new();
        if let Some(addr) = self.span {
            match program.function_at(addr).map(|fid| program.function(fid)) {
                Some(f) => loc = format!("{}+{} (pc {})", f.name(), addr.0 - f.entry().0, addr.0),
                None => loc = format!("pc {}", addr.0),
            }
        }
        if let Some(t) = self.task {
            if !loc.is_empty() {
                loc.push_str(" in ");
            }
            loc.push_str(&t.to_string());
        }
        if !loc.is_empty() {
            s.push_str("\n  --> ");
            s.push_str(&loc);
        }
        s
    }

    /// Renders one diagnostic as a single JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        push_json_str(&mut s, "severity", &self.severity.to_string());
        s.push(',');
        push_json_str(&mut s, "pass", self.pass.name());
        s.push(',');
        push_json_str(&mut s, "code", self.code.id);
        s.push(',');
        match self.task {
            Some(t) => s.push_str(&format!("\"task\":{}", t.0)),
            None => s.push_str("\"task\":null"),
        }
        s.push(',');
        match self.span {
            Some(a) => s.push_str(&format!("\"pc\":{}", a.0)),
            None => s.push_str("\"pc\":null"),
        }
        s.push(',');
        push_json_str(&mut s, "message", &self.message);
        // Source coordinates are appended only when present so the JSON
        // shape (and the golden files pinning it) is unchanged for every
        // diagnostic that does not come from `.masm` text.
        if let Some(l) = self.src {
            s.push_str(&format!(",\"line\":{},\"col\":{}", l.line, l.col));
        }
        s.push('}');
        s
    }

    /// Renders one diagnostic against the `.masm` source it came from,
    /// rustc-style with a caret line:
    ///
    /// ```text
    /// error[asm][E102]: unknown mnemonic `bogus`
    ///   --> prog.masm:2:3
    ///    |
    ///  2 |   bogus r1
    ///    |   ^^^^^
    /// ```
    ///
    /// Falls back to the headline alone when the diagnostic carries no
    /// source location or the line is out of range for `source`.
    pub fn render_in_source(&self, file: &str, source: &str) -> String {
        let mut s = format!(
            "{}[{}][{}]: {}",
            self.severity, self.pass, self.code.id, self.message
        );
        let Some(loc) = self.src else { return s };
        s.push_str(&format!("\n  --> {file}:{}:{}", loc.line, loc.col));
        let Some(text) = source.lines().nth(loc.line as usize - 1) else {
            return s;
        };
        let num = loc.line.to_string();
        let gutter = " ".repeat(num.len());
        let pad = " ".repeat(loc.col.saturating_sub(1) as usize);
        let carets = "^".repeat(loc.len.max(1) as usize);
        s.push_str(&format!(
            "\n {gutter} |\n {num} | {text}\n {gutter} | {pad}{carets}"
        ));
        s
    }
}

fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `true` if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Counts `(errors, warnings, notes)` in a batch.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut n = [0usize; 3];
    for d in diags {
        n[match d.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::Note => 2,
        }] += 1;
    }
    (n[0], n[1], n[2])
}

/// Renders a whole batch rustc-style, one blank line between findings,
/// ending with a `N errors, M warnings, K notes` summary line.
pub fn render_all(diags: &[Diagnostic], program: &Program) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render(program));
        out.push('\n');
    }
    let (errors, warnings, notes) = counts(diags);
    out.push_str(&format!(
        "{errors} errors, {warnings} warnings, {notes} notes\n"
    ));
    out
}

/// Renders a whole batch against `.masm` source, one blank line between
/// findings, ending with the same summary line as [`render_all`].
pub fn render_all_in_source(diags: &[Diagnostic], file: &str, source: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render_in_source(file, source));
        out.push('\n');
    }
    let (errors, warnings, notes) = counts(diags);
    out.push_str(&format!(
        "{errors} errors, {warnings} warnings, {notes} notes\n"
    ));
    out
}

/// Renders a whole batch as JSON lines (one object per line).
pub fn render_all_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_special_characters() {
        let d = Diagnostic::new(&codes::ORPHAN_INSTRUCTION, "a \"quoted\"\nmulti\\line");
        let j = d.render_json();
        assert!(j.contains("a \\\"quoted\\\"\\nmulti\\\\line"));
        assert!(j.contains("\"task\":null"));
        assert!(j.contains("\"code\":\"E001\""));
    }

    #[test]
    fn severity_ordering_puts_errors_above_warnings_above_notes() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn asm_diagnostics_map_to_catalog_codes_with_source_spans() {
        let errs = multiscalar_isa::assemble("func main\n  bogus r1\nend").unwrap_err();
        let d = Diagnostic::from_asm(&errs[0]);
        assert_eq!(d.code.id, "E102");
        assert_eq!(d.pass, Pass::Asm);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(
            d.src,
            Some(SrcLoc {
                line: 2,
                col: 3,
                len: 5
            })
        );
        let json = d.render_json();
        assert!(json.ends_with(",\"line\":2,\"col\":3}"), "{json}");

        let rendered = d.render_in_source("prog.masm", "func main\n  bogus r1\nend");
        assert!(rendered.contains("error[asm][E102]"), "{rendered}");
        assert!(rendered.contains("--> prog.masm:2:3"), "{rendered}");
        assert!(rendered.contains(" 2 |   bogus r1"), "{rendered}");
        assert!(rendered.contains("|   ^^^^^"), "{rendered}");
    }

    #[test]
    fn analyzer_diagnostics_omit_source_fields_from_json() {
        let d = Diagnostic::new(&codes::ORPHAN_INSTRUCTION, "m");
        assert!(!d.render_json().contains("\"line\""));
        assert!(d
            .render_in_source("f.masm", "x")
            .starts_with("error[ir][E001]: m"));
        assert!(!d.render_in_source("f.masm", "x").contains("-->"));
    }

    #[test]
    fn catalog_ids_are_unique_stable_and_consistent() {
        let mut ids: Vec<&str> = codes::ALL.iter().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate code ids");
        for c in codes::ALL {
            let expect = match c.severity {
                Severity::Error => 'E',
                Severity::Warning => 'W',
                Severity::Note => 'N',
            };
            assert!(
                c.id.starts_with(expect) && c.id.len() == 4,
                "{} must be {expect}0xx",
                c.id
            );
            assert!(!c.brief.is_empty() && !c.explain.is_empty(), "{}", c.id);
            assert_eq!(codes::lookup(c.id), Some(*c));
            assert_eq!(codes::lookup(&c.id.to_ascii_lowercase()), Some(*c));
        }
        assert_eq!(codes::lookup("E999"), None);
    }
}
