//! The `.masm` assembler: span-carrying two-pass assembly.
//!
//! This module is the real frontend behind [`crate::parse::parse_program`]:
//! a lexer producing spanned tokens ([`lexer`]), a constant-expression
//! grammar ([`expr`]), and a two-pass assembler ([`assembler`]) that
//! builds a [`Program`] directly:
//!
//! * **Pass 1** lexes and parses every statement, assigns code and data
//!   addresses, and populates one global symbol table (function names,
//!   code labels, data labels). Forward references are free — a symbol's
//!   value is its assigned address, known before anything is encoded.
//! * **Pass 2** evaluates operand expressions against the completed
//!   table, encodes instructions, and runs builder-equivalent structural
//!   validation (non-empty functions that end in an unconditional
//!   transfer, a resolvable entry point).
//!
//! Errors never abort at the first finding: both passes accumulate
//! [`AsmDiagnostic`]s — each carrying a stable `E1xx` code and a source
//! [`Span`] — and a failed assembly returns them all, sorted by source
//! position. The `multiscalar-analyze` crate maps these codes into its
//! diagnostic catalog so `harness lint`/`harness asm` render them
//! rustc-style (`--explain E1xx` works like any other catalog code).
//!
//! Beyond the original line-oriented dialect, the assembler accepts
//! constant expressions (`lo(table)+4`, `(limit*2)-1`) wherever an
//! immediate, offset, count or target address is expected, data labels
//! (a label bound outside any function names the next data word), and a
//! `.task` directive that declares the next instruction as a mandatory
//! Multiscalar task boundary ([`Assembled::task_entries`]; the task
//! former seeds a region there in addition to its own mandatory set).

pub mod assembler;
pub mod expr;
pub mod lexer;

use crate::program::{Addr, Program};
use std::fmt;

/// A half-open source region: 1-based line and column plus a length in
/// characters. Spans never cross lines (statements are line-oriented).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
    /// Length in characters (at least 1, so a caret is always drawable).
    pub len: u32,
}

impl Span {
    /// A one-character span at `line`/`col`.
    pub fn at(line: u32, col: u32) -> Span {
        Span { line, col, len: 1 }
    }

    /// The smallest span covering both `self` and `other` (same line:
    /// extends to the later end; different lines: keeps `self`).
    pub fn to(self, other: Span) -> Span {
        if other.line != self.line {
            return self;
        }
        let end = (other.col + other.len).max(self.col + self.len);
        Span {
            line: self.line,
            col: self.col,
            len: end - self.col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Stable diagnostic codes for assembly errors. The ids live in the
/// `E1xx` block of the `multiscalar-analyze` catalog (pass `asm`), so
/// `harness lint --explain E1xx` documents each one.
pub mod codes {
    /// Malformed statement: unexpected token, missing separator.
    pub const SYNTAX: &str = "E101";
    /// Unknown mnemonic or directive.
    pub const UNKNOWN_MNEMONIC: &str = "E102";
    /// Bad register operand (not `r0`..`r31`).
    pub const BAD_REGISTER: &str = "E103";
    /// Value out of range for its position (immediate, data word,
    /// `.zero` count, target address).
    pub const OUT_OF_RANGE: &str = "E104";
    /// Duplicate label definition.
    pub const DUPLICATE_LABEL: &str = "E105";
    /// Undefined symbol in an operand expression.
    pub const UNDEFINED_SYMBOL: &str = "E106";
    /// Duplicate function definition.
    pub const DUPLICATE_FUNCTION: &str = "E107";
    /// Statement outside its required context (code outside a function,
    /// nested `func`, stray or missing `end`).
    pub const BAD_STRUCTURE: &str = "E108";
    /// Function body invalid: empty, or falls off its own end.
    pub const BAD_FUNCTION: &str = "E109";
    /// Constant expression cannot be evaluated (division by zero,
    /// overflow, malformed grammar, nesting deeper than
    /// [`super::expr::MAX_EXPR_DEPTH`] levels).
    pub const BAD_EXPRESSION: &str = "E110";
    /// `.task` directive in an invalid position.
    pub const BAD_TASK_DIRECTIVE: &str = "E111";
    /// Entry-point error: no functions, or more than one `func!`.
    pub const BAD_ENTRY: &str = "E112";
}

/// One assembly finding: a stable catalog code, a message, and the source
/// span it anchors to. All assembler diagnostics are errors (the
/// assembler has no lint-grade findings; those belong to `analyze`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmDiagnostic {
    /// Stable catalog id (`E101`..`E112`, see [`codes`]).
    pub code: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
    /// Source region the finding anchors to.
    pub span: Span,
}

impl AsmDiagnostic {
    pub(crate) fn new(code: &'static str, span: Span, message: impl Into<String>) -> AsmDiagnostic {
        AsmDiagnostic {
            code,
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for AsmDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} [{}]",
            self.span.line, self.message, self.code
        )
    }
}

/// A successful assembly: the program plus the source-level metadata that
/// is *not* part of [`Program`] (and therefore not reproduced by the
/// disassembler): the task boundaries declared with `.task`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembled {
    /// The assembled program.
    pub program: Program,
    /// Addresses declared as mandatory task entries via `.task`, sorted
    /// and deduplicated. Empty when the source declares none.
    pub task_entries: Vec<Addr>,
}

/// Assembles `.masm` source into a [`Program`] plus declared task
/// boundaries. On failure returns **every** diagnostic found, sorted by
/// source position — never just the first.
pub fn assemble(text: &str) -> Result<Assembled, Vec<AsmDiagnostic>> {
    assembler::assemble(text)
}
