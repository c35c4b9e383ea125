//! The two-pass assembler: statements → symbol table → encoded program.
//!
//! Pass 1 walks the token stream line by line, parsing each statement
//! into a spanned template, assigning every instruction its code address
//! and every data word its index, and recording symbols (function names,
//! code labels, data labels) as it goes. Because addresses only depend on
//! statement *counts*, the completed symbol table resolves forward
//! references with no fixup machinery at all — pass 2 simply evaluates
//! every operand expression against it and encodes [`Instruction`]s.
//!
//! Both passes push into one diagnostics list and keep going (pass 1
//! recovers at line granularity), so a failed assembly reports every
//! finding at once. Structural validation mirrors what
//! [`crate::builder::ProgramBuilder::finish`] enforces for generated
//! programs: functions are non-empty, end in an unconditional transfer,
//! and the entry (`func!`, defaulting to the last function) exists.

use super::expr::{self, Cursor, Expr};
use super::lexer::{self, Tok, Token};
use super::{codes, AsmDiagnostic, Assembled, Span};
use crate::inst::{AluOp, Cond, Instruction, Reg, NUM_REGS};
use crate::program::{Addr, FuncId, Function, Program};
use std::collections::HashMap;

/// Largest word count a single `.zero` directive may reserve (4 MiB of
/// data) — a guard against runaway allocations from malformed or fuzzed
/// source, not a meaningful program limit.
pub const MAX_ZERO_WORDS: i64 = 1 << 20;

/// Largest data section a program may declare across all its `.data` and
/// `.zero` directives (16 MiB of data): twice the largest generated
/// workload's (compress at scale 64, 1,922,304 words), and a bound on what
/// one source file can make the assembler allocate.
pub const MAX_DATA_WORDS: usize = 1 << 22;

/// An instruction parsed but not yet encoded: registers are resolved
/// (they never depend on symbols) while immediates, offsets and targets
/// stay as expressions until pass 2.
#[derive(Debug, Clone)]
enum Template {
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: Expr,
    },
    LoadImm {
        rd: Reg,
        imm: Expr,
    },
    Load {
        rd: Reg,
        base: Reg,
        offset: Expr,
    },
    Store {
        src: Reg,
        base: Reg,
        offset: Expr,
    },
    Branch {
        cond: Cond,
        rs1: Reg,
        rs2: Reg,
        target: Expr,
    },
    Jump {
        target: Expr,
    },
    JumpIndirect {
        rs: Reg,
        targets: Option<Vec<Expr>>,
    },
    Call {
        target: Expr,
    },
    CallIndirect {
        rs: Reg,
        targets: Option<Vec<Expr>>,
    },
    Return,
    Halt,
    Nop,
}

impl Template {
    /// Mirrors [`Instruction::is_unconditional_transfer`] — decidable
    /// before encoding, for the falls-off-end check.
    fn is_unconditional_transfer(&self) -> bool {
        matches!(
            self,
            Template::Jump { .. }
                | Template::JumpIndirect { .. }
                | Template::Call { .. }
                | Template::CallIndirect { .. }
                | Template::Return
                | Template::Halt
        )
    }
}

/// What a symbol names — only used to word diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymKind {
    Func,
    Label,
    DataLabel,
}

impl SymKind {
    fn what(self) -> &'static str {
        match self {
            SymKind::Func => "function",
            SymKind::Label => "label",
            SymKind::DataLabel => "data label",
        }
    }
}

#[derive(Debug, Clone)]
struct Symbol {
    value: i64,
    kind: SymKind,
    span: Span,
}

struct FnDef {
    name: String,
    start: u32,
    end: u32,
    span: Span,
}

struct PendingInst {
    addr: u32,
    template: Template,
    span: Span,
}

struct PendingData {
    index: usize,
    values: Vec<Expr>,
}

/// All of pass 1's accumulated state.
struct Assembler {
    symbols: HashMap<String, Symbol>,
    funcs: Vec<FnDef>,
    insts: Vec<PendingInst>,
    data: Vec<PendingData>,
    data_len: usize,
    code_len: u32,
    /// Open `func` body, as an index into `funcs`.
    current: Option<usize>,
    /// A statement inside the open function failed to parse — suppress
    /// the body-shape checks (empty, falls-off-end), which would only
    /// cascade from the real finding.
    current_had_errors: bool,
    /// An unconsumed `.task` directive waiting for its instruction.
    pending_task: Option<Span>,
    task_entries: Vec<u32>,
    /// Explicit `func!` entry (function index, bang span).
    entry: Option<(usize, Span)>,
    diags: Vec<AsmDiagnostic>,
}

/// See [`super::assemble`].
pub fn assemble(text: &str) -> Result<Assembled, Vec<AsmDiagnostic>> {
    let (tokens, lex_diags) = lexer::lex(text);
    let mut asm = Assembler {
        symbols: HashMap::new(),
        funcs: Vec::new(),
        insts: Vec::new(),
        data: Vec::new(),
        data_len: 0,
        code_len: 0,
        current: None,
        current_had_errors: false,
        pending_task: None,
        task_entries: Vec::new(),
        entry: None,
        diags: lex_diags,
    };

    // Pass 1: statements, addresses, symbols.
    for line in tokens.split(|t| t.tok == Tok::Newline) {
        asm.statement_line(line);
    }
    let eof = Span::at(text.lines().count().max(1) as u32, 1);
    if let Some(i) = asm.current {
        let d = &asm.funcs[i];
        asm.diags.push(AsmDiagnostic::new(
            codes::BAD_STRUCTURE,
            d.span,
            format!("function `{}` is never closed with `end`", d.name),
        ));
        let f = asm.funcs.last_mut().expect("open function exists");
        f.end = asm.code_len;
        asm.current = None;
        asm.close_function(asm.funcs.len() - 1);
    }
    if asm.funcs.is_empty() {
        asm.diags.push(AsmDiagnostic::new(
            codes::BAD_ENTRY,
            eof,
            "no functions defined (a program needs at least one `func`)",
        ));
    }

    // Pass 2: evaluate and encode against the completed symbol table.
    let program = asm.encode();

    if asm.diags.is_empty() {
        let mut task_entries: Vec<Addr> = asm.task_entries.iter().map(|&a| Addr(a)).collect();
        task_entries.sort_unstable();
        task_entries.dedup();
        Ok(Assembled {
            program: program.expect("no diagnostics means the program encoded"),
            task_entries,
        })
    } else {
        asm.diags
            .sort_by_key(|d| (d.span.line, d.span.col, d.code, d.message.clone()));
        asm.diags.dedup();
        Err(asm.diags)
    }
}

impl Assembler {
    /// Parses one source line: any number of `name:` label bindings, then
    /// at most one directive or instruction. Errors skip the rest of the
    /// line — recovery happens at the next newline.
    fn statement_line(&mut self, line: &[Token]) {
        let eol = line
            .last()
            .map(|t| Span {
                line: t.span.line,
                col: t.span.col + t.span.len,
                len: 1,
            })
            .unwrap_or(Span::at(1, 1));
        let mut c = Cursor::new(line, eol);
        loop {
            let Some(first) = c.peek() else {
                return; // blank line (or labels only)
            };
            // `name:` — bind and keep scanning the same line.
            if let Tok::Ident(name) = &first.tok {
                if c.peek2().is_some_and(|t| t.tok == Tok::Colon) {
                    let span = first.span;
                    let name = name.clone();
                    c.bump();
                    c.bump();
                    self.bind_label(name, span);
                    continue;
                }
            }
            if let Err(d) = self.parse_statement(&mut c) {
                self.current_had_errors |= self.current.is_some();
                self.diags.push(d);
            } else if let Some(t) = c.peek() {
                self.current_had_errors |= self.current.is_some();
                self.diags.push(AsmDiagnostic::new(
                    codes::SYNTAX,
                    t.span,
                    format!("expected end of line, found `{}`", expr::describe(&t.tok)),
                ));
            }
            return;
        }
    }

    /// Binds a label at the current position: a code label inside a
    /// function, a data label outside one.
    fn bind_label(&mut self, name: String, span: Span) {
        let (value, kind) = if self.current.is_some() {
            (self.code_len as i64, SymKind::Label)
        } else {
            (self.data_len as i64, SymKind::DataLabel)
        };
        self.define(name, value, kind, span);
    }

    /// Installs a symbol, diagnosing redefinition (E105 for labels, E107
    /// for functions) against the original definition site.
    fn define(&mut self, name: String, value: i64, kind: SymKind, span: Span) {
        if let Some(prev) = self.symbols.get(&name) {
            let code = if kind == SymKind::Func && prev.kind == SymKind::Func {
                codes::DUPLICATE_FUNCTION
            } else {
                codes::DUPLICATE_LABEL
            };
            self.diags.push(AsmDiagnostic::new(
                code,
                span,
                format!(
                    "{} `{name}` is already defined as a {} at line {}",
                    kind.what(),
                    prev.kind.what(),
                    prev.span.line
                ),
            ));
            return;
        }
        self.symbols.insert(name, Symbol { value, kind, span });
    }

    fn parse_statement(&mut self, c: &mut Cursor) -> Result<(), AsmDiagnostic> {
        let t = c.bump().expect("caller checked non-empty");
        match &t.tok {
            Tok::Directive(name) => self.parse_directive(name, t.span, c),
            Tok::Ident(name) if name == "func" => {
                let bang = c.peek().is_some_and(|t| t.tok == Tok::Bang);
                if bang {
                    c.bump();
                }
                self.begin_function(t.span, bang, c)
            }
            Tok::Ident(name) if name == "end" => self.end_function(t.span),
            Tok::Ident(name) => {
                if self.current.is_none() {
                    return Err(AsmDiagnostic::new(
                        codes::BAD_STRUCTURE,
                        t.span,
                        format!("instruction `{name}` outside any function"),
                    ));
                }
                let template = parse_instruction(name, t.span, c)?;
                self.emit(template, t.span);
                Ok(())
            }
            other => Err(AsmDiagnostic::new(
                codes::SYNTAX,
                t.span,
                format!("expected statement, found `{}`", expr::describe(other)),
            )),
        }
    }

    fn parse_directive(
        &mut self,
        name: &str,
        span: Span,
        c: &mut Cursor,
    ) -> Result<(), AsmDiagnostic> {
        match name {
            "data" => {
                let mut values = Vec::new();
                values.push(expr::parse(c)?);
                while c.peek().is_some_and(|t| t.tok == Tok::Comma) {
                    c.bump();
                    values.push(expr::parse(c)?);
                }
                self.reserve_data(values.len(), "data", span)?;
                self.data.push(PendingData {
                    index: self.data_len,
                    values,
                });
                self.data_len += self.data.last().expect("just pushed").values.len();
                Ok(())
            }
            "zero" => {
                let count = expr::parse(c)?;
                // Evaluated *now*, with the symbols defined so far: later
                // data-label addresses depend on this directive's size.
                let resolve = |n: &str| self.symbols.get(n).map(|s| s.value);
                let n = count.eval(&resolve)?;
                if !(0..=MAX_ZERO_WORDS).contains(&n) {
                    return Err(AsmDiagnostic::new(
                        codes::OUT_OF_RANGE,
                        count.span(),
                        format!("`.zero` count {n} out of range (0..={MAX_ZERO_WORDS})"),
                    ));
                }
                self.reserve_data(n as usize, "zero", count.span())?;
                self.data_len += n as usize;
                Ok(())
            }
            "task" => {
                if self.current.is_none() {
                    return Err(AsmDiagnostic::new(
                        codes::BAD_TASK_DIRECTIVE,
                        span,
                        "`.task` outside any function",
                    ));
                }
                self.pending_task = Some(span);
                Ok(())
            }
            other => Err(AsmDiagnostic::new(
                codes::UNKNOWN_MNEMONIC,
                span,
                format!("unknown directive `.{other}`"),
            )),
        }
    }

    /// Refuses a `.data` or `.zero` directive of `words` words that would
    /// take the data section past [`MAX_DATA_WORDS`]; its words are then
    /// not counted.
    fn reserve_data(&self, words: usize, directive: &str, span: Span) -> Result<(), AsmDiagnostic> {
        if self.data_len + words <= MAX_DATA_WORDS {
            return Ok(());
        }
        Err(AsmDiagnostic::new(
            codes::OUT_OF_RANGE,
            span,
            format!(
                "`.{directive}` of {words} words takes the data section past \
                 {MAX_DATA_WORDS} words"
            ),
        ))
    }

    fn begin_function(
        &mut self,
        span: Span,
        bang: bool,
        c: &mut Cursor,
    ) -> Result<(), AsmDiagnostic> {
        let name = match c.bump() {
            Some(Token {
                tok: Tok::Ident(n), ..
            }) => n.clone(),
            Some(t) => {
                return Err(AsmDiagnostic::new(
                    codes::SYNTAX,
                    t.span,
                    format!("expected function name, found `{}`", expr::describe(&t.tok)),
                ))
            }
            None => {
                return Err(AsmDiagnostic::new(
                    codes::SYNTAX,
                    c.here(),
                    "expected function name",
                ))
            }
        };
        if self.current.is_some() {
            return Err(AsmDiagnostic::new(
                codes::BAD_STRUCTURE,
                span,
                format!("nested function `{name}` (close the previous one with `end`)"),
            ));
        }
        if let Some(task) = self.pending_task.take() {
            self.diags.push(AsmDiagnostic::new(
                codes::BAD_TASK_DIRECTIVE,
                task,
                "`.task` must be followed by an instruction in the same function",
            ));
        }
        self.define(name.clone(), self.code_len as i64, SymKind::Func, span);
        if bang {
            if let Some((_, prev)) = self.entry {
                self.diags.push(AsmDiagnostic::new(
                    codes::BAD_ENTRY,
                    span,
                    format!(
                        "more than one `func!` (previous entry at line {})",
                        prev.line
                    ),
                ));
            } else {
                self.entry = Some((self.funcs.len(), span));
            }
        }
        self.current = Some(self.funcs.len());
        self.current_had_errors = false;
        self.funcs.push(FnDef {
            name,
            start: self.code_len,
            end: self.code_len,
            span,
        });
        Ok(())
    }

    fn end_function(&mut self, span: Span) -> Result<(), AsmDiagnostic> {
        let Some(i) = self.current.take() else {
            return Err(AsmDiagnostic::new(
                codes::BAD_STRUCTURE,
                span,
                "`end` outside any function",
            ));
        };
        self.funcs[i].end = self.code_len;
        self.close_function(i);
        Ok(())
    }

    /// Body checks shared by `end` and the unclosed-at-EOF recovery path:
    /// non-empty, ends in an unconditional transfer, no dangling `.task`.
    fn close_function(&mut self, i: usize) {
        let (start, end) = (self.funcs[i].start, self.funcs[i].end);
        let (name, span) = (self.funcs[i].name.clone(), self.funcs[i].span);
        if let Some(task) = self.pending_task.take() {
            self.diags.push(AsmDiagnostic::new(
                codes::BAD_TASK_DIRECTIVE,
                task,
                "`.task` must be followed by an instruction in the same function",
            ));
        }
        if std::mem::take(&mut self.current_had_errors) {
            return;
        }
        if start == end {
            self.diags.push(AsmDiagnostic::new(
                codes::BAD_FUNCTION,
                span,
                format!("function `{name}` has no instructions"),
            ));
            return;
        }
        let last = self
            .insts
            .iter()
            .rfind(|p| p.addr == end - 1)
            .expect("every address has an instruction");
        if !last.template.is_unconditional_transfer() {
            self.diags.push(AsmDiagnostic::new(
                codes::BAD_FUNCTION,
                last.span,
                format!(
                    "function `{name}` falls off its end — the last instruction \
                     must be an unconditional transfer (j/jr/call/callr/ret/halt)"
                ),
            ));
        }
    }

    fn emit(&mut self, template: Template, span: Span) {
        if self.pending_task.take().is_some() {
            self.task_entries.push(self.code_len);
        }
        self.insts.push(PendingInst {
            addr: self.code_len,
            template,
            span,
        });
        self.code_len += 1;
    }

    /// Pass 2: evaluates every deferred expression and encodes the
    /// program. Returns `None` when any diagnostic (from either pass)
    /// prevents a well-formed result.
    fn encode(&mut self) -> Option<Program> {
        let symbols = std::mem::take(&mut self.symbols);
        let resolve = move |n: &str| symbols.get(n).map(|s| s.value);

        let mut data = vec![0u32; self.data_len];
        for pd in &self.data {
            for (i, e) in pd.values.iter().enumerate() {
                match e.eval(&resolve) {
                    Ok(v) if (i32::MIN as i64..=u32::MAX as i64).contains(&v) => {
                        data[pd.index + i] = v as u32;
                    }
                    Ok(v) => self.diags.push(AsmDiagnostic::new(
                        codes::OUT_OF_RANGE,
                        e.span(),
                        format!("data word {v} does not fit in 32 bits"),
                    )),
                    Err(d) => self.diags.push(d),
                }
            }
        }

        let code_len = self.code_len;
        let mut code = Vec::with_capacity(code_len as usize);
        let mut indirect_targets: HashMap<u32, Vec<Addr>> = HashMap::new();
        let insts = std::mem::take(&mut self.insts);
        for p in &insts {
            let inst = self.encode_inst(p, &resolve, code_len, &mut indirect_targets);
            code.push(inst.unwrap_or(Instruction::Nop));
        }

        let functions: Vec<Function> = self
            .funcs
            .iter()
            .map(|f| Function::new(f.name.clone(), f.start..f.end))
            .collect();
        // `func!` wins; otherwise the last function is the entry (the
        // original line-oriented dialect's rule, kept for compatibility).
        let entry = self
            .entry
            .map(|(i, _)| i)
            .or(self.funcs.len().checked_sub(1))?;

        if !self.diags.is_empty() {
            return None;
        }
        Some(Program {
            code,
            functions,
            entry: FuncId(entry as u32),
            data,
            indirect_targets,
        })
    }

    /// Encodes one instruction template; pushes diagnostics and returns
    /// `None` when an operand fails to evaluate or is out of range.
    fn encode_inst(
        &mut self,
        p: &PendingInst,
        resolve: &dyn Fn(&str) -> Option<i64>,
        code_len: u32,
        indirect_targets: &mut HashMap<u32, Vec<Addr>>,
    ) -> Option<Instruction> {
        let imm32 = |e: &Expr, diags: &mut Vec<AsmDiagnostic>| -> Option<i32> {
            match e.eval(resolve) {
                Ok(v) if (i32::MIN as i64..=i32::MAX as i64).contains(&v) => Some(v as i32),
                Ok(v) => {
                    diags.push(AsmDiagnostic::new(
                        codes::OUT_OF_RANGE,
                        e.span(),
                        format!("immediate {v} does not fit in a signed 32-bit word"),
                    ));
                    None
                }
                Err(d) => {
                    diags.push(d);
                    None
                }
            }
        };
        let addr = |e: &Expr, diags: &mut Vec<AsmDiagnostic>| -> Option<Addr> {
            match e.eval(resolve) {
                Ok(v) if (0..code_len as i64).contains(&v) => Some(Addr(v as u32)),
                Ok(v) => {
                    diags.push(AsmDiagnostic::new(
                        codes::OUT_OF_RANGE,
                        e.span(),
                        format!("target address {v} outside the program (0..{code_len})"),
                    ));
                    None
                }
                Err(d) => {
                    diags.push(d);
                    None
                }
            }
        };
        let diags = &mut self.diags;
        Some(match &p.template {
            Template::Op { op, rd, rs1, rs2 } => Instruction::Op {
                op: *op,
                rd: *rd,
                rs1: *rs1,
                rs2: *rs2,
            },
            Template::OpImm { op, rd, rs1, imm } => Instruction::OpImm {
                op: *op,
                rd: *rd,
                rs1: *rs1,
                imm: imm32(imm, diags)?,
            },
            Template::LoadImm { rd, imm } => Instruction::LoadImm {
                rd: *rd,
                imm: imm32(imm, diags)?,
            },
            Template::Load { rd, base, offset } => Instruction::Load {
                rd: *rd,
                base: *base,
                offset: imm32(offset, diags)?,
            },
            Template::Store { src, base, offset } => Instruction::Store {
                src: *src,
                base: *base,
                offset: imm32(offset, diags)?,
            },
            Template::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Instruction::Branch {
                cond: *cond,
                rs1: *rs1,
                rs2: *rs2,
                target: addr(target, diags)?,
            },
            Template::Jump { target } => Instruction::Jump {
                target: addr(target, diags)?,
            },
            Template::JumpIndirect { rs, targets } => {
                if let Some(ts) = targets {
                    let resolved: Option<Vec<Addr>> = ts.iter().map(|t| addr(t, diags)).collect();
                    indirect_targets.insert(p.addr, resolved?);
                }
                Instruction::JumpIndirect { rs: *rs }
            }
            Template::Call { target } => Instruction::Call {
                target: addr(target, diags)?,
            },
            Template::CallIndirect { rs, targets } => {
                if let Some(ts) = targets {
                    let resolved: Option<Vec<Addr>> = ts.iter().map(|t| addr(t, diags)).collect();
                    indirect_targets.insert(p.addr, resolved?);
                }
                Instruction::CallIndirect { rs: *rs }
            }
            Template::Return => Instruction::Return,
            Template::Halt => Instruction::Halt,
            Template::Nop => Instruction::Nop,
        })
    }
}

fn parse_reg(c: &mut Cursor) -> Result<Reg, AsmDiagnostic> {
    match c.bump() {
        Some(Token {
            tok: Tok::Ident(name),
            span,
        }) => {
            let digits = name.strip_prefix('r').unwrap_or("");
            if !digits.is_empty() && digits.chars().all(|ch| ch.is_ascii_digit()) {
                let n: u32 = digits.parse().unwrap_or(u32::MAX);
                if n < NUM_REGS as u32 {
                    return Ok(Reg(n as u8));
                }
                return Err(AsmDiagnostic::new(
                    codes::BAD_REGISTER,
                    *span,
                    format!("register `{name}` out of range (r0..r{})", NUM_REGS - 1),
                ));
            }
            Err(AsmDiagnostic::new(
                codes::BAD_REGISTER,
                *span,
                format!("expected register (r0..r{}), found `{name}`", NUM_REGS - 1),
            ))
        }
        Some(t) => Err(AsmDiagnostic::new(
            codes::BAD_REGISTER,
            t.span,
            format!("expected register, found `{}`", expr::describe(&t.tok)),
        )),
        None => Err(AsmDiagnostic::new(
            codes::BAD_REGISTER,
            c.here(),
            "expected register, found end of line",
        )),
    }
}

fn comma(c: &mut Cursor) -> Result<(), AsmDiagnostic> {
    c.expect(&Tok::Comma, "`,`").map(|_| ())
}

/// `[expr, expr, ...]` — the optional declared-target list of `jr` and
/// `callr`. Returns `None` when the list is absent.
fn parse_target_list(c: &mut Cursor) -> Result<Option<Vec<Expr>>, AsmDiagnostic> {
    if !c.peek().is_some_and(|t| t.tok == Tok::LBracket) {
        return Ok(None);
    }
    c.bump();
    let mut targets = Vec::new();
    if c.peek().is_some_and(|t| t.tok == Tok::RBracket) {
        c.bump();
        return Ok(Some(targets));
    }
    targets.push(expr::parse(c)?);
    while c.peek().is_some_and(|t| t.tok == Tok::Comma) {
        c.bump();
        targets.push(expr::parse(c)?);
    }
    c.expect(&Tok::RBracket, "`]`")?;
    Ok(Some(targets))
}

/// `offset(base)` — the memory operand of `ld`/`st`.
fn parse_mem(c: &mut Cursor) -> Result<(Expr, Reg), AsmDiagnostic> {
    let offset = expr::parse(c)?;
    c.expect(&Tok::LParen, "`(`")?;
    let base = parse_reg(c)?;
    c.expect(&Tok::RParen, "`)`")?;
    Ok((offset, base))
}

fn alu_op(name: &str) -> Option<AluOp> {
    Some(match name {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "slt" => AluOp::Slt,
        "sltu" => AluOp::Sltu,
        _ => return None,
    })
}

fn branch_cond(name: &str) -> Option<Cond> {
    Some(match name {
        "beq" => Cond::Eq,
        "bne" => Cond::Ne,
        "blt" => Cond::Lt,
        "bge" => Cond::Ge,
        "bltu" => Cond::Ltu,
        "bgeu" => Cond::Geu,
        _ => return None,
    })
}

fn parse_instruction(name: &str, span: Span, c: &mut Cursor) -> Result<Template, AsmDiagnostic> {
    if let Some(op) = alu_op(name) {
        let rd = parse_reg(c)?;
        comma(c)?;
        let rs1 = parse_reg(c)?;
        comma(c)?;
        let rs2 = parse_reg(c)?;
        return Ok(Template::Op { op, rd, rs1, rs2 });
    }
    if let Some(op) = name.strip_suffix('i').and_then(alu_op) {
        let rd = parse_reg(c)?;
        comma(c)?;
        let rs1 = parse_reg(c)?;
        comma(c)?;
        let imm = expr::parse(c)?;
        return Ok(Template::OpImm { op, rd, rs1, imm });
    }
    if let Some(cond) = branch_cond(name) {
        let rs1 = parse_reg(c)?;
        comma(c)?;
        let rs2 = parse_reg(c)?;
        comma(c)?;
        let target = expr::parse(c)?;
        return Ok(Template::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
    }
    match name {
        "li" => {
            let rd = parse_reg(c)?;
            comma(c)?;
            let imm = expr::parse(c)?;
            Ok(Template::LoadImm { rd, imm })
        }
        "ld" => {
            let rd = parse_reg(c)?;
            comma(c)?;
            let (offset, base) = parse_mem(c)?;
            Ok(Template::Load { rd, base, offset })
        }
        "st" => {
            let src = parse_reg(c)?;
            comma(c)?;
            let (offset, base) = parse_mem(c)?;
            Ok(Template::Store { src, base, offset })
        }
        "j" => Ok(Template::Jump {
            target: expr::parse(c)?,
        }),
        "jr" => {
            let rs = parse_reg(c)?;
            let targets = parse_target_list(c)?;
            Ok(Template::JumpIndirect { rs, targets })
        }
        "call" => {
            // `call name`, `call label+2` or `call @17` (explicit address).
            if c.peek().is_some_and(|t| t.tok == Tok::At) {
                c.bump();
            }
            Ok(Template::Call {
                target: expr::parse(c)?,
            })
        }
        "callr" => {
            let rs = parse_reg(c)?;
            let targets = parse_target_list(c)?;
            Ok(Template::CallIndirect { rs, targets })
        }
        "ret" => Ok(Template::Return),
        "halt" => Ok(Template::Halt),
        "nop" => Ok(Template::Nop),
        other => Err(AsmDiagnostic::new(
            codes::UNKNOWN_MNEMONIC,
            span,
            format!("unknown mnemonic `{other}`"),
        )),
    }
}
