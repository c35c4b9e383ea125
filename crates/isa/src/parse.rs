//! `.masm` text frontend: [`parse_program`] and the [`to_masm`]
//! disassembler.
//!
//! # The dialect
//!
//! A program is a sequence of data directives and function bodies; `;`
//! starts a comment. Statements are line-oriented:
//!
//! ```text
//! table:                      ; a data label: names the next data word
//! .data 48, 18, lo(table)+2   ; comma-separated constant expressions
//! .zero 8                     ; reserve 8 zeroed words
//!
//! func! main                  ; `!` marks the entry function
//!   li   r1, 0
//! loop:                       ; a code label (global namespace)
//!   ld   r2, table(r1)        ; offset(base) memory operand
//! .task                       ; declare a Multiscalar task boundary here
//!   addi r1, r1, 1
//!   blt  r1, r3, loop
//!   halt
//! end
//! ```
//!
//! Wherever an immediate, offset, count or target address is expected,
//! a full constant expression is accepted: `+ - * /`, unary minus,
//! parentheses, `lo(x)`/`hi(x)` (low/high 16 bits), integer literals
//! (decimal or `0x` hex) and symbols. A symbol names a function (its
//! entry address), a code label (its instruction address) or a data
//! label (its data-word index); forward references are resolved by the
//! assembler's second pass. Instruction mnemonics are the ALU ops
//! (`add`, `sub`, `mul`, `and`, `or`, `xor`, `shl`, `shr`, `slt`,
//! `sltu`, plus an `i`-suffixed immediate form of each), `li`, `ld`/`st`,
//! the branches (`beq`, `bne`, `blt`, `bge`, `bltu`, `bgeu`), `j`, `jr
//! rN [targets...]`, `call`, `callr rN [targets...]`, `ret`, `halt` and
//! `nop`.
//!
//! The entry point is the unique `func!` function, or the **last**
//! function when no `func!` appears (the historical default, kept so
//! existing sources assemble unchanged). `.task` directives do not
//! change the program — they surface through
//! [`crate::asm::Assembled::task_entries`] for the task former.
//!
//! # Errors
//!
//! The assembler never stops at the first problem: [`ParseError`] carries
//! every [`AsmDiagnostic`] found, each with a stable `E1xx` code and a
//! line/column [`crate::asm::Span`]. The `multiscalar-analyze` crate maps
//! these codes into its diagnostic catalog for rustc-style and JSON
//! rendering (`harness lint FILE.masm`, `harness lint --explain E1xx`).
//!
//! # Round trip
//!
//! [`to_masm`] renders any [`Program`] in this dialect with generated
//! `L{n}` labels, and `parse_program(&to_masm(p))` reproduces `p`
//! **exactly** (`Program` equality: code, function table, entry, data
//! and indirect-target metadata). The property is enforced corpus-wide:
//! over the five paper workloads, the seeded fuzz corpus and every
//! differential-fuzzer case (oracle 7).

use crate::asm::{assemble, AsmDiagnostic};
use crate::program::Program;
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse_program`]: every assembly diagnostic, sorted by
/// source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// All findings, sorted by (line, column).
    pub diagnostics: Vec<AsmDiagnostic>,
}

impl ParseError {
    /// The first (source-order) diagnostic — what `Display` shows.
    pub fn first(&self) -> &AsmDiagnostic {
        &self.diagnostics[0]
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.first())?;
        if self.diagnostics.len() > 1 {
            write!(f, " (and {} more)", self.diagnostics.len() - 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Parses `.masm` source into a [`Program`] (see the module docs for the
/// dialect). Equivalent to [`crate::asm::assemble`] with the declared
/// task boundaries dropped.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    match assemble(text) {
        Ok(a) => Ok(a.program),
        Err(diagnostics) => Err(ParseError { diagnostics }),
    }
}

/// Renders a [`Program`] in the assembler dialect accepted by
/// [`parse_program`], with auto-generated labels — the inverse of
/// parsing, up to label names.
///
/// Reparsing the output reproduces the program exactly:
/// `parse_program(&to_masm(p)) == Ok(p)` is a corpus-wide tested
/// property. The output is canonical — disassembling a reassembled
/// program is byte-identical (`to_masm(parse(to_masm(p))) ==
/// to_masm(p)`), which CI exploits to byte-diff `asm → disasm → asm`.
pub fn to_masm(program: &Program) -> String {
    use crate::inst::Instruction;
    use std::fmt::Write as _;

    // Label every in-function branch/jump target and every declared
    // indirect target.
    let mut label_names: HashMap<u32, String> = HashMap::new();
    let ensure = |a: u32, label_names: &mut HashMap<u32, String>| {
        let n = label_names.len();
        label_names.entry(a).or_insert_with(|| format!("L{n}"));
    };
    for f in program.functions() {
        for pc in f.range() {
            let addr = crate::Addr(pc);
            match program.fetch(addr).expect("in range") {
                Instruction::Branch { target, .. } | Instruction::Jump { target } => {
                    ensure(target.0, &mut label_names);
                }
                Instruction::JumpIndirect { .. } | Instruction::CallIndirect { .. } => {
                    if let Some(ts) = program.indirect_targets(addr) {
                        for t in ts {
                            ensure(t.0, &mut label_names);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let mut s = String::new();
    if !program.initial_data().is_empty() {
        // Chunk the data directive for readability; comma separation
        // keeps negative words unambiguous under expression parsing.
        for chunk in program.initial_data().chunks(16) {
            let _ = write!(s, ".data");
            for (i, w) in chunk.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(s, "{sep} {}", *w as i32);
            }
            let _ = writeln!(s);
        }
    }

    let entry = program.entry_function();
    for (fi, f) in program.functions().iter().enumerate() {
        let marker = if crate::FuncId(fi as u32) == entry {
            "func!"
        } else {
            "func"
        };
        let _ = writeln!(s, "{marker} {}", f.name());
        for pc in f.range() {
            if let Some(name) = label_names.get(&pc) {
                let _ = writeln!(s, "{name}:");
            }
            let addr = crate::Addr(pc);
            let inst = program.fetch(addr).expect("in range");
            let line = match inst {
                Instruction::Op { op, rd, rs1, rs2 } => format!("{op} {rd}, {rs1}, {rs2}"),
                Instruction::OpImm { op, rd, rs1, imm } => {
                    format!("{op}i {rd}, {rs1}, {imm}")
                }
                Instruction::LoadImm { rd, imm } => format!("li {rd}, {imm}"),
                Instruction::Load { rd, base, offset } => format!("ld {rd}, {offset}({base})"),
                Instruction::Store { src, base, offset } => {
                    format!("st {src}, {offset}({base})")
                }
                Instruction::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    format!("b{cond} {rs1}, {rs2}, {}", label_names[&target.0])
                }
                Instruction::Jump { target } => format!("j {}", label_names[&target.0]),
                Instruction::JumpIndirect { rs } => match program.indirect_targets(addr) {
                    Some(ts) => {
                        let names: Vec<&str> =
                            ts.iter().map(|t| label_names[&t.0].as_str()).collect();
                        format!("jr {rs} [{}]", names.join(", "))
                    }
                    None => format!("jr {rs}"),
                },
                Instruction::Call { target } => {
                    // A call into the middle of a function keeps its explicit
                    // address: naming the enclosing function would move it to
                    // that function's entry.
                    let callee = match program.function_at(target) {
                        Some(id) if program.function(id).entry() == target => {
                            program.function(id).name().to_string()
                        }
                        _ => format!("@{}", target.0),
                    };
                    format!("call {callee}")
                }
                Instruction::CallIndirect { rs } => match program.indirect_targets(addr) {
                    Some(ts) => {
                        let names: Vec<String> = ts
                            .iter()
                            .map(|t| match program.function_at(*t) {
                                Some(id) if program.function(id).entry() == *t => {
                                    program.function(id).name().to_string()
                                }
                                _ => label_names[&t.0].clone(),
                            })
                            .collect();
                        format!("callr {rs} [{}]", names.join(", "))
                    }
                    None => format!("callr {rs}"),
                },
                Instruction::Return => "ret".to_string(),
                Instruction::Halt => "halt".to_string(),
                Instruction::Nop => "nop".to_string(),
            };
            let _ = writeln!(s, "  {line}");
        }
        let _ = writeln!(s, "end");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{assemble, codes};
    use crate::inst::{AluOp, Cond, Instruction, Reg};
    use crate::interp::Interpreter;
    use crate::program::Addr;

    fn parse_err(text: &str) -> Vec<AsmDiagnostic> {
        parse_program(text)
            .expect_err("source must not assemble")
            .diagnostics
    }

    #[test]
    fn counting_loop() {
        let p = parse_program(
            "func main\n\
             \x20 li r1, 0\n\
             \x20 li r2, 10\n\
             top:\n\
             \x20 addi r1, r1, 1\n\
             \x20 blt r1, r2, top\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        let mut interp = Interpreter::new(&p);
        let out = interp.run(1_000).unwrap();
        assert!(out.halted);
        assert_eq!(interp.reg(Reg(1)), 10);
    }

    #[test]
    fn calls_and_forward_references() {
        // `helper` is called before it is defined: pass 2 resolves it.
        let p = parse_program(
            "func! main\n\
             \x20 call helper\n\
             \x20 halt\n\
             end\n\
             func helper\n\
             \x20 li r7, 42\n\
             \x20 ret\n\
             end",
        )
        .unwrap();
        assert_eq!(p.functions().len(), 2);
        assert_eq!(p.entry_function(), crate::FuncId(0));
        let mut interp = Interpreter::new(&p);
        interp.run(100).unwrap();
        assert_eq!(interp.reg(Reg(7)), 42);
    }

    #[test]
    fn call_into_a_function_body_round_trips() {
        // `call @3` lands past `helper`'s entry (2); the canonical text must
        // keep the address rather than name the enclosing function.
        let p = parse_program(
            "func! main\n\
             \x20 call @3\n\
             \x20 halt\n\
             end\n\
             func helper\n\
             \x20 li r7, 42\n\
             \x20 ret\n\
             end",
        )
        .unwrap();
        assert_eq!(
            p.fetch(Addr(0)),
            Some(Instruction::Call { target: Addr(3) })
        );
        let text = to_masm(&p);
        assert!(text.contains("call @3"), "{text}");
        assert_eq!(parse_program(&text).unwrap(), p);
    }

    #[test]
    fn entry_defaults_to_last_function() {
        // The historical rule: without `func!` the last function is the
        // entry point.
        let p = parse_program(
            "func helper\n\
             \x20 ret\n\
             end\n\
             func main\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(p.function(p.entry_function()).name(), "main");
    }

    #[test]
    fn data_directives_and_memory_ops() {
        let p = parse_program(
            ".data 11, -2, 0x10\n\
             .zero 2\n\
             .data 7\n\
             func main\n\
             \x20 li r1, 0\n\
             \x20 ld r2, 2(r1)\n\
             \x20 st r2, 3(r1)\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(p.initial_data(), &[11, (-2i32) as u32, 16, 0, 0, 7]);
        assert!(matches!(
            p.fetch(Addr(1)),
            Some(Instruction::Load { offset: 2, .. })
        ));
    }

    #[test]
    fn data_labels_and_expressions() {
        let p = parse_program(
            ".zero 3\n\
             table:\n\
             .data 5, 6\n\
             after:\n\
             func main\n\
             \x20 li r1, table\n\
             \x20 li r2, after\n\
             \x20 li r3, table*2+1\n\
             \x20 ld r4, table+1(r0)\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(
            p.fetch(Addr(0)),
            Some(Instruction::LoadImm { rd: Reg(1), imm: 3 })
        );
        assert_eq!(
            p.fetch(Addr(1)),
            Some(Instruction::LoadImm { rd: Reg(2), imm: 5 })
        );
        assert_eq!(
            p.fetch(Addr(2)),
            Some(Instruction::LoadImm { rd: Reg(3), imm: 7 })
        );
        assert!(matches!(
            p.fetch(Addr(3)),
            Some(Instruction::Load { offset: 4, .. })
        ));
    }

    #[test]
    fn lo_hi_split_addresses() {
        let p = parse_program(
            "func main\n\
             \x20 li r1, lo(0x12345)\n\
             \x20 li r2, hi(0x12345)\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(
            p.fetch(Addr(0)),
            Some(Instruction::LoadImm {
                rd: Reg(1),
                imm: 0x2345
            })
        );
        assert_eq!(
            p.fetch(Addr(1)),
            Some(Instruction::LoadImm { rd: Reg(2), imm: 1 })
        );
    }

    #[test]
    fn jump_table_with_declared_targets() {
        let p = parse_program(
            "func main\n\
             \x20 li r1, 3\n\
             \x20 jr r1 [a, b]\n\
             a:\n\
             \x20 halt\n\
             b:\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(p.indirect_targets(Addr(1)), Some(&[Addr(2), Addr(3)][..]));
    }

    #[test]
    fn task_directives_surface_entries() {
        let a = assemble(
            "func main\n\
             \x20 li r1, 0\n\
             .task\n\
             \x20 addi r1, r1, 1\n\
             .task\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(a.task_entries, vec![Addr(1), Addr(2)]);
        // `.task` is source-level metadata: the program itself is
        // unchanged and the disassembly does not reproduce it.
        assert_eq!(a.program.len(), 3);
        assert!(!to_masm(&a.program).contains(".task"));
    }

    #[test]
    fn dangling_task_directive_is_rejected() {
        let d = parse_err(
            "func main\n\
             \x20 halt\n\
             .task\n\
             end",
        );
        assert_eq!(d[0].code, codes::BAD_TASK_DIRECTIVE);
        assert_eq!(d[0].span.line, 3);
    }

    #[test]
    fn errors_carry_spans_and_codes() {
        let d = parse_err("func main\n  bogus r1\nend");
        assert_eq!(d[0].code, codes::UNKNOWN_MNEMONIC);
        assert_eq!((d[0].span.line, d[0].span.col, d[0].span.len), (2, 3, 5));

        let d = parse_err("li r1, 0");
        assert_eq!(d[0].code, codes::BAD_STRUCTURE);
        assert_eq!(d[0].span.line, 1);

        let d = parse_err("func main\n  li r1, 0\nend");
        assert_eq!(d[0].code, codes::BAD_FUNCTION);
        assert_eq!(
            d[0].span.line, 2,
            "falls-off-end points at the last instruction"
        );
    }

    #[test]
    fn multiple_errors_reported_in_source_order() {
        let d = parse_err(
            "func main\n\
             \x20 li r99, 0\n\
             \x20 ld r1, nowhere(r2)\n\
             \x20 halt\n\
             end",
        );
        assert!(d.len() >= 2, "{d:?}");
        assert_eq!(d[0].code, codes::BAD_REGISTER);
        assert_eq!(d[0].span.line, 2);
        assert_eq!(d[1].code, codes::UNDEFINED_SYMBOL);
        assert_eq!(d[1].span.line, 3);
    }

    #[test]
    fn duplicate_symbols_are_rejected() {
        let d = parse_err(
            "func main\n\
             x:\n\
             \x20 nop\n\
             x:\n\
             \x20 halt\n\
             end",
        );
        assert_eq!(d[0].code, codes::DUPLICATE_LABEL);
        assert!(d[0].message.contains("line 2"), "{}", d[0].message);

        let d = parse_err("func f\n halt\nend\nfunc f\n halt\nend");
        assert_eq!(d[0].code, codes::DUPLICATE_FUNCTION);
    }

    #[test]
    fn structural_misuse_is_diagnosed() {
        assert_eq!(parse_err("end")[0].code, codes::BAD_STRUCTURE);
        assert_eq!(
            parse_err("func a\n halt\nfunc b\n halt\nend")[0].code,
            codes::BAD_STRUCTURE
        );
        assert_eq!(parse_err("func a\n halt")[0].code, codes::BAD_STRUCTURE);
        assert_eq!(parse_err("")[0].code, codes::BAD_ENTRY);
        assert_eq!(
            parse_err("func! a\n halt\nend\nfunc! b\n halt\nend")[0].code,
            codes::BAD_ENTRY
        );
        assert_eq!(parse_err("func a\nend")[0].code, codes::BAD_FUNCTION);
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let d = parse_err("func main\n li r1, 0x1ffffffff\n halt\nend");
        assert_eq!(d[0].code, codes::OUT_OF_RANGE);
        let d = parse_err("func main\n j 99\n halt\nend");
        assert_eq!(d[0].code, codes::OUT_OF_RANGE);
        let d = parse_err(".zero -1\nfunc main\n halt\nend");
        assert_eq!(d[0].code, codes::OUT_OF_RANGE);
    }

    #[test]
    fn the_data_section_is_capped_across_directives() {
        use crate::asm::assembler::{MAX_DATA_WORDS, MAX_ZERO_WORDS};
        let zeros = |n: usize| ".zero 1048576\n".repeat(n);
        let program = "func main\n halt\nend";
        assert_eq!(MAX_DATA_WORDS as i64, 4 * MAX_ZERO_WORDS);
        let p = parse_program(&(zeros(4) + program)).unwrap();
        assert_eq!(p.initial_data().len(), MAX_DATA_WORDS);
        // The fifth is refused where its count is written, and only it.
        let refused = |text: String| {
            let Err(d) = assemble(&text) else {
                panic!("a data section past the cap assembled")
            };
            d
        };
        let d = refused(zeros(5) + program);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::OUT_OF_RANGE);
        assert_eq!((d[0].span.line, d[0].span.col), (5, 7));
        assert!(d[0].message.ends_with("past 4194304 words"), "{d:?}");
        // A `.data` list counts toward the same cap.
        let d = refused(zeros(4) + ".data 1, 2\n" + program);
        assert_eq!((d[0].code, d[0].span.line), (codes::OUT_OF_RANGE, 5));
    }

    #[test]
    fn hex_immediates() {
        let p = parse_program("func main\n li r1, 0xff\n li r2, -0x10\n halt\nend").unwrap();
        assert_eq!(
            p.fetch(Addr(0)),
            Some(Instruction::LoadImm {
                rd: Reg(1),
                imm: 255
            })
        );
        assert_eq!(
            p.fetch(Addr(1)),
            Some(Instruction::LoadImm {
                rd: Reg(2),
                imm: -16
            })
        );
    }

    #[test]
    fn label_and_instruction_share_a_line() {
        let p = parse_program(
            "func main\n\
             top: addi r1, r1, 1\n\
             \x20 blt r1, r2, top\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert!(matches!(
            p.fetch(Addr(1)),
            Some(Instruction::Branch {
                target: Addr(0),
                ..
            })
        ));
    }

    #[test]
    fn call_at_explicit_address() {
        let p = parse_program(
            "func helper\n\
             \x20 ret\n\
             end\n\
             func! main\n\
             \x20 call @0\n\
             \x20 halt\n\
             end",
        )
        .unwrap();
        assert_eq!(
            p.fetch(Addr(1)),
            Some(Instruction::Call { target: Addr(0) })
        );
    }

    #[test]
    fn deterministic_parse() {
        let text = "func main\n li r1, 2\n jr r1 [t, u]\nt:\n halt\nu:\n halt\nend";
        let p1 = parse_program(text).unwrap();
        let p2 = parse_program(text).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn to_masm_round_trips_exactly() {
        let text = ".data 7, -9, 300\n\
             func gcd\n\
             top:\n\
             \x20 beq r2, r0, out\n\
             \x20 sub r1, r1, r2\n\
             \x20 j top\n\
             out:\n\
             \x20 ret\n\
             end\n\
             func! main\n\
             \x20 li r1, 48\n\
             \x20 li r2, 18\n\
             \x20 call gcd\n\
             \x20 li r3, 1\n\
             \x20 jr r3 [t0, t1]\n\
             t0:\n\
             \x20 halt\n\
             t1:\n\
             \x20 halt\n\
             end";
        let p1 = parse_program(text).unwrap();
        let masm = to_masm(&p1);
        let p2 = parse_program(&masm).unwrap();
        assert_eq!(p1, p2, "full Program equality through the round trip");
        // And the rendering is canonical: a second round trip is
        // byte-identical.
        assert_eq!(masm, to_masm(&p2));
    }

    #[test]
    fn builder_programs_round_trip() {
        use crate::builder::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 5);
        let top = b.here_label();
        b.op_imm(AluOp::Add, Reg(2), Reg(2), 1);
        b.branch(Cond::Lt, Reg(2), Reg(1), top);
        b.halt();
        b.end_function();
        let p1 = b.finish(main).unwrap();
        let p2 = parse_program(&to_masm(&p1)).unwrap();
        assert_eq!(p1, p2);
    }
}
