#![warn(missing_docs)]

//! A small RISC-style instruction set used as the substrate for the
//! Multiscalar reproduction.
//!
//! The original paper ("Control Flow Speculation in Multiscalar Processors",
//! HPCA 1997) used a MIPS-derived Multiscalar ISA produced by the Wisconsin
//! Multiscalar compiler. Neither is available, so this crate provides a
//! comparable substrate:
//!
//! * word-addressed instructions and data ([`Addr`]),
//! * 32 general-purpose registers ([`Reg`]),
//! * the five inter-task control-flow classes of the paper's Table 1
//!   ([`ExitKind`]: branch, call, return, indirect branch, indirect call),
//! * a [`Program`] container with function boundaries,
//! * an assembler-like [`ProgramBuilder`] with labels and fix-ups, and
//! * a fast [`Interpreter`] that executes programs and surfaces every
//!   control-flow transfer to an observer.
//!
//! Tasks and task headers are *not* defined here — they are a compiler
//! concept layered on top by the `multiscalar-taskform` crate.
//!
//! # Example
//!
//! ```
//! use multiscalar_isa::{AluOp, Cond, Interpreter, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.begin_function("main");
//! b.load_imm(Reg(1), 0);            // sum = 0
//! b.load_imm(Reg(2), 10);           // limit = 10
//! let loop_top = b.here_label();
//! b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
//! b.branch(Cond::Lt, Reg(1), Reg(2), loop_top);
//! b.halt();
//! b.end_function();
//! let program = b.finish(main).unwrap();
//!
//! let mut interp = Interpreter::new(&program);
//! let outcome = interp.run(1_000_000).unwrap();
//! assert!(outcome.halted);
//! assert_eq!(interp.reg(Reg(1)), 10);
//! ```

pub mod asm;
pub mod builder;
pub mod fingerprint;
pub mod inst;
pub mod interp;
pub mod parse;
pub mod program;

pub use asm::{assemble, AsmDiagnostic, Assembled, Span};
pub use builder::{BuildError, Label, ProgramBuilder};
pub use fingerprint::{fingerprint_of, Fingerprint, FingerprintHasher};
pub use inst::{
    AluOp, Cond, ControlFlow, ExitIndex, ExitKind, Instruction, Reg, MAX_EXITS, NUM_REGS,
};
pub use interp::{
    memory_words, ExecError, Interpreter, RunOutcome, Transfer, TransferKind, DEFAULT_MEMORY_WORDS,
};
pub use parse::{parse_program, to_masm, ParseError};
pub use program::{Addr, FuncId, Function, Program};
