//! A functional interpreter for [`Program`]s.
//!
//! The interpreter executes one instruction per [`Interpreter::step`] and
//! reports its next pc, its memory address and its control transfer. The
//! Multiscalar simulator's step source reads the next pc and the memory
//! address to resolve task boundaries and record an execution; only the
//! static analyzer's soundness check reads [`StepInfo::transfer`].

use crate::inst::{Instruction, Reg, NUM_REGS};
use crate::program::{Addr, Program};
use std::fmt;

/// Default size of data memory in words (4 MiB) when the program's initial
/// data is smaller.
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 20;

/// Words of data memory an [`Interpreter`] gives `program`: its initial
/// data, extended to at least [`DEFAULT_MEMORY_WORDS`]. Every address a
/// load or store can touch without faulting is below this bound.
pub fn memory_words(program: &Program) -> usize {
    program.initial_data().len().max(DEFAULT_MEMORY_WORDS)
}

/// Maximum call-stack depth before [`ExecError::StackOverflow`].
pub const MAX_CALL_DEPTH: usize = 1 << 20;

/// Runtime errors raised by the interpreter.
///
/// These indicate bugs in a workload program, not in user input, but are
/// surfaced as values so the simulator can report them cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Fetched past the end of the code segment.
    BadFetch(Addr),
    /// Load/store outside data memory.
    MemOutOfBounds {
        /// Faulting instruction.
        pc: Addr,
        /// The out-of-range effective address.
        addr: i64,
    },
    /// Indirect jump/call to an address outside the code segment.
    BadTarget {
        /// Faulting instruction.
        pc: Addr,
        /// The invalid target address.
        target: u32,
    },
    /// `Return` with an empty call stack.
    StackUnderflow(Addr),
    /// Call depth exceeded [`MAX_CALL_DEPTH`].
    StackOverflow(Addr),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadFetch(a) => write!(f, "instruction fetch out of range at {a}"),
            ExecError::MemOutOfBounds { pc, addr } => {
                write!(f, "memory access out of bounds at {pc} (address {addr})")
            }
            ExecError::BadTarget { pc, target } => {
                write!(f, "indirect transfer to invalid address {target} at {pc}")
            }
            ExecError::StackUnderflow(a) => write!(f, "return with empty call stack at {a}"),
            ExecError::StackOverflow(a) => write!(f, "call stack overflow at {a}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The dynamic flavour of a control transfer, as observed at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Conditional branch; `taken` records the outcome.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump (`INDIRECT_BRANCH`).
    IndirectJump,
    /// Direct call.
    Call,
    /// Indirect call (`INDIRECT_CALL`).
    IndirectCall,
    /// Subroutine return.
    Return,
    /// Program halt.
    Halt,
}

/// A control transfer executed by one [`Interpreter::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Address of the transferring instruction.
    pub pc: Addr,
    /// Address control moved to (for `Halt`, the halting instruction itself).
    pub to: Addr,
    /// What kind of transfer it was.
    pub kind: TransferKind,
}

/// Result of one [`Interpreter::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: Addr,
    /// The executed instruction.
    pub inst: Instruction,
    /// Address of the next instruction to execute.
    pub next: Addr,
    /// Control transfer performed, if the instruction was a control
    /// instruction (including not-taken conditional branches).
    pub transfer: Option<Transfer>,
    /// Effective data-memory address, for loads and stores (used by the
    /// timing simulator's ARB model).
    pub mem_addr: Option<u32>,
}

/// Result of [`Interpreter::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instructions executed.
    pub steps: u64,
    /// `true` if the program reached a `Halt` (as opposed to the step limit).
    pub halted: bool,
}

/// Executes a [`Program`] instruction by instruction.
///
/// # Example
///
/// ```
/// use multiscalar_isa::{Interpreter, ProgramBuilder, Reg};
/// let mut b = ProgramBuilder::new();
/// let main = b.begin_function("main");
/// b.load_imm(Reg(5), -3);
/// b.halt();
/// b.end_function();
/// let p = b.finish(main)?;
/// let mut interp = Interpreter::new(&p);
/// interp.run(10).unwrap();
/// assert_eq!(interp.reg(Reg(5)) as i32, -3);
/// # Ok::<(), multiscalar_isa::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    program: &'p Program,
    pc: Addr,
    regs: [u32; NUM_REGS],
    mem: Vec<u32>,
    call_stack: Vec<Addr>,
    halted: bool,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter positioned at the program's entry point, with
    /// data memory initialised from the program's data segment and extended
    /// to [`memory_words`] words.
    pub fn new(program: &'p Program) -> Self {
        // Zeroed on allocation, so the pages the program never touches
        // are never written.
        let data = program.initial_data();
        let mut mem = vec![0; memory_words(program)];
        mem[..data.len()].copy_from_slice(data);
        Interpreter {
            program,
            pc: program.entry_point(),
            regs: [0; NUM_REGS],
            mem,
            call_stack: Vec::new(),
            halted: false,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// `true` once a `Halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current call-stack depth.
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Reads a data-memory word.
    pub fn mem(&self, addr: u32) -> Option<u32> {
        self.mem.get(addr as usize).copied()
    }

    fn effective(&self, pc: Addr, base: Reg, offset: i32) -> Result<usize, ExecError> {
        let ea = self.regs[base.index()] as i64 + offset as i64;
        if ea < 0 || ea as usize >= self.mem.len() {
            return Err(ExecError::MemOutOfBounds { pc, addr: ea });
        }
        Ok(ea as usize)
    }

    fn check_target(&self, pc: Addr, target: u32) -> Result<Addr, ExecError> {
        if (target as usize) < self.program.len() {
            Ok(Addr(target))
        } else {
            Err(ExecError::BadTarget { pc, target })
        }
    }

    /// Executes one instruction.
    ///
    /// After a halt, further steps return the same halt transfer without
    /// advancing.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] raised by the instruction; the
    /// interpreter is left at the faulting instruction.
    #[inline]
    pub fn step(&mut self) -> Result<StepInfo, ExecError> {
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(ExecError::BadFetch(pc))?;
        let mut next = pc.next();
        let mut transfer = None;
        let mut mem_addr = None;

        match inst {
            Instruction::Op { op, rd, rs1, rs2 } => {
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
            }
            Instruction::OpImm { op, rd, rs1, imm } => {
                self.regs[rd.index()] = op.apply(self.regs[rs1.index()], imm as u32);
            }
            Instruction::LoadImm { rd, imm } => {
                self.regs[rd.index()] = imm as u32;
            }
            Instruction::Load { rd, base, offset } => {
                let ea = self.effective(pc, base, offset)?;
                self.regs[rd.index()] = self.mem[ea];
                mem_addr = Some(ea as u32);
            }
            Instruction::Store { src, base, offset } => {
                let ea = self.effective(pc, base, offset)?;
                self.mem[ea] = self.regs[src.index()];
                mem_addr = Some(ea as u32);
            }
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]);
                if taken {
                    next = target;
                }
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::Branch { taken },
                });
            }
            Instruction::Jump { target } => {
                next = target;
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::Jump,
                });
            }
            Instruction::JumpIndirect { rs } => {
                next = self.check_target(pc, self.regs[rs.index()])?;
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::IndirectJump,
                });
            }
            Instruction::Call { target } => {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    return Err(ExecError::StackOverflow(pc));
                }
                self.call_stack.push(pc.next());
                next = target;
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::Call,
                });
            }
            Instruction::CallIndirect { rs } => {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    return Err(ExecError::StackOverflow(pc));
                }
                let t = self.check_target(pc, self.regs[rs.index()])?;
                self.call_stack.push(pc.next());
                next = t;
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::IndirectCall,
                });
            }
            Instruction::Return => {
                let t = self.call_stack.pop().ok_or(ExecError::StackUnderflow(pc))?;
                next = t;
                transfer = Some(Transfer {
                    pc,
                    to: next,
                    kind: TransferKind::Return,
                });
            }
            Instruction::Halt => {
                self.halted = true;
                next = pc;
                transfer = Some(Transfer {
                    pc,
                    to: pc,
                    kind: TransferKind::Halt,
                });
            }
            Instruction::Nop => {}
        }

        self.pc = next;
        Ok(StepInfo {
            pc,
            inst,
            next,
            transfer,
            mem_addr,
        })
    }

    /// Runs until halt or `max_steps` instructions, whichever comes first.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecError`].
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, ExecError> {
        let mut steps = 0;
        while steps < max_steps && !self.halted {
            self.step()?;
            steps += 1;
        }
        Ok(RunOutcome {
            steps,
            halted: self.halted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{AluOp, Cond};

    fn build(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        f(&mut b);
        b.end_function();
        b.finish(main).unwrap()
    }

    #[test]
    fn loop_counts_to_ten() {
        let p = build(|b| {
            b.load_imm(Reg(1), 0);
            b.load_imm(Reg(2), 10);
            let top = b.here_label();
            b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
            b.branch(Cond::Lt, Reg(1), Reg(2), top);
            b.halt();
        });
        let mut i = Interpreter::new(&p);
        let out = i.run(1000).unwrap();
        assert!(out.halted);
        assert_eq!(i.reg(Reg(1)), 10);
        // 2 setup + 10 iterations * 2 + 1 halt
        assert_eq!(out.steps, 23);
    }

    #[test]
    fn call_and_return_roundtrip() {
        let mut b = ProgramBuilder::new();
        let callee = b.begin_function("callee");
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 5);
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 1);
        b.call_label(callee);
        b.call_label(callee);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(Reg(1)), 11);
        assert_eq!(i.call_depth(), 0);
    }

    #[test]
    fn memory_load_store() {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_data(&[7, 8, 9]);
        let main = b.begin_function("main");
        b.load_imm(Reg(1), buf as i32);
        b.load(Reg(2), Reg(1), 2); // 9
        b.op_imm(AluOp::Add, Reg(2), Reg(2), 1);
        b.store(Reg(2), Reg(1), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.mem(buf), Some(10));
    }

    #[test]
    fn indirect_jump_through_table() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let c0 = b.new_label();
        let c1 = b.new_label();
        let table = b.alloc_label_table(&[c0, c1]);
        // select case 1
        b.load_imm(Reg(1), table as i32 + 1);
        b.load(Reg(2), Reg(1), 0);
        b.jump_indirect(Reg(2));
        b.bind(c0);
        b.load_imm(Reg(3), 100);
        b.halt();
        b.bind(c1);
        b.load_imm(Reg(3), 200);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(Reg(3)), 200);
    }

    #[test]
    fn transfers_are_reported() {
        let p = build(|b| {
            let skip = b.new_label();
            b.branch(Cond::Ne, Reg(0), Reg(0), skip); // not taken
            b.bind(skip);
            b.halt();
        });
        let mut i = Interpreter::new(&p);
        let s1 = i.step().unwrap();
        assert_eq!(
            s1.transfer,
            Some(Transfer {
                pc: Addr(0),
                to: Addr(1),
                kind: TransferKind::Branch { taken: false }
            })
        );
        let s2 = i.step().unwrap();
        assert_eq!(s2.transfer.unwrap().kind, TransferKind::Halt);
        assert!(i.is_halted());
        // stepping a halted machine re-reports halt without advancing
        let s3 = i.step().unwrap();
        assert_eq!(s3.pc, s2.pc);
    }

    #[test]
    fn return_with_empty_stack_errors() {
        let p = build(|b| b.ret());
        let mut i = Interpreter::new(&p);
        assert!(matches!(i.step(), Err(ExecError::StackUnderflow(_))));
    }

    #[test]
    fn out_of_bounds_memory_errors() {
        let p = build(|b| {
            b.load_imm(Reg(1), -5);
            b.load(Reg(2), Reg(1), 0);
            b.halt();
        });
        let mut i = Interpreter::new(&p);
        assert!(matches!(i.run(10), Err(ExecError::MemOutOfBounds { .. })));
    }

    #[test]
    fn bad_indirect_target_errors() {
        let p = build(|b| {
            b.load_imm(Reg(1), 1_000_000);
            b.jump_indirect(Reg(1));
            b.halt();
        });
        let mut i = Interpreter::new(&p);
        assert!(matches!(i.run(10), Err(ExecError::BadTarget { .. })));
    }

    #[test]
    fn run_respects_step_limit() {
        let p = build(|b| {
            let top = b.here_label();
            b.jump(top); // infinite loop
            b.halt();
        });
        let mut i = Interpreter::new(&p);
        let out = i.run(50).unwrap();
        assert_eq!(out.steps, 50);
        assert!(!out.halted);
    }
}
