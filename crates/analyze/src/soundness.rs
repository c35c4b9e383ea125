//! Soundness oracle: replays analyzer claims against concrete executions.
//!
//! The dataflow passes make three kinds of *claims* — statements that are
//! supposed to hold on **every** execution, not heuristic findings:
//!
//! * [`bounds`] — a load/store classified
//!   [`AccessClass::InBounds`] never faults and its effective address
//!   stays inside the derived interval; one classified
//!   [`AccessClass::OutOfBounds`] always faults when executed;
//! * [`liveness`] — a value written by a claimed
//!   [`DeadWrite`] is never read before the register's next definition;
//! * [`spec`] — a claimed [`StaticExitClaim`] source never
//!   transfers control anywhere but the claimed target.
//!
//! [`check_execution`] derives all claims and interprets the program,
//! watching every step for a counterexample. The fuzz harness runs this
//! as its seventh differential oracle, so the static analyses are held to
//! the same corpus as the execution engines: any violation is an analyzer
//! bug by construction (the analyses promise soundness, never precision).

use crate::bounds::{self, AccessClass, MemClaim};
use crate::liveness::{self, DeadWrite};
use crate::spec::{self, StaticExitClaim};
use multiscalar_isa::{Addr, ExecError, Interpreter, Program, TransferKind, NUM_REGS};
use multiscalar_taskform::TaskProgram;
use std::collections::HashMap;
use std::fmt;

/// Everything the analyses claim about a program.
#[derive(Debug, Clone, Default)]
pub struct Claims {
    /// In/out-of-bounds access classifications (unproven and
    /// stack-assumed accesses carry no claim and are not replayed).
    pub mem: Vec<MemClaim>,
    /// Dead-write claims.
    pub dead: Vec<DeadWrite>,
    /// Static-exit claims.
    pub exits: Vec<StaticExitClaim>,
}

/// One disproved claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The claim's instruction address.
    pub pc: Addr,
    /// Which claim kind was disproved.
    pub kind: &'static str,
    /// The concrete counterexample.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.pc, self.detail)
    }
}

/// Derives every claim the analyses make about `program`.
pub fn derive_claims(program: &Program, tasks: &TaskProgram) -> Claims {
    Claims {
        mem: bounds::check(program).claims,
        dead: liveness::check(program).claims,
        exits: spec::analyze(program, tasks).claims,
    }
}

/// Stop collecting after this many violations: one is already an analyzer
/// bug; a cap keeps a badly wrong analysis from flooding the report.
const MAX_VIOLATIONS: usize = 8;

/// Derives all claims and cross-checks them against one interpretation of
/// `program` (up to `max_steps` instructions). Empty result = no claim
/// was disproved.
pub fn check_execution(program: &Program, tasks: &TaskProgram, max_steps: u64) -> Vec<Violation> {
    check_claims(program, &derive_claims(program, tasks), max_steps)
}

/// Cross-checks an explicit claim set against one interpretation. Split
/// from [`check_execution`] so tests can plant deliberately wrong claims
/// and prove the oracle catches them.
pub fn check_claims(program: &Program, claims: &Claims, max_steps: u64) -> Vec<Violation> {
    let mut mem_by_pc: HashMap<u32, AccessClass> = HashMap::new();
    for c in &claims.mem {
        if matches!(
            c.class,
            AccessClass::InBounds { .. } | AccessClass::OutOfBounds { .. }
        ) {
            mem_by_pc.insert(c.pc.index() as u32, c.class);
        }
    }
    let dead_by_pc: HashMap<u32, multiscalar_isa::Reg> = claims
        .dead
        .iter()
        .map(|d| (d.pc.index() as u32, d.reg))
        .collect();
    let exit_by_pc: HashMap<u32, Addr> = claims
        .exits
        .iter()
        .map(|c| (c.source.index() as u32, c.target))
        .collect();

    let mut out = Vec::new();
    // pending[r] = pc of the claimed-dead write whose value currently
    // sits in r (cleared by the next write of r).
    let mut pending: [Option<Addr>; NUM_REGS] = [None; NUM_REGS];
    let mut interp = Interpreter::new(program);
    let mut steps = 0u64;
    while !interp.is_halted() && steps < max_steps && out.len() < MAX_VIOLATIONS {
        steps += 1;
        let pc = interp.pc();
        let key = pc.index() as u32;
        let info = match interp.step() {
            Ok(info) => info,
            Err(e) => {
                // A fault at an InBounds-claimed access disproves the
                // claim; any other fault just ends the run.
                if let ExecError::MemOutOfBounds { pc: fpc, addr } = &e {
                    if let Some(AccessClass::InBounds { lo, hi }) =
                        mem_by_pc.get(&(fpc.index() as u32))
                    {
                        out.push(Violation {
                            pc: *fpc,
                            kind: "bounds-in",
                            detail: format!(
                                "claimed in [{lo}, {hi}] but faulted at address {addr}"
                            ),
                        });
                    }
                }
                break;
            }
        };

        // Bounds: the access executed without faulting.
        match mem_by_pc.get(&key) {
            Some(AccessClass::OutOfBounds { lo, hi }) => {
                out.push(Violation {
                    pc,
                    kind: "bounds-out",
                    detail: format!(
                        "claimed always-faulting in [{lo}, {hi}] but executed \
                         (address {:?})",
                        info.mem_addr
                    ),
                });
                // Don't re-report this pc every iteration.
                mem_by_pc.remove(&key);
            }
            Some(AccessClass::InBounds { lo, hi }) => {
                if let Some(a) = info.mem_addr {
                    let a = a as i64;
                    if a < *lo || a > *hi {
                        out.push(Violation {
                            pc,
                            kind: "bounds-in",
                            detail: format!(
                                "claimed interval [{lo}, {hi}] misses concrete address {a}"
                            ),
                        });
                        mem_by_pc.remove(&key);
                    }
                }
            }
            _ => {}
        }

        // Liveness: reads happen before the write of the same step.
        for r in info.inst.sources() {
            if let Some(w) = pending[r.index()] {
                out.push(Violation {
                    pc: w,
                    kind: "dead-write",
                    detail: format!("claimed dead write of {r} was read at {pc}"),
                });
                pending[r.index()] = None;
            }
        }
        if let Some(rd) = info.inst.dest() {
            pending[rd.index()] = dead_by_pc.contains_key(&key).then_some(pc);
        }

        // Static exits: wherever control went, it must be the claimed
        // target (halts are never claimed).
        if let Some(&target) = exit_by_pc.get(&key) {
            let went = match info.transfer {
                Some(t) if t.kind == TransferKind::Halt => None,
                Some(t) => Some(t.to),
                None => Some(info.next),
            };
            if let Some(went) = went {
                if went != target {
                    out.push(Violation {
                        pc,
                        kind: "static-exit",
                        detail: format!(
                            "claimed static exit to {target} but control went to {went}"
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::{TaskFormer, TaskId};

    fn counted_loop() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 10);
        let top = b.here_label();
        b.store(Reg(1), Reg(1), 0);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        b.finish(main).unwrap()
    }

    #[test]
    fn derived_claims_survive_their_own_execution() {
        let p = counted_loop();
        let tasks = TaskFormer::default().form(&p).unwrap();
        let claims = derive_claims(&p, &tasks);
        assert!(!claims.mem.is_empty(), "the store must be classified");
        assert!(!claims.exits.is_empty(), "jump/fall-through exits exist");
        assert!(check_claims(&p, &claims, 1 << 16).is_empty());
    }

    #[test]
    fn planted_wrong_out_of_bounds_claim_is_caught() {
        let p = counted_loop();
        let claims = Claims {
            // The store at pc 2 is in bounds; claiming it always faults
            // must be disproved on the first iteration.
            mem: vec![MemClaim {
                pc: Addr(2),
                store: true,
                class: AccessClass::OutOfBounds { lo: 0, hi: 9 },
            }],
            ..Claims::default()
        };
        let v = check_claims(&p, &claims, 1 << 16);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "bounds-out");
        assert_eq!(v[0].pc, Addr(2));
    }

    #[test]
    fn planted_narrow_in_bounds_interval_is_caught() {
        let p = counted_loop();
        let claims = Claims {
            // Addresses actually run 0..=9; an interval stopping at 3 is
            // unsound.
            mem: vec![MemClaim {
                pc: Addr(2),
                store: true,
                class: AccessClass::InBounds { lo: 0, hi: 3 },
            }],
            ..Claims::default()
        };
        let v = check_claims(&p, &claims, 1 << 16);
        assert!(
            v.iter()
                .any(|v| v.kind == "bounds-in" && v.detail.contains("misses")),
            "{v:?}"
        );
    }

    #[test]
    fn planted_live_write_claimed_dead_is_caught() {
        let p = counted_loop();
        let claims = Claims {
            // r1's increment at pc 3 is read by the branch at pc 4.
            dead: vec![DeadWrite {
                pc: Addr(3),
                reg: Reg(1),
            }],
            ..Claims::default()
        };
        let v = check_claims(&p, &claims, 1 << 16);
        assert!(!v.is_empty());
        assert_eq!(v[0].kind, "dead-write");
        assert_eq!(v[0].pc, Addr(3));
        assert!(v[0].detail.contains("read at"), "{v:?}");
    }

    #[test]
    fn planted_data_dependent_exit_claimed_static_is_caught() {
        let p = counted_loop();
        let claims = Claims {
            // The latch branch at pc 4 goes both ways across iterations;
            // claiming it always loops back is the misclassification the
            // oracle exists to catch.
            exits: vec![StaticExitClaim {
                task: TaskId(0),
                source: Addr(4),
                target: Addr(2),
            }],
            ..Claims::default()
        };
        let v = check_claims(&p, &claims, 1 << 16);
        assert!(!v.is_empty());
        assert_eq!(v[0].kind, "static-exit");
        assert!(v[0].detail.contains("control went to"), "{v:?}");
    }
}
