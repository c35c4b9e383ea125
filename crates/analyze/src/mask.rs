//! Create-mask dataflow analysis.
//!
//! The create mask is the contract between a task and the inter-unit
//! register forwarding hardware (paper §2.1): bit `r` promises "this task
//! may produce a new value for register `r`". A *missing* bit lets a
//! younger task consume a stale value — silent wrong execution — so it is
//! an error. A *spurious* bit makes younger consumers wait for a value the
//! task will provably never produce, stalling until the task retires — a
//! performance lint, reported as a warning.
//!
//! The may-write set is the least fixed point of "registers written by any
//! block reachable from the task entry within the task", computed over the
//! function CFG restricted to the task (see the `reach` module).

use crate::diag::{codes, Diagnostic};
use crate::reach;
use multiscalar_isa::{Addr, Program, Reg};
use multiscalar_taskform::TaskProgram;

/// Checks every task's create mask against its computed may-write set.
pub fn check(program: &Program, tasks: &TaskProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let cfgs = reach::build_cfgs(program, tasks);
    for t in tasks.tasks() {
        let Some(cfg) = cfgs.get(&t.func().0) else {
            continue;
        };
        // An entry that starts no block is diagnosed by the TFG checker;
        // without it there is no sub-graph to analyse.
        let Some(live) = reach::reachable_blocks(cfg, tasks, t) else {
            continue;
        };
        let mut may_write = 0u32;
        for &b in &live {
            for a in cfg.block(b).range() {
                if let Some(rd) = program.fetch(Addr(a)).and_then(|i| i.dest()) {
                    may_write |= 1 << rd.index();
                }
            }
        }
        let mask = t.header().create_mask();
        let missing = may_write & !mask;
        if missing != 0 {
            diags.push(
                Diagnostic::new(
                    &codes::MASK_UNSOUND,
                    format!(
                        "unsound create mask: task may write {} but the mask omits {}",
                        regs(may_write),
                        regs(missing)
                    ),
                )
                .in_task(t.id())
                .at(t.entry()),
            );
        }
        let spurious = mask & !may_write;
        if spurious != 0 {
            diags.push(
                Diagnostic::new(
                    &codes::MASK_OVERWIDE,
                    format!(
                        "over-wide create mask: {} can never be written by this task",
                        regs(spurious)
                    ),
                )
                .in_task(t.id())
                .at(t.entry()),
            );
        }
    }
    diags
}

/// Renders a register bit-set as `r1, r5, r7`.
fn regs(mask: u32) -> String {
    let names: Vec<String> = (0..32)
        .filter(|r| mask & (1 << r) != 0)
        .map(|r| Reg(r as u8).to_string())
        .collect();
    names.join(", ")
}
