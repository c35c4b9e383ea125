//! Bring your own program: build a small program with the assembler-style
//! [`ProgramBuilder`], run the task former over it, inspect the task flow
//! graph it produces (headers, exits), record one execution, and measure
//! IPC under the timing simulator with perfect vs real task prediction by
//! replaying that recording.
//!
//! The program is a miniature of the paper's Figure 1: a loop containing an
//! if-else, a while loop and a conditional early return.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use multiscalar::core::automata::LastExitHysteresis;
use multiscalar::core::dolc::Dolc;
use multiscalar::core::history::PathPredictor;
use multiscalar::core::predictor::TaskPredictor;
use multiscalar::isa::{AluOp, Cond, ProgramBuilder, Reg};
use multiscalar::sim::measure::task_descs;
use multiscalar::sim::replay::{record_replay, simulate_replay};
use multiscalar::sim::timing::{
    NextTaskPredictor, TimingConfig, ISSUE_WIDTH, N_UNITS, SQUASH_PENALTY,
};
use multiscalar::taskform::TaskFormer;

fn main() {
    // --- build a figure-1-like program ---------------------------------
    let mut b = ProgramBuilder::new();

    let do_more = b.begin_function("do_some_more");
    b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
    b.ret();
    b.end_function();

    let main = b.begin_function("main");
    let i = Reg(1);
    let a = Reg(2);
    let bv = Reg(3);
    let cond = Reg(4);
    b.load_imm(i, 0);
    let for_top = b.here_label();
    // if (a == 1) b = this; else b = that;
    let else_l = b.new_label();
    let join = b.new_label();
    b.op_imm(AluOp::And, a, i, 1);
    b.branch(Cond::Ne, a, Reg(0), else_l);
    b.load_imm(bv, 100);
    b.jump(join);
    b.bind(else_l);
    b.load_imm(bv, 200);
    b.bind(join);
    // while (cond != 0) { cond >>= 1; }
    b.op_imm(AluOp::Add, cond, i, 3);
    let while_top = b.here_label();
    let while_end = b.new_label();
    b.branch(Cond::Eq, cond, Reg(0), while_end);
    b.op_imm(AluOp::Shr, cond, cond, 1);
    b.jump(while_top);
    b.bind(while_end);
    // do_some_more(); loop while i < 500
    b.call_label(do_more);
    b.op_imm(AluOp::Add, i, i, 1);
    b.op_imm(AluOp::Slt, Reg(6), i, 500);
    let done = b.new_label();
    b.branch(Cond::Eq, Reg(6), Reg(0), done);
    b.jump(for_top);
    b.bind(done);
    b.halt();
    b.end_function();

    let program = b.finish(main).expect("program builds");
    println!("--- disassembly ---\n{}", program.disassemble());

    // --- form tasks and show the headers --------------------------------
    let tasks = TaskFormer::default()
        .form(&program)
        .expect("task formation");
    println!(
        "--- task flow graph: {} tasks ---",
        tasks.static_task_count()
    );
    for t in tasks.tasks() {
        println!(
            "{} entry {} ({} instrs):",
            t.id(),
            t.entry(),
            t.num_instrs()
        );
        for (k, e) in t.header().exits().iter().enumerate() {
            println!("    exit{k}: {e}");
        }
    }

    // --- IPC under the ring timing simulator ----------------------------
    // Execute once into a recording; every timing run replays it.
    let replay = record_replay(&program, &tasks, 10_000_000).expect("recording");
    let descs = task_descs(&tasks);
    let config = TimingConfig::default();
    let perfect = simulate_replay(&replay, &descs, None, &config);
    let mut real = TaskPredictor::<PathPredictor<LastExitHysteresis<2>>>::path(
        Dolc::parse("4-5-6-7 (2)").expect("valid"),
        Dolc::parse("4-4-5-5 (2)").expect("valid"),
        16,
    );
    let realr = simulate_replay(
        &replay,
        &descs,
        Some(&mut real as &mut dyn NextTaskPredictor),
        &config,
    );

    println!(
        "\n--- timing ({N_UNITS} units x {ISSUE_WIDTH}-way, {SQUASH_PENALTY}-cycle squash) ---"
    );
    println!(
        "perfect prediction: IPC {:.2} over {} tasks",
        perfect.ipc(),
        perfect.dynamic_tasks
    );
    println!(
        "PATH prediction:    IPC {:.2} ({:.1}% task mispredicts)",
        realr.ipc(),
        realr.task_miss_rate() * 100.0
    );
}
