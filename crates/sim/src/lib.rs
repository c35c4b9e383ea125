#![warn(missing_docs)]

//! The Multiscalar simulators of the reproduction.
//!
//! Two simulators, mirroring the paper's methodology (§3.1):
//!
//! * a **functional simulator** ([`trace`], [`measure`]) that executes a
//!   program, reconstructs its task-level trace (which task ran, which exit
//!   it took, where it went) and drives predictors over it — with the
//!   paper's idealisations: immediate predictor updates and no wrong-path
//!   pollution;
//! * a **timing simulator** ([`timing`]) modelling the ring of processing
//!   units (4 × 2-way by default), in-order issue with register-dataflow
//!   stalls, intra-task bimodal prediction and full squash on inter-task
//!   mispredictions — the source of Table 4's IPC numbers. The [`replay`]
//!   module records one interpreter pass per benchmark into an immutable
//!   [`replay::InstrReplay`], and every timing run replays that execution
//!   with zero re-interpretation: the lockstep lanes walk
//!   ([`replay::walk_lanes`]) is the one timing feed in production, and it
//!   times all of an experiment's columns in one pass.
//!   [`timing::simulate`], which re-interprets the program through the
//!   scalar core, stays as the test oracle it is bit-identical to; the
//!   interpreter is the scalar core's only feed.
//!
//! One walker steps the interpreter and resolves task boundaries; the
//! recording ([`replay::record_replay`]) and the timing oracle drain it.
//! The recording's boundary section is the task trace: every trace,
//! [`trace::collect_trace`]'s included, is [`replay::derive_trace`] of a
//! recording.
//!
//! Building with `--features sanitize` arms runtime assertions over the
//! timing model's invariants (monotone commit and ring-unit clocks); the
//! `sanitize` module's agreement checkers (the replay cursor against the
//! interpreter, step by step; the lanes walk of a recording against the
//! interpreter-fed scalar core) compile in every build. See DESIGN.md.
//!
//! # Example: measuring a predictor on a workload
//!
//! ```no_run
//! use multiscalar_core::automata::LastExitHysteresis;
//! use multiscalar_core::dolc::Dolc;
//! use multiscalar_core::history::PathPredictor;
//! use multiscalar_sim::{measure, trace};
//! use multiscalar_taskform::TaskFormer;
//! use multiscalar_workloads::{Spec92, WorkloadParams};
//!
//! let w = Spec92::Compress.build(&WorkloadParams::small(1));
//! let tasks = TaskFormer::default().form(&w.program).unwrap();
//! let run = trace::collect_trace(&w.program, &tasks, w.max_steps).unwrap();
//! let descs = measure::task_descs(&tasks);
//!
//! let mut pred: PathPredictor<LastExitHysteresis<2>> =
//!     PathPredictor::new(Dolc::new(6, 5, 8, 9, 3));
//! let stats = measure::measure_exits(&mut pred, &descs, &run.events);
//! println!("miss rate: {:.2}%", stats.miss_rate() * 100.0);
//! ```

pub mod arb;
pub mod codec;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod sanitize;
pub mod timing;
pub mod trace;

pub use codec::{decode_replay, encode_replay, CodecError, CACHE_SCHEMA};
pub use measure::{measure_outcomes, task_descs, MissStats, Outcomes};
pub use metrics::{
    Cause, CycleBreakdown, FrontierCause, MetricsSink, NoopSink, StallCause, UnitOccupancy,
};
pub use replay::{
    derive_trace, record_replay, simulate_replay, simulate_replay_with_sink, walk_lanes,
    InstrReplay, Lane,
};
pub use trace::{TaskEvent, TraceRun, TraceStats};
