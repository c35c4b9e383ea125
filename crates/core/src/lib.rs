#![warn(missing_docs)]

//! Inter-task control-flow speculation for Multiscalar processors — the
//! mechanisms of Jacobson, Bennett, Sharma & Smith, *"Control Flow
//! Speculation in Multiscalar Processors"* (HPCA-3, 1997).
//!
//! The Multiscalar global sequencer walks the task flow graph speculatively.
//! At each step it must predict, for the current task:
//!
//! 1. **which of up to four exits** the task will take — a *multi-way*
//!    branching problem solved by a prediction automaton selected from a
//!    pattern history table (PHT), and
//! 2. **the target address** of that exit — from the task header (branches,
//!    calls), a return-address stack (returns), or a correlated task target
//!    buffer (indirect branches/calls).
//!
//! This crate implements every mechanism the paper studies:
//!
//! | Paper concept | Here |
//! |---|---|
//! | Voting counters (2/3-bit, MRU/random ties) | [`automata::VotingCounters`] |
//! | Last exit / last exit with hysteresis | [`automata::LastExit`], [`automata::LastExitHysteresis`] |
//! | GLOBAL exit-history scheme | [`history::GlobalPredictor`], [`ideal::IdealGlobal`] |
//! | PER-task history scheme (PAp analog) | [`history::PerTaskPredictor`], [`ideal::IdealPer`] |
//! | PATH path-based scheme | [`history::PathPredictor`], [`ideal::IdealPath`] |
//! | Ideal sweeps on interned state ids | [`ideal::PathInterner`], [`ideal::ExitInterner`], [`ideal::IdealColumns`] |
//! | DOLC index construction (`D-O-L-C (F)`) | [`dolc::Dolc`], [`dolc::DolcPath`] |
//! | Return-address stack | [`target::ReturnAddressStack`] |
//! | Task target buffer (TTB) | [`target::Ttb`] |
//! | Correlated TTB (CTTB), ideal CTTB | [`target::Cttb`], [`target::IdealCttb`] |
//! | Full exit predictor + RAS + CTTB | [`predictor::TaskPredictor`] |
//! | CTTB-only (headerless) prediction | [`predictor::CttbOnlyPredictor`] |
//! | Scalar bimodal / two-level (intra-task) | [`scalar::Bimodal`], [`scalar::TwoLevelGag`] |
//!
//! Two extensions beyond the paper, measured by the harness's `ext-*`
//! experiments: [`stale::StalePathPredictor`] (the §3.1 update-timing
//! idealisation made real) and [`tournament::TournamentPredictor`]
//! (a PATH/PER hybrid with a per-task chooser). |
//!
//! # Example: predicting task exits with a path-based predictor
//!
//! ```
//! use multiscalar_core::automata::LastExitHysteresis;
//! use multiscalar_core::dolc::Dolc;
//! use multiscalar_core::history::PathPredictor;
//! use multiscalar_core::predictor::{ExitPredictor, TaskDesc, ExitInfo};
//! use multiscalar_isa::{Addr, ExitIndex, ExitKind};
//!
//! // The paper's 6-5-8-9 (3) configuration: depth 6, 14-bit index, 16K entries.
//! let dolc = Dolc::new(6, 5, 8, 9, 3);
//! let mut pred: PathPredictor<LastExitHysteresis<2>> = PathPredictor::new(dolc);
//!
//! let task = TaskDesc::new(Addr(0x40), vec![
//!     ExitInfo { kind: ExitKind::Branch, target: Some(Addr(0x80)), return_addr: None },
//!     ExitInfo { kind: ExitKind::Branch, target: Some(Addr(0x44)), return_addr: None },
//! ]);
//!
//! // Feed a repeating behaviour; the predictor learns it.
//! for _ in 0..8 {
//!     let _ = pred.predict(&task);
//!     pred.update(&task, ExitIndex::new(1).unwrap());
//! }
//! assert_eq!(pred.predict(&task), ExitIndex::new(1).unwrap());
//! ```

pub mod automata;
pub mod confidence;
pub mod dolc;
pub mod fxhash;
pub mod history;
pub mod ideal;
pub mod lane;
pub mod pollution;
pub mod predictor;
pub mod rng;
pub mod scalar;
pub mod stale;
pub mod target;
pub mod tournament;
pub mod zoo;

pub use automata::{Automaton, AutomatonKind};
pub use dolc::Dolc;
pub use predictor::{ExitInfo, ExitPredictor, NextTaskPrediction, TaskDesc};
