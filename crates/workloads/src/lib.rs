#![warn(missing_docs)]

//! Synthetic SPEC92-integer-analog workloads for the Multiscalar
//! reproduction.
//!
//! The paper evaluates on five SPEC92 integer benchmarks (gcc, compress,
//! espresso, sc, xlisp) compiled by the Wisconsin Multiscalar compiler.
//! Neither the binaries nor that compiler can be shipped, so this crate
//! generates programs in our ISA whose **task-level control-flow
//! signatures** match what the paper reports for each benchmark
//! (Table 2, Figures 3–4):
//!
//! | Analog | Character | Why it matches |
//! |---|---|---|
//! | [`gcc_like`] | hundreds of generated functions, switch dispatch, deep call DAG | largest static/distinct task counts; hardest to predict |
//! | [`compress_like`] | one hash-probe kernel loop over pseudo-random input | tiny task working set; data-dependent branches keep a high miss floor |
//! | [`espresso_like`] | regular nested loops over bit matrices | very predictable; loop-dominated |
//! | [`sc_like`] | spreadsheet recalculation sweeps with a per-cell type switch | moderate working set and mix |
//! | [`xlisp_like`] | recursive tagged-tree interpreter with dispatch tables | heavy CALL/RETURN/INDIRECT_CALL mix |
//!
//! Every generator is deterministic in its seed, so experiments are exactly
//! reproducible. The predictors under study only observe the task trace —
//! task addresses, exit indices, exit kinds and targets — which these
//! generators shape directly; that is why the substitution preserves the
//! behaviours the paper measures (see DESIGN.md §5).
//!
//! # Example
//!
//! ```
//! use multiscalar_workloads::{Spec92, WorkloadParams};
//! let w = Spec92::Compress.build(&WorkloadParams::small(42));
//! assert!(w.program.len() > 50);
//! // Runs to completion under the interpreter.
//! let mut interp = multiscalar_isa::Interpreter::new(&w.program);
//! let out = interp.run(w.max_steps).unwrap();
//! assert!(out.halted);
//! ```

pub mod codegen;
mod compress;
mod espresso;
pub mod fuzz;
mod gcc;
pub mod rng;
mod sc;
pub mod synthetic;
mod xlisp;

pub use compress::compress_like;
pub use espresso::espresso_like;
pub use gcc::gcc_like;
pub use sc::sc_like;
pub use xlisp::xlisp_like;

use multiscalar_isa::{fingerprint_of, Fingerprint, Program};

/// Version of the workload generators, folded into every cache key built
/// from a generator configuration. Bump whenever any generator's output
/// changes for the same [`WorkloadParams`] — on-disk artifacts recorded
/// from the old programs are then stale and must not be served.
pub const GENERATOR_VERSION: u32 = 1;

/// Parameters common to all generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadParams {
    /// RNG seed: same seed, same program and same input data.
    pub seed: u64,
    /// Linear work multiplier (input sizes, iteration counts). `scale = 1`
    /// targets roughly a million dynamic instructions per workload.
    pub scale: u32,
}

impl WorkloadParams {
    /// Quick configuration (≈0.2–1M dynamic instructions).
    pub fn small(seed: u64) -> WorkloadParams {
        WorkloadParams { seed, scale: 1 }
    }

    /// The default experiment configuration (≈2–6M dynamic instructions),
    /// used by the harness to regenerate the paper's tables and figures.
    pub fn standard(seed: u64) -> WorkloadParams {
        WorkloadParams { seed, scale: 4 }
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams::small(0xC0FFEE)
    }
}

/// A generated workload: the program plus a step budget comfortably above
/// its natural completion point.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark analog name (`"gcc"`, `"compress"`, ...).
    pub name: &'static str,
    /// The generated program.
    pub program: Program,
    /// Upper bound on dynamic instructions; the program halts well before
    /// this. Used as the interpreter's safety limit.
    pub max_steps: u64,
}

/// The five SPEC92 integer benchmark analogs, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spec92 {
    /// GNU C compiler analog (`gcc` / input `stmt.i`).
    Gcc,
    /// LZW compressor analog (`compress` / 1MB input).
    Compress,
    /// Logic minimiser analog (`espresso` / `bca.in`).
    Espresso,
    /// Spreadsheet analog (`sc` / `loada3`).
    Sc,
    /// Lisp interpreter analog (`xlisp` / `li-input.lsp`).
    Xlisp,
}

impl Spec92 {
    /// All five benchmarks in the paper's table order.
    pub const ALL: [Spec92; 5] = [
        Spec92::Gcc,
        Spec92::Compress,
        Spec92::Espresso,
        Spec92::Sc,
        Spec92::Xlisp,
    ];

    /// The benchmark's name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Spec92::Gcc => "gcc",
            Spec92::Compress => "compress",
            Spec92::Espresso => "espresso",
            Spec92::Sc => "sc",
            Spec92::Xlisp => "xlisp",
        }
    }

    /// Looks a benchmark up by name (as printed by [`Spec92::name`]).
    pub fn from_name(name: &str) -> Option<Spec92> {
        Spec92::ALL.into_iter().find(|b| b.name() == name)
    }

    /// A stable digest of the generator configuration that produces this
    /// workload: benchmark name, seed, scale, and [`GENERATOR_VERSION`].
    /// Cheap (no generation happens); the harness folds it into cache keys
    /// so changing any generator input — or the generators themselves —
    /// invalidates cached artifacts.
    pub fn config_fingerprint(self, params: &WorkloadParams) -> Fingerprint {
        fingerprint_of(&(GENERATOR_VERSION, self.name(), params.seed, params.scale))
    }

    /// Generates the workload.
    pub fn build(self, params: &WorkloadParams) -> Workload {
        match self {
            Spec92::Gcc => gcc_like(params),
            Spec92::Compress => compress_like(params),
            Spec92::Espresso => espresso_like(params),
            Spec92::Sc => sc_like(params),
            Spec92::Xlisp => xlisp_like(params),
        }
    }
}

impl std::fmt::Display for Spec92 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::Interpreter;
    use multiscalar_taskform::TaskFormer;

    #[test]
    fn all_workloads_build_run_and_task_form() {
        for b in Spec92::ALL {
            let w = b.build(&WorkloadParams::small(7));
            assert_eq!(w.name, b.name());
            let mut i = Interpreter::new(&w.program);
            let out = i
                .run(w.max_steps)
                .unwrap_or_else(|e| panic!("{b} failed to execute: {e}"));
            assert!(
                out.halted,
                "{b} must halt within its step budget ({} steps)",
                out.steps
            );
            assert!(
                out.steps > 10_000,
                "{b} too small to be interesting: {} steps",
                out.steps
            );
            let tp = TaskFormer::default().form(&w.program).unwrap();
            tp.validate(&w.program).unwrap();
        }
    }

    #[test]
    fn workloads_are_deterministic_in_seed() {
        for b in Spec92::ALL {
            let w1 = b.build(&WorkloadParams::small(99));
            let w2 = b.build(&WorkloadParams::small(99));
            assert_eq!(w1.program, w2.program, "{b} must be reproducible");
        }
    }

    #[test]
    fn different_seeds_give_different_programs() {
        // Data (and for gcc, structure) depends on the seed.
        let a = Spec92::Compress.build(&WorkloadParams::small(1));
        let b = Spec92::Compress.build(&WorkloadParams::small(2));
        assert_ne!(a.program, b.program);
    }

    #[test]
    fn scale_increases_work() {
        let small = Spec92::Espresso.build(&WorkloadParams { seed: 3, scale: 1 });
        let large = Spec92::Espresso.build(&WorkloadParams { seed: 3, scale: 2 });
        let mut is = Interpreter::new(&small.program);
        let mut il = Interpreter::new(&large.program);
        let ss = is.run(small.max_steps).unwrap();
        let sl = il.run(large.max_steps).unwrap();
        assert!(
            sl.steps > ss.steps,
            "scale=2 must execute more instructions"
        );
    }

    #[test]
    fn name_round_trip() {
        for b in Spec92::ALL {
            assert_eq!(Spec92::from_name(b.name()), Some(b));
        }
        assert_eq!(Spec92::from_name("nonesuch"), None);
    }
}
