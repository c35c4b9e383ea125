#![warn(missing_docs)]

//! The experiment harness: one function per table/figure of the paper,
//! each returning structured results the CLI (and tests, and `perfbench`)
//! render.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 2 (task counts) | [`experiments::table2`] |
//! | Figure 3 (exits per task) | [`experiments::fig3`] |
//! | Figure 4 (exit kinds) | [`experiments::fig4`] |
//! | Figure 6 (automata) | [`experiments::fig6`] |
//! | Figure 7 (ideal history schemes) | [`experiments::fig7`] |
//! | Figure 8 (ideal CTTB) | [`experiments::fig8`] |
//! | Figure 10 (real vs ideal exit prediction) | [`experiments::fig10`] |
//! | Figure 11 (PHT states touched) | [`experiments::fig11`] |
//! | Figure 12 (real vs ideal CTTB) | [`experiments::fig12`] |
//! | Table 3 (CTTB-only vs full predictor) | [`experiments::table3`] |
//! | Table 4 (IPC) | [`experiments::table4`] |
//!
//! # Example
//!
//! ```no_run
//! use multiscalar_harness::{prepare, experiments};
//! use multiscalar_workloads::{Spec92, WorkloadParams};
//!
//! let bench = prepare(Spec92::Compress, &WorkloadParams::small(1));
//! let rows = experiments::table2(std::slice::from_ref(&bench));
//! println!("{} dynamic tasks", rows[0].dynamic_tasks);
//! ```

pub mod cache;
pub mod csv;
pub mod dispatch;
pub mod experiments;
pub mod extensions;
pub mod fuzz;
pub mod lint;
pub mod masm;
pub mod pool;
pub mod profile;
pub mod proto;
pub mod registry;
pub mod report;
pub mod serve;
pub mod verify;

use std::sync::Arc;

use multiscalar_core::predictor::TaskDesc;
use multiscalar_isa::Fingerprint;
use multiscalar_sim::replay::{derive_trace, InstrReplay};
use multiscalar_sim::{measure, TraceRun};
use multiscalar_taskform::{TaskFormer, TaskProgram};
use multiscalar_workloads::{Spec92, Workload, WorkloadParams};

/// A fully prepared benchmark: program, task partition, predictor-facing
/// task descriptions, the recorded instruction replay and the functional
/// trace derived from it.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Which SPEC92 analog this is.
    pub spec: Spec92,
    /// The generated workload.
    pub workload: Workload,
    /// The task partition.
    pub tasks: TaskProgram,
    /// Per-task predictor-facing descriptions (indexed by task id).
    pub descs: Vec<TaskDesc>,
    /// The recorded instruction replay — the one execution artifact every
    /// timing run rides ([`experiments::table4`], `profile`, and the
    /// [`extensions`] timing studies), so no timing run re-interprets the
    /// program. Served from the artifact cache when warm; recorded (one
    /// interpreter pass) when cold. A warm load reads the boundary section
    /// and the code table only and never holds the instruction section
    /// (a taken bit per op and the memory addresses): each timing walk
    /// streams it from the entry chunk by chunk, so a benchmark that only
    /// feeds predictor sweeps never reads it.
    pub replay: Arc<InstrReplay>,
    /// The content address `replay` is cached under (see
    /// [`cache::replay_key`]).
    pub key: Fingerprint,
    /// The functional trace of `replay` ([`derive_trace`]): its events
    /// are the recording's own boundary section, shared rather than
    /// copied, so the benchmark holds its task boundaries once.
    pub trace: TraceRun,
}

impl Bench {
    /// Benchmark name as printed in the paper.
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }
}

/// Builds, task-forms and records one benchmark, optionally through the
/// on-disk artifact cache: a valid cached recording skips the interpreter
/// pass entirely; otherwise the recording runs and (when a cache is given)
/// is persisted for the next invocation. The functional trace derives from
/// the recording either way, so results are byte-identical with a cold
/// cache, a warm cache, or no cache at all.
///
/// # Panics
///
/// Panics if the workload fails to build, form or execute — these are
/// generator invariants, not user errors.
pub fn prepare_cached(
    spec: Spec92,
    params: &WorkloadParams,
    cache: Option<&cache::ArtifactCache>,
) -> Bench {
    let workload = spec.build(params);
    let tasks = TaskFormer::default()
        .form(&workload.program)
        .unwrap_or_else(|e| panic!("{spec}: task formation failed: {e}"));
    let descs = measure::task_descs(&tasks);
    let key = cache::replay_key(spec, params, &workload.program, &tasks, workload.max_steps);
    let replay = cache::load_or_record(cache, key, &workload.program, &tasks, workload.max_steps)
        .unwrap_or_else(|e| panic!("{spec}: recording failed: {e}"));
    let trace = derive_trace(&replay, &tasks);
    Bench {
        spec,
        workload,
        tasks,
        descs,
        replay: replay.into_shared(),
        key,
        trace,
    }
}

/// [`prepare_cached`] without a cache (always records).
pub fn prepare(spec: Spec92, params: &WorkloadParams) -> Bench {
    prepare_cached(spec, params, None)
}

/// Prepares all five benchmarks.
pub fn prepare_all(params: &WorkloadParams) -> Vec<Bench> {
    Spec92::ALL.iter().map(|&s| prepare(s, params)).collect()
}

/// Prepares all five benchmarks, one pool job per benchmark. The result is
/// identical to [`prepare_all`] (preparation is deterministic per
/// benchmark); only wall-clock differs.
pub fn prepare_all_with(params: &WorkloadParams, pool: &pool::Pool) -> Vec<Bench> {
    prepare_set_cached(Spec92::ALL.as_slice(), params, pool, None)
}

/// Prepares an arbitrary benchmark set through one shared cache, one pool
/// job per benchmark. The cache's counters are shared across jobs (atomic),
/// and distinct benchmarks write distinct keys, so any pool width is safe.
pub fn prepare_set_cached(
    specs: &[Spec92],
    params: &WorkloadParams,
    pool: &pool::Pool,
    cache: Option<&cache::ArtifactCache>,
) -> Vec<Bench> {
    let params = *params;
    pool.run(
        specs
            .iter()
            .map(|&s| move || prepare_cached(s, &params, cache))
            .collect(),
    )
}
