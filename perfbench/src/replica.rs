//! The traced form of each CLI op: the same layer functions the harness
//! reaches for `harness <exp> --bench <b> --threads 1` on a warm cache, in
//! the same order, each inside a span. The rendered text must equal the
//! CLI's stdout byte for byte, which checks that the replica calls what
//! the op calls.

use std::slice::from_ref;

use multiscalar_harness::cache::{self, ArtifactCache};
use multiscalar_harness::dispatch::{exit_ladder, path_ideal_sweep, path_real_sweep, Table4Column};
use multiscalar_harness::experiments::{self, Fig10Row, Table4Row};
use multiscalar_harness::extensions::{self, POLLUTION_DEPTHS, STALENESS_DELAYS};
use multiscalar_harness::pool::Pool;
use multiscalar_harness::profile::{self, ProfileCell, ProfileRow};
use multiscalar_harness::{report, Bench};
use multiscalar_sim::codec::{decode_replay, encode_replay};
use multiscalar_sim::measure::task_descs;
use multiscalar_sim::metrics::{Cause, CycleBreakdown};
use multiscalar_sim::replay::{
    derive_trace, record_replay, simulate_replay, simulate_replay_with_sink,
};
use multiscalar_sim::timing::{NextTaskPredictor, TimingConfig, TimingResult};
use multiscalar_taskform::TaskFormer;
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::trace::Tracer;
use crate::workload::CliOp;

/// Simulated statistics summed over the traced timing walks. They are
/// deterministic, so they serve as exact checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    /// Committed instructions over the Table 4 walks.
    pub instructions: u64,
    /// Simulated cycles over the Table 4 walks.
    pub cycles: u64,
    /// Inter-task mispredictions over the Table 4 walks.
    pub task_mispredicts: u64,
    /// Squash-and-refill cycles over the `profile` walks.
    pub squash_cycles: u64,
}

/// What the traced ops run against.
pub struct Env<'a> {
    /// Workload parameters of every op.
    pub params: WorkloadParams,
    /// The run's warm artifact cache.
    pub cache: &'a ArtifactCache,
    /// A one-worker pool, as `--threads 1` gives.
    pub pool: &'a Pool,
    /// The paper's timing configuration (what every CLI op uses).
    pub config: TimingConfig,
    /// Accumulated simulated statistics.
    pub sims: SimCounts,
}

fn timing_span(column: Table4Column) -> &'static str {
    match column {
        Table4Column::Simple => "sim.timing.simple",
        Table4Column::Global => "sim.timing.global",
        Table4Column::Per => "sim.timing.per",
        Table4Column::Path => "sim.timing.path",
        Table4Column::Perfect => "sim.timing.perfect",
    }
}

fn render(t: &mut Tracer, f: impl FnOnce() -> String) -> String {
    t.span("harness.report.render", |_| (format!("{}\n", f()), 1))
}

/// Preparation as `prepare_cached` does it: build, form, key; then from a
/// warm cache load (read, decode, touch), or into a cold one record,
/// encode and store (temp file, rename); then derive the trace.
fn prepare(t: &mut Tracer, spec: Spec92, env: &Env, warm: bool) -> Bench {
    let workload = t.span("workloads.build", |_| (spec.build(&env.params), 1));
    let tasks = t.span("taskform.form", |_| {
        let tasks = TaskFormer::default()
            .form(&workload.program)
            .unwrap_or_else(|e| panic!("{spec}: task formation failed: {e}"));
        (tasks, 1)
    });
    let descs = t.span("sim.measure.task_descs", |_| {
        let d = task_descs(&tasks);
        let n = d.len() as u64;
        (d, n)
    });
    let key = t.span("harness.cache.key", |_| {
        let k = cache::replay_key(
            spec,
            &env.params,
            &workload.program,
            &tasks,
            workload.max_steps,
        );
        (k, 1)
    });
    let path = env.cache.entry_path(key);
    let replay = if warm {
        t.span("harness.cache.load", |t| {
            let bytes = t.span("harness.cache.read", |_| {
                let b = std::fs::read(&path).unwrap_or_else(|e| {
                    panic!("{spec}: set-up left no artifact at {}: {e}", path.display())
                });
                let n = b.len() as u64;
                (b, n)
            });
            let n = bytes.len() as u64;
            let replay = t.span("sim.codec.decode", |_| {
                let r = decode_replay(&bytes, key)
                    .unwrap_or_else(|e| panic!("{spec}: cached artifact does not decode: {e}"));
                (r, n)
            });
            // A hit is touched, as `load_replay` does, so `gc` sees it
            // as recently used.
            t.span("harness.cache.touch", |_| {
                std::fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(std::time::SystemTime::now()))
                    .unwrap_or_else(|e| panic!("cannot touch {}: {e}", path.display()));
                ((), 1)
            });
            (replay, n)
        })
    } else {
        let replay = t.span("sim.record", |_| {
            let r = record_replay(&workload.program, &tasks, workload.max_steps)
                .unwrap_or_else(|e| panic!("{spec}: recording failed: {e}"));
            let n = r.instructions();
            (r, n)
        });
        let bytes = t.span("sim.codec.encode", |_| {
            let b = encode_replay(&replay, key);
            let n = b.len() as u64;
            (b, n)
        });
        // As `store_replay` publishes: a temp file, then an atomic rename.
        t.span("harness.cache.store", |_| {
            let tmp = env
                .cache
                .dir()
                .join(format!(".{key}.{}.tmp", std::process::id()));
            std::fs::create_dir_all(env.cache.dir())
                .and_then(|()| std::fs::write(&tmp, &bytes))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .unwrap_or_else(|e| panic!("cannot store {}: {e}", path.display()));
            ((), bytes.len() as u64)
        });
        replay
    };
    let trace = t.span("sim.derive", |_| {
        let tr = derive_trace(&replay, &tasks);
        let n = tr.stats.dynamic_tasks;
        (tr, n)
    });
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

/// Runs one op traced and returns what the CLI would print.
pub fn run_op(t: &mut Tracer, op: &CliOp, env: &mut Env) -> String {
    t.op(|t| {
        let b = prepare(t, op.bench, env, true);
        let events = b.trace.events.len() as u64;
        let instrs = b.trace.stats.instructions;
        let pool = env.pool;
        match op.exp {
            "table4" => {
                let r: Vec<TimingResult> = Table4Column::ALL
                    .iter()
                    .map(|&column| {
                        t.span(timing_span(column), |_| {
                            let mut pred = column.predictor();
                            let pred = pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
                            let res = simulate_replay(&b.replay, &b.descs, pred, &env.config);
                            (res, res.instructions)
                        })
                    })
                    .collect();
                for res in &r {
                    env.sims.instructions += res.instructions;
                    env.sims.cycles += res.cycles;
                    env.sims.task_mispredicts += res.task_mispredicts;
                }
                let row = Table4Row {
                    name: b.name(),
                    simple: r[0],
                    global: r[1],
                    per: r[2],
                    path: r[3],
                    perfect: r[4],
                };
                render(t, || report::render_table4(&[row]))
            }
            "profile" => {
                let cells: Vec<ProfileCell> = Table4Column::ALL
                    .iter()
                    .map(|&column| {
                        t.span("sim.timing.sink", |_| {
                            let mut pred = column.predictor();
                            let pred = pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
                            let mut breakdown = CycleBreakdown::new();
                            let result = simulate_replay_with_sink(
                                &b.replay,
                                &b.descs,
                                pred,
                                &env.config,
                                &mut breakdown,
                            );
                            let n = result.instructions;
                            let cell = ProfileCell {
                                column,
                                result,
                                breakdown,
                                occupancy: None,
                            };
                            (cell, n)
                        })
                    })
                    .collect();
                env.sims.squash_cycles += cells
                    .iter()
                    .map(|c| c.breakdown.get(Cause::SquashRefill))
                    .sum::<u64>();
                let rows = [ProfileRow {
                    name: b.name(),
                    cells,
                }];
                // The CLI also writes the `profile.json` artifact.
                t.span("harness.report.render", |_| (profile::to_json(&rows), 1));
                render(t, || profile::render(&rows))
            }
            "ext-memory" => {
                let rows = t.span("sim.timing.interp", |_| {
                    (extensions::ext_memory(from_ref(&b)), 4 * instrs)
                });
                render(t, || report::render_memory(&rows))
            }
            "ext-intra" => {
                let rows = t.span("sim.timing.interp", |_| {
                    (extensions::ext_intra(from_ref(&b)), 3 * instrs)
                });
                render(t, || report::render_intra(&rows))
            }
            "ext-confidence" => {
                let rows = t.span("sim.timing.interp", |_| {
                    (extensions::ext_confidence(from_ref(&b)), 2 * instrs)
                });
                render(t, || report::render_confidence(&rows))
            }
            "fig6" => {
                let curves = t.span("sweep.automaton", |_| {
                    let c = experiments::fig6(&b, pool);
                    let cols: usize = c.iter().map(|c| c.miss.len()).sum();
                    (c, cols as u64 * events)
                });
                render(t, || report::render_fig6(&curves))
            }
            "fig7" => {
                let rows = t.span("sweep.ideal_scheme", |_| {
                    let r = experiments::fig7(from_ref(&b), pool);
                    let cols: usize = r.iter().map(|r| r.miss.len()).sum();
                    (r, cols as u64 * events)
                });
                render(t, || report::render_fig7(&rows))
            }
            "fig10" => {
                let configs = exit_ladder();
                let depths: Vec<u32> = configs.iter().map(|d| d.depth() as u32).collect();
                let real = t.span("sweep.lane_packed", |_| {
                    let r = path_real_sweep(&configs, &b);
                    let n = r.len() as u64 * events;
                    (r, n)
                });
                let ideal = t.span("sweep.ideal_path", |_| {
                    let r = path_ideal_sweep(&depths, &b);
                    let n = r.len() as u64 * events;
                    (r, n)
                });
                let row = Fig10Row {
                    name: b.name(),
                    configs,
                    real: real.iter().map(|(s, _)| s.miss_rate()).collect(),
                    ideal: ideal.iter().map(|(s, _)| s.miss_rate()).collect(),
                };
                render(t, || report::render_fig10(&[row]))
            }
            "fig8" => {
                let rows = t.span("sweep.cttb", |_| {
                    let r = experiments::fig8(from_ref(&b), pool);
                    let cols: usize = r.iter().map(|r| r.miss.len()).sum();
                    (r, cols as u64 * events)
                });
                render(t, || report::render_fig8(&rows))
            }
            "fig12" => {
                let rows = t.span("sweep.cttb", |_| {
                    let r = experiments::fig12(from_ref(&b), pool);
                    let cols: usize = r.iter().map(|r| r.real.len() + r.ideal.len()).sum();
                    (r, cols as u64 * events)
                });
                render(t, || report::render_fig12(&rows))
            }
            "table3" => {
                let rows = t.span("sweep.table3", |_| {
                    (experiments::table3(from_ref(&b), pool), events)
                });
                render(t, || report::render_table3(&rows))
            }
            "ext-staleness" => {
                let rows = t.span("sweep.scalar", |_| {
                    let n = STALENESS_DELAYS.len() as u64 * events;
                    (extensions::ext_staleness(from_ref(&b)), n)
                });
                render(t, || report::render_staleness(&rows))
            }
            "ext-hybrid" => {
                let rows = t.span("sweep.scalar", |_| {
                    (extensions::ext_hybrid(from_ref(&b)), 3 * events)
                });
                render(t, || report::render_hybrid(&rows))
            }
            "ext-pollution" => {
                let rows = t.span("sweep.scalar", |_| {
                    let n = (POLLUTION_DEPTHS.len() as u64 + 1) * events;
                    (extensions::ext_pollution(from_ref(&b)), n)
                });
                render(t, || report::render_pollution(&rows))
            }
            other => panic!("no traced form for experiment `{other}`"),
        }
    })
}

/// The cold fill, traced, as `harness table2` does it into an empty
/// cache: each benchmark prepared cold, then Table 2 rendered. Returns the
/// rendered text.
pub fn setup(t: &mut Tracer, env: &Env) -> String {
    let benches: Vec<Bench> = Spec92::ALL
        .iter()
        .map(|&spec| t.op(|t| prepare(t, spec, env, false)))
        .collect();
    t.op(|t| render(t, || report::render_table2(&experiments::table2(&benches))))
}
