//! The typed experiment registry and the one dispatch path behind both the
//! `harness` CLI and `harness serve`.
//!
//! Every subcommand — paper tables/figures, extensions, *and* the tools
//! (`lint`, `fuzz`, `verify`, `cache`, `asm`, `disasm`, `all`, `ext`,
//! `csv`) — registers once in [`REGISTRY`] as an [`Experiment`].
//! A [`crate::proto::Request`] names an entry; [`dispatch`] prepares the
//! entry's declared benchmark set and [`execute`]s it into a structured
//! [`Output`] (exact stdout bytes + artifact files + pass/fail), with
//! errors as values rather than `eprintln!` + exit codes. The CLI prints
//! the `Output`; the server serialises it into a
//! [`crate::proto::Response`] and memoises it under [`result_key`].
//!
//! Entries come in two [`Kind`]s. Declarative [`Kind::Rendered`] entries
//! (the paper artifacts) register text/CSV/JSON renderers and the request's
//! [`crate::proto::OutputFormat`] picks one — three formats from one run.
//! Self-contained [`Kind::Tool`] entries run a fallible function with full
//! access to the request.
//!
//! Experiments run against an [`ExpCtx`], which owns the prepared
//! benchmarks plus per-invocation caches for work that one dispatch reads
//! more than once: Figures 10 and 11 share one predictor pass (`all` and
//! `csv` read it for both), and `profile`'s grid feeds both its output and
//! its `profile.json` artifact.
//!
//! Every entry also **declares its inputs**: the benchmark set it reads
//! ([`BenchSet`]). Running one experiment prepares only its declared set,
//! and the set's cache keys fold into a per-experiment
//! [`input_fingerprint`] — the shared key-derivation path behind both
//! `harness cache stats` coverage reporting and the serve result cache
//! ([`result_key`]).

use std::cell::OnceCell;

use crate::cache::ArtifactCache;
use crate::experiments::{self, Fig10Row, Fig11Row};
use crate::pool::Pool;
use crate::profile::{self, ProfileRow};
use crate::proto::{OutputFormat, Request};
use crate::{csv, extensions, prepare_set_cached, report, Bench};
use multiscalar_isa::{fingerprint::FingerprintHasher, Fingerprint};
use multiscalar_workloads::{Spec92, WorkloadParams};
use std::hash::Hash as _;

/// The benchmark set an experiment declares as its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSet {
    /// All five SPEC92 analogs.
    All,
    /// gcc only (Figure 6's automata study).
    Gcc,
    /// The two indirect-heavy benchmarks (Figures 8 and 12).
    GccXlisp,
    /// No prepared benchmarks (tools that manage their own preparation).
    None,
}

impl BenchSet {
    /// The concrete benchmarks in this set, in preparation order.
    pub fn specs(self) -> &'static [Spec92] {
        match self {
            BenchSet::All => Spec92::ALL.as_slice(),
            BenchSet::Gcc => &[Spec92::Gcc],
            BenchSet::GccXlisp => &[Spec92::Gcc, Spec92::Xlisp],
            BenchSet::None => &[],
        }
    }
}

/// How dispatch obtains prepared benchmarks. The CLI uses the default
/// (build + record through the artifact cache, once per invocation); the
/// resident server substitutes its in-memory pool of already-prepared,
/// `Arc`-shared benchmarks so repeated requests skip preparation
/// entirely.
pub trait BenchSource: Sync {
    /// Returns one prepared [`Bench`] per spec, in `specs` order.
    fn benches(
        &self,
        specs: &[Spec92],
        params: &WorkloadParams,
        pool: &Pool,
        cache: Option<&ArtifactCache>,
    ) -> Vec<Bench>;
}

/// Benchmarks prepared once per dispatch and reused by every experiment
/// (traces are shared, immutable, behind `Arc`). `--bench` narrows
/// preparation to one benchmark; running a single experiment narrows it to
/// the experiment's declared [`BenchSet`].
pub struct Prepared {
    benches: Vec<Bench>,
    narrowed: bool,
}

impl Prepared {
    /// Prepares the benchmark set — `bench` when given, the declared `set`
    /// otherwise — through the artifact cache when one is supplied.
    pub fn new(
        bench: Option<Spec92>,
        set: BenchSet,
        params: &WorkloadParams,
        pool: &Pool,
        cache: Option<&ArtifactCache>,
    ) -> Prepared {
        Prepared::with_source(bench, set, params, pool, cache, None)
    }

    /// [`Prepared::new`] with an optional [`BenchSource`] supplying the
    /// benchmarks (the serve path's resident pool).
    pub fn with_source(
        bench: Option<Spec92>,
        set: BenchSet,
        params: &WorkloadParams,
        pool: &Pool,
        cache: Option<&ArtifactCache>,
        source: Option<&dyn BenchSource>,
    ) -> Prepared {
        let (specs, narrowed): (&[Spec92], bool) = match &bench {
            Some(s) => (std::slice::from_ref(s), true),
            None => (set.specs(), false),
        };
        let benches = match source {
            Some(src) => src.benches(specs, params, pool, cache),
            None => prepare_set_cached(specs, params, pool, cache),
        };
        Prepared { benches, narrowed }
    }

    /// All prepared benchmarks.
    pub fn all(&self) -> &[Bench] {
        &self.benches
    }

    /// Whether `--bench` narrowed preparation to a single benchmark.
    pub fn narrowed(&self) -> bool {
        self.narrowed
    }

    /// The subset a figure studies (cloning is cheap: traces are
    /// `Arc`-shared). Under `--bench`, the single prepared benchmark.
    pub fn subset(&self, wanted: &[Spec92]) -> Vec<Bench> {
        if self.narrowed {
            return self.benches.clone();
        }
        wanted
            .iter()
            .map(|&s| {
                self.benches
                    .iter()
                    .find(|b| b.spec == s)
                    .expect("prepared")
                    .clone()
            })
            .collect()
    }

    /// The benchmark Figure 6 studies (gcc unless `--bench` narrows).
    pub fn gcc(&self) -> &Bench {
        self.benches
            .iter()
            .find(|b| b.spec == Spec92::Gcc)
            .unwrap_or(&self.benches[0])
    }
}

/// Everything one dispatched request's experiments run against: the
/// prepared benchmarks, the job pool, the full typed request, and lazily
/// computed shared results.
pub struct ExpCtx<'a> {
    /// The prepared benchmark set.
    pub prep: &'a Prepared,
    /// The `--threads`-wide job pool.
    pub pool: &'a Pool,
    /// The request being executed (format, tool options, ...).
    pub req: &'a Request,
    /// Workload parameters (for experiments that re-generate workloads).
    pub params: WorkloadParams,
    /// Collect per-ring-unit occupancy in `profile` (`--occupancy`).
    pub occupancy: bool,
    /// The artifact store this dispatch prepares through, if caching is
    /// enabled.
    pub store: Option<&'a ArtifactCache>,
    /// The resolved artifact-cache directory (the `cache` tool operates on
    /// it even when `--no-cache` disabled preparation caching).
    pub cache_dir: std::path::PathBuf,
    fig10_fig11: OnceCell<(Vec<Fig10Row>, Vec<Fig11Row>)>,
    profile: OnceCell<Vec<ProfileRow>>,
}

impl<'a> ExpCtx<'a> {
    /// A fresh context with empty caches, carrying `req`'s parameters.
    pub fn new(
        prep: &'a Prepared,
        pool: &'a Pool,
        req: &'a Request,
        store: Option<&'a ArtifactCache>,
        cache_dir: std::path::PathBuf,
    ) -> Self {
        ExpCtx {
            prep,
            pool,
            req,
            params: req.params,
            occupancy: req.opts.occupancy,
            store,
            cache_dir,
            fig10_fig11: OnceCell::new(),
            profile: OnceCell::new(),
        }
    }

    /// Figures 10 and 11 share their predictor runs; computed once and
    /// served to both entries (and both CSVs).
    pub fn fig10_fig11(&self) -> &(Vec<Fig10Row>, Vec<Fig11Row>) {
        self.fig10_fig11
            .get_or_init(|| experiments::fig10_fig11(self.prep.all(), self.pool))
    }

    /// Figure 11's plotted rows: the full shared pass narrowed to the pair
    /// the paper plots (gcc, espresso) unless `--bench` already narrowed.
    pub fn fig11_rows(&self) -> Vec<Fig11Row> {
        let rows = self.fig10_fig11().1.clone();
        if self.prep.narrowed() {
            return rows;
        }
        rows.into_iter()
            .filter(|r| r.name == "gcc" || r.name == "espresso")
            .collect()
    }

    /// The cycle-attribution profile grid; computed once per dispatch.
    pub fn profile(&self) -> &[ProfileRow] {
        self.profile
            .get_or_init(|| profile::profile(self.prep.all(), self.pool, self.occupancy))
    }
}

/// Which subcommand groups an experiment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// A paper table/figure: runs under `all`, exports under `csv`.
    Paper,
    /// A beyond-the-paper extension: runs under `ext`.
    Ext,
    /// A standalone tool (e.g. `profile`, `lint`): runs only by name.
    Tool,
}

/// A renderer: experiment context in, output text out.
pub type RenderFn = fn(&ExpCtx) -> String;

/// A named output file (CSV export or run artifact): file name + writer.
pub type FileOutput = (&'static str, RenderFn);

/// A tool body: the full fallible run, errors as values.
pub type RunFn = fn(&ExpCtx) -> Result<Output, String>;

/// The structured outcome of one executed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The exact bytes the CLI prints to stdout (trailing newlines
    /// included), and the server memoises.
    pub body: String,
    /// Artifact files the run produces: `(relative path, content)`. The
    /// CLI writes them; the server reports their names.
    pub files: Vec<(String, String)>,
    /// Whether the run passed. `false` — failed verify claims, denied lint
    /// warnings, fuzz findings — maps to CLI exit code 1 with the body
    /// still printed.
    pub ok: bool,
}

impl Output {
    /// A passing, file-less text output.
    pub fn text(body: impl Into<String>) -> Output {
        Output {
            body: body.into(),
            files: Vec::new(),
            ok: true,
        }
    }
}

/// How an experiment executes.
pub enum Kind {
    /// Declarative renderers over a shared [`ExpCtx`]; the request's
    /// format picks text, CSV or JSON from the same run.
    Rendered {
        /// Renders the human-readable table.
        render: RenderFn,
        /// CSV export: file name and writer, when the experiment has one.
        csv: Option<FileOutput>,
        /// JSON serialisation (`--format json`), when supported.
        json: Option<RenderFn>,
        /// An artifact file written whenever the experiment runs by name.
        artifact: Option<FileOutput>,
    },
    /// A self-contained fallible tool.
    Tool(RunFn),
}

/// One registered experiment: its CLI/wire name plus everything the
/// harness can do with it, declared once.
pub struct Experiment {
    /// CLI subcommand / wire name.
    pub name: &'static str,
    /// Grouping for the `all` / `ext` / `csv` umbrellas.
    pub group: Group,
    /// The benchmark set this experiment reads — prepared (and only it)
    /// when the experiment runs; folded into [`input_fingerprint`].
    pub benches: BenchSet,
    /// How it executes.
    pub kind: Kind,
    /// Whether a run is a pure function of its [`Request`] — the server
    /// memoises only these. `false` for disk-mutating tools (`cache`) and
    /// tools that read a source file (`asm`, `disasm`).
    pub cache_safe: bool,
}

impl Experiment {
    /// The CSV export, when the experiment registers one.
    pub fn csv_output(&self) -> Option<FileOutput> {
        match self.kind {
            Kind::Rendered { csv, .. } => csv,
            Kind::Tool(_) => None,
        }
    }
}

/// Every experiment and tool the harness knows, in `all`-output order
/// (paper artifacts first, then extensions, then tools).
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table2",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_table2(&experiments::table2(c.prep.all())),
            csv: Some(("table2.csv", |c| {
                csv::table2(&experiments::table2(c.prep.all()))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig3",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_fig3(&experiments::fig3(c.prep.all())),
            csv: Some(("fig3.csv", |c| csv::fig3(&experiments::fig3(c.prep.all())))),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig4",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_fig4(&experiments::fig4(c.prep.all())),
            csv: Some(("fig4.csv", |c| csv::fig4(&experiments::fig4(c.prep.all())))),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig6",
        group: Group::Paper,
        benches: BenchSet::Gcc,
        kind: Kind::Rendered {
            render: |c| report::render_fig6(&experiments::fig6(c.prep.gcc(), c.pool)),
            csv: Some(("fig6.csv", |c| {
                csv::fig6(&experiments::fig6(c.prep.gcc(), c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig7",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_fig7(&experiments::fig7(c.prep.all(), c.pool)),
            csv: Some(("fig7.csv", |c| {
                csv::fig7(&experiments::fig7(c.prep.all(), c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig8",
        group: Group::Paper,
        benches: BenchSet::GccXlisp,
        kind: Kind::Rendered {
            // The paper studies the two indirect-heavy benchmarks.
            render: |c| {
                let b = c.prep.subset(&[Spec92::Gcc, Spec92::Xlisp]);
                report::render_fig8(&experiments::fig8(&b, c.pool))
            },
            csv: Some(("fig8.csv", |c| {
                let b = c.prep.subset(&[Spec92::Gcc, Spec92::Xlisp]);
                csv::fig8(&experiments::fig8(&b, c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig10",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_fig10(&c.fig10_fig11().0),
            csv: Some(("fig10.csv", |c| csv::fig10(&c.fig10_fig11().0))),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig11",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_fig11(&c.fig11_rows()),
            csv: Some(("fig11.csv", |c| csv::fig11(&c.fig11_rows()))),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "fig12",
        group: Group::Paper,
        benches: BenchSet::GccXlisp,
        kind: Kind::Rendered {
            render: |c| {
                let b = c.prep.subset(&[Spec92::Gcc, Spec92::Xlisp]);
                report::render_fig12(&experiments::fig12(&b, c.pool))
            },
            csv: Some(("fig12.csv", |c| {
                let b = c.prep.subset(&[Spec92::Gcc, Spec92::Xlisp]);
                csv::fig12(&experiments::fig12(&b, c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "table3",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_table3(&experiments::table3(c.prep.all(), c.pool)),
            csv: Some(("table3.csv", |c| {
                csv::table3(&experiments::table3(c.prep.all(), c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "table4",
        group: Group::Paper,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_table4(&experiments::table4(c.prep.all(), c.pool)),
            csv: Some(("table4.csv", |c| {
                csv::table4(&experiments::table4(c.prep.all(), c.pool))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-staleness",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_staleness(&extensions::ext_staleness(c.prep.all())),
            csv: Some(("ext_staleness.csv", |c| {
                csv::staleness(&extensions::ext_staleness(c.prep.all()))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-hybrid",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_hybrid(&extensions::ext_hybrid(c.prep.all())),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-taskform",
        group: Group::Ext,
        benches: BenchSet::None,
        kind: Kind::Rendered {
            render: |c| report::render_taskform(&extensions::ext_taskform(&c.params, c.store)),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-memory",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_memory(&extensions::ext_memory(c.prep.all())),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-confidence",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_confidence(&extensions::ext_confidence(c.prep.all())),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-intra",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_intra(&extensions::ext_intra(c.prep.all())),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-pollution",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_pollution(&extensions::ext_pollution(c.prep.all())),
            csv: Some(("ext_pollution.csv", |c| {
                csv::pollution(&extensions::ext_pollution(c.prep.all()))
            })),
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "ext-zoo",
        group: Group::Ext,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| report::render_zoo(&extensions::ext_zoo(c.prep.all())),
            csv: None,
            json: None,
            artifact: None,
        },
        cache_safe: true,
    },
    Experiment {
        name: "profile",
        group: Group::Tool,
        benches: BenchSet::All,
        kind: Kind::Rendered {
            render: |c| profile::render(c.profile()),
            csv: None,
            json: Some(|c| profile::to_json(c.profile())),
            artifact: Some(("profile.json", |c| profile::to_json(c.profile()))),
        },
        cache_safe: true,
    },
    Experiment {
        name: "all",
        group: Group::Tool,
        benches: BenchSet::All,
        kind: Kind::Tool(run_all),
        cache_safe: true,
    },
    Experiment {
        name: "ext",
        group: Group::Tool,
        benches: BenchSet::All,
        kind: Kind::Tool(run_ext),
        cache_safe: true,
    },
    Experiment {
        name: "csv",
        group: Group::Tool,
        benches: BenchSet::All,
        kind: Kind::Tool(run_csv),
        cache_safe: true,
    },
    Experiment {
        name: "verify",
        group: Group::Tool,
        benches: BenchSet::All,
        kind: Kind::Tool(crate::verify::run_tool),
        cache_safe: true,
    },
    Experiment {
        name: "lint",
        group: Group::Tool,
        benches: BenchSet::None,
        kind: Kind::Tool(crate::lint::run_tool),
        cache_safe: true,
    },
    Experiment {
        name: "fuzz",
        group: Group::Tool,
        benches: BenchSet::None,
        // Deterministic per seed range, but `--repro` reads a file; the
        // server additionally skips memoisation for repro requests.
        kind: Kind::Tool(crate::fuzz::run_tool),
        cache_safe: true,
    },
    Experiment {
        name: "asm",
        group: Group::Tool,
        benches: BenchSet::None,
        // Reads a file from disk, so the server must not memoise: the
        // same request can legitimately produce different bytes after an
        // edit (the *artifact* cache is still safe — the replay key folds
        // the source bytes).
        kind: Kind::Tool(crate::masm::run_asm),
        cache_safe: false,
    },
    Experiment {
        name: "disasm",
        group: Group::Tool,
        benches: BenchSet::None,
        kind: Kind::Tool(crate::masm::run_disasm),
        cache_safe: false,
    },
    Experiment {
        name: "cache",
        group: Group::Tool,
        benches: BenchSet::None,
        kind: Kind::Tool(crate::cache::run_tool),
        cache_safe: false,
    },
];

/// `harness all`: every paper table/figure, in registry order — the same
/// bytes as running each by name, one blank-line-terminated block each.
fn run_all(ctx: &ExpCtx) -> Result<Output, String> {
    let mut body = String::new();
    for exp in by_group(Group::Paper) {
        if let Kind::Rendered { render, .. } = exp.kind {
            body.push_str(&render(ctx));
            body.push('\n');
        }
    }
    Ok(Output::text(body))
}

/// `harness ext`: every beyond-the-paper extension, in registry order.
fn run_ext(ctx: &ExpCtx) -> Result<Output, String> {
    let mut body = String::new();
    for exp in by_group(Group::Ext) {
        if let Kind::Rendered { render, .. } = exp.kind {
            body.push_str(&render(ctx));
            body.push('\n');
        }
    }
    Ok(Output::text(body))
}

/// `harness csv`: every registered CSV export into `--csv DIR`
/// (`results` by default), in registry order.
fn run_csv(ctx: &ExpCtx) -> Result<Output, String> {
    let dir = ctx
        .req
        .opts
        .csv_dir
        .clone()
        .unwrap_or_else(|| "results".to_string());
    let mut files = Vec::new();
    for exp in REGISTRY {
        if let Some((name, write)) = exp.csv_output() {
            files.push((format!("{dir}/{name}"), write(ctx)));
        }
    }
    Ok(Output {
        body: format!("wrote CSV results to {dir}\n"),
        files,
        ok: true,
    })
}

/// Looks an experiment up by CLI/wire name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The registered experiments of one group, in registry order.
pub fn by_group(group: Group) -> impl Iterator<Item = &'static Experiment> {
    REGISTRY.iter().filter(move |e| e.group == group)
}

/// The process-level resources one dispatch runs with. These deliberately
/// sit outside [`Request`]: they are where the run executes (pool width,
/// cache location), not what it computes.
pub struct Resources<'a> {
    /// The job pool experiments fan out on.
    pub pool: &'a Pool,
    /// The artifact store preparation reads/writes (`None` = `--no-cache`).
    pub store: Option<&'a ArtifactCache>,
    /// The resolved cache directory (the `cache` tool's target even when
    /// `store` is `None`).
    pub cache_dir: std::path::PathBuf,
    /// Substitute benchmark preparation (the server's resident pool).
    pub source: Option<&'a dyn BenchSource>,
}

/// The one dispatch path shared by the CLI and the server: look the
/// experiment up, prepare its declared benchmark set, execute it into a
/// structured [`Output`]. Unknown names, unsupported formats and tool
/// failures all come back as `Err` values — the CLI prints them to stderr,
/// the server wraps them in `Response::Error`.
pub fn dispatch(req: &Request, res: &Resources) -> Result<Output, String> {
    let exp =
        find(&req.experiment).ok_or_else(|| format!("unknown experiment `{}`", req.experiment))?;
    // Reject unsupported formats *before* paying for preparation.
    if let Kind::Rendered { csv, json, .. } = &exp.kind {
        match req.format {
            OutputFormat::Csv if csv.is_none() => {
                return Err(format!("experiment `{}` has no csv output", exp.name))
            }
            OutputFormat::Json if json.is_none() => {
                return Err(format!("experiment `{}` has no json output", exp.name))
            }
            _ => {}
        }
    }
    // Tools that manage their own preparation declare an empty set;
    // `--bench` narrowing only applies where preparation happens at all.
    let bench = if exp.benches.specs().is_empty() {
        None
    } else {
        req.bench
    };
    let prep = Prepared::with_source(
        bench,
        exp.benches,
        &req.params,
        res.pool,
        res.store,
        res.source,
    );
    let ctx = ExpCtx::new(&prep, res.pool, req, res.store, res.cache_dir.clone());
    execute(exp, &ctx)
}

/// Executes one registry entry against a prepared context.
pub fn execute(exp: &Experiment, ctx: &ExpCtx) -> Result<Output, String> {
    match &exp.kind {
        Kind::Tool(run) => run(ctx),
        Kind::Rendered {
            render,
            csv,
            json,
            artifact,
        } => {
            let body = match ctx.req.format {
                OutputFormat::Text => format!("{}\n", render(ctx)),
                OutputFormat::Csv => {
                    let (_, write) =
                        csv.ok_or(format!("experiment `{}` has no csv output", exp.name))?;
                    write(ctx)
                }
                OutputFormat::Json => {
                    let write =
                        json.ok_or(format!("experiment `{}` has no json output", exp.name))?;
                    write(ctx)
                }
            };
            let files = artifact
                .map(|(name, write)| vec![(name.to_string(), write(ctx))])
                .unwrap_or_default();
            Ok(Output {
                body,
                files,
                ok: true,
            })
        }
    }
}

/// The cache key every benchmark would be prepared under at `params` —
/// computed without recording anything (see [`crate::cache::key_for`]).
/// The shared key-derivation path: `harness cache stats` folds these into
/// per-experiment coverage, and the serve result cache folds them into
/// [`result_key`].
pub fn bench_keys(params: &WorkloadParams) -> Vec<(Spec92, Fingerprint)> {
    Spec92::ALL
        .iter()
        .map(|&s| (s, crate::cache::key_for(s, params)))
        .collect()
}

/// The content address of everything `exp` reads: its name folded with the
/// cache key of each benchmark in its declared set. `keys` maps every
/// spec to its replay-artifact key (see [`bench_keys`]) so callers compute
/// the five keys once and fold them per experiment.
pub fn input_fingerprint(exp: &Experiment, keys: &[(Spec92, Fingerprint)]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    exp.name.hash(&mut h);
    for &spec in exp.benches.specs() {
        let key = keys
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, k)| *k)
            .expect("key for every spec");
        key.hash(&mut h);
    }
    h.finish128()
}

/// The serve result cache's memoisation key: [`input_fingerprint`] (the
/// experiment's content-addressed inputs) × workload parameters × output
/// format × every tool option that can change the rendered bytes.
/// Two requests with equal keys produce byte-identical [`Output`]s, so a
/// cached body can be replayed verbatim.
pub fn result_key(exp: &Experiment, req: &Request, keys: &[(Spec92, Fingerprint)]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    input_fingerprint(exp, keys).hash(&mut h);
    req.params.seed.hash(&mut h);
    req.params.scale.hash(&mut h);
    req.format.name().hash(&mut h);
    req.bench.map(|b| b.name()).hash(&mut h);
    let o = &req.opts;
    o.occupancy.hash(&mut h);
    o.deny_warnings.hash(&mut h);
    o.speculation.hash(&mut h);
    o.smoke.hash(&mut h);
    o.explain.hash(&mut h);
    o.seeds.as_ref().map(|r| (r.start, r.end)).hash(&mut h);
    o.repro.hash(&mut h);
    o.cache_action.map(|a| a.name()).hash(&mut h);
    o.cache_max_bytes.hash(&mut h);
    o.csv_dir.hash(&mut h);
    o.file.hash(&mut h);
    h.finish128()
}
