//! `harness profile` — cycle attribution over Table 4's benchmark ×
//! predictor grid.
//!
//! Each cell re-runs a Table 4 timing simulation with a
//! [`CycleBreakdown`] sink attached, attributing every cycle to one
//! [`Cause`] (the attribution sums to `TimingResult::cycles` exactly; the
//! sink asserts it). A benchmark's five cells are the five lanes of one
//! walk of the recorded replay in [`Bench::replay`] (served from the
//! artifact cache when warm) — the attribution is engine-independent,
//! which `tests/profile.rs` checks against the interpreter-fed timing
//! oracle. With `--occupancy` a [`UnitOccupancy`]
//! sink rides the same pass and three per-unit utilisation columns join
//! the output (the default output stays byte-identical). [`events_jsonl`]
//! exposes the task-level JSON-lines event log of a single run for the
//! same grid.

use std::fmt::Write as _;

use crate::dispatch::Table4Column;
use crate::experiments::walk_table4;
use crate::pool::{Job, Pool};
use crate::Bench;
use multiscalar_sim::metrics::{Cause, CycleBreakdown, MetricsSink, TaskEventSink, UnitOccupancy};
use multiscalar_sim::replay::walk_replay;
use multiscalar_sim::timing::{TimingConfig, TimingResult, N_UNITS};

/// Schema version stamped into `profile.json`; bump on breaking changes.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// One benchmark × predictor-column cell of the profile grid.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// The predictor column.
    pub column: Table4Column,
    /// The run's timing result (bit-identical to Table 4's).
    pub result: TimingResult,
    /// Where every one of `result.cycles` went.
    pub breakdown: CycleBreakdown,
    /// Per-ring-unit busy/stalled/idle split — only collected under
    /// `--occupancy` so the default output stays byte-identical.
    pub occupancy: Option<UnitOccupancy>,
}

/// Attribution of one benchmark across all predictor columns.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Benchmark name.
    pub name: &'static str,
    /// One cell per [`Table4Column::ALL`] entry, in that order.
    pub cells: Vec<ProfileCell>,
}

/// Profiles every benchmark × predictor column: Table 4's runs with a
/// [`CycleBreakdown`] sink attached, driven from each benchmark's recorded
/// replay with zero re-interpretation. When `occupancy` is set a
/// [`UnitOccupancy`] sink shares the same pass (tuple sinks fan out). One
/// job per benchmark, one 5-lane [`walk_table4`] per job; results come back
/// in submission order, so output is byte-identical for every pool width.
pub fn profile(benches: &[Bench], pool: &Pool, occupancy: bool) -> Vec<ProfileRow> {
    let jobs: Vec<Job<'_, ProfileRow>> = benches
        .iter()
        .map(|b| {
            Box::new(move || ProfileRow {
                name: b.name(),
                cells: if occupancy {
                    profile_cells(b, (CycleBreakdown::new(), UnitOccupancy::new()), |s| {
                        (s.0, Some(s.1))
                    })
                } else {
                    profile_cells(b, CycleBreakdown::new(), |s| (s, None))
                },
            }) as Job<'_, _>
        })
        .collect();
    pool.run(jobs)
}

/// One benchmark's cells: every column as one lane of [`walk_table4`], each
/// lane reporting to a copy of `sink`, which `split` turns into the cell's
/// breakdown and occupancy.
fn profile_cells<M: MetricsSink + Clone>(
    b: &Bench,
    sink: M,
    split: impl Fn(M) -> (CycleBreakdown, Option<UnitOccupancy>),
) -> Vec<ProfileCell> {
    let mut sinks = std::array::from_fn(|_| sink.clone());
    let results = walk_table4(b, &mut sinks);
    Table4Column::ALL
        .into_iter()
        .zip(results)
        .zip(sinks)
        .map(|((column, result), sink)| {
            let (breakdown, occupancy) = split(sink);
            ProfileCell {
                column,
                result,
                breakdown,
                occupancy,
            }
        })
        .collect()
}

/// The task-level event log (JSON lines) of one benchmark's run under one
/// predictor column: `resolve` / `squash` / `commit` / `dispatch` per
/// boundary, with machine clocks and exit numbers.
pub fn events_jsonl(bench: &Bench, column: Table4Column) -> String {
    let mut sink = TaskEventSink::new();
    let outcomes = column.outcomes(bench);
    walk_replay(&bench.replay, &outcomes, &TimingConfig::paper(), &mut sink);
    sink.into_jsonl()
}

/// Renders the profile as per-benchmark tables: one line per predictor
/// column, total cycles and IPC, then each cause's share of total cycles.
/// Rows profiled with `--occupancy` gain three trailing columns (busy /
/// stalled / idle share of unit-cycles); without the flag the output is
/// byte-identical to what it always was.
pub fn render(rows: &[ProfileRow]) -> String {
    let mut out = String::new();
    let occupancy = rows
        .iter()
        .any(|r| r.cells.iter().any(|c| c.occupancy.is_some()));
    out.push_str("Cycle attribution (percent of total cycles; replay engine)\n");
    for row in rows {
        let _ = write!(out, "\n{:<10} {:>12} {:>6}", row.name, "cycles", "IPC");
        for cause in Cause::ALL {
            let _ = write!(out, " {:>8}", cause.label());
        }
        if occupancy {
            let _ = write!(out, " {:>8} {:>8} {:>8}", "u.busy", "u.stall", "u.idle");
        }
        out.push('\n');
        for cell in &row.cells {
            let _ = write!(
                out,
                "  {:<8} {:>12} {:>6.2}",
                cell.column.name(),
                cell.result.cycles,
                cell.result.ipc()
            );
            let total = cell.result.cycles.max(1) as f64;
            for cause in Cause::ALL {
                let pct = 100.0 * cell.breakdown.get(cause) as f64 / total;
                let _ = write!(out, " {:>7.1}%", pct);
            }
            if let Some(occ) = &cell.occupancy {
                let _ = write!(
                    out,
                    " {:>7.1}% {:>7.1}% {:>7.1}%",
                    100.0 * occ.busy_frac(),
                    100.0 * occ.stalled_frac(),
                    100.0 * occ.idle_frac()
                );
            }
            out.push('\n');
        }
    }
    out
}

/// Serialises the profile as versioned JSON (`profile.json`): absolute
/// per-cause cycle counts, so consumers can recompute any ratio. All
/// values are numbers or fixed keywords — no escaping needed.
pub fn to_json(rows: &[ProfileRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {PROFILE_SCHEMA_VERSION},");
    out.push_str("  \"engine\": \"replay\",\n");
    out.push_str("  \"causes\": [");
    for (i, cause) in Cause::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", cause.key());
    }
    out.push_str("],\n");
    out.push_str("  \"benchmarks\": [\n");
    for (bi, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"columns\": [");
        for (ci, cell) in row.cells.iter().enumerate() {
            let r = &cell.result;
            let _ = write!(
                out,
                "        {{\"predictor\": \"{}\", \"cycles\": {}, \"instructions\": {}, \
                 \"ipc\": {:.6}, \"task_mispredicts\": {}, \"breakdown\": {{",
                cell.column.name(),
                r.cycles,
                r.instructions,
                r.ipc(),
                r.task_mispredicts
            );
            for (i, cause) in Cause::ALL.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", cause.key(), cell.breakdown.get(*cause));
            }
            out.push('}');
            if let Some(occ) = &cell.occupancy {
                // Debug-formatting a `&[u64]` yields `[a, b, c]` — valid
                // JSON for an array of numbers.
                let _ = write!(
                    out,
                    ", \"occupancy\": {{\"units\": {}, \"busy\": {:?}, \"stalled\": {:?}, \
                     \"idle\": {:?}}}",
                    N_UNITS,
                    occ.busy(),
                    occ.stalled(),
                    occ.idle()
                );
            }
            out.push('}');
            out.push_str(if ci + 1 < row.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if bi + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
