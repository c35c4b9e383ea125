//! The reproduction scorecard: checks the paper's headline claims against
//! a fresh run and prints PASS/FAIL — `harness verify`.
//!
//! The same properties are enforced by `tests/paper_claims.rs`; this module
//! is the user-facing version, producing a readable report rather than
//! panics.

use crate::cache::ArtifactCache;
use crate::dispatch::{measure_ideal, measure_ideal_path_automata, Scheme};
use crate::experiments;
use crate::pool::Pool;
use crate::prepare_set_cached;
use multiscalar_core::automata::AutomatonKind;
use multiscalar_core::dolc::Dolc;
use multiscalar_core::target::{Cttb, Ttb};
use multiscalar_sim::measure::measure_indirect_targets;
use multiscalar_workloads::{Spec92, WorkloadParams};
use std::fmt::Write as _;

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Where the claim comes from in the paper.
    pub source: &'static str,
    /// The claim, in one sentence.
    pub statement: &'static str,
    /// Whether the reproduction upholds it.
    pub holds: bool,
    /// The numbers behind the verdict.
    pub evidence: String,
}

/// Runs the scorecard, preparing the five benchmarks through `store` when
/// one is given. Any pool width and any cache state produce the same
/// claims (every measurement is deterministic and results are collected
/// in job order).
pub fn verify(params: &WorkloadParams, pool: &Pool, store: Option<&ArtifactCache>) -> Vec<Claim> {
    let benches = prepare_set_cached(&Spec92::ALL, params, pool, store);
    let gcc = &benches[0];
    let mut claims = Vec::new();

    // §5.1 / Fig. 6: LEH-2bit beats LE and matches 3-bit VC.
    {
        use AutomatonKind::{LastExit, Leh2, Vc3Mru};
        let rows = measure_ideal_path_automata(&[LastExit, Leh2, Vc3Mru], &[5], gcc);
        let [le, leh2, vc3] = [0, 1, 2].map(|k| rows[k][0].miss_rate());
        claims.push(Claim {
            source: "§5.1 / Fig. 6",
            statement: "LEH-2bit offers the best accuracy/size trade-off",
            holds: leh2 < le && (leh2 - vc3).abs() < 0.01,
            evidence: format!(
                "gcc d=5: LE {:.2}%, 3-bit VC {:.2}%, LEH-2bit {:.2}% at a third of VC's bits",
                le * 100.0,
                vc3 * 100.0,
                leh2 * 100.0
            ),
        });
    }

    // §5.2 / Fig. 7: PATH best on 4/5; sc the exception.
    {
        let mut wins = 0;
        let (mut sc_per, mut sc_path) = (0.0, 0.0);
        let mut evidence = String::new();
        for b in &benches {
            let g = measure_ideal(Scheme::Global, 7, b).miss_rate();
            let p = measure_ideal(Scheme::Per, 7, b).miss_rate();
            let t = measure_ideal(Scheme::Path, 7, b).miss_rate();
            if t <= p.min(g) + 1e-9 {
                wins += 1;
            }
            if b.spec == Spec92::Sc {
                (sc_per, sc_path) = (p, t);
            }
            let _ = write!(
                evidence,
                "{}: G {:.2}/P {:.2}/PATH {:.2}  ",
                b.name(),
                g * 100.0,
                p * 100.0,
                t * 100.0
            );
        }
        claims.push(Claim {
            source: "§5.2 / Fig. 7",
            statement: "path-based history works best for task prediction (4 of 5; sc excepted)",
            holds: wins >= 4 && sc_per <= sc_path * 1.05,
            evidence,
        });
    }

    // §5.3 / Figs. 8+12: a CTTB is essential for indirect targets.
    {
        let mut ttb = Ttb::new(11);
        let tr = measure_indirect_targets(&mut ttb, &gcc.descs, &gcc.trace.events);
        let mut cttb = Cttb::new(Dolc::new(7, 4, 4, 5, 3));
        let cr = measure_indirect_targets(&mut cttb, &gcc.descs, &gcc.trace.events);
        claims.push(Claim {
            source: "§5.3 / Figs. 8, 12",
            statement: "a correlated target buffer is essential for indirect targets",
            holds: cr.miss_rate() < tr.miss_rate(),
            evidence: format!(
                "gcc indirects: TTB {:.1}% vs CTTB {:.1}% over {} events",
                tr.miss_rate() * 100.0,
                cr.miss_rate() * 100.0,
                tr.predictions
            ),
        });
    }

    // §6.4.2 / Table 3: headerless prediction is possible but not competitive.
    {
        let rows = experiments::table3(&benches, pool);
        let holds = rows
            .iter()
            .all(|r| r.exit_with_ras_cttb <= r.cttb_only + 1e-9);
        let worst = rows
            .iter()
            .map(|r| (r.name, r.cttb_only / r.exit_with_ras_cttb.max(1e-9)))
            .fold(("", 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
        claims.push(Claim {
            source: "§6.4.2 / Table 3",
            statement: "headerless (CTTB-only) prediction is possible but not competitive",
            holds,
            evidence: format!(
                "full predictor ≤ CTTB-only everywhere; worst case {} ({:.1}x)",
                worst.0, worst.1
            ),
        });
    }

    // §7 / Table 4: better prediction increases IPC.
    {
        let rows = experiments::table4(&benches, pool);
        let holds = rows.iter().all(|r| {
            r.path.ipc() + 1e-9 >= r.simple.ipc()
                && r.path.ipc() + 1e-9 >= r.global.ipc().min(r.per.ipc())
                && r.perfect.ipc() + 1e-9 >= r.path.ipc()
        });
        let gcc_row = &rows[0];
        claims.push(Claim {
            source: "§7 / Table 4",
            statement:
                "PATH performs at least as well as other predictors; better prediction raises IPC",
            holds,
            evidence: format!(
                "gcc IPC: simple {:.2} / PATH {:.2} / perfect {:.2}",
                gcc_row.simple.ipc(),
                gcc_row.path.ipc(),
                gcc_row.perfect.ipc()
            ),
        });
    }

    claims
}

/// Renders the scorecard.
pub fn render(claims: &[Claim]) -> String {
    let mut s = String::from("Reproduction scorecard\n======================\n");
    let mut pass = 0;
    for c in claims {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        pass += c.holds as usize;
        let _ = writeln!(s, "[{mark}] {:<18} {}", c.source, c.statement);
        let _ = writeln!(s, "       {}", c.evidence);
    }
    let _ = writeln!(s, "\n{pass}/{} claims hold", claims.len());
    s
}

/// Convenience for the CLI and tests: `true` when every claim holds.
pub fn all_hold(claims: &[Claim]) -> bool {
    claims.iter().all(|c| c.holds)
}

/// The registry tool entry: run the scorecard, with a failed claim
/// reported as a failing (but rendered) [`Output`](crate::registry::Output),
/// not a process exit.
pub fn run_tool(ctx: &crate::registry::ExpCtx) -> Result<crate::registry::Output, String> {
    let claims = verify(&ctx.params, ctx.pool, ctx.store);
    Ok(crate::registry::Output {
        body: format!("{}\n", render(&claims)),
        files: Vec::new(),
        ok: all_hold(&claims),
    })
}
