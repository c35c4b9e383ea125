//! The `serve-mix` workload: one in-process `serve::Server` (pool width 1,
//! no artifact store), fed one request line per `serve_connection` call on
//! an in-memory reader and writer, so the line reader stays on the timed
//! path without socket jitter.

use std::path::Path;
use std::time::Instant;

use multiscalar_harness::pool::Pool;
use multiscalar_harness::proto::{parse_line, salvage_id, Command, Response};
use multiscalar_harness::registry::BenchSource;
use multiscalar_harness::serve::{ServeConfig, Server};
use multiscalar_workloads::{Spec92, WorkloadParams};

use crate::check::{digest, Checker};
use crate::trace::Tracer;
use crate::workload::{param_seeds, serve_stream, LineKind, ServeLine, SERVE_SCALE};

/// Result-cache cap: sized so that about a third of the requests in a
/// timed cycle miss.
pub const RESULT_MAX_BYTES: u64 = 24 * 1024;

/// Result-cache traffic of one cycle, from `Server::stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Memo hits.
    pub hits: u64,
    /// Memo misses (each reran an experiment).
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
}

/// What one cycle measured.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Host seconds per line, in stream order.
    pub latencies_s: Vec<f64>,
    /// The cycle's result-cache traffic.
    pub traffic: Traffic,
    /// Error responses.
    pub errors: u64,
}

/// A server plus the stream it is fed and the bookkeeping its checks need.
pub struct Mix {
    server: Server,
    lines: Vec<ServeLine>,
    /// `run` requests sent so far, batch items included.
    requests: u64,
    buf: Vec<u8>,
}

fn stat(server: &Server, key: &str) -> u64 {
    server
        .stats()
        .into_iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| v)
}

fn traffic(server: &Server) -> Traffic {
    Traffic {
        hits: stat(server, "result_hits"),
        misses: stat(server, "result_misses"),
        evictions: stat(server, "result_evictions"),
    }
}

/// The integer after `"key":` in a JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `Server::new`, then warming the resident pool at every parameter point.
fn build(dir: &Path, seed: u64) -> Server {
    let server = Server::new(&ServeConfig {
        pool: Pool::new(1),
        cache_dir: dir.to_path_buf(),
        no_cache: true,
        result_max_bytes: RESULT_MAX_BYTES,
        socket: None,
    });
    for s in param_seeds(seed) {
        let params = WorkloadParams {
            seed: s,
            scale: SERVE_SCALE,
        };
        server.benches(&Spec92::ALL, &params, &Pool::new(1), None);
    }
    server
}

impl Mix {
    /// Sets the server up once; returns the mix and the set-up's host
    /// seconds.
    pub fn setup(dir: &Path, seed: u64) -> (Mix, f64) {
        let start = Instant::now();
        let server = build(dir, seed);
        let secs = start.elapsed().as_secs_f64();
        let mix = Mix {
            server,
            lines: serve_stream(seed),
            requests: 0,
            buf: Vec::new(),
        };
        (mix, secs)
    }

    /// Runs one cycle untraced, checking every response.
    pub fn cycle(&mut self, checker: &mut Checker) -> Cycle {
        let before = traffic(&self.server);
        let mut out = Cycle::default();
        for i in 0..self.lines.len() {
            self.buf.clear();
            let start = Instant::now();
            self.server
                .serve_connection(self.lines[i].text.as_bytes(), &mut self.buf);
            out.latencies_s.push(start.elapsed().as_secs_f64());
            let resp = String::from_utf8_lossy(&self.buf).trim_end().to_string();
            out.errors += self.check(i, &resp, checker) as u64;
        }
        out.traffic = self.delta(before);
        out
    }

    /// Runs one cycle traced: `proto::parse_line`, `Server::handle` and
    /// `Response::to_json` per line, as `Server::handle_line` calls them.
    /// Each line's latency is the host time of those calls.
    pub fn traced_cycle(&mut self, t: &mut Tracer, checker: &mut Checker) -> Cycle {
        let before = traffic(&self.server);
        let mut out = Cycle::default();
        for i in 0..self.lines.len() {
            let text = &self.lines[i].text;
            let server = &self.server;
            let start = Instant::now();
            let resp = t.op(|t| {
                let parsed = t.span("harness.proto.parse", |_| (parse_line(text), 1));
                let resp = match parsed {
                    Ok(env) => {
                        let span = t.enter("harness.serve.handle");
                        let (resp, _) = server.handle(&env);
                        let name = match (&env.cmd, &resp) {
                            (Command::Run(_), Response::Ok { cached: true, .. }) => {
                                "harness.serve.hit"
                            }
                            (Command::Run(_), _) => "harness.serve.miss",
                            _ => "harness.serve.other",
                        };
                        t.exit(span, 1, Some(name));
                        resp
                    }
                    Err(error) => t.span("harness.proto.parse", |_| {
                        let id = salvage_id(text);
                        (Response::Error { id, error }, 1)
                    }),
                };
                t.span("harness.proto.encode", |_| (resp.to_json(), 1))
            });
            out.latencies_s.push(start.elapsed().as_secs_f64());
            out.errors += self.check(i, &resp, checker) as u64;
        }
        out.traffic = self.delta(before);
        out
    }

    fn delta(&self, before: Traffic) -> Traffic {
        let after = traffic(&self.server);
        Traffic {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        }
    }

    /// Checks line `i`'s response; returns whether it is an error response.
    fn check(&mut self, i: usize, resp: &str, checker: &mut Checker) -> bool {
        let line = &self.lines[i];
        let key = format!("serve/{i}");
        let ok_prefix = format!("{{\"id\":{i},\"ok\":true,");
        match &line.kind {
            LineKind::Run | LineKind::Batch(_) => {
                self.requests += match line.kind {
                    LineKind::Batch(n) => n,
                    _ => 1,
                };
                let verdict = if resp.starts_with(&ok_prefix) {
                    Ok(())
                } else {
                    Err(format!("unexpected response {}", clip(resp)))
                };
                // Hit or miss, the bytes must be the same.
                let body = resp.replace("\"cached\":true", "\"cached\":false");
                checker.op(&key, verdict, &digest(body.as_bytes()));
                false
            }
            LineKind::Stats => {
                let requests = json_u64(resp, "requests");
                let served = json_u64(resp, "result_hits")
                    .zip(json_u64(resp, "result_misses"))
                    .map(|(h, m)| h + m);
                let want = Some(self.requests);
                let verdict = if resp.starts_with(&ok_prefix) && requests == want && served == want
                {
                    Ok(())
                } else {
                    Err(format!(
                        "stats disagree with the {} requests sent: {}",
                        self.requests,
                        clip(resp)
                    ))
                };
                checker.op(&key, verdict, "stats");
                false
            }
            LineKind::Error(want) => {
                let verdict = if resp == want {
                    Ok(())
                } else {
                    Err(format!("expected {want}, got {}", clip(resp)))
                };
                checker.op(&key, verdict, &digest(resp.as_bytes()));
                true
            }
        }
    }
}

fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_stats_fields() {
        let line = "{\"id\":3,\"ok\":true,\"stats\":{\"requests\":12,\"result_hits\":9}}";
        assert_eq!(json_u64(line, "requests"), Some(12));
        assert_eq!(json_u64(line, "result_hits"), Some(9));
        assert_eq!(json_u64(line, "result_misses"), None);
    }
}
