//! `serve_zipf`: `hetmem serve --workers 2` as a child process under a
//! Zipf mix of `/v1/sim` hits and fresh misses (see [`crate::load`]).
//!
//! Every server is fresh: its cache directory starts empty and is warmed
//! with the 60 hit keys over HTTP; set-up is spawn-to-ready plus that
//! warming. The load generator and every server run pinned to one CPU.
//! Phase one is a closed loop on one connection, run as chunks of a fixed
//! request count, one fresh server each, after one untimed warm-up chunk:
//! latency, throughput, the server's CPU per request, its peak RSS and its
//! RSS growth per request, reported as medians over the chunks. Phase two
//! is an open-loop ladder of fixed rates on `min(nproc, 2)` connections to
//! one more server, for `rps_at_slo`. Every response body is checked byte
//! for byte against the in-process `run_sim` answer to the same request.

use crate::http::Client;
use crate::load::{self, LoopRun, Reply, SimCall};
use crate::procfs::{cpu_time, fresh_dir, status_kb, OneCpu, ServeChild};
use crate::stats::{median, percentile, summarize};
use crate::{Ctx, E2e, Run};
use hetmem::serve::{parse_sim_request, run_sim, Metrics};
use hetmem::xplore::Json;
use std::collections::HashMap;
use std::time::Instant;

/// Connections of the closed loop: one request at a time, so the
/// generator and the server share their one CPU (see
/// [`OneCpu`]) without queueing behind each other.
const CLOSED_CONNECTIONS: usize = 1;
/// Timed closed-loop requests per second of `--seconds`.
const CLOSED_PER_SECOND: u64 = 2000;
/// Closed-loop requests per fresh server: the fixed count that the
/// per-request RSS growth is measured over.
const CHUNK_REQUESTS: usize = 2500;
/// Open-loop ladder rates, ascending, in requests per second.
pub const LADDER_RPS: [f64; 9] = [
    500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 5000.0, 6000.0,
];
/// Requests per ladder rung: enough for a p99 with ten samples beyond.
const RUNG_REQUESTS: usize = 1000;
/// The latency objective on p99 from due time, in µs.
pub const SLO_US: f64 = 20_000.0;

/// The byte-exact in-process answer to `call`.
fn expected_body(call: &SimCall) -> Result<String, String> {
    let req = parse_sim_request(&call.body())?;
    run_sim(&req, None, None, &Metrics::default())
}

/// A numeric field of a `/metrics` document.
fn counter(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Checked operation counts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    /// Counts a loop's replies; returns the misses still to be checked.
    fn absorb(&mut self, run: &LoopRun, calls: &[SimCall]) -> Vec<(SimCall, String)> {
        let mut unchecked = Vec::new();
        for s in &run.samples {
            self.attempted += 1;
            match &s.reply {
                Reply::Matched => {}
                Reply::Mismatched => {
                    self.failed += 1;
                    self.mismatched += 1;
                }
                Reply::Failed(why) => {
                    self.failed += 1;
                    if self.failed <= 3 {
                        eprintln!("serve_zipf: request {} failed: {why}", s.index);
                    }
                }
                Reply::Unchecked(body) => unchecked.push((calls[s.index], body.clone())),
            }
        }
        unchecked
    }
}

/// Spawns a server on an empty cache directory and warms the 60 hit
/// keys over HTTP. Returns the server and the set-up time in seconds.
fn start_warm(
    ctx: &Ctx,
    name: &str,
    expected: &HashMap<String, String>,
    tally: &mut Tally,
) -> Result<(ServeChild, f64), String> {
    let dir = ctx.work.join(name);
    fresh_dir(&dir)?;
    let dir = dir
        .to_str()
        .ok_or("work directory is not UTF-8")?
        .to_owned();
    let start = Instant::now();
    let server = ServeChild::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--cache-dir",
        &dir,
    ])?;
    let mut client = Client::new(&server.http);
    for call in load::warm_keys() {
        let body = call.body();
        tally.attempted += 1;
        match client.post("/v1/sim", &body) {
            Ok(r) if r.status == 200 && Some(&r.body) == expected.get(&body) => {}
            Ok(r) if r.status == 200 => {
                tally.failed += 1;
                tally.mismatched += 1;
            }
            _ => tally.failed += 1,
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// One closed-loop chunk: a fixed request count on a fresh server.
struct Chunk {
    run: LoopRun,
    /// Server CPU per request, µs.
    cpu_us_per_req: f64,
    /// Server resident-set growth per request, kB.
    rss_kb_per_req: f64,
    /// Server peak resident set, kB.
    hwm_kb: u64,
    /// `/metrics` counter deltas: (cache hits, cache misses, rejections).
    counters: (f64, f64, f64),
}

fn closed_chunk(
    server: &ServeChild,
    calls: &[SimCall],
    threads: usize,
    expected: &HashMap<String, String>,
) -> Result<Chunk, String> {
    let pid = Some(server.pid());
    let before = crate::serve_metrics(&server.http)?;
    let (cpu0, rss0) = (cpu_time(pid)?, status_kb(pid, "VmRSS")?);
    let run = load::run_loop(&server.http, calls, threads, None, expected);
    let cpu = (cpu_time(pid)? - cpu0).as_secs_f64();
    let (rss1, hwm_kb) = (status_kb(pid, "VmRSS")?, status_kb(pid, "VmHWM")?);
    let after = crate::serve_metrics(&server.http)?;
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    let n = calls.len() as f64;
    Ok(Chunk {
        run,
        cpu_us_per_req: cpu * 1e6 / n,
        rss_kb_per_req: (rss1 as f64 - rss0 as f64) / n,
        hwm_kb,
        counters: (
            delta("cache_hits"),
            delta("cache_misses"),
            delta("queue_rejections") + delta("drain_rejections"),
        ),
    })
}

/// Runs the workload; `mini` is the reduced run (one closed-loop chunk)
/// that other workloads' traced runs use to fill the `serve.*` and
/// `loadgen.*` layer metrics.
///
/// # Errors
///
/// Returns a message when a server cannot be started or stopped.
pub fn run(ctx: &Ctx, mini: bool) -> Result<Run, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let (warmup, chunks) = if mini {
        (0, 1)
    } else {
        let n = (CLOSED_PER_SECOND * ctx.seconds / CHUNK_REQUESTS as u64).max(1) as usize;
        (1, n)
    };
    let closed_n = (warmup + chunks) * CHUNK_REQUESTS;
    let calls = load::request_mix(ctx.seed, closed_n + LADDER_RPS.len() * RUNG_REQUESTS);
    let expected: HashMap<String, String> = load::warm_keys()
        .iter()
        .map(|c| Ok((c.body(), expected_body(c)?)))
        .collect::<Result<_, String>>()?;
    let mut tally = Tally::default();
    let mut unchecked = Vec::new();
    let mut setup = Vec::new();

    // The load threads and the servers all run on one CPU from here to
    // the end of the ladder.
    let pinned = OneCpu::pin()?;

    // Phase one: the closed loop, one fixed-size chunk per fresh server.
    // The first `warmup` chunks are checked but not timed.
    let mut done = Vec::new();
    for (c, slice) in calls[..closed_n].chunks(CHUNK_REQUESTS).enumerate() {
        let (server, t) = start_warm(ctx, &format!("serve-closed-{c}"), &expected, &mut tally)?;
        let chunk = closed_chunk(&server, slice, CLOSED_CONNECTIONS, &expected);
        server.stop()?;
        let chunk = chunk?;
        unchecked.extend(tally.absorb(&chunk.run, slice));
        if c >= warmup {
            setup.push(t);
            done.push(chunk);
        }
    }

    // Phase two: the open-loop ladder on another fresh, warmed server.
    let (server, t) = start_warm(ctx, "serve-ladder", &expected, &mut tally)?;
    setup.push(t);
    let mut rungs = Vec::new();
    let mut lag_at_slo = None;
    for (r, &rate) in LADDER_RPS.iter().enumerate() {
        let slice = &calls[closed_n + r * RUNG_REQUESTS..closed_n + (r + 1) * RUNG_REQUESTS];
        let run = load::run_loop(&server.http, slice, threads, Some(rate), &expected);
        let ok = load::rung_meets_slo(&run.samples, SLO_US);
        let mut lags: Vec<f64> = run.samples.iter().map(|s| s.lag_us).collect();
        lags.sort_by(f64::total_cmp);
        let from_due = summarize(&load::latencies_with_failures(&run.samples));
        eprintln!(
            "serve_zipf: rung {rate} rps: p50 {:.2} ms, {} {:.2} ms from due, lag p99 {:.2} ms, {}",
            from_due.p50 / 1e3,
            from_due.tail_label,
            from_due.tail / 1e3,
            percentile(&lags, 99.0) / 1e3,
            if ok {
                "meets the SLO"
            } else {
                "misses the SLO"
            },
        );
        if ok || lag_at_slo.is_none() {
            lag_at_slo = Some(percentile(&lags, 99.0) / 1e3);
        }
        unchecked.extend(tally.absorb(&run, slice));
        rungs.push((rate, ok));
        if !ok {
            break;
        }
    }
    server.stop()?;
    drop(pinned);

    // Check every miss against the in-process answer, two threads wide.
    let bad: u64 = std::thread::scope(|scope| {
        let half = unchecked.len().div_ceil(2);
        let handles: Vec<_> = unchecked
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|(call, got)| expected_body(call).ok().as_ref() != Some(got))
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker"))
            .sum()
    });
    tally.failed += bad;
    tally.mismatched += bad;

    // Each chunk summarized on its own; the run reports their medians,
    // so one noisy stretch of the host moves at most one chunk.
    let mut summaries = Vec::new();
    for chunk in &done {
        let ok: Vec<f64> = chunk
            .run
            .samples
            .iter()
            .filter(|s| !matches!(s.reply, Reply::Failed(_)))
            .map(|s| s.latency_us)
            .collect();
        if ok.is_empty() {
            return Err("every request of a closed-loop chunk failed".into());
        }
        summaries.push(summarize(&ok));
    }
    let med = |f: &dyn Fn(usize) -> f64| median(&(0..done.len()).map(f).collect::<Vec<_>>());
    let p50 = med(&|i| summaries[i].p50);
    let tail = med(&|i| summaries[i].tail);
    let req_per_s = med(&|i| CHUNK_REQUESTS as f64 / done[i].run.wall.as_secs_f64());
    let cpu_us_per_req = med(&|i| done[i].cpu_us_per_req);
    let hwm_kb = med(&|i| done[i].hwm_kb as f64);
    let connects: usize = done.iter().map(|c| c.run.connect_us.len()).sum();
    let conns_per_req = connects as f64 / (done.len() * CHUNK_REQUESTS) as f64;
    let rps_at_slo = load::rps_at_slo(&rungs);

    if let Some(spans) = &ctx.spans {
        let hits: Vec<f64> = done
            .iter()
            .flat_map(|c| &c.run.samples)
            .filter(|s| s.reply == Reply::Matched)
            .map(|s| s.latency_us)
            .collect();
        if !hits.is_empty() {
            spans.gauge("serve.hit_latency_us", median(&hits));
        }
        let connect_us: Vec<f64> = done.iter().flat_map(|c| c.run.connect_us.clone()).collect();
        if !connect_us.is_empty() {
            spans.gauge("serve.connect_us", median(&connect_us));
        }
        spans.gauge("serve.conns_per_req", conns_per_req);
        spans.gauge("serve.rss_kb_per_req", med(&|i| done[i].rss_kb_per_req));
        let (hits, misses, rejected) = done.iter().fold((0.0, 0.0, 0.0), |acc, c| {
            (
                acc.0 + c.counters.0,
                acc.1 + c.counters.1,
                acc.2 + c.counters.2,
            )
        });
        spans.gauge("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        spans.gauge("serve.rejections", rejected);
        spans.gauge("loadgen.rps_at_slo", rps_at_slo);
        spans.gauge("loadgen.lag_ms_p99", lag_at_slo.unwrap_or(0.0));
    }

    let (n, tail_label) = (summaries[0].n, summaries[0].tail_label.clone());
    Ok(Run {
        attempted: tally.attempted,
        failed: tally.failed,
        mismatched: tally.mismatched,
        e2e: E2e {
            setup_s: median(&setup),
            ok_ratio: (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            peak_rss_mb: hwm_kb / 1024.0,
            ops_per_s: req_per_s,
            cpu_us_per_op: cpu_us_per_req,
            latency_p50_us: p50,
            latency_tail_us: tail,
        },
        report: vec![
            (
                format!("req_p50_us ({chunks} chunks, n={n} each)"),
                p50,
                "us",
            ),
            (
                format!("req_{tail_label}_us ({chunks} chunks, n={n} each)"),
                tail,
                "us",
            ),
            ("req_per_s".into(), req_per_s, "1/s"),
            ("cpu_us_per_req".into(), cpu_us_per_req, "us"),
            (
                format!("rps_at_slo (p99 <= {} ms)", SLO_US / 1e3),
                rps_at_slo,
                "1/s",
            ),
            ("connections_per_req".into(), conns_per_req, "count"),
        ],
    })
}
