//! `fleet_small`: the `hetmem sweep --join` path. Two `hetmem serve`
//! children form a fleet (`--advertise` / `--join`, one worker each, no
//! cache) and the benchmark process scatters the 54-job scale-512 grid
//! across it with `FleetDispatcher` + `run_jobs`, over and over: a fixed
//! number of scatters per fleet, on several fresh fleets per run, whose
//! medians the run reports.
//!
//! Jobs this small are dominated by per-job and per-part overheads: ring
//! partitioning, frames, part round trips and engine set-up. Set-up is
//! spawning both nodes until the fleet has two members and the dispatcher
//! is connected, at least seven times per run. Every scatter's records are checked
//! byte for byte against a single-node `run_jobs` of the same grid.

use crate::layers::Spans;
use crate::procfs::{cpu_time, status_kb, ServeChild};
use crate::stats::{median, summarize};
use crate::{Ctx, E2e, Run};
use hetmem::cluster::FleetDispatcher;
use hetmem::core::experiment::ExperimentConfig;
use hetmem::sim::SimError;
use hetmem::xplore::{
    run_jobs, to_jsonl, DispatchContext, Job, JobDispatcher, JobPart, Json, SweepOptions,
    SweepRecord, SweepSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The trace scale of the grid.
pub const SCALE: u32 = 512;
/// Scatters per second of `--seconds`.
const SCATTERS_PER_SECOND: u64 = 40;
/// Scatters per fresh fleet.
const SCATTERS_PER_FLEET: u64 = 200;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 7;

/// A `FleetDispatcher` with a span around each call: the benchmark-side
/// wrapper the traced run uses to time partitioning and part round trips.
struct TracedDispatcher {
    inner: FleetDispatcher,
    spans: Arc<Spans>,
    parts: AtomicU64,
    failures: AtomicU64,
}

impl JobDispatcher for TracedDispatcher {
    fn partition(&self, jobs: &[Job], ctx: &DispatchContext<'_>) -> Vec<JobPart> {
        let parts = self
            .spans
            .time("cluster.partition_us", || self.inner.partition(jobs, ctx));
        self.parts.fetch_add(parts.len() as u64, Ordering::Relaxed);
        parts
    }

    fn execute(
        &self,
        jobs: &[Job],
        part: &JobPart,
        ctx: &DispatchContext<'_>,
    ) -> Result<Vec<SweepRecord>, SimError> {
        let out = self.spans.time("cluster.part_rtt_us", || {
            self.inner.execute(jobs, part, ctx)
        });
        if out.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// A two-node fleet and a dispatcher connected to it.
struct Fleet {
    nodes: [ServeChild; 2],
    dispatcher: FleetDispatcher,
}

impl Fleet {
    fn stop(self) -> Result<(), String> {
        let [a, b] = self.nodes;
        let (ra, rb) = (a.stop(), b.stop());
        ra.and(rb)
    }
}

/// Peers a node's `/metrics` lists (itself excluded).
fn peer_count(addr: &str) -> usize {
    crate::serve_metrics(addr)
        .ok()
        .and_then(|m| match m.get("cluster").and_then(|c| c.get("peers")) {
            Some(Json::Arr(peers)) => Some(peers.len()),
            _ => None,
        })
        .unwrap_or(0)
}

/// Spawns both nodes and waits until each sees the other and the
/// dispatcher's snapshot holds both.
fn start_fleet() -> Result<Fleet, String> {
    let a = ServeChild::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--advertise",
        "127.0.0.1:0",
        "--workers",
        "1",
    ])?;
    let seed = a
        .cluster
        .clone()
        .ok_or("first node printed no cluster address")?;
    let b = ServeChild::spawn(&["--addr", "127.0.0.1:0", "--join", &seed, "--workers", "1"])?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if peer_count(&a.http) == 1 && peer_count(&b.http) == 1 {
            if let Ok(dispatcher) = FleetDispatcher::connect(&seed) {
                if dispatcher.nodes() == 2 {
                    return Ok(Fleet {
                        nodes: [a, b],
                        dispatcher,
                    });
                }
            }
        }
        if Instant::now() > deadline {
            return Err("the two-node fleet did not form within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One fleet's share of the scatters.
struct Chunk {
    /// Wall time of each scatter, s.
    walls: Vec<f64>,
    /// CPU time of the benchmark process and both nodes, s.
    cpu_s: f64,
    /// Summed peak resident set of both nodes, kB.
    hwm_kb: u64,
    failed: u64,
    mismatched: u64,
}

/// Runs `scatters` scatters of `jobs` on a started fleet, checking each
/// against `reference`, then stops the fleet.
fn fleet_chunk(
    fleet: Fleet,
    jobs: &[Job],
    reference: &str,
    scatters: u64,
    spans: Option<&Arc<Spans>>,
) -> Result<Chunk, String> {
    let Fleet { nodes, dispatcher } = fleet;
    let pids = [Some(nodes[0].pid()), Some(nodes[1].pid())];
    let (shared, traced): (Arc<dyn JobDispatcher>, _) = match spans {
        Some(spans) => {
            let traced = Arc::new(TracedDispatcher {
                inner: dispatcher,
                spans: Arc::clone(spans),
                parts: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            });
            (Arc::clone(&traced) as Arc<dyn JobDispatcher>, Some(traced))
        }
        None => (Arc::new(dispatcher), None),
    };
    let opts = SweepOptions::builder().dispatcher(Some(shared)).build();
    let config = ExperimentConfig::paper();
    let cpu_all = || -> Result<Duration, String> {
        Ok(cpu_time(None)? + cpu_time(pids[0])? + cpu_time(pids[1])?)
    };
    let measure = || -> Result<Chunk, String> {
        let (mut walls, mut mismatched, mut failed) = (Vec::new(), 0u64, 0u64);
        let cpu0 = cpu_all()?;
        for _ in 0..scatters {
            let start = Instant::now();
            let out = run_jobs(jobs, &config, &opts);
            walls.push(start.elapsed().as_secs_f64());
            match out {
                Ok(out) => {
                    let got = to_jsonl(&out.records);
                    let bad = reference
                        .lines()
                        .zip(got.lines().chain(std::iter::repeat("")))
                        .filter(|(want, got)| want != got)
                        .count() as u64;
                    mismatched += bad;
                    failed += bad;
                }
                Err(e) => {
                    eprintln!("fleet_small: scatter failed: {e}");
                    failed += jobs.len() as u64;
                }
            }
        }
        let cpu_s = (cpu_all()? - cpu0).as_secs_f64();
        let hwm_kb = status_kb(pids[0], "VmHWM")? + status_kb(pids[1], "VmHWM")?;
        Ok(Chunk {
            walls,
            cpu_s,
            hwm_kb,
            failed,
            mismatched,
        })
    };
    let chunk = measure();
    if let (Some(spans), Some(t)) = (spans, &traced) {
        let node_failovers: u64 = nodes
            .iter()
            .filter_map(|n| {
                crate::serve_metrics(&n.http).ok().and_then(|m| {
                    m.get("cluster")
                        .and_then(|c| c.get("sweep_part_failovers"))
                        .and_then(Json::as_u64)
                })
            })
            .sum();
        spans.record("cluster.parts", t.parts.load(Ordering::Relaxed) as f64);
        spans.record(
            "cluster.failovers",
            (t.failures.load(Ordering::Relaxed) + node_failovers) as f64,
        );
    }
    let [a, b] = nodes;
    let (ra, rb) = (a.stop(), b.stop());
    let chunk = chunk?;
    ra.and(rb)?;
    Ok(chunk)
}

/// Runs the workload; `mini` is the reduced run (one fleet) that other
/// workloads' traced runs use to fill the `cluster.*` layer metrics.
///
/// # Errors
///
/// Returns a message when a fleet cannot be started or stopped.
pub fn run(ctx: &Ctx, mini: bool) -> Result<Run, String> {
    let config = ExperimentConfig::paper();
    let jobs = SweepSpec::full(SCALE).expand();
    let reference =
        run_jobs(&jobs, &config, &SweepOptions::with_workers(1)).map_err(|e| e.to_string())?;
    let reference = to_jsonl(&reference.records);
    let start = Instant::now();
    run_jobs(&jobs, &config, &SweepOptions::with_workers(2)).map_err(|e| e.to_string())?;
    let single_node_jobs_per_s = jobs.len() as f64 / start.elapsed().as_secs_f64();
    let fleets = if mini {
        1
    } else {
        (SCATTERS_PER_SECOND * ctx.seconds / SCATTERS_PER_FLEET).max(1)
    };

    let mut setup = Vec::new();
    let mut chunks = Vec::new();
    for _ in 0..fleets {
        let start = Instant::now();
        let fleet = start_fleet()?;
        setup.push(start.elapsed().as_secs_f64());
        chunks.push(fleet_chunk(
            fleet,
            &jobs,
            &reference,
            SCATTERS_PER_FLEET,
            ctx.spans.as_ref(),
        )?);
    }
    while setup.len() < SETUP_REPS {
        let start = Instant::now();
        let fleet = start_fleet()?;
        setup.push(start.elapsed().as_secs_f64());
        fleet.stop()?;
    }
    if let Some(spans) = &ctx.spans {
        let total = |name: &str| spans.samples(name).iter().sum::<f64>();
        let scatters = (fleets * SCATTERS_PER_FLEET) as f64;
        spans.gauge("cluster.parts_per_sweep", total("cluster.parts") / scatters);
        spans.gauge("cluster.part_failovers", total("cluster.failovers"));
    }

    // Each fleet summarized on its own; the run reports their medians.
    let n = jobs.len() as f64;
    let summaries: Vec<_> = chunks
        .iter()
        .map(|c| summarize(&c.walls.iter().map(|s| s * 1e6).collect::<Vec<_>>()))
        .collect();
    let med = |f: &dyn Fn(usize) -> f64| median(&(0..chunks.len()).map(f).collect::<Vec<_>>());
    let jobs_per_s =
        med(&|i| n * chunks[i].walls.len() as f64 / chunks[i].walls.iter().sum::<f64>());
    let cpu_ms_per_job = med(&|i| chunks[i].cpu_s * 1e3 / (n * chunks[i].walls.len() as f64));
    let p50 = med(&|i| summaries[i].p50);
    let tail = med(&|i| summaries[i].tail);
    let hwm_kb = med(&|i| chunks[i].hwm_kb as f64);
    let attempted = fleets * SCATTERS_PER_FLEET * jobs.len() as u64;
    let failed: u64 = chunks.iter().map(|c| c.failed).sum();
    let mismatched: u64 = chunks.iter().map(|c| c.mismatched).sum();
    let (count, tail_label) = (summaries[0].n, summaries[0].tail_label.clone());
    Ok(Run {
        attempted,
        failed,
        mismatched,
        e2e: E2e {
            setup_s: median(&setup),
            ok_ratio: (attempted - failed) as f64 / attempted as f64,
            peak_rss_mb: hwm_kb / 1024.0,
            ops_per_s: jobs_per_s,
            cpu_us_per_op: cpu_ms_per_job * 1e3,
            latency_p50_us: p50,
            latency_tail_us: tail,
        },
        report: vec![
            ("sweep_jobs_per_s".into(), jobs_per_s, "1/s"),
            ("cpu_ms_per_job".into(), cpu_ms_per_job, "ms"),
            (
                "single_node_jobs_per_s (one in-process sweep, 2 workers)".into(),
                single_node_jobs_per_s,
                "1/s",
            ),
            (
                format!("scatter_ms.p50 ({fleets} fleets, n={count} each)"),
                p50 / 1e3,
                "ms",
            ),
            (
                format!("scatter_ms.{tail_label} ({fleets} fleets, n={count} each)"),
                tail / 1e3,
                "ms",
            ),
        ],
    })
}
