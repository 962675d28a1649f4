//! `sweep_large`: the `hetmem sweep` path in-process on the full 54-job
//! grid at scale 4, where the simulate loop is almost all of the time.
//!
//! Set-up is generating the six kernel traces (a CLI user pays it on
//! every invocation). Each repetition then runs one accurate and one
//! sampled pass of `run_jobs` with 2 workers and a fresh cache directory,
//! so the cache is only written to. Every record is checked byte for byte
//! against a 1-worker reference run of the same grid made in the same
//! run. Throughput, CPU and latency are medians over the accurate passes;
//! the sampled passes are reported beside them.

use crate::procfs::{cpu_time, fresh_dir, status_kb};
use crate::stats::{median, summarize};
use crate::{Ctx, E2e, Run};
use hetmem::core::experiment::ExperimentConfig;
use hetmem::sim::ExecMode;
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::xplore::{job_trace, run_jobs, to_jsonl, Job, SweepOptions, SweepSpec};
use std::hint::black_box;
use std::time::Instant;

/// The trace scale of the grid.
pub const SCALE: u32 = 4;
/// Worker threads of each measured pass.
const WORKERS: usize = 2;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 5;

/// Each record of a sweep as its JSON line.
fn lines(
    jobs: &[Job],
    config: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<Vec<String>, String> {
    let out = run_jobs(jobs, config, opts).map_err(|e| e.to_string())?;
    Ok(to_jsonl(&out.records).lines().map(str::to_owned).collect())
}

/// Largest |sampled − accurate| / accurate total ticks over the grid, %.
fn worst_sampled_error(accurate: &[String], sampled: &[String]) -> Result<f64, String> {
    let ticks = |line: &String| {
        hetmem::xplore::json::parse(line)
            .ok()
            .and_then(|v| v.get("total_ticks").and_then(hetmem::xplore::Json::as_u64))
            .ok_or_else(|| "record without total_ticks".to_owned())
    };
    accurate
        .iter()
        .zip(sampled)
        .try_fold(0.0f64, |worst, (a, s)| {
            let (a, s) = (ticks(a)? as f64, ticks(s)? as f64);
            Ok(worst.max((s - a).abs() / a * 100.0))
        })
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the sweep engine cannot run at all.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let config = ExperimentConfig::paper();
    let jobs = SweepSpec::full(SCALE).expand();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            for kernel in Kernel::ALL {
                black_box(kernel.generate(&KernelParams::scaled(SCALE)));
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    // Fill the process-wide trace store so passes measure simulation.
    for job in &jobs {
        let _ = job_trace(job);
    }

    let modes = [ExecMode::Accurate, ExecMode::sampled_default()];
    let reference: Vec<Vec<String>> = modes
        .iter()
        .map(|&mode| {
            lines(
                &jobs,
                &config,
                &SweepOptions::builder().workers(1).mode(mode).build(),
            )
        })
        .collect::<Result<_, _>>()?;

    let reps = (ctx.seconds / 3).max(1);
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cpu_accurate = Vec::new();
    for rep in 0..reps {
        for (m, &mode) in modes.iter().enumerate() {
            let dir = ctx.work.join(format!("sweep-cache-{rep}-{m}"));
            fresh_dir(&dir)?;
            let opts = SweepOptions::builder()
                .workers(WORKERS)
                .cache_dir(Some(dir.clone()))
                .mode(mode)
                .build();
            let cpu0 = cpu_time(None)?;
            let start = Instant::now();
            let got = lines(&jobs, &config, &opts);
            walls[m].push(start.elapsed().as_secs_f64());
            if m == 0 {
                cpu_accurate.push((cpu_time(None)? - cpu0).as_secs_f64());
            }
            attempted += jobs.len() as u64;
            match got {
                Ok(got) => {
                    let bad = (0..jobs.len())
                        .filter(|&i| got.get(i) != Some(&reference[m][i]))
                        .count() as u64;
                    mismatched += bad;
                    failed += bad;
                }
                Err(e) => {
                    eprintln!("sweep_large: pass failed: {e}");
                    failed += jobs.len() as u64;
                }
            }
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }

    // Medians over passes: one noisy stretch of the host moves one pass.
    let n = jobs.len() as f64;
    let jobs_per_s = n / median(&walls[0]);
    let sampled_per_s = n / median(&walls[1]);
    let cpu_ms_per_job = median(&cpu_accurate) * 1e3 / n;
    let err = worst_sampled_error(&reference[0], &reference[1])?;
    let pass_us: Vec<f64> = walls[0].iter().map(|s| s * 1e6).collect();
    let latency = summarize(&pass_us);
    let peak_mb = status_kb(None, "VmHWM")? as f64 / 1024.0;
    Ok(Run {
        attempted,
        failed,
        mismatched,
        e2e: E2e {
            setup_s: median(&setup),
            ok_ratio: (attempted - failed) as f64 / attempted as f64,
            peak_rss_mb: peak_mb,
            ops_per_s: jobs_per_s,
            cpu_us_per_op: cpu_ms_per_job * 1e3,
            latency_p50_us: latency.p50,
            latency_tail_us: latency.tail,
        },
        report: vec![
            ("sweep_jobs_per_s".into(), jobs_per_s, "1/s"),
            ("cpu_ms_per_job".into(), cpu_ms_per_job, "ms"),
            ("sampled_jobs_per_s".into(), sampled_per_s, "1/s"),
            ("sampled_cycle_err_pct".into(), err, "%"),
            (
                format!("pass_wall_ms.p50 (n={})", latency.n),
                latency.p50 / 1e3,
                "ms",
            ),
            (
                format!("pass_wall_ms.{} (n={})", latency.tail_label, latency.n),
                latency.tail / 1e3,
                "ms",
            ),
        ],
    })
}
