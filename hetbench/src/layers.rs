//! Per-layer measurement for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions (`trace`, `sim`, `xplore`, `serve`,
//! `cluster`); nothing inside the program is instrumented. A span is a
//! named duration kept in memory until the run ends; a gauge is a value a
//! workload observed directly (a counter, a ratio). Every per-layer
//! metric is the median of its span samples or the gauge's value.

use crate::load::warm_keys;
use crate::stats::median;
use hetmem::core::experiment::ExperimentConfig;
use hetmem::core::IdealSpaceComm;
use hetmem::serve::{parse_sim_request, run_sim, Metrics};
use hetmem::sim::{ExecMode, Simulation, System};
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::trace::PuKind;
use hetmem::xplore::{
    content_key_with, execute_job, job_trace, report_to_json, DiskCache, Job, JobKind, SweepSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_ms", "ms"),
    ("sim.arm_us.fresh", "us"),
    ("sim.arm_us.recycled", "us"),
    ("sim.ns_per_inst.accurate", "ns"),
    ("sim.ns_per_inst.sampled", "ns"),
    ("sim.sampled_err_pct.reduction", "%"),
    ("sim.sampled_err_pct.matrix_mul", "%"),
    ("sim.sampled_err_pct.convolution", "%"),
    ("sim.sampled_err_pct.dct", "%"),
    ("sim.sampled_err_pct.merge_sort", "%"),
    ("sim.sampled_err_pct.k-mean", "%"),
    ("sim.sampled_err_pct.max", "%"),
    ("sim.total_ticks_sum", "ticks"),
    ("xplore.content_key_us", "us"),
    ("xplore.cache_get_us", "us"),
    ("xplore.cache_put_us", "us"),
    ("xplore.render_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.run_sim_hit_us", "us"),
    ("serve.run_sim_miss_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.conns_per_req", "count"),
    ("serve.wire_overhead_us", "us"),
    ("serve.rss_kb_per_req", "kB"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejections", "count"),
    ("cluster.partition_us", "us"),
    ("cluster.part_rtt_us", "us"),
    ("cluster.parts_per_sweep", "count"),
    ("cluster.part_failovers", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.rps_at_slo", "1/s"),
];

/// The in-memory span and gauge store of one traced run.
#[derive(Default)]
pub struct Spans {
    spans: Mutex<BTreeMap<String, Vec<f64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl Spans {
    /// Records one sample under `name`: a span's duration in µs, or a
    /// per-unit count a workload sums later.
    pub fn record(&self, name: &str, us: f64) {
        self.spans
            .lock()
            .expect("span store lock")
            .entry(name.to_owned())
            .or_default()
            .push(us);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauges
            .lock()
            .expect("gauge store lock")
            .insert(name.to_owned(), value);
    }

    /// Every span recorded under `name`.
    #[must_use]
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store lock");
        spans.get(name).cloned().unwrap_or_default()
    }

    /// A gauge, else the median span duration (µs) under `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.gauges.lock().expect("gauge store lock").get(name) {
            return Some(*v);
        }
        let spans = self.spans.lock().expect("span store lock");
        spans.get(name).filter(|v| !v.is_empty()).map(|v| median(v))
    }
}

/// Times `f` over `batch` calls `reps` times and returns the median
/// per-call time in µs, so sub-microsecond calls still resolve.
fn per_call_us(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..batch {
                f(i);
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&times)
}

/// Kernel name as a metric-name segment.
fn metric_kernel(kernel: Kernel) -> String {
    kernel.name().replace(' ', "_")
}

/// A simulation for `job` on `config`, optionally re-arming `engine`.
fn build(
    job: &Job,
    config: &ExperimentConfig,
    mode: ExecMode,
    engine: Option<System>,
) -> Result<Simulation, String> {
    let builder = Simulation::builder()
        .config(config.system)
        .costs(config.costs)
        .mode(mode)
        .recycle(engine);
    match job.kind {
        JobKind::CaseStudy { system } => builder.comm_model(system.comm_model(config.costs)),
        JobKind::AddressSpace { space } => {
            builder.comm_model(IdealSpaceComm::new(space, config.costs))
        }
    }
    .build()
    .map_err(|e| e.to_string())
}

/// The in-process layer probes: `trace` and `sim` at `scale` (the
/// workload's scale), `xplore` and `serve` on the 60 warm `/v1/sim` keys.
///
/// # Errors
///
/// Returns a message when a layer call fails.
pub fn probe(scale: u32, work: &Path, spans: &Spans) -> Result<(), String> {
    let config = ExperimentConfig::paper();

    // trace: the six kernels' generation, as a CLI invocation pays it.
    let gen: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for kernel in Kernel::ALL {
                black_box(kernel.generate(&KernelParams::scaled(scale)));
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    spans.gauge("trace.gen_ms", median(&gen));

    // sim: engine arm, fresh and recycled, then the grid in both modes.
    let jobs = SweepSpec::full(scale).expand();
    let mut engine = None;
    for _ in 0..20 {
        let start = Instant::now();
        let sim = build(&jobs[0], &config, ExecMode::Accurate, None)?;
        spans.record("sim.arm_us.fresh", start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let recycled = build(
            &jobs[0],
            &config,
            ExecMode::Accurate,
            Some(sim.into_parts().0),
        )?;
        spans.record("sim.arm_us.recycled", start.elapsed().as_secs_f64() * 1e6);
        engine = Some(recycled.into_parts().0);
    }
    let mut ticks_sum = 0u64;
    let mut worst: BTreeMap<String, f64> = BTreeMap::new();
    let (mut ns, mut insts) = ([0.0f64; 2], [0u64; 2]);
    for job in &jobs {
        let trace = job_trace(job);
        let n = (trace.pu_len(PuKind::Cpu) + trace.pu_len(PuKind::Gpu)) as u64;
        let mut totals = [0u64; 2];
        for (m, mode) in [ExecMode::Accurate, ExecMode::sampled_default()]
            .into_iter()
            .enumerate()
        {
            let mut sim = build(job, &config, mode, engine.take())?;
            let start = Instant::now();
            let report = sim.run(&trace).map_err(|e| e.to_string())?;
            ns[m] += start.elapsed().as_secs_f64() * 1e9;
            insts[m] += n;
            totals[m] = report.total_ticks();
            engine = Some(sim.into_parts().0);
        }
        ticks_sum += totals[0] + totals[1];
        let err = (totals[1] as f64 - totals[0] as f64).abs() / totals[0] as f64 * 100.0;
        let slot = worst.entry(metric_kernel(job.kernel)).or_insert(0.0);
        *slot = slot.max(err);
    }
    spans.gauge("sim.ns_per_inst.accurate", ns[0] / insts[0] as f64);
    spans.gauge("sim.ns_per_inst.sampled", ns[1] / insts[1] as f64);
    spans.gauge("sim.total_ticks_sum", ticks_sum as f64);
    for (kernel, err) in &worst {
        spans.gauge(&format!("sim.sampled_err_pct.{kernel}"), *err);
    }
    spans.gauge(
        "sim.sampled_err_pct.max",
        worst.values().copied().fold(0.0, f64::max),
    );

    // xplore and serve, on the warm keys the service answers.
    let requests: Vec<_> = warm_keys()
        .iter()
        .map(|call| parse_sim_request(&call.body()))
        .collect::<Result<_, _>>()?;
    let bodies: Vec<String> = warm_keys().iter().map(|c| c.body()).collect();
    let n = requests.len();
    spans.gauge(
        "serve.parse_us",
        per_call_us(20, n, |i| {
            black_box(parse_sim_request(&bodies[i]).ok());
        }),
    );
    let keyed: Vec<(Job, ExperimentConfig)> = requests.iter().map(|r| r.job()).collect();
    spans.gauge(
        "xplore.content_key_us",
        per_call_us(20, n, |i| {
            black_box(content_key_with(
                &keyed[i].0,
                &keyed[i].1,
                None,
                ExecMode::Accurate,
            ));
        }),
    );
    let keys: Vec<String> = requests.iter().map(|r| r.content_key()).collect();
    let records = keyed
        .iter()
        .map(|(job, config)| execute_job(job, config, &job_trace(job)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let dir = work.join("probe-cache");
    crate::procfs::fresh_dir(&dir)?;
    let cache = DiskCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut put_err = None;
    spans.gauge(
        "xplore.cache_put_us",
        per_call_us(5, n, |i| {
            if let Err(e) = cache.put(&keys[i], &records[i]) {
                put_err = Some(e);
            }
        }),
    );
    if let Some(e) = put_err {
        return Err(format!("cache put: {e}"));
    }
    let mut misses = 0;
    spans.gauge(
        "xplore.cache_get_us",
        per_call_us(5, n, |i| {
            misses += usize::from(black_box(cache.get(&keys[i])).is_none());
        }),
    );
    if misses > 0 {
        return Err(format!("{misses} cache gets missed a key just put"));
    }
    spans.gauge(
        "xplore.render_us",
        per_call_us(20, n, |i| {
            black_box(report_to_json(&records[i].report).render());
        }),
    );
    let metrics = Metrics::default();
    let mut failed = 0;
    spans.gauge(
        "serve.run_sim_hit_us",
        per_call_us(5, n, |i| {
            failed += usize::from(run_sim(&requests[i], Some(&cache), None, &metrics).is_err());
        }),
    );
    spans.gauge(
        "serve.run_sim_miss_us",
        per_call_us(3, n, |i| {
            failed += usize::from(run_sim(&requests[i], None, None, &metrics).is_err());
        }),
    );
    if failed > 0 {
        return Err(format!("{failed} in-process run_sim calls failed"));
    }
    drop(cache);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}
