//! `hetbench`: the end-to-end and per-layer benchmark for hetmem.
//!
//! ```text
//! cargo run --release --manifest-path hetbench/Cargo.toml -- \
//!     --workload sweep_large|serve_zipf|fleet_small --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run does a fixed amount of work (scaled by `--seconds`), checks
//! every output byte for byte against an in-process reference, prints the
//! workload's metrics by name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` they are the
//! per-layer set plus the tracing overhead on each end-to-end metric.
//! See `hetbench/README.md` for the workloads and what each metric means.

mod fleet;
mod http;
mod layers;
mod load;
mod procfs;
mod serve;
mod stats;
mod sweep;

use layers::Spans;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
];

/// What a workload run is given.
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Scales the fixed amount of work.
    pub seconds: u64,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// The span store when this run is traced.
    pub spans: Option<Arc<Spans>>,
}

/// End-to-end values, in [`END_TO_END`] order.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Operations that succeeded and passed their check / attempted.
    pub ok_ratio: f64,
    /// Peak resident set of the process(es) doing the work, MB.
    pub peak_rss_mb: f64,
    /// Operations (sweep jobs or requests) per wall-clock second.
    pub ops_per_s: f64,
    /// CPU time per operation, µs.
    pub cpu_us_per_op: f64,
    /// Median operation latency, µs.
    pub latency_p50_us: f64,
    /// Tail operation latency (see `stats::summarize`), µs.
    pub latency_tail_us: f64,
}

impl E2e {
    fn values(&self) -> [f64; 7] {
        [
            self.setup_s,
            self.ok_ratio,
            self.peak_rss_mb,
            self.ops_per_s,
            self.cpu_us_per_op,
            self.latency_p50_us,
            self.latency_tail_us,
        ]
    }
}

/// One workload run's results.
pub struct Run {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Operations whose output differed from the reference.
    pub mismatched: u64,
    /// End-to-end values.
    pub e2e: E2e,
    /// The workload's own metrics under their workload-specific names.
    pub report: Vec<(String, f64, &'static str)>,
}

/// A server's `/metrics` document.
///
/// # Errors
///
/// Returns a message when the request or the JSON fails.
pub fn serve_metrics(addr: &str) -> Result<hetmem::xplore::Json, String> {
    let r = http::Client::new(addr)
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    hetmem::xplore::json::parse(&r.body).map_err(|e| format!("/metrics: {e}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SweepLarge,
    ServeZipf,
    FleetSmall,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "sweep_large" => Ok(Workload::SweepLarge),
            "serve_zipf" => Ok(Workload::ServeZipf),
            "fleet_small" => Ok(Workload::FleetSmall),
            _ => Err(format!(
                "unknown workload {s:?} (sweep_large|serve_zipf|fleet_small)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepLarge => "sweep_large",
            Workload::ServeZipf => "serve_zipf",
            Workload::FleetSmall => "fleet_small",
        }
    }

    /// The trace scale the `trace` and `sim` layer probes run at.
    fn scale(self) -> u32 {
        match self {
            Workload::SweepLarge => sweep::SCALE,
            Workload::ServeZipf | Workload::FleetSmall => fleet::SCALE,
        }
    }

    fn run(self, ctx: &Ctx) -> Result<Run, String> {
        match self {
            Workload::SweepLarge => sweep::run(ctx),
            Workload::ServeZipf => serve::run(ctx, false),
            Workload::FleetSmall => fleet::run(ctx, false),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(48),
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's result: the checked-operation counts and the metrics
/// of the final JSON line.
struct Outcome {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn absorb(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.mismatched += run.mismatched;
    }
}

fn print_run(label: &str, run: &Run) {
    println!(
        "{label}: {} checked operations, {} failed",
        run.attempted, run.failed
    );
    for ((name, unit), value) in END_TO_END.iter().zip(run.e2e.values()) {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &run.report {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// Runs this workload untraced in a child process (`--trace 0`), echoes
/// its report, and returns its checked counts and end-to-end values.
fn untraced_child(args: &Args) -> Result<(Outcome, [f64; 7]), String> {
    use hetmem::xplore::Json;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !output.status.success() {
        return Err(format!("untraced run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("untraced run printed no report")?;
    println!("{report}");
    let v = hetmem::xplore::json::parse(last).map_err(|e| format!("untraced result: {e}"))?;
    let count = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut values = [0.0; 7];
    for (slot, (name, _)) in values.iter_mut().zip(END_TO_END) {
        *slot = v
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("untraced result lacks {name}"))?;
    }
    let outcome = Outcome {
        attempted: count("attempted"),
        failed: count("failed"),
        mismatched: u64::from(v.get("correct") != Some(&Json::Bool(true))),
        metrics: Vec::new(),
    };
    Ok((outcome, values))
}

fn measure(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let ctx = |spans: Option<Arc<Spans>>| Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.to_path_buf(),
        spans,
    };
    if !args.trace {
        let base = w.run(&ctx(None))?;
        print_run(w.name(), &base);
        let mut out = Outcome {
            attempted: 0,
            failed: 0,
            mismatched: 0,
            metrics: Vec::new(),
        };
        out.absorb(&base);
        out.metrics = END_TO_END
            .iter()
            .zip(base.e2e.values())
            .map(|((name, unit), v)| ((*name).to_owned(), v, (*unit).to_owned()))
            .collect();
        return Ok(out);
    }

    // The untraced reference runs in a child process and the traced run
    // comes first in this one, so both start from a fresh process and
    // their peak RSS compare.
    let (mut out, base) = untraced_child(args)?;

    // Traced: the same workload again with spans on, the reduced serve
    // and fleet runs for the layers this workload does not exercise, and
    // the in-process layer probes.
    let spans = Arc::new(Spans::default());
    let traced_ctx = ctx(Some(Arc::clone(&spans)));
    let traced = w.run(&traced_ctx)?;
    print_run(&format!("{} (traced)", w.name()), &traced);
    out.absorb(&traced);
    if w != Workload::ServeZipf {
        out.absorb(&serve::run(&traced_ctx, true)?);
    }
    if w != Workload::FleetSmall {
        out.absorb(&fleet::run(&traced_ctx, true)?);
    }
    layers::probe(w.scale(), work, &spans)?;
    if let (Some(hit), Some(handler)) = (
        spans.value("serve.hit_latency_us"),
        spans.value("serve.run_sim_hit_us"),
    ) {
        spans.gauge("serve.wire_overhead_us", hit - handler);
    }
    for (name, unit) in layers::PER_LAYER {
        let value = spans
            .value(name)
            .ok_or_else(|| format!("traced run recorded no {name}"))?;
        out.metrics
            .push(((*name).to_owned(), value, (*unit).to_owned()));
    }
    for (((name, _), b), t) in END_TO_END.iter().zip(base).zip(traced.e2e.values()) {
        out.metrics.push((
            format!("overhead.{name}_pct"),
            (t - b) / b * 100.0,
            "%".to_owned(),
        ));
    }
    println!(
        "per-layer ({}, trace/sim at scale {}):",
        w.name(),
        w.scale()
    );
    for (name, value, unit) in &out.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    Ok(out)
}

/// The JSON result line.
fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.mismatched == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// Runs the `hetmem` command line in this process: the benchmark
/// re-executes itself this way to start `hetmem serve` children, so the
/// servers are built from the same checkout as everything else.
fn hetmem_main(args: &[String]) -> ! {
    let command = match hetmem::cli::parse_args(args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("hetmem: {msg}");
            std::process::exit(2);
        }
    };
    match hetmem::cli::execute(&command) {
        Ok(()) => std::process::exit(0),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(err.exit_code());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("hetmem") {
        hetmem_main(&args[1..]);
    }
    let result = parse_args(&args).and_then(|args| {
        let root = PathBuf::from(".hetbench");
        let work = root.join(std::process::id().to_string());
        procfs::fresh_dir(&work)?;
        let out = measure(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(&root);
        result_line(&out?)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("hetbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = args(&[
            "--workload",
            "serve_zipf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeZipf, 7, 10, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "sweep_large", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep_large", "--seed"]).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            mismatched: 0,
            metrics: vec![("ops_per_s".into(), 12.5, "1/s".into())],
        };
        let line = result_line(&out).expect("finite");
        let v = hetmem::xplore::json::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("attempted").and_then(hetmem::xplore::Json::as_u64),
            Some(3)
        );
        assert!(line.contains("\"correct\": true"));
        let bad = Outcome {
            metrics: vec![("x".into(), f64::NAN, "s".into())],
            ..out
        };
        assert!(result_line(&bad).is_err());
    }
}
