//! The `serve_zipf` request mix and the load loops that send it.
//!
//! The mix is a pure function of the workload seed: 90 % of requests are
//! `/v1/sim` cache hits drawn Zipf(1.1) over the 60 warm keys (6 kernels ×
//! 5 systems × scales {64, 512}, ranked by a seeded shuffle); 10 % are
//! misses at fresh seeded scales spread evenly over 257–4096, half of
//! them sampled. The server only ever sees the generated request bodies.
//!
//! Two loops send it, each on at most `threads` connections at a time:
//! a closed loop (a thread sends its next request when the previous one
//! completes) for latency and throughput, and an open loop at fixed rates
//! that times each request from when it was due, so a stall also counts
//! against the requests queued behind it.

use crate::http::Client;
use crate::stats;
use hetmem::core::EvaluatedSystem;
use hetmem::trace::kernels::Kernel;
use hetmem::xplore::Json;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Scales of the warm (cache-hit) keys.
pub const HIT_SCALES: [u32; 2] = [64, 512];
/// Zipf exponent of the hit-key popularity.
pub const ZIPF_S: f64 = 1.1;
/// Share of requests that miss the cache.
pub const MISS_SHARE: f64 = 0.1;
/// Range the miss scales are drawn from (512 excluded: it is warm).
pub const MISS_SCALES: std::ops::RangeInclusive<u32> = 257..=4096;

/// Consecutive transport errors after which a load thread stops sending.
const GIVE_UP_AFTER: u32 = 3;

/// One `/v1/sim` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimCall {
    /// Kernel to trace.
    pub kernel: Kernel,
    /// Evaluated system to run it on.
    pub system: EvaluatedSystem,
    /// Trace scale divisor.
    pub scale: u32,
    /// `"mode":"sampled"` instead of the default accurate mode.
    pub sampled: bool,
}

impl SimCall {
    /// The JSON request body.
    #[must_use]
    pub fn body(&self) -> String {
        let mut fields = vec![
            ("kernel", Json::Str(self.kernel.name().to_owned())),
            ("system", Json::Str(self.system.name().to_owned())),
            ("scale", Json::UInt(u64::from(self.scale))),
        ];
        if self.sampled {
            fields.push(("mode", Json::Str("sampled".to_owned())));
        }
        Json::obj(fields).render()
    }
}

/// The 60 warm keys, in catalog order.
#[must_use]
pub fn warm_keys() -> Vec<SimCall> {
    let mut keys = Vec::new();
    for scale in HIT_SCALES {
        for kernel in Kernel::ALL {
            for system in EvaluatedSystem::ALL {
                keys.push(SimCall {
                    kernel,
                    system,
                    scale,
                    sampled: false,
                });
            }
        }
    }
    keys
}

/// SplitMix64: a tiny, seedable, platform-independent generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// `n` requests for `seed`: the same seed always gives the same list.
/// Misses never repeat a key within the list, so each one really misses.
///
/// Miss scales follow a golden-ratio sequence from a seeded start, and
/// miss kernels take turns from a seeded offset, so every stretch of the
/// list holds nearly the same spread of miss sizes. A miss at scale 257
/// simulates about 16× the work of one at 4096; with independent draws
/// the few heaviest misses a seed happens to get would move the tail
/// latency more than the server does.
#[must_use]
pub fn request_mix(seed: u64, n: usize) -> Vec<SimCall> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut rng = Rng::new(seed);
    let mut ranked = warm_keys();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.below(i + 1));
    }
    let mut cdf: Vec<f64> = (1..=ranked.len())
        .map(|rank| (rank as f64).powf(-ZIPF_S))
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("60 keys");
    cdf.iter_mut().for_each(|c| *c /= total);
    let mut seen = HashSet::new();
    let span = f64::from(MISS_SCALES.end() - MISS_SCALES.start() + 1);
    let mut phase = rng.next_f64();
    let mut turn = rng.below(Kernel::ALL.len());
    (0..n)
        .map(|_| {
            if rng.next_f64() >= MISS_SHARE {
                let u = rng.next_f64();
                return ranked[cdf.partition_point(|&c| c <= u).min(ranked.len() - 1)];
            }
            turn += 1;
            loop {
                phase = (phase + GOLDEN).fract();
                let call = SimCall {
                    kernel: Kernel::ALL[turn % Kernel::ALL.len()],
                    system: EvaluatedSystem::ALL[rng.below(EvaluatedSystem::ALL.len())],
                    scale: MISS_SCALES.start() + (phase * span) as u32,
                    sampled: rng.next_u64() & 1 == 1,
                };
                if call.scale != 512 && seen.insert(call.body()) {
                    return call;
                }
            }
        })
        .collect()
}

/// What one request came back as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A warm-key answer, byte-identical to the expected body.
    Matched,
    /// A warm-key answer that differs from the expected body.
    Mismatched,
    /// A miss's `200` body, to be checked against an in-process run.
    Unchecked(String),
    /// No `200` answer (refused, failed, or the connection broke).
    Failed(String),
}

/// One request's timing and outcome.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the request list.
    pub index: usize,
    /// Latency in µs: from send (closed loop) or from the due time (open
    /// loop).
    pub latency_us: f64,
    /// How late the request was sent, in µs (open loop only).
    pub lag_us: f64,
    /// Outcome.
    pub reply: Reply,
}

/// One loop's results.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Per-request samples, in request order.
    pub samples: Vec<Sample>,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// Connect latencies of every connection opened, in µs.
    pub connect_us: Vec<f64>,
}

/// Sends `calls` on `threads` connections. With `rate == None` each
/// thread sends its next request as soon as the previous one completed
/// (closed loop); with `Some(rate)` request `i` is due `i / rate` seconds
/// after the start and is timed from then (open loop). `expected` holds
/// the byte-exact answer for each warm request body.
#[must_use]
pub fn run_loop(
    addr: &str,
    calls: &[SimCall],
    threads: usize,
    rate: Option<f64>,
    expected: &HashMap<String, String>,
) -> LoopRun {
    let threads = threads.max(1);
    let start = Instant::now();
    let per_thread: Vec<(Vec<Sample>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut samples = Vec::new();
                    let mut broken = 0;
                    for index in (t..calls.len()).step_by(threads) {
                        if broken >= GIVE_UP_AFTER {
                            // The server stopped answering: count the rest
                            // as failed instead of waiting out each timeout.
                            samples.push(Sample {
                                index,
                                latency_us: f64::INFINITY,
                                lag_us: 0.0,
                                reply: Reply::Failed("not sent: server unreachable".into()),
                            });
                            continue;
                        }
                        let body = calls[index].body();
                        let due = rate.map(|r| start + Duration::from_secs_f64(index as f64 / r));
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let sent = Instant::now();
                        let reply = match client.post("/v1/sim", &body) {
                            Ok(r) if r.status == 200 => match expected.get(&body) {
                                Some(want) if *want == r.body => Reply::Matched,
                                Some(_) => Reply::Mismatched,
                                None => Reply::Unchecked(r.body),
                            },
                            Ok(r) => Reply::Failed(format!("status {}", r.status)),
                            Err(e) => {
                                broken += 1;
                                Reply::Failed(e.to_string())
                            }
                        };
                        if !matches!(reply, Reply::Failed(_)) {
                            broken = 0;
                        }
                        let from = due.unwrap_or(sent);
                        samples.push(Sample {
                            index,
                            latency_us: from.elapsed().as_secs_f64() * 1e6,
                            lag_us: sent.saturating_duration_since(from).as_secs_f64() * 1e6,
                            reply,
                        });
                    }
                    (samples, client.connect_us)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut run = LoopRun {
        wall,
        ..LoopRun::default()
    };
    for (samples, connects) in per_thread {
        run.samples.extend(samples);
        run.connect_us.extend(connects);
    }
    run.samples.sort_by_key(|s| s.index);
    run
}

/// Latencies with failed requests as +∞, so a refusal misses any SLO.
#[must_use]
pub fn latencies_with_failures(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| match s.reply {
            Reply::Failed(_) => f64::INFINITY,
            _ => s.latency_us,
        })
        .collect()
}

/// Whether the generator's lag grew over a rung: the median lag of the
/// last tenth of requests exceeds that of the first tenth by more than
/// half the SLO, i.e. a backlog built up instead of draining.
#[must_use]
pub fn lag_grows(lag_us: &[f64], slo_us: f64) -> bool {
    if lag_us.is_empty() {
        return false;
    }
    let k = (lag_us.len() / 10).max(1);
    stats::median(&lag_us[lag_us.len() - k..]) - stats::median(&lag_us[..k]) > slo_us / 2.0
}

/// Whether one open-loop rung meets the SLO: the tail latency from due
/// time (failures counted as misses) is within `slo_us`, and the lag did
/// not grow.
#[must_use]
pub fn rung_meets_slo(samples: &[Sample], slo_us: f64) -> bool {
    if samples.is_empty() {
        return false;
    }
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_us).collect();
    stats::summarize(&latencies_with_failures(samples)).tail <= slo_us && !lag_grows(&lags, slo_us)
}

/// The highest rate of an ascending ladder reached without a failing
/// rung (`0` when the first rung fails).
#[must_use]
pub fn rps_at_slo(rungs: &[(f64, bool)]) -> f64 {
    rungs
        .iter()
        .take_while(|(_, ok)| *ok)
        .last()
        .map_or(0.0, |(rate, _)| *rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let a = request_mix(7, 5000);
        assert_eq!(a, request_mix(7, 5000));
        assert_ne!(a, request_mix(8, 5000));
        assert_eq!(request_mix(7, 100), a[..100], "a prefix of a longer run");
    }

    #[test]
    fn the_mix_has_the_stated_shape() {
        let calls = request_mix(42, 20_000);
        let warm: HashSet<String> = warm_keys().iter().map(SimCall::body).collect();
        assert_eq!(warm.len(), 60);
        let misses: Vec<&SimCall> = calls.iter().filter(|c| !warm.contains(&c.body())).collect();
        let share = misses.len() as f64 / calls.len() as f64;
        assert!((0.09..0.11).contains(&share), "miss share {share}");
        let sampled = misses.iter().filter(|c| c.sampled).count() as f64 / misses.len() as f64;
        assert!((0.45..0.55).contains(&sampled), "sampled share {sampled}");
        assert!(misses
            .iter()
            .all(|c| MISS_SCALES.contains(&c.scale) && c.scale != 512));
        let distinct: HashSet<String> = misses.iter().map(|c| c.body()).collect();
        assert_eq!(distinct.len(), misses.len(), "misses never repeat");
        // Every stretch of 500 misses covers the scale range evenly: the
        // heaviest tenth (the smallest scales) holds close to 50 of them.
        let heavy = 257 + (4096 - 257) / 10;
        for stretch in misses.chunks(500).filter(|c| c.len() == 500) {
            let n = stretch.iter().filter(|c| c.scale < heavy).count();
            assert!((45..=55).contains(&n), "{n} heavy misses in 500");
        }
        // Zipf: the most popular key dwarfs the median one.
        let mut counts: HashMap<String, usize> = HashMap::new();
        for c in calls.iter().filter(|c| warm.contains(&c.body())) {
            *counts.entry(c.body()).or_default() += 1;
        }
        let mut counts: Vec<usize> = counts.into_values().collect();
        counts.sort_unstable();
        assert!(counts[counts.len() - 1] > 10 * counts[counts.len() / 2]);
    }

    fn sample(latency_us: f64, lag_us: f64, ok: bool) -> Sample {
        Sample {
            index: 0,
            latency_us,
            lag_us,
            reply: if ok {
                Reply::Matched
            } else {
                Reply::Failed("status 429".into())
            },
        }
    }

    #[test]
    fn a_rung_passes_within_the_slo_with_flat_lag() {
        let samples: Vec<Sample> = (0..1000).map(|_| sample(900.0, 50.0, true)).collect();
        assert!(rung_meets_slo(&samples, 1000.0));
        assert!(!rung_meets_slo(&samples, 800.0), "tail above the SLO");
        assert!(!rung_meets_slo(&[], 1000.0), "an empty rung proves nothing");
    }

    #[test]
    fn failures_count_as_slo_misses() {
        let mut samples: Vec<Sample> = (0..1000).map(|_| sample(100.0, 0.0, true)).collect();
        for s in samples.iter_mut().take(20) {
            *s = sample(1.0, 0.0, false);
        }
        assert!(!rung_meets_slo(&samples, 1000.0), "2 % refused breaks p99");
        for s in samples.iter_mut().take(20).skip(5) {
            *s = sample(100.0, 0.0, true);
        }
        assert!(
            rung_meets_slo(&samples, 1000.0),
            "0.5 % refused stays beyond p99"
        );
    }

    #[test]
    fn a_growing_lag_fails_the_rung() {
        let samples: Vec<Sample> = (0..1000)
            .map(|i| sample(500.0, f64::from(i) * 2.0, true))
            .collect();
        assert!(lag_grows(
            &samples.iter().map(|s| s.lag_us).collect::<Vec<_>>(),
            1000.0
        ));
        assert!(
            !rung_meets_slo(&samples, 1000.0),
            "backlog despite good latency"
        );
        let flat = [300.0, 310.0, 290.0, 305.0];
        assert!(!lag_grows(&flat, 1000.0));
    }

    #[test]
    fn an_unreachable_server_fails_every_request_quickly() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let calls = request_mix(1, 50);
        let run = run_loop(&addr, &calls, 2, None, &HashMap::new());
        assert_eq!(run.samples.len(), 50);
        assert!(run
            .samples
            .iter()
            .all(|s| matches!(s.reply, Reply::Failed(_))));
        assert!(run.connect_us.is_empty(), "no connection ever opened");
    }

    #[test]
    fn the_ladder_stops_at_the_first_failing_rung() {
        assert_eq!(
            rps_at_slo(&[(100.0, true), (200.0, true), (400.0, false)]),
            200.0
        );
        assert_eq!(
            rps_at_slo(&[(100.0, true), (200.0, false), (400.0, true)]),
            100.0
        );
        assert_eq!(rps_at_slo(&[(100.0, false)]), 0.0);
        assert_eq!(rps_at_slo(&[(100.0, true), (200.0, true)]), 200.0);
    }
}
