//! Compute replay: inside one `run_jobs` batch each (kernel, scale) group
//! is simulated once and every other design point replays only its
//! communication. These tests hold the replay to byte identity with a full
//! per-job simulation, and check that every case replay cannot cover —
//! a memory system still busy when communication starts, observed
//! (timeline) runs, invalid configurations — takes the full-simulation
//! path with unchanged results.

use hetmem::core::experiment::ExperimentConfig;
use hetmem::sim::{
    ExecMode, FabricKind, IntervalProfiler, NocTopology, NullObserver, SimError, Simulation,
};
use hetmem::trace::{
    CommEvent, CommKind, Inst, Phase, PhaseSegment, PhasedTrace, TraceStream, TransferDirection,
};
use hetmem::xplore::{
    execute_job, execute_job_observed, job_trace, run_jobs, to_jsonl, Job, SweepOptions,
    SweepRecord, SweepSpec,
};

const MODES: [ExecMode; 3] = [
    ExecMode::Accurate,
    ExecMode::Sampled {
        warm_interval: hetmem::sim::DEFAULT_WARM_INTERVAL,
        detail_window: hetmem::sim::DEFAULT_DETAIL_WINDOW,
    },
    ExecMode::EventDriven,
];

/// Every job simulated on its own, the way a single `/v1/sim` request is.
fn per_job(jobs: &[Job], config: &ExperimentConfig, mode: ExecMode) -> Vec<SweepRecord> {
    jobs.iter()
        .map(|job| {
            execute_job_observed(job, config, &job_trace(job), NullObserver, mode)
                .expect("job runs")
                .0
        })
        .collect()
}

/// The full grid at `scale` under every mode and 1, 2 and 4 workers must
/// render byte-identically to per-job simulation, with one simulation per
/// kernel and every other job replayed.
fn differential(scale: u32, workers: &[usize]) {
    let config = ExperimentConfig::scaled(scale);
    let jobs = SweepSpec::full(scale).expand();
    for mode in MODES {
        let reference = to_jsonl(&per_job(&jobs, &config, mode));
        for &n in workers {
            let opts = SweepOptions::builder().workers(n).mode(mode).build();
            let out = run_jobs(&jobs, &config, &opts).expect("sweep runs");
            assert_eq!(
                to_jsonl(&out.records),
                reference,
                "scale {scale}, {mode:?}, {n} workers: replay must match full simulation"
            );
            assert_eq!(out.stats.simulated, 6, "one simulation per kernel");
            assert_eq!(out.stats.replayed, 48, "every other design point replays");
        }
    }
}

#[test]
fn memoized_sweep_matches_per_job_simulation_at_scale_512() {
    differential(512, &[1, 2, 4]);
}

#[test]
fn memoized_sweep_matches_per_job_simulation_at_scale_64() {
    differential(64, &[1, 2, 4]);
}

/// The benchmark's grid. Each scale-4 job simulates millions of
/// instructions, far too slow for a debug build; CI runs it with
/// `cargo test --release --test replay -- --ignored`.
#[test]
#[ignore = "slow in debug builds; run in release with --ignored"]
fn memoized_sweep_matches_per_job_simulation_at_scale_4() {
    differential(4, &[2]);
}

// Both address streams map to one DRAM channel and bank of the baseline
// geometry (line-interleaved channels, banks above), in different rows.
fn cold_store(i: u64) -> Inst {
    Inst::Store {
        addr: 0x4000_0000 + i * 4096,
        bytes: 8,
    }
}

fn cold_load(i: u64) -> Inst {
    Inst::Load {
        addr: 0x5000_0000 + i * 4096,
        bytes: 8,
    }
}

/// A sequential segment that ends on write-buffered stores to cold lines —
/// the stores retire at L1 speed while their DRAM accesses are still in
/// flight — then a transfer, then loads to the same DRAM banks.
fn busy_at_communication() -> PhasedTrace {
    let mut trace = PhasedTrace::new("busy-at-comm");
    let seq = |insts: Vec<Inst>| {
        PhaseSegment::new(
            Phase::Sequential,
            insts.into_iter().collect(),
            TraceStream::new(),
        )
    };
    trace.push_segment(seq((0..16).map(cold_store).collect()));
    trace.push_segment(PhaseSegment::new(
        Phase::Communication,
        [Inst::Comm(CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes: 4096,
            kind: CommKind::InitialInput,
            addr: 0x4000_0000,
        })]
        .into_iter()
        .collect(),
        TraceStream::new(),
    ));
    trace.push_segment(seq((0..16).map(cold_load).collect()));
    trace
}

#[test]
fn memory_busy_when_communication_starts_is_not_replayable() {
    let trace = busy_at_communication();
    let run = |fabric| {
        let mut sim = Simulation::builder()
            .fabric(fabric)
            .build()
            .expect("baseline config is valid");
        let report = sim.run(&trace).expect("well-formed trace");
        (report, sim.system().compute_profile().clone())
    };
    let (pci, pci_profile) = run(FabricKind::PciExpress);
    let (ideal, ideal_profile) = run(FabricKind::Ideal);
    // The loads' timing depends on how long the transfer gave the stores'
    // DRAM accesses to drain, so a replay of one run under the other
    // fabric would be wrong...
    assert_ne!(pci.sequential_ticks, ideal.sequential_ticks);
    // ...and the profile says so: it refuses to replay.
    for profile in [&pci_profile, &ideal_profile] {
        assert!(!profile.replayable());
        let mut comm = hetmem::sim::SynchronousFabric::new(
            FabricKind::MemoryController,
            hetmem::sim::CommCosts::paper(),
        );
        assert_eq!(
            profile.replay(&trace, &hetmem::sim::CommCosts::paper(), &mut comm),
            None
        );
    }
}

#[test]
fn quiescent_compute_replays_exactly_under_another_fabric() {
    // The same shape with loads only: the core waits for every access, so
    // nothing is in flight when the transfer starts.
    let mut trace = busy_at_communication();
    let loads: TraceStream = (0..16).map(cold_load).collect();
    trace.segments_mut()[0] = PhaseSegment::new(Phase::Sequential, loads, TraceStream::new());
    let costs = hetmem::sim::CommCosts::paper();
    let mut sim = Simulation::builder()
        .fabric(FabricKind::PciExpress)
        .build()
        .expect("baseline config is valid");
    sim.run(&trace).expect("well-formed trace");
    let profile = sim.system().compute_profile().clone();
    assert!(profile.replayable());
    for fabric in [FabricKind::Ideal, FabricKind::MemoryController] {
        let full = Simulation::builder()
            .fabric(fabric)
            .build()
            .expect("valid")
            .run(&trace)
            .expect("well-formed trace");
        let mut comm = hetmem::sim::SynchronousFabric::new(fabric, costs);
        assert_eq!(profile.replay(&trace, &costs, &mut comm), Some(full));
    }
}

#[test]
fn busy_noc_bus_falls_back_to_full_simulation_with_identical_records() {
    // A shared bus held for thousands of cycles per transfer is still busy
    // when some kernels reach a communication segment: those groups must
    // simulate every job, and the records must not move.
    let mut config = ExperimentConfig::scaled(512);
    config.system.noc.topology = NocTopology::Bus;
    config.system.noc.bus_occupancy_cycles *= 1000;
    let jobs = SweepSpec::full(512).expand();
    let out = run_jobs(&jobs, &config, &SweepOptions::with_workers(2)).expect("sweep runs");
    assert!(out.stats.simulated > 6, "{}", out.stats);
    assert_eq!(out.stats.simulated + out.stats.replayed, jobs.len() as u64);
    assert_eq!(
        to_jsonl(&out.records),
        to_jsonl(&per_job(&jobs, &config, ExecMode::Accurate))
    );
}

#[test]
fn timeline_sweep_simulates_every_job_unchanged() {
    let config = ExperimentConfig::scaled(512);
    let jobs = SweepSpec::full(512).expand();
    let opts = SweepOptions::builder()
        .workers(2)
        .timeline_interval(Some(500_000))
        .build();
    let out = run_jobs(&jobs, &config, &opts).expect("sweep runs");
    assert_eq!((out.stats.simulated, out.stats.replayed), (54, 0));
    let reference: Vec<SweepRecord> = jobs
        .iter()
        .map(|job| {
            let (mut record, profiler) = execute_job_observed(
                job,
                &config,
                &job_trace(job),
                IntervalProfiler::new(500_000),
                ExecMode::Accurate,
            )
            .expect("job runs");
            record.timeline = Some(profiler.summary());
            record
        })
        .collect();
    assert_eq!(to_jsonl(&out.records), to_jsonl(&reference));
}

#[test]
fn invalid_config_returns_the_per_job_error() {
    let mut config = ExperimentConfig::scaled(512);
    config.system.dram.channels = 0;
    let jobs = SweepSpec::full(512).expand();
    let expected = execute_job(&jobs[0], &config, &job_trace(&jobs[0])).expect_err("invalid");
    assert!(matches!(expected, SimError::InvalidConfig(_)), "{expected}");
    for workers in [1, 4] {
        let err = run_jobs(&jobs, &config, &SweepOptions::with_workers(workers))
            .expect_err("invalid config fails the batch");
        assert_eq!(err, expected, "{workers} workers");
    }
}

#[test]
fn leaders_answered_from_the_cache_leave_their_groups_to_simulate() {
    let dir = std::env::temp_dir().join(format!("hetmem-replay-leaders-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ExperimentConfig::scaled(512);
    let jobs = SweepSpec::full(512).expand();
    // Warm the cache with exactly the first job of every kernel — the jobs
    // the full batch will pick as group leaders.
    let mut leaders: Vec<Job> = Vec::new();
    for job in &jobs {
        if leaders.iter().all(|l| l.kernel != job.kernel) {
            leaders.push(*job);
        }
    }
    for workers in [1, 4] {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions::builder()
            .workers(workers)
            .cache_dir(Some(dir.clone()))
            .build();
        run_jobs(&leaders, &config, &opts).expect("warm the leaders");
        let out = run_jobs(&jobs, &config, &opts).expect("sweep runs");
        assert_eq!(out.stats.cache_hits, 6, "{}", out.stats);
        assert_eq!(
            out.stats.simulated + out.stats.replayed,
            48,
            "{}",
            out.stats
        );
        assert!(out.stats.simulated >= 6, "{}", out.stats);
        if workers == 1 {
            // One follower per group simulates and offers its profile; the
            // rest replay it.
            assert_eq!((out.stats.simulated, out.stats.replayed), (6, 42));
        }
        assert_eq!(
            to_jsonl(&out.records),
            to_jsonl(&per_job(&jobs, &config, ExecMode::Accurate))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
