//! Differential test of conservative backfilling's kept calendar.
//!
//! After a full scan, `ListScheduler` keeps the reservation calendar it
//! built and books tail arrivals onto it instead of re-scanning the
//! queue. It must fall back to the full scan whenever the calendar may be
//! stale: a breakpoint fell due since it was taken, the queue crossed the
//! truncation depth, or a finish, cancel, drain, undrain or mid-queue
//! re-entry changed what it was built from. Each scenario below is built
//! to reach one of those paths; every one must give the same schedule,
//! fault outcomes, event count and decision-round count as the full-scan
//! oracle (`with_caching(false)`), for FCFS, SMART-FFIA and PSRS.

use jobsched_algos::backfill::CONSERVATIVE_TRUNCATION_DEPTH;
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, ProfileMode};
use jobsched_sim::{
    simulate_batch_with_faults, simulate_with_faults, CancelFault, DrainFault, FaultPlan,
    PreemptFault,
};
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::{Job, JobBuilder, JobId, Time, Workload};

const MACHINE: u32 = 64;

fn job(submit: Time, nodes: u32, requested: Time, runtime: Time) -> Job {
    JobBuilder::new(JobId(0))
        .submit(submit)
        .nodes(nodes)
        .requested(requested)
        .runtime(runtime)
        .build()
}

/// Bursts of 1–8 same-instant arrivals at about 90% load, mostly narrow
/// jobs, many finishing well before their estimate: most decisions are
/// arrivals judged against a calendar that is still current.
fn bursty(seed: u64, n: usize) -> Workload {
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xCA1E, seed));
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0;
    while jobs.len() < n {
        t += rng.random_range(0u64..400);
        for _ in 0..rng.random_range(1usize..=8) {
            let nodes = match rng.random_range(0u32..4) {
                0 => rng.random_range(17u32..=MACHINE),
                _ => rng.random_range(1u32..=16),
            };
            let requested = rng.random_range(20u64..600);
            let runtime = rng.random_range(1..=requested);
            jobs.push(job(t, nodes, requested, runtime));
        }
    }
    jobs.truncate(n);
    Workload::new("bursty", MACHINE, jobs)
}

/// Run `w` under `plan` with caching on and with the full-scan oracle,
/// through the streaming pipeline and the batch engine, and require
/// identical outcomes.
fn assert_cache_transparent(w: &Workload, plan: &FaultPlan, what: &str) {
    for kind in [PolicyKind::Fcfs, PolicyKind::SmartFfia, PolicyKind::Psrs] {
        let spec = AlgorithmSpec::new(kind, BackfillMode::Conservative);
        for mode in [ProfileMode::Incremental, ProfileMode::Rebuild] {
            let build = |caching: bool| {
                spec.build(WeightScheme::Unweighted)
                    .with_profile_mode(mode)
                    .with_caching(caching)
            };
            let ctx = format!("{what}: {kind:?} / {mode:?}");
            for (engine, cached, oracle) in [
                (
                    "stream",
                    simulate_with_faults(w, &mut build(true), plan),
                    simulate_with_faults(w, &mut build(false), plan),
                ),
                (
                    "batch",
                    simulate_batch_with_faults(w, &mut build(true), plan),
                    simulate_batch_with_faults(w, &mut build(false), plan),
                ),
            ] {
                // Cancelled jobs are never placed, which `validate`
                // would report as missing.
                if plan.cancels.is_empty() {
                    assert!(
                        cached.schedule.validate(w).is_empty(),
                        "{engine} {ctx}: invalid schedule"
                    );
                }
                assert_eq!(
                    cached.schedule, oracle.schedule,
                    "{engine} {ctx}: placements"
                );
                assert_eq!(cached.faults, oracle.faults, "{engine} {ctx}: faults");
                assert_eq!(cached.events, oracle.events, "{engine} {ctx}: events");
                assert_eq!(
                    cached.decision_rounds, oracle.decision_rounds,
                    "{engine} {ctx}: rounds"
                );
            }
        }
    }
}

#[test]
fn bursts_of_arrivals_between_finishes() {
    for seed in 0..4 {
        let w = bursty(seed, 300);
        assert_cache_transparent(&w, &FaultPlan::default(), &format!("bursty seed {seed}"));
    }
}

/// A 48-node job runs until 1000, so 16 nodes are free. Arrivals that do
/// not fit now still take reservations, and a later arrival that fits
/// now must respect them.
fn misses_then_fit() -> Workload {
    Workload::new(
        "misses-then-fit",
        MACHINE,
        vec![
            job(0, 48, 1_000, 1_000),
            // Misses: reserved over [1000, 1500), leaving 4 nodes there.
            job(10, 60, 500, 500),
            // Fits now, but its window crosses job 1's reservation.
            job(20, 8, 2_000, 2_000),
            // Fits now and ends before 1000: starts.
            job(30, 8, 100, 100),
            // Fits the 8 nodes left now, for longer than job 3.
            job(30, 8, 900, 900),
            // Nothing is left now.
            job(40, 2, 10, 10),
        ],
    )
}

#[test]
fn arrivals_that_miss_then_one_that_fits() {
    let w = misses_then_fit();
    assert_cache_transparent(&w, &FaultPlan::default(), "misses then fit");
    let out = simulate_with_faults(
        &w,
        &mut AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::Conservative)
            .build(WeightScheme::Unweighted),
        &FaultPlan::default(),
    );
    let start = |i: u32| out.schedule.placement(JobId(i)).unwrap().start;
    assert_eq!(start(1), 1_000);
    assert_eq!(
        start(2),
        1_500,
        "job 2 may not start over job 1's reservation"
    );
    assert_eq!(start(3), 30);
    assert_eq!(start(4), 30);
    assert!(start(5) > 40, "no node was free for job 5 at 40");
}

#[test]
fn queued_cancels() {
    let w = bursty(11, 300);
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xCA1E, 12));
    let mut cancels = Vec::new();
    for j in w.jobs() {
        if rng.random_range(0u32..6) == 0 {
            let at = j.submit + rng.random_range(0u64..400);
            cancels.push(CancelFault { id: j.id, at });
        }
    }
    let plan = FaultPlan {
        cancels,
        ..FaultPlan::default()
    };
    assert_cache_transparent(&w, &plan, "queued cancels");
}

#[test]
fn drains_and_undrains() {
    let w = bursty(21, 300);
    let end = w.jobs().last().unwrap().submit;
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xCA1E, 22));
    let drains = (0..8)
        .map(|_| {
            let at = rng.random_range(0..end);
            DrainFault::new(
                at,
                rng.random_range(1u32..=32),
                at + rng.random_range(1u64..2_000),
            )
        })
        .collect();
    let plan = FaultPlan {
        drains,
        ..FaultPlan::default()
    };
    assert_cache_transparent(&w, &plan, "drains");
}

#[test]
fn preempted_remainders_reenter_mid_queue() {
    let w = bursty(31, 300);
    let mut rng = SmallRng::seed_from_u64(derive_seed(0xCA1E, 32));
    let mut preempts = Vec::new();
    for j in w.jobs() {
        if j.effective_runtime() > 2 && rng.random_range(0u32..8) == 0 {
            // Strikes while the job may be running; the remainder comes
            // back behind later arrivals.
            let at = j.submit + rng.random_range(1..j.effective_runtime());
            let resume_at = at + rng.random_range(1u64..600);
            preempts.push(PreemptFault {
                id: j.id,
                at,
                resume_at,
            });
        }
    }
    let plan = FaultPlan {
        preempts,
        ..FaultPlan::default()
    };
    assert_cache_transparent(&w, &plan, "preemption");
}

/// A backlog that grows past the truncation depth and drains back below
/// it, with narrow jobs arriving into the 4 nodes the 60-node backlog
/// leaves free: the kept calendar must be refused above the depth and
/// taken up again below it.
#[test]
fn backlog_crossing_the_truncation_depth() {
    let depth = CONSERVATIVE_TRUNCATION_DEPTH as Time;
    let wide = |at: Time| job(at, 60, 1_000, 1_000);
    let narrow = |at: Time| job(at, 2, 50, 40);
    let mut jobs = Vec::new();
    // One runs, depth - 13 queue behind it.
    jobs.extend((0..depth - 12).map(|_| wide(0)));
    jobs.push(narrow(5)); // booked onto the kept calendar
    jobs.extend((0..13).map(|_| wide(15))); // queue at the depth
    jobs.push(narrow(20)); // still within it
    jobs.push(wide(25)); // one past: the calendar is refused
    jobs.extend([30, 200].map(narrow)); // full (truncated) scans

    // The finish at 1000 brings the queue back to the depth.
    jobs.extend([1_100, 1_150].map(narrow));
    jobs.push(wide(1_200)); // past it again
    jobs.push(narrow(1_300));
    // After the finish at 2000, narrow jobs meet a calendar again.
    jobs.extend([2_100, 2_150].map(narrow));
    let w = Workload::new("deep", MACHINE, jobs);
    // Retract the backlog in one batch rather than drain it job by job.
    let cancels = w
        .jobs()
        .iter()
        .filter(|j| j.nodes == 60)
        .map(|j| CancelFault {
            id: j.id,
            at: 2_500,
        })
        .collect();
    let plan = FaultPlan {
        cancels,
        ..FaultPlan::default()
    };
    assert_cache_transparent(&w, &plan, "deep backlog");
}

/// A 32-node job runs until 10 000 and full-machine jobs queue behind it,
/// so every one of their reservations starts at or after 10 000. Every
/// job is retracted at 100, so the runs end without draining the queue.
fn walled(queued: usize, later: &[(Time, u32, Time)]) -> (Workload, FaultPlan) {
    let mut jobs = vec![job(0, 32, 10_000, 10_000)];
    jobs.extend((0..queued).map(|_| job(0, 64, 100, 100)));
    jobs.extend(
        later
            .iter()
            .map(|&(at, nodes, requested)| job(at, nodes, requested, requested)),
    );
    let w = Workload::new("walled", MACHINE, jobs);
    let cancels = w
        .jobs()
        .iter()
        .map(|j| CancelFault { id: j.id, at: 100 })
        .collect();
    let plan = FaultPlan {
        cancels,
        ..FaultPlan::default()
    };
    (w, plan)
}

/// A calendar taken below the truncation depth must not serve arrivals
/// once the queue is past it. Here 520 arrivals push the queue past
/// twice the depth, where the truncated scan looks no further; the
/// narrow job behind them would fit now on the complete calendar.
#[test]
fn calendar_refused_once_the_queue_passes_the_depth() {
    let depth = CONSERVATIVE_TRUNCATION_DEPTH;
    let mut later = vec![(5, 64, 100); depth + 8];
    later.push((6, 4, 50));
    let (w, plan) = walled(depth - 1, &later);
    assert_cache_transparent(&w, &plan, "past the depth");
}

/// A calendar taken by a truncated scan lacks reservations, even when the
/// scan's own starts bring the queue back within the depth. Here the
/// truncated scan at 10 books none of the full-machine jobs; the 8-node
/// job at 20 must still see them from 10 000 on and wait.
#[test]
fn truncated_calendar_is_never_kept() {
    let mut later = vec![(10, 4, 50); 4];
    later.push((20, 8, 20_000));
    let (w, plan) = walled(CONSERVATIVE_TRUNCATION_DEPTH - 1, &later);
    assert_cache_transparent(&w, &plan, "after a truncated scan");
}
