//! `sim-easy` and `sim-cons`: the simulator driven through its
//! streaming pipeline.
//!
//! Both run the CTC-fitted probabilistic model at paper load (arrival
//! scale 1.0) on the 256-node machine, one thread, in passes of a fixed
//! job count repeated until the run's time is used up.
//!
//! * `sim-easy` pulls every pass from an unbounded `ProbabilisticSource`
//!   (cut at the pass size) and schedules with FCFS+EASY;
//! * `sim-cons` materialises the same model once in set-up and replays
//!   it through `WorkloadSource` under FCFS+Conservative, with a seeded
//!   fault plan that cancels about a tenth of the jobs — some queued,
//!   some running, some already finished.
//!
//! The observers are the full online objective set, mounted as one
//! fan-out. Every pass must produce the same outputs; one check pass
//! outside the timed region re-runs the trace through
//! `simulate_with_faults` and audits the recorded schedule.

use crate::stats::median;
use crate::trace::{Meter, SchedTrace, TimedObserver, TimedScheduler, TimedSource, Timer};
use crate::{alloc, Ctx, Outcome};
use jobsched_algos::spec::PolicyKind;
use jobsched_algos::view::WeightScheme;
use jobsched_algos::{BackfillMode, ListScheduler};
use jobsched_metrics::{
    OnlineArt, OnlineAwrt, OnlineBoundedSlowdown, OnlineMakespan, OnlineMaxUserSlowdown,
    OnlineP95WidthSlowdown, OnlineSlowdownVariance, OnlineUtilization, StreamingObjective,
};
use jobsched_sim::{
    simulate_with_faults, CancelFault, CancelPhase, FaultOutcome, FaultPlan, JobEvent,
    PipelineOutcome, Scheduler, SimObserver, SimPipeline,
};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::BinnedModel;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::source::collect;
use jobsched_workload::{
    JobSource, ProbabilisticSource, Time, Workload, WorkloadSource, CTC_JOB_COUNT,
};
use std::time::Instant;

/// Jobs per pass.
const PASS_JOBS_EASY: usize = 300_000;
const PASS_JOBS_CONS: usize = 300_000;
/// Share of `sim-cons` jobs the fault plan cancels.
const CANCEL_SHARE: f64 = 0.10;
/// Completions per latency sample (`op_*` metrics).
const CHUNK_JOBS: u64 = 1_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Easy,
    Cons,
}

impl Variant {
    fn scheduler(self) -> ListScheduler {
        let backfill = match self {
            Variant::Easy => BackfillMode::Easy,
            Variant::Cons => BackfillMode::Conservative,
        };
        ListScheduler::new(PolicyKind::Fcfs.policy(WeightScheme::Unweighted), backfill)
    }

    fn pass_jobs(self) -> usize {
        match self {
            Variant::Easy => PASS_JOBS_EASY,
            Variant::Cons => PASS_JOBS_CONS,
        }
    }
}

/// The online objective set plus lifecycle tallies, as one observer.
struct Objectives {
    art: OnlineArt,
    awrt: OnlineAwrt,
    bsld: OnlineBoundedSlowdown,
    util: OnlineUtilization,
    makespan: OnlineMakespan,
    max_user: OnlineMaxUserSlowdown,
    p95_width: OnlineP95WidthSlowdown,
    variance: OnlineSlowdownVariance,
    finished: u64,
    cancels: [u64; 5],
}

impl Objectives {
    fn new(machine_nodes: u32) -> Self {
        Objectives {
            art: OnlineArt::new(),
            awrt: OnlineAwrt::new(),
            bsld: OnlineBoundedSlowdown::new(),
            util: OnlineUtilization::new(machine_nodes),
            makespan: OnlineMakespan::new(),
            max_user: OnlineMaxUserSlowdown::new(),
            p95_width: OnlineP95WidthSlowdown::new(),
            variance: OnlineSlowdownVariance::new(),
            finished: 0,
            cancels: [0; 5],
        }
    }
}

fn phase_index(phase: CancelPhase) -> usize {
    match phase {
        CancelPhase::PreSubmit => 0,
        CancelPhase::Queued => 1,
        CancelPhase::Running => 2,
        CancelPhase::Preempted => 3,
        CancelPhase::AlreadyFinished => 4,
    }
}

impl SimObserver for Objectives {
    fn on_event(&mut self, event: &JobEvent) {
        self.art.observe(event);
        self.awrt.observe(event);
        self.bsld.observe(event);
        self.util.observe(event);
        self.makespan.observe(event);
        self.max_user.observe(event);
        self.p95_width.observe(event);
        self.variance.observe(event);
        match event {
            JobEvent::Finished(_) => self.finished += 1,
            JobEvent::Cancelled { phase, .. } => self.cancels[phase_index(*phase)] += 1,
            _ => {}
        }
    }
}

/// Everything one pass computes; equal across passes of one seed.
#[derive(Clone, Debug, PartialEq)]
struct PassOutputs {
    art: f64,
    awrt: f64,
    bsld: f64,
    utilization: f64,
    makespan: Time,
    max_user_bsld: f64,
    p95_width_bsld: f64,
    bsld_variance: f64,
    finished: u64,
    cancels: [u64; 5],
    events: u64,
    rounds: u64,
    peak_queue: usize,
    peak_resident: usize,
}

impl PassOutputs {
    fn new(o: &Objectives, out: &PipelineOutcome) -> Self {
        PassOutputs {
            art: o.art.cost(),
            awrt: o.awrt.cost(),
            bsld: o.bsld.cost(),
            utilization: o.util.utilization(),
            makespan: o.makespan.value(),
            max_user_bsld: o.max_user.cost(),
            p95_width_bsld: o.p95_width.cost(),
            bsld_variance: o.variance.cost(),
            finished: o.finished,
            cancels: o.cancels,
            events: out.events,
            rounds: out.decision_rounds,
            peak_queue: out.peak_queue,
            peak_resident: out.peak_resident,
        }
    }

    /// Jobs that neither finished nor left through a planned
    /// cancellation. A cancellation that finds its job already finished
    /// was counted as a finish.
    fn failed(&self, jobs: usize) -> u64 {
        let left = self.finished + self.cancels[0] + self.cancels[1] + self.cancels[2];
        (jobs as u64).abs_diff(left)
    }
}

/// Records the host time between every `CHUNK_JOBS`-th completion.
struct ChunkClock {
    done: u64,
    last: Instant,
    samples_us: Vec<f64>,
}

impl ChunkClock {
    fn new() -> Self {
        ChunkClock {
            done: 0,
            last: Instant::now(),
            samples_us: Vec::new(),
        }
    }
}

impl SimObserver for ChunkClock {
    fn on_event(&mut self, event: &JobEvent) {
        if matches!(event, JobEvent::Finished(_)) {
            self.done += 1;
            if self.done % CHUNK_JOBS == 0 {
                let now = Instant::now();
                self.samples_us
                    .push((now - self.last).as_nanos() as f64 / 1e3);
                self.last = now;
            }
        }
    }
}

/// The inputs of one run, built in set-up.
struct Inputs {
    model: BinnedModel,
    /// `sim-cons` only: the materialised trace and its fault plan.
    trace: Option<(Workload, FaultPlan)>,
}

fn source(model: &BinnedModel, seed: u64, jobs: usize) -> ProbabilisticSource {
    ProbabilisticSource::new(model.clone(), derive_seed(seed, 1))
        .with_limit(jobs)
        .with_arrival_scale(1.0)
}

/// Cancel about `CANCEL_SHARE` of the jobs: a third shortly after
/// submission, a third half a runtime in, a third long after the
/// requested limit — so queued, running and finished jobs all get hit.
fn fault_plan(w: &Workload, seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 2));
    let mut cancels = Vec::new();
    for j in w.jobs() {
        if rng.next_f64() >= CANCEL_SHARE {
            continue;
        }
        let at = match rng.random_range(0..3u32) {
            0 => j.submit + rng.random_range(0..=600u64),
            1 => j.submit + j.runtime / 2 + 1,
            _ => j.submit + 2 * j.requested_time + 3_600,
        };
        cancels.push(CancelFault { id: j.id, at });
    }
    FaultPlan {
        cancels,
        ..FaultPlan::default()
    }
}

fn setup(v: Variant, seed: u64) -> Inputs {
    let model = BinnedModel::fit(&prepared_ctc_workload(CTC_JOB_COUNT, seed));
    let trace = (v == Variant::Cons).then(|| {
        let w = collect(&mut source(&model, seed, v.pass_jobs()))
            .expect("model sources are infallible");
        let plan = fault_plan(&w, seed);
        (w, plan)
    });
    Inputs { model, trace }
}

/// One untraced pass: outputs, wall seconds, LiveSim's metered
/// scheduler time, and the chunk latencies.
fn pass(v: Variant, inputs: &Inputs, seed: u64) -> (PassOutputs, f64, f64, Vec<f64>) {
    let machine = inputs.model.machine_nodes();
    let mut sched = v.scheduler();
    let mut objectives = Objectives::new(machine);
    let mut clock = ChunkClock::new();
    let t0 = Instant::now();
    let out = match &inputs.trace {
        None => {
            let mut src = source(&inputs.model, seed, v.pass_jobs());
            run(
                &mut src,
                &mut sched,
                &FaultPlan::default(),
                &mut objectives,
                &mut clock,
            )
        }
        Some((w, plan)) => run(
            &mut WorkloadSource::new(w),
            &mut sched,
            plan,
            &mut objectives,
            &mut clock,
        ),
    };
    let wall = t0.elapsed().as_secs_f64();
    let metered = out.scheduler_cpu.as_nanos() as f64;
    (
        PassOutputs::new(&objectives, &out),
        wall,
        metered,
        clock.samples_us,
    )
}

fn run(
    src: &mut dyn JobSource,
    sched: &mut dyn Scheduler,
    plan: &FaultPlan,
    objectives: &mut dyn SimObserver,
    extra: &mut dyn SimObserver,
) -> PipelineOutcome {
    SimPipeline::new(src, sched)
        .with_faults(plan)
        .observe(objectives)
        .observe(extra)
        .run()
        .expect("in-process sources are infallible")
}

/// What one traced pass measured at the layer boundaries.
struct TracedPass {
    outputs: PassOutputs,
    wall_ns: f64,
    sched: SchedTrace,
    pull: Meter,
    observe: Meter,
    total_allocs: u64,
}

fn traced_pass(v: Variant, inputs: &Inputs, seed: u64) -> TracedPass {
    struct Nothing;
    impl SimObserver for Nothing {
        fn on_event(&mut self, _: &JobEvent) {}
    }
    let machine = inputs.model.machine_nodes();
    let mut sched = TimedScheduler::new(v.scheduler());
    let mut obs = TimedObserver::new(Objectives::new(machine));
    alloc::set_counting(true);
    let a0 = alloc::count();
    let t0 = Instant::now();
    let (out, pull) = match &inputs.trace {
        None => {
            let mut src = TimedSource::new(source(&inputs.model, seed, v.pass_jobs()));
            let out = run(
                &mut src,
                &mut sched,
                &FaultPlan::default(),
                &mut obs,
                &mut Nothing,
            );
            (out, src.pull)
        }
        Some((w, plan)) => {
            let mut src = TimedSource::new(WorkloadSource::new(w));
            let out = run(&mut src, &mut sched, plan, &mut obs, &mut Nothing);
            (out, src.pull)
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let total_allocs = alloc::count() - a0;
    alloc::set_counting(false);
    TracedPass {
        outputs: PassOutputs::new(&obs.inner, &out),
        wall_ns,
        sched: sched.trace,
        pull,
        observe: obs.observe,
        total_allocs,
    }
}

/// The check pass: materialise the pass's trace, re-run it through
/// `simulate_with_faults` (which records the schedule), and audit the
/// record against the streaming outputs.
fn check(v: Variant, inputs: &Inputs, seed: u64, expect: &PassOutputs) -> Vec<String> {
    let owned;
    let (w, plan) = match &inputs.trace {
        Some((w, plan)) => (w, plan.clone()),
        None => {
            owned = collect(&mut source(&inputs.model, seed, v.pass_jobs()))
                .expect("model sources are infallible");
            (&owned, FaultPlan::default())
        }
    };
    let mut errors = Vec::new();
    let out = simulate_with_faults(w, &mut v.scheduler(), &plan);
    if out.events != expect.events || out.decision_rounds != expect.rounds {
        errors.push(format!(
            "check pass counted {} events / {} rounds, streaming {} / {}",
            out.events, out.decision_rounds, expect.events, expect.rounds
        ));
    }
    let mut phase = vec![None; w.len()];
    let mut phases = [0u64; 5];
    for f in &out.faults {
        if let FaultOutcome::Cancelled { id, at, phase: p } = *f {
            phase[id.index()] = Some((p, at));
            phases[phase_index(p)] += 1;
        }
    }
    if phases != expect.cancels {
        errors.push(format!(
            "check pass cancel phases {phases:?}, streaming {:?}",
            expect.cancels
        ));
    }
    if out.faults.len() != plan.cancels.len() {
        errors.push(format!(
            "{} cancellations planned, {} applied",
            plan.cancels.len(),
            out.faults.len()
        ));
    }
    // Complete: every job ran (to its effective runtime, or truncated
    // by a cancellation while running), or was cancelled before start.
    let (mut sum_response, mut placed) = (0u128, 0u64);
    let mut deltas: Vec<(Time, i64)> = Vec::with_capacity(2 * w.len());
    for j in w.jobs() {
        let p = out.schedule.placement(j.id);
        let ok = match (p, phase[j.id.index()]) {
            (None, Some((CancelPhase::Queued | CancelPhase::PreSubmit, _))) => true,
            (Some(p), Some((CancelPhase::Running, at))) => {
                p.completion == at && p.start >= j.submit && at - p.start < j.effective_runtime()
            }
            (Some(p), None | Some((CancelPhase::AlreadyFinished, _))) => {
                p.start >= j.submit && p.completion - p.start == j.effective_runtime()
            }
            _ => false,
        };
        if !ok {
            errors.push(format!(
                "job {} has placement {p:?}, cancel {:?}",
                j.id,
                phase[j.id.index()]
            ));
            break;
        }
        if let Some(p) = p {
            sum_response += (p.completion - j.submit) as u128;
            placed += 1;
            deltas.push((p.start, j.nodes as i64));
            deltas.push((p.completion, -(j.nodes as i64)));
        }
    }
    // Capacity: a sweep over start/end deltas, ends first at ties.
    deltas.sort_unstable();
    let mut busy = 0i64;
    for (t, d) in deltas {
        busy += d;
        if busy > w.machine_nodes() as i64 {
            errors.push(format!(
                "{busy} nodes busy at {t} on a {}-node machine",
                w.machine_nodes()
            ));
            break;
        }
    }
    let art = if placed == 0 {
        0.0
    } else {
        sum_response as f64 / placed as f64
    };
    if art != expect.art {
        errors.push(format!(
            "recorded ART {art} != streaming ART {}",
            expect.art
        ));
    }
    if out.schedule.makespan() != expect.makespan {
        errors.push(format!(
            "recorded makespan {} != streaming makespan {}",
            out.schedule.makespan(),
            expect.makespan
        ));
    }
    errors
}

pub fn run_workload(v: Variant, ctx: &Ctx) -> Outcome {
    let jobs = v.pass_jobs();
    let (inputs, first_setup) = crate::timed(|| setup(v, ctx.seed));
    let mut o = Outcome::default();
    crate::reset_peak_rss();

    // Measured loop. Traced runs alternate untraced and traced passes so
    // both see the same machine conditions.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut first: Option<PassOutputs> = None;
    let mut walls = Vec::new();
    let mut metered = Vec::new();
    let mut chunks = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let timer = ctx.trace.then(Timer::calibrate);
    let mut i = 0usize;
    while i < 2 || (ctx.trace && traced.len() < 2) || Instant::now() < deadline {
        let outputs = if ctx.trace && i % 2 == 1 {
            let t = traced_pass(v, &inputs, ctx.seed);
            let outputs = t.outputs.clone();
            traced.push(t);
            outputs
        } else {
            let (outputs, wall, m, mut c) = pass(v, &inputs, ctx.seed);
            walls.push(wall);
            metered.push(m);
            chunks.push(median(&mut c));
            outputs
        };
        o.attempted += jobs as u64;
        o.failed += outputs.failed(jobs);
        match &first {
            None => first = Some(outputs),
            Some(f) if *f != outputs => o.fail(format!(
                "pass {i} outputs differ from pass 0: {outputs:?} vs {f:?}"
            )),
            Some(_) => {}
        }
        i += 1;
    }
    let peak_rss = crate::peak_rss_mib();
    let mut setups = vec![first_setup];
    for _ in 1..crate::SETUP_REPS {
        setups.push(crate::timed(|| setup(v, ctx.seed)).1);
    }
    o.metric("setup_s", median(&mut setups));
    let first = first.expect("at least one pass");
    eprintln!(
        "{}: {i} passes of {jobs} jobs, outputs {first:?}",
        ctx.workload
    );

    for e in check(v, &inputs, ctx.seed, &first) {
        o.fail(e);
    }

    let mut rates: Vec<f64> = walls.iter().map(|w| jobs as f64 / w).collect();
    o.metric("jobs_per_s", median(&mut rates));
    o.metric("op_p50_us", median(&mut chunks));
    o.metric("peak_rss_mib", peak_rss);

    if let Some(timer) = timer {
        layer_metrics(&mut o, &timer, &traced, &walls, &metered, &mut setups, jobs);
    }
    o
}

fn layer_metrics(
    o: &mut Outcome,
    timer: &Timer,
    traced: &[TracedPass],
    walls: &[f64],
    metered: &[f64],
    gens: &mut [f64],
    jobs: usize,
) {
    let n = jobs as f64;
    // Counts must repeat exactly across traced passes.
    let counts = |t: &TracedPass| {
        let m = t.sched.meters();
        (
            m.map(|m| (m.calls, m.allocs)),
            t.sched.useful_selects,
            t.sched.queue_len_sum,
            t.sched.profile_len_sum,
            (t.pull.calls, t.pull.allocs),
            (t.observe.calls, t.observe.allocs),
            t.total_allocs,
        )
    };
    for (k, t) in traced.iter().enumerate().skip(1) {
        if counts(t) != counts(&traced[0]) {
            o.fail(format!("traced pass {k} counts differ from traced pass 0"));
        }
    }
    let per_pass = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
        let mut xs: Vec<f64> = traced.iter().map(f).collect();
        median(&mut xs)
    };
    let t0 = &traced[0];
    let s = &t0.sched;
    let sched_ns =
        |t: &TracedPass| -> f64 { t.sched.meters().iter().map(|m| m.corrected_ns(timer)).sum() };
    let calls = |t: &TracedPass| -> u64 {
        t.sched.meters().iter().map(|m| m.calls).sum::<u64>() + t.pull.calls + t.observe.calls
    };
    let self_ns = |t: &TracedPass| -> f64 {
        t.wall_ns
            - timer.overhead_ns(calls(t))
            - sched_ns(t)
            - t.pull.corrected_ns(timer)
            - t.observe.corrected_ns(timer)
    };
    let layer_allocs = s.meters().iter().map(|m| m.allocs).sum::<u64>();

    o.metric(
        "workload.pull_ns_per_job",
        per_pass(&|t| t.pull.corrected_ns(timer)) / n,
    );
    o.metric("workload.gen_s", median(gens));
    o.metric(
        "algos.select_ns_per_job",
        per_pass(&|t| t.sched.select.corrected_ns(timer)) / n,
    );
    o.metric(
        "algos.submit_ns_per_job",
        per_pass(&|t| t.sched.submit.corrected_ns(timer)) / n,
    );
    o.metric(
        "algos.finish_ns_per_job",
        per_pass(&|t| t.sched.finish.corrected_ns(timer)) / n,
    );
    o.metric(
        "algos.cancel_ns_per_job",
        per_pass(&|t| t.sched.cancel.corrected_ns(timer)) / n,
    );
    o.metric("algos.select_calls_per_job", s.select.calls as f64 / n);
    o.metric(
        "algos.select_useful_ratio",
        s.useful_selects as f64 / s.select.calls.max(1) as f64,
    );
    o.metric(
        "algos.queue_len_mean",
        s.queue_len_sum as f64 / s.select.calls.max(1) as f64,
    );
    o.metric("algos.allocs_per_job", layer_allocs as f64 / n);
    o.metric("sim.self_ns_per_job", per_pass(&self_ns) / n);
    o.metric("sim.events_per_job", t0.outputs.events as f64 / n);
    o.metric("sim.rounds_per_job", t0.outputs.rounds as f64 / n);
    o.metric("sim.peak_queue", t0.outputs.peak_queue as f64);
    o.metric("sim.peak_resident", t0.outputs.peak_resident as f64);
    o.metric(
        "sim.profile_len_mean",
        s.profile_len_sum as f64 / s.select.calls.max(1) as f64,
    );
    o.metric(
        "sim.metered_sched_ns_per_job",
        median(&mut metered.to_vec()) / n,
    );
    o.metric(
        "sim.allocs_per_job",
        (t0.total_allocs - layer_allocs - t0.pull.allocs - t0.observe.allocs) as f64 / n,
    );
    o.metric(
        "metrics.observe_ns_per_job",
        per_pass(&|t| t.observe.corrected_ns(timer)) / n,
    );
    o.metric("metrics.allocs_per_job", t0.observe.allocs as f64 / n);
    let untraced_ns = median(&mut walls.to_vec()) * 1e9;
    let traced_ns = per_pass(&|t| t.wall_ns);
    let corrected_ns = per_pass(&|t| t.wall_ns - timer.overhead_ns(calls(t)));
    o.metric("trace.timer_pair_ns", timer.pair_ns);
    o.metric("trace.overhead_ratio", traced_ns / untraced_ns);
    o.trace_sum_check(corrected_ns / untraced_ns, per_pass(&self_ns));
}
