//! Spans around calls into the program's public APIs.
//!
//! Every traced call goes through [`Meter::time`]: one `Instant` pair
//! and one read of the allocation counter on each side. The wrappers
//! below put a meter at the coarsest boundary of each layer — the
//! scheduler behind the `Scheduler` trait, the source behind
//! `JobSource`, and the whole objective fan-out behind one
//! `SimObserver` — so the program itself carries no tracing.

use crate::alloc;
use crate::stats::median;
use jobsched_sim::{JobEvent, JobRequest, Machine, Scheduler, SimObserver};
use jobsched_workload::{Job, JobId, JobSource, MachineLayout, SourceError, Time};
use std::hint::black_box;
use std::time::Instant;

/// Raw time, calls and allocations accumulated at one boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Meter {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
}

impl Meter {
    /// Run `f` under the meter.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.allocs += alloc::count() - a0;
        self.calls += 1;
        r
    }

    /// Time spent inside the metered calls, with the timer's own share
    /// of each reading taken out.
    pub fn corrected_ns(&self, timer: &Timer) -> f64 {
        (self.ns as f64 - self.calls as f64 * timer.read_ns).max(0.0)
    }
}

/// Calibrated cost of the meter itself.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    /// Wall time one metered empty call adds to the run: the whole
    /// `Instant::now()` + `elapsed()` pair plus the counter reads.
    pub pair_ns: f64,
    /// What a metered empty call reads as its own duration — the part
    /// of the pair that falls inside the measured interval.
    pub read_ns: f64,
}

impl Timer {
    /// Measure the meter on an empty body: medians over 21 batches.
    pub fn calibrate() -> Timer {
        const BATCH: u64 = 20_000;
        let mut pair = Vec::new();
        let mut read = Vec::new();
        for _ in 0..21 {
            let mut m = Meter::default();
            let t0 = Instant::now();
            for i in 0..BATCH {
                m.time(|| black_box(i));
            }
            pair.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            read.push(m.ns as f64 / BATCH as f64);
        }
        Timer {
            pair_ns: median(&mut pair),
            read_ns: median(&mut read),
        }
    }

    /// Wall time `calls` metered calls add to a run.
    pub fn overhead_ns(&self, calls: u64) -> f64 {
        calls as f64 * self.pair_ns
    }
}

/// Per-callback meters of a traced scheduler, plus the samples the
/// benchmark takes at each decision round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedTrace {
    pub submit: Meter,
    pub finish: Meter,
    pub cancel: Meter,
    pub capacity: Meter,
    pub select: Meter,
    /// Decision rounds that started at least one job.
    pub useful_selects: u64,
    /// Sum of the wait-queue length over decision rounds.
    pub queue_len_sum: u64,
    /// Sum of the machine's availability-profile length over rounds.
    pub profile_len_sum: u64,
}

impl SchedTrace {
    pub fn meters(&self) -> [Meter; 5] {
        [
            self.submit,
            self.finish,
            self.cancel,
            self.capacity,
            self.select,
        ]
    }
}

/// A `Scheduler` that meters every callback into the wrapped one.
/// `name`, `queue_len` and `next_wakeup` pass through unmetered: they
/// are field reads, cheaper than the timer.
pub struct TimedScheduler<S> {
    pub inner: S,
    pub trace: SchedTrace,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            trace: SchedTrace::default(),
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn submit(&mut self, job: JobRequest, now: Time) {
        let inner = &mut self.inner;
        self.trace.submit.time(|| inner.submit(job, now));
    }

    fn job_finished(&mut self, id: JobId, now: Time) {
        let inner = &mut self.inner;
        self.trace.finish.time(|| inner.job_finished(id, now));
    }

    fn cancel(&mut self, id: JobId, now: Time) {
        let inner = &mut self.inner;
        self.trace.cancel.time(|| inner.cancel(id, now));
    }

    fn capacity_changed(&mut self, now: Time) {
        let inner = &mut self.inner;
        self.trace.capacity.time(|| inner.capacity_changed(now));
    }

    fn select_starts(&mut self, now: Time, machine: &Machine) -> Vec<JobId> {
        self.trace.queue_len_sum += self.inner.queue_len() as u64;
        self.trace.profile_len_sum += machine.profile().pending_releases() as u64;
        let inner = &mut self.inner;
        let starts = self.trace.select.time(|| inner.select_starts(now, machine));
        if !starts.is_empty() {
            self.trace.useful_selects += 1;
        }
        starts
    }

    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        self.inner.next_wakeup(now)
    }
}

/// A `JobSource` that meters every pull.
pub struct TimedSource<S> {
    pub inner: S,
    pub pull: Meter,
}

impl<S: JobSource> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            pull: Meter::default(),
        }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn machine_nodes(&self) -> u32 {
        self.inner.machine_nodes()
    }

    fn layout(&self) -> Option<&MachineLayout> {
        self.inner.layout()
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        let inner = &mut self.inner;
        self.pull.time(|| inner.next_job())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A `SimObserver` that meters the whole wrapped fan-out as one call.
pub struct TimedObserver<O> {
    pub inner: O,
    pub observe: Meter,
}

impl<O: SimObserver> TimedObserver<O> {
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            observe: Meter::default(),
        }
    }
}

impl<O: SimObserver> SimObserver for TimedObserver<O> {
    fn on_event(&mut self, event: &JobEvent) {
        let inner = &mut self.inner;
        self.observe.time(|| inner.on_event(event));
    }

    fn on_end(&mut self, horizon: Time) {
        let inner = &mut self.inner;
        self.observe.time(|| inner.on_end(horizon));
    }
}
