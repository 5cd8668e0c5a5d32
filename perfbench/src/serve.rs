//! `serve-mix`: the daemon on loopback under a write stream with reads
//! beside it.
//!
//! An in-process `Server` runs FCFS+EASY on 2 shards under a virtual
//! clock. The load generator is this process with 2 threads and 2
//! connections:
//!
//! * the **writer** runs a closed loop over windows of `WINDOW` jobs: it
//!   pipelines the window's `submit`s (explicit `id` and `at`), waits for
//!   every reply, then sends `advance` to the instant before the next
//!   window's first submission (to quiescence after the last window);
//! * the **reader** is a depth-1 closed loop sending `status` for random
//!   already-acknowledged ids; every 10th read is a `queue` (fan-out to
//!   both shards and merge).
//!
//! A session serves `SESSION_JOBS` jobs on a fresh daemon; sessions
//! repeat until the run's time is used up. After each session the
//! daemon's per-shard `metrics` must equal a batch `simulate` of each
//! residue class `id % 2` — the sharded ≡ per-residue batch identity,
//! checked on the wire.
//!
//! The traced run records the reader's requests in its first session and
//! replays that session's request lines in-process through
//! `jobsched_json::parse` → `protocol::parse_request` → `Engine::handle`
//! → encode, on two virtual-clock engines, to split the daemon's time by
//! layer.

use crate::stats::{median, quantile_sorted};
use crate::trace::{Meter, Timer};
use crate::{alloc, Ctx, Outcome};
use jobsched_json::Json;
use jobsched_metrics::{replay, OnlineArt, StreamingObjective};
use jobsched_serve::engine::Engine;
use jobsched_serve::protocol::{self, Request};
use jobsched_serve::server::Server;
use jobsched_serve::{SchedulerSpec, ServeConfig};
use jobsched_sim::simulate;
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::probabilistic::BinnedModel;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::source::collect;
use jobsched_workload::{Job, ProbabilisticSource, Workload, CTC_JOB_COUNT};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const SCHEDULER: &str = "fcfs+easy";
/// Jobs per session (one fresh daemon).
const SESSION_JOBS: usize = 120_000;
/// Writer pipeline depth: submits per window.
const WINDOW: usize = 512;
/// Every `QUEUE_EVERY`-th read is a `queue` instead of a `status`.
const QUEUE_EVERY: u64 = 10;

fn submit_line(j: &Job) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":{},\"at\":{},\"nodes\":{},\"requested\":{},\"runtime\":{},\"user\":{}}}\n",
        j.id.0, j.submit, j.nodes, j.requested_time, j.runtime, j.user
    )
}

fn status_line(id: u64) -> String {
    format!("{{\"op\":\"status\",\"id\":{id}}}\n")
}

const QUEUE_LINE: &str = "{\"op\":\"queue\"}\n";

/// The writer's request lines: per window, its submits (one buffer,
/// written at once) and the closing `advance`.
struct Windows {
    submits: Vec<String>,
    advances: Vec<String>,
    sizes: Vec<usize>,
}

fn windows(jobs: &[Job]) -> Windows {
    let mut w = Windows {
        submits: Vec::new(),
        advances: Vec::new(),
        sizes: Vec::new(),
    };
    for (k, chunk) in jobs.chunks(WINDOW).enumerate() {
        w.submits.push(chunk.iter().map(submit_line).collect());
        w.sizes.push(chunk.len());
        // Advance to just before the next window's first submission, so
        // every job of an instant is admitted before that instant runs.
        let advance = match jobs.get((k + 1) * WINDOW) {
            Some(next) => format!(
                "{{\"op\":\"advance\",\"to\":{}}}\n",
                next.submit.saturating_sub(1)
            ),
            None => "{\"op\":\"advance\"}\n".to_string(),
        };
        w.advances.push(advance);
    }
    w
}

/// Whether a reply line reports success. The daemon writes `ok` as the
/// first key of every compact reply object, so a prefix test is exact
/// and keeps the load generator's own cost off the clock.
fn is_ok(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true")
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, text: &str) {
        self.writer
            .write_all(text.as_bytes())
            .expect("write to daemon");
    }

    /// Read one reply line into `self.line`.
    fn recv(&mut self) -> &str {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("read from daemon");
        assert!(n > 0, "daemon closed the connection");
        &self.line
    }

    fn request(&mut self, text: &str) -> Json {
        self.send(text);
        jobsched_json::parse(self.recv().trim()).expect("daemon replies are JSON")
    }
}

/// One request of the reader: the acknowledged-job count it saw, and the
/// id of its `status` (`None` for a `queue`).
struct Read {
    acked: u64,
    id: Option<u64>,
}

/// What one session measured.
#[derive(Default)]
struct Session {
    startup_s: f64,
    writer_s: f64,
    writer_reqs: u64,
    reqs: u64,
    not_ok: u64,
    submit_us: Vec<f64>,
    advance_us: Vec<f64>,
    status_us: Vec<f64>,
    /// The reader's requests, in order, when the session records them.
    reads: Vec<Read>,
    /// Per-shard `(jobs_finished, art, makespan)` from the final metrics.
    shards: Vec<(u64, f64, u64)>,
}

fn session(jobs: &[Job], w: &Windows, machine_nodes: u32, seed: u64, record: bool) -> Session {
    let t0 = Instant::now();
    let config = ServeConfig {
        machine_nodes,
        scheduler: SchedulerSpec::parse(SCHEDULER).expect("valid spec"),
        virtual_clock: true,
        queue_bound: jobs.len() + 1,
        max_connections: 8,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let mut writer = Conn::connect(server.addr()).expect("connect writer");
    let mut reader = Conn::connect(server.addr()).expect("connect reader");
    let mut s = Session {
        startup_s: t0.elapsed().as_secs_f64(),
        ..Session::default()
    };

    let acked = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (r_reqs, r_not_ok, status_us, reads) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 3));
            let (mut reqs, mut not_ok) = (0u64, 0u64);
            let mut status_us = Vec::new();
            let mut reads = Vec::new();
            while !done.load(Ordering::Acquire) {
                let n = acked.load(Ordering::Acquire);
                if n == 0 {
                    std::thread::yield_now();
                    continue;
                }
                reqs += 1;
                let id = (reqs % QUEUE_EVERY != 0).then(|| rng.random_range(0..n));
                let line = match id {
                    Some(id) => status_line(id),
                    None => QUEUE_LINE.to_string(),
                };
                if record {
                    reads.push(Read { acked: n, id });
                }
                let t = Instant::now();
                reader.send(&line);
                let reply = reader.recv();
                if id.is_some() {
                    status_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                if !is_ok(reply) {
                    not_ok += 1;
                }
            }
            (reqs, not_ok, status_us, reads)
        });

        let tw = Instant::now();
        for k in 0..w.sizes.len() {
            let sent = Instant::now();
            writer.send(&w.submits[k]);
            for _ in 0..w.sizes[k] {
                let ok = is_ok(writer.recv());
                s.submit_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                s.not_ok += u64::from(!ok);
            }
            acked.fetch_add(w.sizes[k] as u64, Ordering::Release);
            let sent = Instant::now();
            writer.send(&w.advances[k]);
            let ok = is_ok(writer.recv());
            s.advance_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            s.not_ok += u64::from(!ok);
            s.writer_reqs += w.sizes[k] as u64 + 1;
        }
        s.writer_s = tw.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        reads.join().expect("reader thread")
    });
    s.reqs = s.writer_reqs + r_reqs;
    s.not_ok += r_not_ok;
    s.status_us = status_us;
    s.reads = reads;

    let metrics = writer.request("{\"op\":\"metrics\"}\n");
    s.reqs += 1;
    if metrics.get("ok").and_then(Json::as_bool) != Some(true) {
        s.not_ok += 1;
    }
    if let Some(parts) = metrics.get("shards").and_then(Json::as_arr) {
        for p in parts {
            s.shards.push((
                p.get("jobs_finished").and_then(Json::as_u64).unwrap_or(0),
                p.get("art").and_then(Json::as_f64).unwrap_or(f64::NAN),
                p.get("makespan").and_then(Json::as_u64).unwrap_or(0),
            ));
        }
    }
    let bye = writer.request("{\"op\":\"shutdown\",\"graceful\":false}\n");
    s.reqs += 1;
    if bye.get("ok").and_then(Json::as_bool) != Some(true) {
        s.not_ok += 1;
    }
    server.join();
    s
}

/// Batch oracle: each residue class simulated on its own machine.
fn per_residue(jobs: &[Job], machine_nodes: u32) -> Vec<(u64, f64, u64)> {
    (0..SHARDS)
        .map(|k| {
            let sub = Workload::new(
                "residue",
                machine_nodes,
                jobs.iter()
                    .filter(|j| j.id.0 as usize % SHARDS == k)
                    .cloned()
                    .collect(),
            );
            let mut sched = SchedulerSpec::parse(SCHEDULER).expect("valid spec").build();
            let out = simulate(&sub, &mut sched);
            let mut art = OnlineArt::new();
            replay(&sub, &out.schedule, &mut art);
            (sub.len() as u64, art.cost(), out.schedule.makespan())
        })
        .collect()
}

fn gen_jobs(seed: u64) -> (Vec<Job>, u32) {
    let model = BinnedModel::fit(&prepared_ctc_workload(CTC_JOB_COUNT, seed));
    let nodes = model.machine_nodes();
    let mut src = ProbabilisticSource::new(model, derive_seed(seed, 1)).with_limit(SESSION_JOBS);
    let w = collect(&mut src).expect("model sources are infallible");
    (w.jobs().to_vec(), nodes)
}

pub fn run_workload(ctx: &Ctx) -> Outcome {
    let ((jobs, nodes), first_gen) = crate::timed(|| gen_jobs(ctx.seed));
    let w = windows(&jobs);

    let mut o = Outcome::default();
    crate::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut sessions = Vec::new();
    let mut peak_rss = 0.0;
    while sessions.len() < 2 || Instant::now() < deadline {
        let s = session(&jobs, &w, nodes, ctx.seed, ctx.trace && sessions.is_empty());
        o.attempted += s.reqs;
        o.failed += s.not_ok;
        sessions.push(s);
        if sessions.len() == 1 {
            // One daemon's footprint: later sessions in this process add
            // allocator fragmentation that a daemon never sees.
            peak_rss = crate::peak_rss_mib();
        }
        if ctx.trace && sessions.len() >= 2 {
            break; // the rest of a traced run goes to the replay
        }
    }

    let mut gens = vec![first_gen];
    for _ in 1..crate::SETUP_REPS {
        gens.push(crate::timed(|| gen_jobs(ctx.seed)).1);
    }
    let expect = per_residue(&jobs, nodes);
    for (k, s) in sessions.iter().enumerate() {
        if s.shards != expect {
            o.fail(format!(
                "session {k}: daemon shard metrics {:?} != per-residue batch {:?}",
                s.shards, expect
            ));
        }
    }

    let pooled = |f: &dyn Fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        let mut xs: Vec<f64> = sessions.iter().flat_map(|s| f(s).iter().copied()).collect();
        xs.sort_by(f64::total_cmp);
        xs
    };
    let status = pooled(&|s| &s.status_us);
    let mut rates: Vec<f64> = sessions
        .iter()
        .map(|s| jobs.len() as f64 / s.writer_s)
        .collect();
    let mut status_p50s: Vec<f64> = sessions
        .iter()
        .map(|s| median(&mut s.status_us.clone()))
        .collect();
    let mut startups: Vec<f64> = sessions.iter().map(|s| s.startup_s).collect();
    eprintln!(
        "serve-mix: {} sessions of {} jobs, {} status reads, shards {:?}",
        sessions.len(),
        jobs.len(),
        status.len(),
        expect
    );
    let gen_s = median(&mut gens);
    o.metric("setup_s", gen_s + median(&mut startups));
    o.metric("jobs_per_s", median(&mut rates));
    o.metric("op_p50_us", median(&mut status_p50s));
    o.metric("peak_rss_mib", peak_rss);

    if ctx.trace {
        o.metric("workload.gen_s", gen_s);
        o.metric("serve.submit_rps", median(&mut rates));
        o.metric(
            "serve.submit_p50_us",
            quantile_sorted(&pooled(&|s| &s.submit_us), 0.5),
        );
        o.metric("serve.status_p50_us", quantile_sorted(&status, 0.50));
        o.metric("serve.status_p99_us", quantile_sorted(&status, 0.99));
        o.metric(
            "serve.advance_p50_us",
            quantile_sorted(&pooled(&|s| &s.advance_us), 0.5),
        );
        let mut writer_ns: Vec<f64> = sessions
            .iter()
            .map(|s| s.writer_s * 1e9 / s.writer_reqs as f64)
            .collect();
        let lines = replay_lines(&jobs, &w, &sessions[0].reads);
        eprintln!(
            "serve-mix replay: {} lines, {} recorded reads over {} windows",
            lines.len(),
            sessions[0].reads.len(),
            w.sizes.len()
        );
        replay_layers(&mut o, &lines, jobs.len(), nodes, median(&mut writer_ns), deadline);
    }
    o
}

/// One request line of the replay, with what it is for the meters.
enum Op {
    Submit,
    Advance(usize),
    Status,
    Queue,
}

/// The in-process request sequence of a recorded session: each window's
/// submits and advance, then the reads the reader sent while the
/// acknowledged count stood at that window's end. Those reads reached
/// the daemon while the advance ran or the next window's submits were in
/// flight; the replay serves them after the advance.
fn replay_lines(jobs: &[Job], w: &Windows, reads: &[Read]) -> Vec<(String, Op)> {
    let mut reads = reads.iter().peekable();
    let mut lines = Vec::new();
    let mut acked = 0u64;
    for (k, chunk) in jobs.chunks(WINDOW).enumerate() {
        lines.extend(chunk.iter().map(|j| (submit_line(j), Op::Submit)));
        lines.push((w.advances[k].clone(), Op::Advance(chunk.len())));
        acked += chunk.len() as u64;
        while let Some(r) = reads.next_if(|r| r.acked <= acked) {
            lines.push(match r.id {
                Some(id) => (status_line(id), Op::Status),
                None => (QUEUE_LINE.to_string(), Op::Queue),
            });
        }
    }
    lines
}

fn engines(nodes: u32, jobs: usize) -> Vec<Engine> {
    let config = ServeConfig {
        machine_nodes: nodes,
        scheduler: SchedulerSpec::parse(SCHEDULER).expect("valid spec"),
        virtual_clock: true,
        queue_bound: jobs + 1,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    (0..SHARDS)
        .map(|k| Engine::for_shard(config.clone(), k, SHARDS, None))
        .collect()
}

/// Shards a request goes to: its id's residue, or all of them.
fn targets(req: &Request) -> std::ops::Range<usize> {
    match req {
        Request::Submit { id: Some(id), .. } | Request::Status { id } => {
            let k = *id as usize % SHARDS;
            k..k + 1
        }
        _ => 0..SHARDS,
    }
}

/// Untraced replay: the same calls, no meters. Returns wall ns and a
/// digest of every reply, which the traced replay must reproduce.
fn replay_plain(lines: &[(String, Op)], nodes: u32, jobs: usize) -> (f64, u64) {
    let mut es = engines(nodes, jobs);
    let mut digest = 0u64;
    let t0 = Instant::now();
    for (line, _) in lines {
        let json = jobsched_json::parse(line.trim_end()).expect("replay lines are JSON");
        let req = protocol::parse_request(&json).expect("replay lines are requests");
        for k in targets(&req) {
            let (reply, _) = es[k].handle(req.clone());
            digest = fold(digest, &reply.to_string_compact());
        }
    }
    (t0.elapsed().as_nanos() as f64, digest)
}

fn fold(digest: u64, text: &str) -> u64 {
    text.bytes()
        .fold(digest, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[derive(Default)]
struct ReplayTrace {
    wall_ns: f64,
    digest: u64,
    decode: Meter,
    parse: Meter,
    encode: Meter,
    submit: Meter,
    status: Meter,
    queue: Meter,
    advance: Meter,
    advance_jobs: u64,
    /// Corrected in-process ns of the writer's lines (submits, advances),
    /// a broadcast line counting its slowest shard, as the daemon's shard
    /// threads serve it in parallel.
    writer_ns: f64,
    writer_reqs: u64,
    /// Decode and encode allocations of the writer's lines, which the
    /// seed fixes; the reads' share follows the recorded session.
    writer_json_allocs: u64,
    not_ok: u64,
}

impl ReplayTrace {
    fn meters(&self) -> [Meter; 7] {
        [
            self.decode,
            self.parse,
            self.encode,
            self.submit,
            self.status,
            self.queue,
            self.advance,
        ]
    }

    /// Raw ns and calls summed over every meter.
    fn totals(&self) -> (u64, u64) {
        self.meters()
            .iter()
            .fold((0, 0), |(ns, calls), m| (ns + m.ns, calls + m.calls))
    }
}

fn replay_traced(lines: &[(String, Op)], nodes: u32, jobs: usize, timer: &Timer) -> ReplayTrace {
    let mut es = engines(nodes, jobs);
    let mut t = ReplayTrace::default();
    alloc::set_counting(true);
    let t0 = Instant::now();
    let corrected = |from: (u64, u64), to: (u64, u64)| -> f64 {
        (to.0 - from.0) as f64 - (to.1 - from.1) as f64 * timer.read_ns
    };
    let json_allocs = |t: &ReplayTrace| t.decode.allocs + t.encode.allocs;
    for (line, op) in lines {
        let before = t.totals();
        let allocs_before = json_allocs(&t);
        let json = t
            .decode
            .time(|| jobsched_json::parse(line.trim_end()))
            .expect("replay lines are JSON");
        let req = t
            .parse
            .time(|| protocol::parse_request(&json))
            .expect("replay lines are requests");
        let parsed = t.totals();
        let mut slowest_shard = 0.0f64;
        for k in targets(&req) {
            let start = t.totals();
            let meter = match op {
                Op::Submit => &mut t.submit,
                Op::Status => &mut t.status,
                Op::Queue => &mut t.queue,
                Op::Advance(_) => &mut t.advance,
            };
            let e = &mut es[k];
            let (reply, _) = meter.time(|| e.handle(req.clone()));
            let text = t.encode.time(|| reply.to_string_compact());
            if !is_ok(&text) {
                t.not_ok += 1;
            }
            t.digest = fold(t.digest, &text);
            slowest_shard = slowest_shard.max(corrected(start, t.totals()));
        }
        if let Op::Advance(n) = op {
            t.advance_jobs += *n as u64;
        }
        if matches!(op, Op::Submit | Op::Advance(_)) {
            t.writer_reqs += 1;
            t.writer_ns += corrected(before, parsed) + slowest_shard;
            t.writer_json_allocs += json_allocs(&t) - allocs_before;
        }
    }
    t.wall_ns = t0.elapsed().as_nanos() as f64;
    alloc::set_counting(false);
    t
}

fn replay_layers(
    o: &mut Outcome,
    lines: &[(String, Op)],
    jobs: usize,
    nodes: u32,
    wire_writer_ns_per_req: f64,
    deadline: Instant,
) {
    let timer = Timer::calibrate();
    let mut plain = Vec::new();
    let mut traced: Vec<ReplayTrace> = Vec::new();
    while traced.len() < 2 || Instant::now() < deadline {
        let (ns, digest) = replay_plain(lines, nodes, jobs);
        plain.push(ns);
        let t = replay_traced(lines, nodes, jobs, &timer);
        if t.digest != digest {
            o.fail("traced replay replies differ from the untraced replay".into());
        }
        o.attempted += lines.len() as u64;
        o.failed += t.not_ok;
        traced.push(t);
    }
    let counts = |t: &ReplayTrace| t.meters().map(|m| (m.calls, m.allocs));
    for (k, t) in traced.iter().enumerate().skip(1) {
        if counts(t) != counts(&traced[0]) || t.digest != traced[0].digest {
            o.fail(format!("traced replay {k} counts differ from replay 0"));
        }
    }
    let med = |f: &dyn Fn(&ReplayTrace) -> f64| -> f64 {
        let mut xs: Vec<f64> = traced.iter().map(f).collect();
        median(&mut xs)
    };
    let reqs = lines.len() as f64;
    let t0 = &traced[0];
    let per_call = |m: &dyn Fn(&ReplayTrace) -> Meter| -> f64 {
        med(&|t| m(t).corrected_ns(&timer) / m(t).calls.max(1) as f64)
    };
    o.metric(
        "json.decode_ns_per_req",
        med(&|t| t.decode.corrected_ns(&timer)) / reqs,
    );
    o.metric(
        "json.encode_ns_per_req",
        med(&|t| t.encode.corrected_ns(&timer)) / reqs,
    );
    o.metric(
        "json.allocs_per_req",
        t0.writer_json_allocs as f64 / t0.writer_reqs as f64,
    );
    o.metric(
        "serve.parse_ns_per_req",
        med(&|t| t.parse.corrected_ns(&timer)) / reqs,
    );
    o.metric("serve.engine_submit_ns", per_call(&|t| t.submit));
    o.metric("serve.engine_status_ns", per_call(&|t| t.status));
    o.metric("serve.engine_queue_ns", per_call(&|t| t.queue));
    o.metric(
        "serve.engine_advance_ns_per_job",
        med(&|t| t.advance.corrected_ns(&timer)) / t0.advance_jobs as f64,
    );
    let wire_ns = wire_writer_ns_per_req - med(&|t| t.writer_ns / t.writer_reqs as f64);
    o.metric("serve.wire_ns_per_req", wire_ns);
    if wire_ns < 0.0 {
        o.fail(format!(
            "the writer's in-process time exceeds its wire time by {} ns per request",
            -wire_ns
        ));
    }
    let calls = |t: &ReplayTrace| t.totals().1;
    let untraced = median(&mut plain);
    o.metric("trace.timer_pair_ns", timer.pair_ns);
    o.metric("trace.overhead_ratio", med(&|t| t.wall_ns) / untraced);
    let in_layers =
        |t: &ReplayTrace| -> f64 { t.meters().iter().map(|m| m.corrected_ns(&timer)).sum() };
    let corrected = med(&|t| t.wall_ns - timer.overhead_ns(calls(t)));
    o.trace_sum_check(
        corrected / untraced,
        med(&|t| t.wall_ns - timer.overhead_ns(calls(t)) - in_layers(t)),
    );
}
