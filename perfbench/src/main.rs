//! The repository's benchmark: four workloads that time the simulator,
//! the serving daemon and the campaign runner end to end, and a traced
//! mode that splits each workload's time across the crates it calls.
//!
//! ```text
//! perfbench --workload <sim-easy|sim-cons|serve-mix|campaign|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, with `--trace 1` the per-layer
//! set (see `README.md` in this directory). The line before it records
//! provenance: git revision, core count, seed, and the per-layer metrics
//! the workload does not measure. The exit code is 0 only when every
//! output check passed and no operation failed.

mod alloc;
mod campaign;
mod serve;
mod sim;
mod stats;
mod trace;

use jobsched_json::Json;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The default seed, and the held-out seed kept for re-checking a claim
/// on inputs that were not used while the change was written.
const DEFAULT_SEED: u64 = 1999;
const HELD_OUT_SEED: u64 = 4242;

const WORKLOADS: [&str; 4] = ["sim-easy", "sim-cons", "serve-mix", "campaign"];

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("jobs_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported with tracing on. One a workload does not
/// measure reads 0 there and is named under `not_measured` in the
/// provenance line.
const PER_LAYER: [(&str, &str); 45] = [
    ("workload.pull_ns_per_job", "ns"),
    ("workload.gen_s", "s"),
    ("algos.select_ns_per_job", "ns"),
    ("algos.submit_ns_per_job", "ns"),
    ("algos.finish_ns_per_job", "ns"),
    ("algos.cancel_ns_per_job", "ns"),
    ("algos.select_calls_per_job", "count"),
    ("algos.select_useful_ratio", "ratio"),
    ("algos.queue_len_mean", "count"),
    ("algos.allocs_per_job", "count"),
    ("sim.self_ns_per_job", "ns"),
    ("sim.events_per_job", "count"),
    ("sim.rounds_per_job", "count"),
    ("sim.peak_queue", "count"),
    ("sim.peak_resident", "count"),
    ("sim.profile_len_mean", "count"),
    ("sim.metered_sched_ns_per_job", "ns"),
    ("sim.allocs_per_job", "count"),
    ("metrics.observe_ns_per_job", "ns"),
    ("metrics.allocs_per_job", "count"),
    ("json.decode_ns_per_req", "ns"),
    ("json.encode_ns_per_req", "ns"),
    ("json.allocs_per_req", "count"),
    ("serve.parse_ns_per_req", "ns"),
    ("serve.engine_submit_ns", "ns"),
    ("serve.engine_status_ns", "ns"),
    ("serve.engine_queue_ns", "ns"),
    ("serve.engine_advance_ns_per_job", "ns"),
    ("serve.wire_ns_per_req", "ns"),
    ("serve.submit_rps", "1/s"),
    ("serve.submit_p50_us", "us"),
    ("serve.status_p50_us", "us"),
    ("serve.status_p99_us", "us"),
    ("serve.advance_p50_us", "us"),
    ("sweep.cells", "count"),
    ("sweep.cells_simulated", "count"),
    ("sweep.cells_cached", "count"),
    ("sweep.workload_gen_s", "s"),
    ("sweep.report_s", "s"),
    ("sweep.campaign_s", "s"),
    ("sweep.warm_s", "s"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("trace.timer_pair_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.corrected_ratio", "ratio"),
];

/// How far the traced wall, less the calibrated timer cost, may stray
/// from the untraced wall before the trace is called inconsistent.
const TRACE_SUM_TOLERANCE: f64 = 0.25;

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    /// Record `trace.corrected_ratio` — the traced wall less the timer
    /// cost, over the untraced wall — and check that it, and the
    /// remainder attributed to the caller's own code, are sane.
    pub fn trace_sum_check(&mut self, corrected_ratio: f64, remainder_ns: f64) {
        self.metric("trace.corrected_ratio", corrected_ratio);
        if (corrected_ratio - 1.0).abs() > TRACE_SUM_TOLERANCE {
            self.fail(format!(
                "layer self times sum to {corrected_ratio:.3} of the untraced wall, \
                 outside 1 ± {TRACE_SUM_TOLERANCE}"
            ));
        }
        if remainder_ns < 0.0 {
            self.fail(format!(
                "negative self time {remainder_ns} ns after correction"
            ));
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median. The first
/// builds the inputs the run measures; the rest run after the measured
/// loop, so their garbage never counts toward `peak_rss_mib`.
pub const SETUP_REPS: usize = 7;

/// Run `f` once, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restart the peak-RSS count, so that `peak_rss_mib` covers what
/// follows — the measured loop — rather than set-up. Where the kernel
/// refuses the reset, the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The checked-out revision, read from `.git` without running git.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Ctx> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().ok()?,
            "--seconds" => ctx.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    (ctx.workload == "all" || WORKLOADS.contains(&ctx.workload.as_str())).then_some(ctx)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Run every workload, each in a process of its own so peak memory is
/// per workload, and fold their result lines into one.
fn run_all(ctx: &Ctx) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().last().map(str::to_string));
        let Some(Ok(result)) = line.as_deref().map(jobsched_json::parse) else {
            eprintln!("{w}: no result");
            correct = false;
            continue;
        };
        println!("{w}: {}", result.to_string_compact());
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(pairs)) = result.get("metrics") {
            metrics.extend(pairs.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some(ctx) = parse_args() else {
        return usage();
    };
    if ctx.workload == "all" {
        return run_all(&ctx);
    }
    let outcome = match ctx.workload.as_str() {
        "sim-easy" => sim::run_workload(sim::Variant::Easy, &ctx),
        "sim-cons" => sim::run_workload(sim::Variant::Cons, &ctx),
        "serve-mix" => serve::run_workload(&ctx),
        "campaign" => campaign::run_workload(&ctx),
        _ => unreachable!("parse_args checks the name"),
    };

    // Every metric of the selected set, in registry order.
    let registry: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut not_measured = Vec::new();
    let mut correct = outcome.errors.is_empty();
    if outcome.failed > 0 {
        eprintln!(
            "check failed: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        correct = false;
    }
    for &(name, unit) in registry {
        let found = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v);
        let value = match found {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                eprintln!("metric {name} is {v}");
                correct = false;
                0.0
            }
            None if ctx.trace => {
                not_measured.push(Json::Str(name.into()));
                0.0
            }
            None => {
                eprintln!("end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        metrics.push((name.to_string(), metric_json(value, unit)));
    }
    for (name, _) in &outcome.metrics {
        if !registry.iter().any(|&(n, _)| n == name) && !END_TO_END.iter().any(|&(n, _)| n == name)
        {
            eprintln!("unregistered metric {name}");
            correct = false;
        }
    }

    let provenance = Json::obj([
        ("git_rev", Json::Str(git_rev())),
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("seed", Json::UInt(ctx.seed)),
        ("held_out_seed", Json::UInt(HELD_OUT_SEED)),
        ("workload", Json::Str(ctx.workload.clone())),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("not_measured", Json::Arr(not_measured)),
    ]);
    println!(
        "{}",
        Json::obj([("provenance", provenance)]).to_string_compact()
    );
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
