//! `campaign`: the cached campaign runner, cold and warm.
//!
//! A pass runs `Campaign::preempt_smoke` (16 cells: the DFRS and
//! moldable rows of the time-shared engine beside the rigid FCFS and
//! FCFS+EASY baselines, on a CTC and a probabilistic trace) at quick
//! scale for each of `SEEDS` seeds derived from the run's seed, through
//! `run_campaign` with 2 worker threads — cold into a fresh cache
//! directory, then warm against the same directory. One quick-scale
//! trace is small, so its cost swings with its backlog; spreading a
//! pass over many seeds keeps the content of one run close to that of
//! another. Passes repeat until the run's time is used up.
//!
//! Outside the timed region: the warm pass must serve every cell from
//! the cache with records equal to the cold pass's, every cold pass
//! must equal the first, and `atlas::check_clean` must pass on every
//! campaign.

use crate::stats::median;
use crate::trace::{Meter, Timer};
use crate::{Ctx, Outcome};
use jobsched_core::experiment::Scale;
use jobsched_sweep::atlas::{build_report, check_clean};
use jobsched_sweep::{run_campaign, Campaign, CampaignOutcome, RunRecord, SweepOptions};
use jobsched_workload::rng::derive_seed;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const THREADS: usize = 2;
/// Workload seeds per pass.
const SEEDS: u64 = 48;
/// Scratch directory for the result caches, relative to the working
/// directory; removed when the run ends.
const WORK_DIR: &str = ".perfbench-work";
/// Set-up repetitions: building the definitions takes tens of
/// microseconds, so `setup_s` is the median of many.
const SETUP_REPS: usize = 101;

fn campaigns(seed: u64) -> Vec<(Scale, Campaign)> {
    (0..SEEDS)
        .map(|k| {
            let scale = Scale {
                seed: derive_seed(seed, k),
                ..Scale::quick()
            };
            (scale, Campaign::preempt_smoke(scale))
        })
        .collect()
}

/// Seconds one pass spends in `WorkloadSpec::generate`: `run_campaign`
/// generates each campaign's distinct workloads inside the timed pass,
/// so this re-generates them outside it, for the per-layer split only.
fn workload_gen_s(cs: &[(Scale, Campaign)]) -> f64 {
    let mut gen = Meter::default();
    for (_, c) in cs {
        for spec in c.distinct_workloads() {
            std::hint::black_box(gen.time(|| spec.generate()));
        }
    }
    gen.ns as f64 / 1e9
}

fn run_all(cs: &[(Scale, Campaign)], dir: &Path) -> std::io::Result<Vec<CampaignOutcome>> {
    let opts = SweepOptions {
        jobs: THREADS,
        out: Some(dir.to_path_buf()),
        resume: true,
        progress: false,
    };
    cs.iter().map(|(_, c)| run_campaign(c, &opts)).collect()
}

fn records(outs: &[CampaignOutcome]) -> impl Iterator<Item = &RunRecord> {
    outs.iter().flat_map(|o| o.records.iter())
}

fn same_records(a: &[CampaignOutcome], b: &[CampaignOutcome]) -> bool {
    records(a).count() == records(b).count()
        && records(a)
            .zip(records(b))
            .all(|(x, y)| x.deterministically_eq(y))
}

/// One cold + warm pass.
struct Pass {
    cold_s: f64,
    warm_s: f64,
    cold: Vec<CampaignOutcome>,
    warm: Vec<CampaignOutcome>,
}

pub fn run_workload(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let root = PathBuf::from(WORK_DIR).join(std::process::id().to_string());

    // Set-up is the campaign definitions; everything else a pass needs,
    // workload generation included, happens inside `run_campaign`.
    let (cs, first_setup) = crate::timed(|| campaigns(ctx.seed));
    let cells = cs.iter().map(|(_, c)| c.cells.len()).sum::<usize>();

    crate::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || Instant::now() < deadline {
        let dir = root.join(format!("pass{}", passes.len()));
        let t0 = Instant::now();
        let cold = run_all(&cs, &dir);
        let cold_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let warm = run_all(&cs, &dir);
        let warm_s = t1.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        o.attempted += 2 * cells as u64;
        let (cold, warm) = match (cold, warm) {
            (Ok(c), Ok(w)) => (c, w),
            (c, w) => {
                o.failed += 2 * cells as u64;
                o.fail(format!("campaign failed: {:?} / {:?}", c.err(), w.err()));
                break;
            }
        };
        o.failed += cells.saturating_sub(records(&cold).count()) as u64;
        // A warm cell that was re-simulated missed the cache: a failure.
        o.failed += cells.saturating_sub(records(&warm).count()) as u64
            + warm.iter().map(|w| w.simulated as u64).sum::<u64>();
        passes.push(Pass {
            cold_s,
            warm_s,
            cold,
            warm,
        });
    }
    let peak_rss = crate::peak_rss_mib();
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        setups.push(crate::timed(|| campaigns(ctx.seed)).1);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(WORK_DIR); // only when no other run uses it
    if passes.is_empty() {
        return o;
    }

    // Output checks.
    let first = &passes[0];
    for (k, p) in passes.iter().enumerate() {
        if !same_records(&p.warm, &p.cold) {
            o.fail(format!("pass {k}: warm records differ from cold records"));
        }
        if !same_records(&p.cold, &first.cold) {
            o.fail(format!("pass {k}: cold records differ from pass 0"));
        }
        let cached: usize = p.warm.iter().map(|w| w.cached).sum();
        if cached != cells {
            o.fail(format!(
                "pass {k}: warm pass served {cached} of {cells} cells from cache"
            ));
        }
    }
    let t0 = Instant::now();
    for ((scale, c), out) in cs.iter().zip(&first.cold) {
        let report = build_report(c, out, *scale, true);
        if let Err(e) = check_clean(c, out, &report) {
            o.fail(format!(
                "{} (seed {}): check_clean: {e}",
                c.name, scale.seed
            ));
        }
    }
    let report_s = t0.elapsed().as_secs_f64();

    let jobs: u64 = records(&first.cold).map(|r| r.jobs).sum();
    let mut rates: Vec<f64> = passes.iter().map(|p| jobs as f64 / p.cold_s).collect();
    let mut cell_p50s: Vec<f64> = passes
        .iter()
        .map(|p| {
            let mut us: Vec<f64> = records(&p.cold).map(|r| r.wall_ns as f64 / 1e3).collect();
            median(&mut us)
        })
        .collect();
    let mut colds: Vec<f64> = passes.iter().map(|p| p.cold_s).collect();
    let mut warms: Vec<f64> = passes.iter().map(|p| p.warm_s).collect();
    eprintln!(
        "campaign: {} passes of {cells} cells ({jobs} simulated jobs), cold {colds:?} s, warm {warms:?} s",
        passes.len()
    );
    o.metric("setup_s", median(&mut setups));
    o.metric("jobs_per_s", median(&mut rates));
    o.metric("op_p50_us", median(&mut cell_p50s));
    o.metric("peak_rss_mib", peak_rss);

    if ctx.trace {
        let simulated: usize = first.cold.iter().map(|c| c.simulated).sum();
        let cached: usize = first.warm.iter().map(|c| c.cached).sum();
        let mut gens: Vec<f64> = (0..crate::SETUP_REPS).map(|_| workload_gen_s(&cs)).collect();
        o.metric("sweep.cells", cells as f64);
        o.metric("sweep.cells_simulated", simulated as f64);
        o.metric("sweep.cells_cached", cached as f64);
        o.metric("sweep.workload_gen_s", median(&mut gens));
        o.metric("sweep.report_s", report_s);
        o.metric("sweep.campaign_s", median(&mut colds));
        o.metric("sweep.warm_s", median(&mut warms));
        o.metric("sweep.cache_hit_ratio", cached as f64 / cells as f64);
        o.metric("trace.timer_pair_ns", Timer::calibrate().pair_ns);
    }
    o
}
