//! Multi-seed replication: statistical stability of the evaluation.
//!
//! §6.2's consistency check and §7's caution against reading too much
//! into absolute numbers both call for replication: a single workload
//! realisation can favour one algorithm by luck. [`replicate`] takes one
//! evaluated table per generator seed and reports the mean and standard
//! deviation of each cell's percentage against the per-seed FCFS+EASY
//! reference — if an ordering claim survives the spread, it is a property
//! of the workload *model*, not of one sample. `repro replicate` computes
//! the per-seed tables as one sweep campaign.

use crate::experiment::EvalTable;
use jobsched_algos::AlgorithmSpec;
use jobsched_workload::stats::Summary;

/// Aggregated result of one matrix cell across seeds.
#[derive(Clone, Debug)]
pub struct ReplicatedCell {
    /// The configuration.
    pub spec: AlgorithmSpec,
    /// Mean percentage versus the per-seed reference.
    pub mean_pct: f64,
    /// Standard deviation of that percentage.
    pub std_pct: f64,
    /// Number of seeds.
    pub seeds: usize,
}

impl ReplicatedCell {
    /// Whether this cell is distinguishable from the reference at roughly
    /// two standard deviations.
    pub fn significant(&self) -> bool {
        self.mean_pct.abs() > 2.0 * self.std_pct.max(1e-9)
    }
}

/// Aggregate one table per seed into per-cell mean ± std of `pct`, in the
/// first table's cell order. Every table must carry the first table's
/// specs.
pub fn replicate(tables: &[EvalTable]) -> Vec<ReplicatedCell> {
    let first = tables.first().expect("need at least one seed");
    first
        .cells
        .iter()
        .map(|c| {
            let spec = c.spec();
            let mut s = Summary::new();
            for t in tables {
                s.push(t.cell(spec).expect("every seed has the same cells").pct);
            }
            ReplicatedCell {
                spec,
                mean_pct: s.mean(),
                std_pct: s.std_dev(),
                seeds: tables.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::evaluate_matrix;
    use crate::objective_select::ObjectiveKind;
    use jobsched_algos::spec::PolicyKind;
    use jobsched_algos::BackfillMode;
    use jobsched_workload::ctc::prepared_ctc_workload;

    fn tables(jobs: usize, seeds: &[u64]) -> Vec<EvalTable> {
        seeds
            .iter()
            .map(|&seed| {
                let w = prepared_ctc_workload(jobs, seed);
                evaluate_matrix(&w, ObjectiveKind::AvgResponseTime, "replicate")
            })
            .collect()
    }

    #[test]
    fn replication_aggregates_across_seeds() {
        let cells = replicate(&tables(600, &[1, 2, 3]));
        assert_eq!(cells.len(), 13);
        let reference = cells
            .iter()
            .find(|c| c.spec == AlgorithmSpec::reference())
            .unwrap();
        assert_eq!(reference.mean_pct, 0.0);
        assert_eq!(reference.std_pct, 0.0);
        assert!(cells.iter().all(|c| c.seeds == 3));
    }

    #[test]
    fn fcfs_plain_consistently_worst_across_seeds() {
        let cells = replicate(&tables(900, &[11, 12, 13]));
        let fcfs_plain = cells
            .iter()
            .find(|c| c.spec == AlgorithmSpec::new(PolicyKind::Fcfs, BackfillMode::None))
            .unwrap();
        // The headline claim must be a model property: large positive mean,
        // clear of the spread.
        assert!(fcfs_plain.mean_pct > 50.0, "mean {}", fcfs_plain.mean_pct);
        assert!(fcfs_plain.significant());
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let _ = replicate(&[]);
    }
}
