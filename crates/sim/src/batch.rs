//! Parallel batch runs: sweep seeds or source-model assignments across
//! worker threads (`std::thread::scope` — the simulator itself is
//! single-threaded per run, runs are embarrassingly parallel).
//!
//! A panicking job (bad model assignment, engine assertion) is isolated:
//! it becomes a per-job [`Err`] in the returned vector instead of taking
//! the whole batch down with it.

use crate::engine::{simulate, SimConfig};
use crate::stats::SimReport;
use dnc_net::Network;
use dnc_traffic::SourceModel;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One job of a batch.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Source model per flow.
    pub models: Vec<SourceModel>,
    /// Run configuration.
    pub cfg: SimConfig,
}

/// What one job produced: a report, or the panic/failure message of the
/// job that died. Order matches the submitted jobs.
pub type JobResult = Result<SimReport, String>;

/// Run all jobs against `net`, at most `workers` at a time, preserving
/// job order in the result. A job that panics yields an `Err` carrying
/// the panic message; the remaining jobs still run to completion.
pub fn run_batch(net: &Network, jobs: &[BatchJob], workers: usize) -> Vec<JobResult> {
    let _span = dnc_telemetry::span("sim.batch");
    dnc_telemetry::counter("sim.batch.jobs", jobs.len() as u64);
    assert!(workers >= 1);
    let mut results: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);

    let scope_ok = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            for _ in 0..workers.min(jobs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        simulate(net, &jobs[i].models, &jobs[i].cfg)
                    }))
                    .map_err(|payload| panic_message(payload.as_ref()));
                    if outcome.is_err() {
                        dnc_telemetry::counter("sim.batch.failed_jobs", 1);
                    }
                    let mut slots = results_mutex
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    slots[i] = Some(outcome);
                });
            }
        })
    }))
    .is_ok();

    results
        .into_iter()
        .map(|r| match r {
            Some(outcome) => outcome,
            // Only reachable if a worker died outside the per-job guard
            // (scope_ok false) before claiming/finishing this slot.
            None if !scope_ok => Err("batch worker died before running this job".to_string()),
            None => Err("job was never scheduled".to_string()),
        })
        .collect()
}

/// Render a caught panic payload (`&str` or `String` from `panic!`,
/// `assert!`, …) as a message for the per-job error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Collapse a batch into its reports, or the first per-job error
/// (annotated with the job index) if any job failed.
pub fn collect_reports(results: Vec<JobResult>) -> Result<Vec<SimReport>, String> {
    let mut reports = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(report) => reports.push(report),
            Err(e) => return Err(format!("job {i}: {e}")),
        }
    }
    Ok(reports)
}

/// Convenience: the same model assignment across `seeds`, varying only
/// the RNG seed.
pub fn seed_sweep(
    net: &Network,
    models: &[SourceModel],
    base: &SimConfig,
    seeds: &[u64],
    workers: usize,
) -> Vec<JobResult> {
    let jobs: Vec<BatchJob> = seeds
        .iter()
        .map(|&seed| BatchJob {
            models: models.to_vec(),
            cfg: SimConfig {
                seed,
                ..base.clone()
            },
        })
        .collect();
    run_batch(net, &jobs, workers)
}

/// The worst delay of `flow` across a set of reports.
pub fn worst_delay(reports: &[SimReport], flow: usize) -> u64 {
    reports
        .iter()
        .map(|r| r.flows[flow].max_delay)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_net::builders;
    use dnc_num::{int, rat};

    #[test]
    fn batch_matches_sequential() {
        let t = builders::tandem(2, int(1), rat(1, 8), builders::TandemOptions::default());
        let models = vec![SourceModel::Bernoulli { num: 1, den: 3 }; t.net.flows().len()];
        let cfg = SimConfig {
            ticks: 512,
            ..SimConfig::default()
        };
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let par = collect_reports(seed_sweep(&t.net, &models, &cfg, &seeds, 4)).unwrap();
        let seq = collect_reports(seed_sweep(&t.net, &models, &cfg, &seeds, 1)).unwrap();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(seq.iter()) {
            for (x, y) in a.flows.iter().zip(b.flows.iter()) {
                assert_eq!(x.emitted, y.emitted);
                assert_eq!(x.max_delay, y.max_delay);
                assert_eq!(x.delivered, y.delivered);
            }
        }
    }

    #[test]
    fn worst_delay_across_seeds() {
        let t = builders::tandem(2, int(1), rat(3, 16), builders::TandemOptions::default());
        let models = vec![
            SourceModel::OnOff {
                on: 3,
                off: 5,
                phase: 0
            };
            t.net.flows().len()
        ];
        let cfg = SimConfig {
            ticks: 1024,
            ..SimConfig::default()
        };
        let reports = collect_reports(seed_sweep(&t.net, &models, &cfg, &[1, 2, 3], 3)).unwrap();
        let w = worst_delay(&reports, t.conn0.0);
        assert!(reports.iter().all(|r| r.flows[t.conn0.0].max_delay <= w));
    }

    #[test]
    fn panicking_job_fails_alone() {
        // Job 1 carries a model list of the wrong length, which trips the
        // engine's `models.len() == flows.len()` assertion. The batch must
        // surface that as a per-job error and still run jobs 0 and 2.
        let t = builders::tandem(2, int(1), rat(1, 8), builders::TandemOptions::default());
        let good = vec![SourceModel::Bernoulli { num: 1, den: 3 }; t.net.flows().len()];
        let cfg = SimConfig {
            ticks: 256,
            ..SimConfig::default()
        };
        let jobs = vec![
            BatchJob {
                models: good.clone(),
                cfg: cfg.clone(),
            },
            BatchJob {
                models: vec![SourceModel::Greedy],
                cfg: cfg.clone(),
            },
            BatchJob {
                models: good.clone(),
                cfg: cfg.clone(),
            },
        ];
        let results = run_batch(&t.net, &jobs, 2);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok(), "healthy job 0 must survive");
        assert!(results[2].is_ok(), "healthy job 2 must survive");
        let err = results[1].as_ref().unwrap_err();
        assert!(
            err.contains("panicked"),
            "job 1 should report the panic, got: {err}"
        );
        // And the aggregate view names the failing job.
        let agg = collect_reports(results).unwrap_err();
        assert!(agg.starts_with("job 1:"), "got: {agg}");
    }

    #[test]
    fn collect_reports_passes_clean_batches_through() {
        let t = builders::tandem(1, int(1), rat(1, 8), builders::TandemOptions::default());
        let models = vec![SourceModel::Greedy; t.net.flows().len()];
        let cfg = SimConfig {
            ticks: 128,
            ..SimConfig::default()
        };
        let results = seed_sweep(&t.net, &models, &cfg, &[1, 2], 2);
        let reports = collect_reports(results).expect("clean batch");
        assert_eq!(reports.len(), 2);
    }
}
