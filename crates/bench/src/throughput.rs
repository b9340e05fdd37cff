//! Throughput harness: admissions/sec of the churn engine across two
//! certification modes over one deterministic request sequence.
//!
//! The modes differ **only** in how the engine certifies — never in what
//! it answers:
//!
//! * `scratch-seq` — every certification uncached and sequential: the
//!   honest baseline.
//! * `parallel` — the fast path: pairing groups fanned out over
//!   `workers` scoped threads, certifying against one [`AnalysisCache`]
//!   that every request of the run reads and fills.
//!
//! Consecutive requests re-certify networks that differ by one flow, so
//! most pair bounds and local delays of a request were already memoized
//! by an earlier one. The run's `cache.hit` / `cache.miss` telemetry —
//! and the derived `cache.hit_rate` bench metric — measure that reuse.
//!
//! Every mode replays the *same* pre-drawn request list against the
//! same base network, and the harness fingerprints every response
//! (names, exact `Rat` bounds, deadlines) plus the final engine state
//! digest. Any cross-mode difference is a soundness violation, reported
//! in [`ThroughputReport::mismatches`] — speed is only meaningful if
//! the answers are bit-identical.
//!
//! A single pass of a small sequence lasts a few tens of milliseconds,
//! too short to rank the modes on a busy machine. The two modes' engines
//! therefore run in lockstep, each request timed on both back to back,
//! and the whole sequence is replayed [`REPS`] times from fresh engines
//! and a cold cache. Each mode reports its fastest pass: other load on
//! the machine only ever adds time, so the fastest pass is the one it
//! disturbed least. Every pass is fingerprinted against the baseline
//! like the first.

use crate::chaos::scenario_rng;
use crate::{paper_tandem, write_metrics_doc};
use dnc_core::cache::AnalysisCache;
use dnc_num::Rat;
use dnc_service::{AdmitRequest, ChurnEngine, EngineConfig, Request, Response};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Timed passes per mode; the reported wall time is their minimum.
pub const REPS: usize = 9;

/// How a run measures, recorded as the `throughput.method` knob so the
/// trajectory gate never compares numbers taken different ways.
pub const METHOD: &str = "lockstep-best-of-9";

/// Knobs of a throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Tandem size the engines run against.
    pub n: usize,
    /// Base work load `U` of the tandem.
    pub u: Rat,
    /// Requests in the churn sequence.
    pub ops: usize,
    /// Master seed: the request list is a pure function of it.
    pub seed: u64,
    /// Fan-out width for the `parallel` mode.
    pub workers: usize,
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            n: 10,
            u: Rat::new(6, 20),
            ops: 48,
            seed: 1,
            workers: 4,
        }
    }
}

/// One certification mode's measurement.
#[derive(Clone, Debug)]
pub struct ModeOutcome {
    /// Mode label (`scratch-seq`, `parallel`).
    pub label: &'static str,
    /// Committed operations (admits + releases).
    pub commits: u64,
    /// Rejections rolled back.
    pub rollbacks: u64,
    /// Wall time of the mode's fastest pass over the whole sequence,
    /// summed over its requests, in microseconds.
    pub wall_us: u64,
    /// Committed admissions+releases per second of that wall time.
    pub admissions_per_sec: f64,
}

/// A full throughput run: one outcome per mode plus every cross-mode
/// divergence found (empty = all modes answered identically).
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Configuration the run used.
    pub cfg: ThroughputConfig,
    /// One outcome per mode, baseline first.
    pub modes: Vec<ModeOutcome>,
    /// Responses or final states that differed from the baseline mode.
    pub mismatches: Vec<String>,
    /// Entries left in the last `parallel` pass's cache — nonzero
    /// whenever the workload memoized analyses.
    pub cache_entries: usize,
}

impl ThroughputReport {
    /// Look a mode up by label.
    pub fn mode(&self, label: &str) -> Option<&ModeOutcome> {
        self.modes.iter().find(|m| m.label == label)
    }

    /// True when every mode produced bit-identical responses and final
    /// engine state.
    pub fn sound(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Admissions/sec of the cached `parallel` fast path relative to the
    /// uncached sequential baseline (> 1.0 means the fast path is faster).
    pub fn speedup(&self) -> f64 {
        match (self.mode("parallel"), self.mode("scratch-seq")) {
            (Some(fast), Some(base)) if base.admissions_per_sec > 0.0 => {
                fast.admissions_per_sec / base.admissions_per_sec
            }
            _ => 0.0,
        }
    }
}

/// Draw the request sequence: a churn mix of admits (downstream tandem
/// spans, small buckets, moderately tight deadlines) and releases of
/// previously drawn names. The list is drawn once and replayed by every
/// mode, so generation cannot couple to engine behavior.
fn draw_requests(cfg: &ThroughputConfig) -> Vec<Request> {
    let mut rng: StdRng = scenario_rng(cfg.seed, 0);
    let mut reqs = Vec::with_capacity(cfg.ops);
    let mut assumed_live: Vec<String> = Vec::new();
    let mut next = 0usize;
    for _ in 0..cfg.ops {
        if assumed_live.is_empty() || rng.gen_ratio(3, 5) {
            next += 1;
            let name = format!("t{next}");
            // Short spans, as real connections have.
            let start = rng.gen_range(0..cfg.n);
            let len = rng.gen_range(1..=(cfg.n - start).min(3));
            reqs.push(Request::Admit(AdmitRequest {
                name: name.clone(),
                route: (start..start + len).map(dnc_net::ServerId).collect(),
                buckets: vec![(
                    Rat::from(rng.gen_range(1i64..=4)),
                    Rat::new(rng.gen_range(1i128..=3), 40),
                )],
                peak: None,
                priority: 1,
                deadline: Rat::from(rng.gen_range(4i64..=120)),
            }));
            assumed_live.push(name);
        } else {
            let k = rng.gen_range(0..assumed_live.len());
            reqs.push(Request::Release {
                name: assumed_live.remove(k),
            });
        }
    }
    reqs
}

/// A response's identity for cross-mode comparison: names, exact
/// rational bounds and deadlines — everything a client would act on.
fn fingerprint(resp: &Response) -> String {
    match resp {
        Response::Admitted {
            name,
            flow,
            bound,
            deadline,
            ..
        } => format!("admitted {name} {flow} bound {bound} deadline {deadline}"),
        Response::Rejected { name, .. } => format!("rejected {name}"),
        Response::Released { name } => format!("released {name}"),
        Response::ReleaseFailed { name, .. } => format!("release-failed {name}"),
        Response::Shed { name, .. } => format!("shed {name}"),
        Response::Queried { entries } => format!("queried {}", entries.len()),
    }
}

/// Labels of the two modes, baseline first.
const LABELS: [&str; 2] = ["scratch-seq", "parallel"];

/// One mode's engine within a pass, with what it answered and how long
/// it took.
struct Lane {
    engine: ChurnEngine,
    prints: Vec<String>,
    wall_us: u64,
}

/// One pass: a fresh engine per mode — the baseline uncached and
/// sequential, so its numbers stay an honest from-scratch measurement;
/// the fast path fanned out and certifying against a cold cache — both
/// driven through the request list in lockstep. Each request is timed
/// on both engines back to back, in alternating order, so a burst of
/// other load on the machine lands on both modes alike.
fn run_pass(cfg: &ThroughputConfig, reqs: &[Request], cache: &Arc<AnalysisCache>) -> [Lane; 2] {
    let engine_cfgs = [
        EngineConfig {
            workers: 1,
            cache: None,
            ..EngineConfig::default()
        },
        EngineConfig {
            workers: cfg.workers,
            cache: Some(Arc::clone(cache)),
            ..EngineConfig::default()
        },
    ];
    let mut lanes = engine_cfgs.map(|engine_cfg| Lane {
        engine: ChurnEngine::new(paper_tandem(cfg.n, cfg.u).net, Vec::new(), engine_cfg)
            .expect("base tandem is structurally valid"),
        prints: Vec::with_capacity(reqs.len()),
        wall_us: 0,
    });
    for (i, req) in reqs.iter().enumerate() {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for m in order {
            let lane = &mut lanes[m];
            let (resp, us) = crate::trajectory::time_micros(|| lane.engine.process(req.clone()));
            lane.wall_us += us;
            lane.prints.push(match resp {
                Ok(resp) => fingerprint(&resp),
                Err(e) => format!("engine-error {e}"),
            });
        }
    }
    lanes
}

/// Run both modes over one request list and cross-check them.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let _span = dnc_telemetry::span("throughput.run");
    let reqs = draw_requests(cfg);
    let mut best_us = [u64::MAX; 2];
    let mut mismatches = Vec::new();
    let mut baseline: Option<(Vec<String>, u64)> = None;
    let mut cache_entries = 0;
    let mut last = None;
    for rep in 0..REPS {
        let cache = Arc::new(AnalysisCache::new());
        let lanes = run_pass(cfg, &reqs, &cache);
        cache_entries = cache.len();
        for (m, lane) in lanes.iter().enumerate() {
            best_us[m] = best_us[m].min(lane.wall_us);
            let digest = lane.engine.state_digest();
            let label = LABELS[m];
            match &baseline {
                None => baseline = Some((lane.prints.clone(), digest)),
                Some((want_prints, want_digest)) => {
                    for (step, (got, want)) in lane.prints.iter().zip(want_prints).enumerate() {
                        if got != want {
                            mismatches.push(format!(
                                "{label} pass {rep} step {step}: {got:?} != baseline {want:?}"
                            ));
                        }
                    }
                    if digest != *want_digest {
                        mismatches.push(format!(
                            "{label} pass {rep}: final state digest {digest:#x} != baseline {want_digest:#x}"
                        ));
                    }
                }
            }
        }
        last = Some(lanes);
    }
    let lanes = last.expect("REPS is nonzero");
    let modes = LABELS
        .iter()
        .zip(best_us)
        .zip(&lanes)
        .map(|((&label, wall_us), lane)| {
            let stats = lane.engine.stats();
            let secs = wall_us.max(1) as f64 / 1_000_000.0;
            ModeOutcome {
                label,
                commits: stats.commits,
                rollbacks: stats.rollbacks,
                wall_us,
                admissions_per_sec: stats.commits as f64 / secs,
            }
        })
        .collect();
    ThroughputReport {
        cfg: cfg.clone(),
        modes,
        mismatches,
        cache_entries,
    }
}

/// The run as `dnc-metrics/v1` series: one row per mode.
pub fn throughput_series(report: &ThroughputReport) -> Vec<dnc_telemetry::export::Series> {
    use dnc_telemetry::export::{Cell, Series};
    use dnc_telemetry::schema::{self, ColumnMeta};
    const MODE: ColumnMeta = ColumnMeta {
        label: "mode",
        unit: "",
    };
    const COMMITS: ColumnMeta = ColumnMeta {
        label: "commits",
        unit: "",
    };
    const ROLLBACKS: ColumnMeta = ColumnMeta {
        label: "rollbacks",
        unit: "",
    };
    const WALL: ColumnMeta = ColumnMeta {
        label: "wall time",
        unit: "us",
    };
    const RATE: ColumnMeta = ColumnMeta {
        label: "admissions per second",
        unit: "1/s",
    };
    const MISMATCHES: ColumnMeta = ColumnMeta {
        label: "cross-mode mismatches",
        unit: "",
    };
    let mut s = Series::new(
        "throughput",
        vec![
            MODE,
            schema::NETWORK_SIZE,
            schema::WORK_LOAD,
            COMMITS,
            ROLLBACKS,
            WALL,
            RATE,
            MISMATCHES,
        ],
    );
    for m in &report.modes {
        s.push_row(vec![
            Cell::Text(m.label.to_string()),
            Cell::int(report.cfg.n as u64),
            Cell::Num(report.cfg.u.to_f64()),
            Cell::int(m.commits),
            Cell::int(m.rollbacks),
            Cell::int(m.wall_us),
            Cell::Num(m.admissions_per_sec),
            Cell::int(report.mismatches.len() as u64),
        ]);
    }
    vec![s]
}

/// Write `results/metrics-throughput.json`; returns the path written.
pub fn write_throughput_metrics(report: &ThroughputReport) -> std::io::Result<std::path::PathBuf> {
    write_metrics_doc("throughput", throughput_series(report))
}

/// Write `<dir>/metrics-throughput.json`; returns the path written.
pub fn write_throughput_metrics_in(
    dir: &std::path::Path,
    report: &ThroughputReport,
) -> std::io::Result<std::path::PathBuf> {
    crate::write_metrics_doc_in(dir, "throughput", throughput_series(report))
}

/// Render the run as a fixed-width text report.
pub fn render_report(report: &ThroughputReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "throughput: tandem n={} U={:.2}, {} ops, seed {}, {} workers, best of {REPS} passes",
        report.cfg.n,
        report.cfg.u.to_f64(),
        report.cfg.ops,
        report.cfg.seed,
        report.cfg.workers
    );
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>10} {:>12} {:>14}",
        "mode", "commits", "rollbacks", "wall_ms", "admits/sec"
    );
    for m in &report.modes {
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>10} {:>12.2} {:>14.1}",
            m.label,
            m.commits,
            m.rollbacks,
            m.wall_us as f64 / 1000.0,
            m.admissions_per_sec
        );
    }
    for m in &report.mismatches {
        let _ = writeln!(s, "MISMATCH: {m}");
    }
    if report.sound() {
        let _ = writeln!(
            s,
            "all modes bit-identical; parallel speedup over scratch-seq: {:.2}x",
            report.speedup()
        );
    } else {
        let _ = writeln!(s, "MISMATCHES: {}", report.mismatches.len());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_knob_names_the_pass_count() {
        assert_eq!(METHOD, format!("lockstep-best-of-{REPS}"));
    }

    fn small() -> ThroughputConfig {
        ThroughputConfig {
            n: 3,
            ops: 14,
            seed: 5,
            workers: 2,
            ..ThroughputConfig::default()
        }
    }

    #[test]
    fn all_modes_agree_and_commit() {
        let report = run_throughput(&small());
        assert!(report.sound(), "{}", render_report(&report));
        assert_eq!(report.modes.len(), 2);
        for m in &report.modes {
            assert!(m.commits > 0, "{} committed nothing", m.label);
        }
        assert!(
            report.cache_entries > 0,
            "the parallel mode's cache memoized nothing"
        );
        let (a, b) = (report.modes[0].commits, report.modes[1].commits);
        assert_eq!(a, b, "commit counts diverge");
    }

    #[test]
    fn request_list_is_deterministic() {
        let cfg = small();
        let a = draw_requests(&cfg);
        let b = draw_requests(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn series_validate_against_schema() {
        let report = run_throughput(&ThroughputConfig {
            n: 2,
            ops: 8,
            seed: 3,
            workers: 2,
            ..ThroughputConfig::default()
        });
        let mut doc = dnc_telemetry::export::MetricsDoc::new(
            "throughput-test",
            dnc_telemetry::Snapshot::default(),
        );
        doc.series = throughput_series(&report);
        let json = dnc_telemetry::export::metrics_json(&doc);
        dnc_telemetry::schema::validate_metrics(&json).unwrap();
        let text = render_report(&report);
        assert!(text.contains("scratch-seq"), "{text}");
    }
}
