//! Command implementations. Every command produces its report as a
//! `String` so the whole CLI is testable without spawning processes.

use crate::parse::{parse_spec, BuiltNetwork};
use dnc_core::decomposed::{backlog_bounds, Decomposed};
use dnc_core::fifo_family::FifoFamily;
use dnc_core::integrated::Integrated;
use dnc_core::resilient::ResilientRunner;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::{AnalysisReport, DelayAnalysis, OutputCap};
use dnc_net::pairing::{partition, PairingStrategy};
use dnc_net::ServerId;
use dnc_num::Rat;
use dnc_sim::{all_greedy, simulate, SimConfig};
use dnc_telemetry::export::{write_metrics, write_trace, Cell, MetricsDoc, Series};
use dnc_telemetry::{schema, Snapshot, TraceEvent};
use dnc_traffic::SourceModel;
use std::fmt::Write as _;
use std::time::Instant;

/// CLI failure: a message and a suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

/// Exit code for a run that completed but found a bound violation.
/// (Single-sourced from the workspace exit-code table, `dnc_bench::exit`.)
pub const EXIT_VIOLATION: i32 = dnc_bench::exit::VIOLATION;
/// Exit code for usage/input errors.
pub const EXIT_USAGE: i32 = dnc_bench::exit::USAGE;
/// Exit code for "no valid bound within budget" (time-stopping
/// divergence or guard exhaustion after the full degradation chain).
pub const EXIT_NO_BOUND: i32 = dnc_bench::exit::NO_BOUND;
/// Exit code for a tripped perf-regression gate (`bench --gate`).
pub const EXIT_REGRESSION: i32 = dnc_bench::exit::REGRESSION;

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: EXIT_USAGE,
        }
    }
}

fn load(path: &str) -> Result<(BuiltNetwork, crate::parse::NetworkSpec), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let spec = parse_spec(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let built = spec
        .build()
        .map_err(|e| CliError::new(format!("{path}: {e}")))?;
    // Tolerate cyclic networks (the time-stopping analysis handles them);
    // reject only structural overload.
    match built.net.validate() {
        Ok(()) | Err(dnc_net::NetworkError::NotFeedforward) => {}
        Err(e) => return Err(CliError::new(format!("{path}: invalid network: {e}"))),
    }
    Ok((built, spec))
}

const USAGE: &str = "\
usage: dnc <command> <file.dnc> [options]

commands:
  check     structure report: topology, utilizations, integrated pairing
  analyze   end-to-end delay bounds   [--algo integrated|decomposed|service-curve|
                                       fifo-family|time-stopping|resilient|all]
                                      [--csv <path>] [--metrics <path>] [--trace <path>]
                                      [--workers N]
            `resilient` runs the guarded Integrated -> Decomposed -> Unbounded
            fallback chain; exit code 3 means no valid bound within budget;
            --workers N fans pairing groups over N threads (identical output)
  profile   run every applicable algorithm and compare cost vs tightness
            (incl. curve-cache hit rate) [--metrics <path>] [--trace <path>]
  backlog   per-server buffer bounds
  simulate  adversarial simulation    [--ticks N] [--seed S]
  chaos     randomized fault-injection soundness sweep (no file argument)
                                      [--scenarios N] [--seed S] [--ticks T]
                                      [--metrics <path>] [--scenario K]
            exit code 1 flags a simulated delay above a claimed bound;
            --scenario K replays scenario K of the seed alone, bit-exact
  churn     randomized online-admission soundness sweep (no file argument)
                                      [--seqs N] [--ops N] [--seed S]
                                      [--kill-points K] [--metrics <path>]
                                      [--seq I] [--workers N]
            every commit is independently re-certified and every journal
            is crash-recovered from K random truncation points; exit
            code 1 flags either falsifier firing; --seq I replays
            sequence I of the seed alone, bit-exact; --snapshot-every E
            compacts the journal and checks tail-only recovery instead
            of the raw truncation falsifier
  torture   disk-fault torture sweep (no file argument): enumerate every
            storage failpoint (journal append/fsync, snapshot publish,
            rotation), inject EIO/ENOSPC/short-write/crash at each, and
            verify fail-stop recovery — no acked op lost, no phantom op
            recovered, tail-only replay past the newest snapshot
                                      [--scenarios N] [--ops N] [--seed S]
                                      [--snapshot-every E] [--stride K]
                                      [--metrics <path>]
            exit code 1 flags any lost ack or recovery divergence
  bench     record one perf-trajectory run (no file argument): run the
            throughput, profile, chaos, and churn harnesses with pinned
            seeds, archive their raw metrics under results/runs/<sha>-<ts>/,
            and append one dnc-bench/v1 record each to BENCH_throughput.json
            and BENCH_churn.json     [--quick] [--seed S] [--out-dir DIR]
                                     [--gate] [--window K] [--threshold PCT]
                                     [--dashboard DIR]
            with --gate, exit code 4 flags a gated metric outside the
            noise band (median of the last K runs ± the threshold)
  tandem    emit the paper's tandem as a .dnc file: dnc tandem <n> <U>
  provision minimal GPS reservations meeting the declared deadlines
  serve     durable online admission   --script <requests> [--journal <wal>]
                                       [--queue N] [--workers N]
                                       [--snapshot-every N]
            processes scripted admit/release/query requests against the
            network file; certified commits are journaled before they are
            acknowledged, and an existing journal is recovered first
            (newest valid snapshot + tail replay); --snapshot-every N
            compacts the journal every N commits via an atomically
            published snapshot; a storage failure poisons the journal
            and the server fail-stops (terminal ERR, no ack)
            socket mode: --listen <addr> [--max-conns N] [--batch N]
                         [--drain-timeout SECS]
            serves the same request lines to concurrent TCP clients; up
            to --batch ops share one journal record and fsync (group
            commit) and are acknowledged only after it; a `shutdown`
            line drains the server (flush, fsync, exit 0)

exit codes (uniform across commands):
  0  success — rejections/sheds by `serve` are normal service answers
  1  violation — a simulated delay exceeded a claimed bound, or a
     durability falsifier fired (simulate, chaos, churn, torture)
  2  usage error — bad flags, unreadable files, malformed input
  3  no bound — the resilient chain ended at the explicit Unbounded tier
     (analyze --algo resilient/time-stopping)
  4  regression — a gated perf metric left the trajectory noise band
     (bench --gate)

`--metrics` writes a dnc-metrics/v1 JSON document; `--trace` writes Chrome
trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev).
Span/counter detail needs a build with `--features telemetry`.

`.dnc` format: see the dnc-cli crate documentation.";

/// Entry point: interpret `args` (without the program name).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| CliError::new(USAGE))?;
    match cmd.as_str() {
        "check" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            check(path)
        }
        "analyze" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            let mut algo = "all".to_string();
            let mut csv: Option<String> = None;
            let mut workers = 1usize;
            let mut sinks = ExportSinks::default();
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--algo" => {
                        algo = rest
                            .get(i + 1)
                            .ok_or_else(|| CliError::new("--algo needs a value"))?
                            .to_string();
                        i += 2;
                    }
                    "--csv" => {
                        csv = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::new("--csv needs a path"))?
                                .to_string(),
                        );
                        i += 2;
                    }
                    "--workers" => {
                        workers = rest
                            .get(i + 1)
                            .and_then(|v| v.parse::<usize>().ok())
                            .filter(|&w| w >= 1)
                            .ok_or_else(|| CliError::new("--workers needs a positive integer"))?;
                        i += 2;
                    }
                    other => i = sinks.parse_opt(&rest, i, other)?,
                }
            }
            analyze(path, &algo, csv.as_deref(), &sinks, workers)
        }
        "profile" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            let mut sinks = ExportSinks::default();
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let opt = rest[i].as_str();
                i = sinks.parse_opt(&rest, i, opt)?;
            }
            profile(path, &sinks)
        }
        "backlog" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            backlog(path)
        }
        "simulate" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            let mut ticks = 8192u64;
            let mut seed = 1u64;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--ticks" => {
                        ticks = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError::new("--ticks needs an integer"))?;
                        i += 2;
                    }
                    "--seed" => {
                        seed = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError::new("--seed needs an integer"))?;
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            simulate_cmd(path, ticks, seed)
        }
        "chaos" => {
            let mut cfg = dnc_bench::chaos::ChaosConfig::default();
            let mut metrics: Option<String> = None;
            let mut scenario: Option<usize> = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let int_value = |name: &str, i: usize| -> Result<u64, CliError> {
                    rest.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CliError::new(format!("{name} needs an integer")))
                };
                match rest[i].as_str() {
                    "--scenarios" => {
                        cfg.scenarios = int_value("--scenarios", i)? as usize;
                        i += 2;
                    }
                    "--seed" => {
                        cfg.seed = int_value("--seed", i)?;
                        i += 2;
                    }
                    "--ticks" => {
                        cfg.ticks = int_value("--ticks", i)?;
                        i += 2;
                    }
                    "--scenario" => {
                        scenario = Some(int_value("--scenario", i)? as usize);
                        i += 2;
                    }
                    "--metrics" => {
                        metrics = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::new("--metrics needs a path"))?
                                .to_string(),
                        );
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            match scenario {
                Some(id) => chaos_replay_cmd(&cfg, id),
                None => chaos_cmd(&cfg, metrics.as_deref()),
            }
        }
        "churn" => {
            let mut cfg = dnc_bench::churn::ChurnConfig::default();
            let mut metrics: Option<String> = None;
            let mut seq: Option<usize> = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let int_value = |name: &str, i: usize| -> Result<u64, CliError> {
                    rest.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CliError::new(format!("{name} needs an integer")))
                };
                match rest[i].as_str() {
                    "--seqs" => {
                        cfg.seqs = int_value("--seqs", i)? as usize;
                        i += 2;
                    }
                    "--ops" => {
                        cfg.ops = int_value("--ops", i)? as usize;
                        i += 2;
                    }
                    "--seed" => {
                        cfg.seed = int_value("--seed", i)?;
                        i += 2;
                    }
                    "--kill-points" => {
                        cfg.kill_points = int_value("--kill-points", i)? as usize;
                        i += 2;
                    }
                    "--snapshot-every" => {
                        cfg.snapshot_every = Some(int_value("--snapshot-every", i)?.max(1));
                        i += 2;
                    }
                    "--seq" => {
                        seq = Some(int_value("--seq", i)? as usize);
                        i += 2;
                    }
                    "--workers" => {
                        cfg.workers = (int_value("--workers", i)? as usize).max(1);
                        i += 2;
                    }
                    "--metrics" => {
                        metrics = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::new("--metrics needs a path"))?
                                .to_string(),
                        );
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            churn_cmd(&cfg, metrics.as_deref(), seq)
        }
        "torture" => {
            let mut cfg = dnc_bench::torture::TortureConfig::default();
            let mut metrics: Option<String> = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let int_value = |name: &str, i: usize| -> Result<u64, CliError> {
                    rest.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CliError::new(format!("{name} needs an integer")))
                };
                match rest[i].as_str() {
                    "--scenarios" => {
                        cfg.scenarios = int_value("--scenarios", i)? as usize;
                        i += 2;
                    }
                    "--ops" => {
                        cfg.ops = int_value("--ops", i)? as usize;
                        i += 2;
                    }
                    "--seed" => {
                        cfg.seed = int_value("--seed", i)?;
                        i += 2;
                    }
                    "--snapshot-every" => {
                        cfg.snapshot_every = int_value("--snapshot-every", i)?.max(1);
                        i += 2;
                    }
                    "--stride" => {
                        cfg.stride = (int_value("--stride", i)? as usize).max(1);
                        i += 2;
                    }
                    "--metrics" => {
                        metrics = Some(
                            rest.get(i + 1)
                                .ok_or_else(|| CliError::new("--metrics needs a path"))?
                                .to_string(),
                        );
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            torture_cmd(&cfg, metrics.as_deref())
        }
        "bench" => {
            let mut opts = dnc_bench::runner::BenchOptions::default();
            let mut gate_enforced = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let value = |name: &str, i: usize| -> Result<String, CliError> {
                    rest.get(i + 1)
                        .map(|v| v.to_string())
                        .ok_or_else(|| CliError::new(format!("{name} needs a value")))
                };
                match rest[i].as_str() {
                    "--quick" => {
                        opts.quick = true;
                        i += 1;
                    }
                    "--gate" => {
                        gate_enforced = true;
                        i += 1;
                    }
                    "--seed" => {
                        opts.seed = value("--seed", i)?
                            .parse()
                            .map_err(|_| CliError::new("--seed needs an integer"))?;
                        i += 2;
                    }
                    "--window" => {
                        opts.gate.window = value("--window", i)?
                            .parse()
                            .map_err(|_| CliError::new("--window needs an integer"))?;
                        i += 2;
                    }
                    "--threshold" => {
                        opts.gate.threshold_pct = value("--threshold", i)?
                            .parse()
                            .map_err(|_| CliError::new("--threshold needs an integer"))?;
                        i += 2;
                    }
                    "--out-dir" => {
                        opts.out_dir = std::path::PathBuf::from(value("--out-dir", i)?);
                        i += 2;
                    }
                    "--bench-dir" => {
                        opts.bench_dir = std::path::PathBuf::from(value("--bench-dir", i)?);
                        i += 2;
                    }
                    "--dashboard" => {
                        opts.dashboard = Some(std::path::PathBuf::from(value("--dashboard", i)?));
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            bench_cmd(&opts, gate_enforced)
        }
        "provision" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            provision(path)
        }
        "serve" => {
            let path = it.next().ok_or_else(|| CliError::new(USAGE))?;
            let mut script: Option<String> = None;
            let mut journal: Option<String> = None;
            let mut queue = 64usize;
            let mut workers = 1usize;
            let mut listen: Option<String> = None;
            let mut max_conns = 64usize;
            let mut batch = 8usize;
            let mut drain_timeout = 5u64;
            let mut snapshot_every: Option<u64> = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                let value = |name: &str, i: usize| -> Result<String, CliError> {
                    rest.get(i + 1)
                        .map(|v| v.to_string())
                        .ok_or_else(|| CliError::new(format!("{name} needs a value")))
                };
                match rest[i].as_str() {
                    "--script" => {
                        script = Some(value("--script", i)?);
                        i += 2;
                    }
                    "--journal" => {
                        journal = Some(value("--journal", i)?);
                        i += 2;
                    }
                    "--queue" => {
                        queue = value("--queue", i)?
                            .parse()
                            .map_err(|_| CliError::new("--queue needs an integer"))?;
                        i += 2;
                    }
                    "--workers" => {
                        workers = value("--workers", i)?
                            .parse::<usize>()
                            .ok()
                            .filter(|&w| w >= 1)
                            .ok_or_else(|| CliError::new("--workers needs a positive integer"))?;
                        i += 2;
                    }
                    "--listen" => {
                        listen = Some(value("--listen", i)?);
                        i += 2;
                    }
                    "--max-conns" => {
                        max_conns = value("--max-conns", i)?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| CliError::new("--max-conns needs a positive integer"))?;
                        i += 2;
                    }
                    "--batch" => {
                        batch = value("--batch", i)?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| CliError::new("--batch needs a positive integer"))?;
                        i += 2;
                    }
                    "--drain-timeout" => {
                        drain_timeout = value("--drain-timeout", i)?
                            .parse()
                            .map_err(|_| CliError::new("--drain-timeout needs seconds"))?;
                        i += 2;
                    }
                    "--snapshot-every" => {
                        snapshot_every = Some(
                            value("--snapshot-every", i)?
                                .parse::<u64>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| {
                                    CliError::new("--snapshot-every needs a positive integer")
                                })?,
                        );
                        i += 2;
                    }
                    other => return Err(CliError::new(format!("unknown option {other}"))),
                }
            }
            if snapshot_every.is_some() && journal.is_none() {
                return Err(CliError::new("--snapshot-every needs --journal <wal>"));
            }
            if script.is_none() && listen.is_none() {
                return Err(CliError::new(
                    "serve needs --script <requests> or --listen <addr>",
                ));
            }
            let (built, _) = load(path)?;
            let base_deadlines = built
                .deadlines
                .iter()
                .enumerate()
                .filter_map(|(i, d)| {
                    d.map(|deadline| dnc_core::admission::Deadline {
                        flow: dnc_net::FlowId(i),
                        deadline,
                    })
                })
                .collect();
            crate::serve::serve(
                &crate::serve::ServeOptions {
                    network: path.to_string(),
                    script,
                    journal,
                    queue,
                    workers,
                    listen,
                    max_conns,
                    batch,
                    drain_timeout,
                    snapshot_every,
                },
                built.net,
                base_deadlines,
            )
        }
        "tandem" => {
            let n: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CliError::new("usage: dnc tandem <n> <U>"))?;
            let u: Rat = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CliError::new("usage: dnc tandem <n> <U>"))?;
            tandem_file(n, u)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

fn algorithms(which: &str, workers: usize) -> Result<Vec<Box<dyn DelayAnalysis>>, CliError> {
    let one = |name: &str| -> Option<Box<dyn DelayAnalysis>> {
        match name {
            "integrated" => Some(Box::new(Integrated::paper().with_workers(workers))),
            "decomposed" => Some(Box::new(Decomposed::paper())),
            "service-curve" => Some(Box::new(ServiceCurve::paper())),
            "fifo-family" => Some(Box::new(FifoFamily::default())),
            _ => None,
        }
    };
    if which == "all" {
        Ok(vec![
            one("service-curve").unwrap(),
            one("decomposed").unwrap(),
            one("integrated").unwrap(),
        ])
    } else {
        one(which)
            .map(|a| vec![a])
            .ok_or_else(|| CliError::new(format!("unknown algorithm {which:?}")))
    }
}

/// Optional machine-readable outputs shared by `analyze` and `profile`.
#[derive(Default)]
struct ExportSinks {
    metrics: Option<String>,
    trace: Option<String>,
}

impl ExportSinks {
    /// Consume `--metrics <path>` / `--trace <path>` at position `i`;
    /// returns the next position or an error for an unknown option.
    fn parse_opt(&mut self, rest: &[&String], i: usize, opt: &str) -> Result<usize, CliError> {
        let value = |name: &str| {
            rest.get(i + 1)
                .map(|v| v.to_string())
                .ok_or_else(|| CliError::new(format!("{name} needs a path")))
        };
        match opt {
            "--metrics" => {
                self.metrics = Some(value("--metrics")?);
                Ok(i + 2)
            }
            "--trace" => {
                self.trace = Some(value("--trace")?);
                Ok(i + 2)
            }
            other => Err(CliError::new(format!("unknown option {other}"))),
        }
    }

    fn any(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// Write whichever outputs were requested, appending a `wrote <path>`
    /// line per file to `out`.
    fn write(
        &self,
        doc: &MetricsDoc,
        events: &[TraceEvent],
        out: &mut String,
    ) -> Result<(), CliError> {
        if let Some(p) = &self.metrics {
            write_metrics(doc, std::path::Path::new(p))
                .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
            let _ = writeln!(out, "wrote {p}");
        }
        if let Some(p) = &self.trace {
            write_trace(events, std::path::Path::new(p))
                .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
            let _ = writeln!(out, "wrote {p}");
        }
        Ok(())
    }
}

/// Fold one algorithm run's snapshot into `into`, prefixing every
/// span/counter/histogram name with `prefix/` so runs stay separable.
fn merge_namespaced(prefix: &str, snap: Snapshot, into: &mut Snapshot) {
    for (k, v) in snap.spans {
        into.spans.insert(format!("{prefix}/{k}"), v);
    }
    for (k, v) in snap.counters {
        into.counters.insert(format!("{prefix}/{k}"), v);
    }
    for (k, v) in snap.histograms {
        into.histograms.insert(format!("{prefix}/{k}"), v);
    }
}

/// One algorithm's row in the profile report.
struct ProfileRow {
    name: &'static str,
    /// Worst end-to-end bound across flows (`None` when the run failed).
    bound: Option<Rat>,
    wall_us: u64,
    conv_calls: u64,
    hdev_calls: u64,
    /// Curve/aggregate cache hits (`cache.hit` counter).
    cache_hits: u64,
    /// Total cache lookups (hits + misses); 0 = the run never consulted
    /// a cache, rendered as "-".
    cache_lookups: u64,
    notes: String,
}

/// Hit fraction of the curve/aggregate caches during one profiled run.
const CACHE_HIT_RATE: dnc_telemetry::schema::ColumnMeta = dnc_telemetry::schema::ColumnMeta {
    label: "cache hit rate",
    unit: "",
};

/// One profiled analysis run: the report plus a free-form notes string.
type ProfileRun<'a> = dyn Fn(&dnc_net::Network) -> Result<(AnalysisReport, String), String> + 'a;

/// Run every applicable algorithm on `path`, reporting tightness (worst
/// end-to-end bound) against cost (wall time, curve-operation counts).
fn profile(path: &str, sinks: &ExportSinks) -> Result<String, CliError> {
    let (built, _) = load(path)?;
    let net = &built.net;
    let cyclic = net.topological_order().is_err();

    let mut rows: Vec<ProfileRow> = Vec::new();
    let mut merged = Snapshot::default();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut bounds_series = Series::new(
        "profile.bounds",
        vec![schema::LABEL, schema::bound_column()],
    );

    let mut run_one = |name: &'static str, run: &ProfileRun<'_>| {
        dnc_telemetry::reset();
        // audit: allow(det-wall-clock, profile wall-time column is reporting-side by design and never feeds the Rat analysis)
        let t0 = Instant::now();
        let outcome = run(net);
        let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let snap = dnc_telemetry::snapshot();
        events.extend(dnc_telemetry::take_trace());
        let conv_calls = snap.span_count("curve.conv");
        let hdev_calls = snap.span_count("curve.hdev") + snap.span_count("curve.hdev_general");
        let cache_hits = snap.counter_value("cache.hit");
        let cache_lookups = cache_hits + snap.counter_value("cache.miss");
        let (bound, notes) = match outcome {
            Ok((report, mut notes)) => {
                let worst = report.flows.iter().map(|f| f.e2e).max();
                for f in &report.flows {
                    bounds_series.push_row(vec![
                        Cell::Text(format!("{name}/{}", f.name)),
                        Cell::Num(f.e2e.to_f64()),
                    ]);
                }
                let pairs = snap.counter_value("net.pairing.pairs");
                if pairs > 0 {
                    if !notes.is_empty() {
                        notes.push(' ');
                    }
                    let _ = write!(notes, "pairs={pairs}");
                }
                (worst, notes)
            }
            Err(e) => (None, format!("failed: {e}")),
        };
        merge_namespaced(name, snap, &mut merged);
        rows.push(ProfileRow {
            name,
            bound,
            wall_us,
            conv_calls,
            hdev_calls,
            cache_hits,
            cache_lookups,
            notes,
        });
    };

    if cyclic {
        run_one("time-stopping", &|net| {
            let r = dnc_core::cyclic::TimeStopping::default()
                .analyze(net)
                .map_err(|e| e.to_string())?;
            let iters = r.iterations;
            match r.into_bounds() {
                Some(report) => Ok((report, format!("iters={iters}"))),
                None => Err(format!("did not converge after {iters} iterations")),
            }
        });
    } else {
        for alg in algorithms("all", 1)? {
            let name = alg.name();
            if name == "integrated" {
                // Profile the cached path so the hit-rate column reflects
                // what analyze/serve/churn actually run.
                run_one(name, &|net| {
                    let cache = dnc_core::cache::AnalysisCache::new();
                    Integrated::paper()
                        .analyze_with(net, Some(&cache))
                        .map(|r| (r, String::new()))
                        .map_err(|e| e.to_string())
                });
            } else {
                run_one(name, &|net| {
                    alg.analyze(net)
                        .map(|r| (r, String::new()))
                        .map_err(|e| e.to_string())
                });
            }
        }
    }

    // Tightness is relative to the best (smallest) worst-case bound.
    let best = rows.iter().filter_map(|r| r.bound).min();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {path}: {} servers, {} flows{}",
        net.servers().len(),
        net.flows().len(),
        if cyclic { " (cyclic)" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>8} {:>10} {:>7} {:>7} {:>6}  notes",
        "algorithm", "worst bound", "vs best", "wall", "conv", "hdev", "hit%"
    );
    let mut algo_series = Series::new(
        "profile.algorithms",
        vec![
            schema::LABEL,
            schema::bound_column(),
            schema::REL_IMPROVEMENT,
            schema::WALL_TIME,
            CACHE_HIT_RATE,
        ],
    );
    for r in &rows {
        let ratio = match (r.bound, best) {
            (Some(b), Some(best)) if best.is_positive() => Some(b / best),
            _ => None,
        };
        let ratio_text = match (r.bound, ratio) {
            (Some(_), Some(q)) => format!("{:.2}x", q.to_f64()),
            (Some(_), None) => "1.00x".to_string(), // every bound is zero
            (None, _) => "-".to_string(),
        };
        // With telemetry compiled out (or a cache-free algorithm) there
        // are no lookups at all — show "-" rather than a fake 0%.
        let hit_rate = (r.cache_lookups > 0).then(|| r.cache_hits as f64 / r.cache_lookups as f64); // audit: allow(float, display-only hit rate; never feeds back into the analysis)
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>8} {:>10} {:>7} {:>7} {:>6}  {}",
            r.name,
            r.bound
                .map_or("-".to_string(), |b| format!("{:.4}", b.to_f64())),
            ratio_text,
            format!("{}µs", r.wall_us),
            r.conv_calls,
            r.hdev_calls,
            hit_rate.map_or("-".to_string(), |h| format!("{:.0}%", 100.0 * h)),
            r.notes
        );
        algo_series.push_row(vec![
            Cell::Text(r.name.to_string()),
            r.bound.map_or(Cell::Null, |b| Cell::Num(b.to_f64())),
            ratio.map_or(Cell::Null, |q| Cell::Num(q.to_f64())),
            Cell::int(r.wall_us),
            hit_rate.map_or(Cell::Null, Cell::Num),
        ]);
    }
    if !dnc_telemetry::enabled() {
        let _ = writeln!(
            out,
            "note: span/counter detail is zero — rebuild with `--features telemetry`"
        );
    }

    if sinks.any() {
        let mut doc = MetricsDoc::new("profile", merged)
            .with_meta("scenario", path)
            .with_meta("servers", net.servers().len().to_string())
            .with_meta("flows", net.flows().len().to_string())
            .with_meta(
                "telemetry",
                if dnc_telemetry::enabled() {
                    "on"
                } else {
                    "off"
                },
            );
        doc.series.push(algo_series);
        doc.series.push(bounds_series);
        sinks.write(&doc, &events, &mut out)?;
    }
    Ok(out)
}

fn check(path: &str) -> Result<String, CliError> {
    let (built, _) = load(path)?;
    let net = &built.net;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} servers, {} flows",
        path,
        net.servers().len(),
        net.flows().len()
    );
    let cyclic = match net.topological_order() {
        Ok(order) => {
            let names: Vec<&str> = order.iter().map(|&s| net.server(s).name.as_str()).collect();
            let _ = writeln!(out, "topological order: {}", names.join(" -> "));
            false
        }
        Err(_) => {
            let _ = writeln!(
                out,
                "topology: CYCLIC (feedforward algorithms unavailable; use time-stopping)"
            );
            true
        }
    };
    let _ = writeln!(out, "servers:");
    for (i, s) in net.servers().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} rate {:<6} {:<5} load {:<8} util {:.3}",
            s.name,
            s.rate.to_string(),
            match s.discipline {
                dnc_net::Discipline::Fifo => "fifo",
                dnc_net::Discipline::StaticPriority => "sp",
                dnc_net::Discipline::Gps => "gps",
                dnc_net::Discipline::Edf => "edf",
            },
            net.load(ServerId(i)).to_string(),
            net.utilization(ServerId(i)).to_f64()
        );
    }
    if !cyclic {
        let part = partition(net, PairingStrategy::GreedyChain).expect("feedforward");
        let _ = writeln!(out, "integrated pairing ({} pairs):", part.pair_count());
        for g in &part.groups {
            let names: Vec<&str> = g
                .servers()
                .iter()
                .map(|&s| net.server(s).name.as_str())
                .collect();
            let _ = writeln!(out, "  {}", names.join(" + "));
        }
    }
    Ok(out)
}

fn format_report(out: &mut String, report: &AnalysisReport, deadlines: &[Option<Rat>]) {
    let _ = writeln!(out, "[{}]", report.algorithm);
    for (i, f) in report.flows.iter().enumerate() {
        let verdict = match deadlines.get(i).copied().flatten() {
            Some(d) if f.e2e <= d => "  MEETS",
            Some(_) => "  MISSES",
            None => "",
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>12} = {:>10.4} ticks{}",
            f.name,
            f.e2e.to_string(),
            f.e2e.to_f64(),
            verdict
        );
    }
}

fn analyze(
    path: &str,
    which: &str,
    csv: Option<&str>,
    sinks: &ExportSinks,
    workers: usize,
) -> Result<String, CliError> {
    let (built, _) = load(path)?;
    if sinks.any() {
        dnc_telemetry::reset();
    }
    let mut out = String::new();
    let mut csv_rows = String::from("algorithm,flow,name,bound,bound_f64\n");
    let mut bounds_series = Series::new(
        "analyze.bounds",
        vec![schema::LABEL, schema::bound_column()],
    );
    let record = |report: &AnalysisReport, csv_rows: &mut String, bounds_series: &mut Series| {
        for line in report.to_csv().lines().skip(1) {
            csv_rows.push_str(report.algorithm);
            csv_rows.push(',');
            csv_rows.push_str(line);
            csv_rows.push('\n');
        }
        for f in &report.flows {
            bounds_series.push_row(vec![
                Cell::Text(format!("{}/{}", report.algorithm, f.name)),
                Cell::Num(f.e2e.to_f64()),
            ]);
        }
    };
    let finish =
        |mut out: String, csv_rows: String, bounds_series: Series| -> Result<String, CliError> {
            if let Some(p) = csv {
                std::fs::write(p, &csv_rows)
                    .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
                let _ = writeln!(out, "wrote {p}");
            }
            if sinks.any() {
                let mut doc = MetricsDoc::new("analyze", dnc_telemetry::snapshot())
                    .with_meta("scenario", path)
                    .with_meta("algo", which);
                doc.series.push(bounds_series);
                sinks.write(&doc, &dnc_telemetry::take_trace(), &mut out)?;
            }
            Ok(out)
        };
    let cyclic = built.net.topological_order().is_err();
    if which == "resilient" || which == "time-stopping" || (cyclic && which == "all") {
        let runner = ResilientRunner {
            workers,
            ..ResilientRunner::default()
        };
        let r = runner.analyze(&built.net);
        match r.bounds() {
            Some(report) => {
                let _ = writeln!(
                    out,
                    "# resilient: answered at tier {} ({})",
                    r.tier(),
                    r.chain_summary()
                );
                format_report(&mut out, report, &built.deadlines);
                record(report, &mut csv_rows, &mut bounds_series);
                return finish(out, csv_rows, bounds_series);
            }
            None => {
                // Divergence / budget exhaustion gets its own exit code so
                // scripts can tell "no valid bound" from usage errors.
                return Err(CliError {
                    message: format!(
                        "no valid bound within budget; degradation chain: {}",
                        r.chain_summary()
                    ),
                    code: EXIT_NO_BOUND,
                });
            }
        }
    }
    if cyclic {
        return Err(CliError::new(
            "network is cyclic: only `--algo time-stopping` (or `resilient`) applies",
        ));
    }
    for alg in algorithms(which, workers)? {
        match alg.analyze(&built.net) {
            Ok(report) => {
                format_report(&mut out, &report, &built.deadlines);
                record(&report, &mut csv_rows, &mut bounds_series);
            }
            Err(e) => {
                let _ = writeln!(out, "[{}] failed: {e}", alg.name());
            }
        }
    }
    finish(out, csv_rows, bounds_series)
}

fn backlog(path: &str) -> Result<String, CliError> {
    let (built, _) = load(path)?;
    let bounds = backlog_bounds(&built.net, OutputCap::Shift)
        .map_err(|e| CliError::new(format!("analysis failed: {e}")))?;
    let mut out = String::from("worst-case buffer requirements (cells):\n");
    for (i, s) in built.net.servers().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} {:>10} = {:>9.3}",
            s.name,
            bounds[i].to_string(),
            bounds[i].to_f64()
        );
    }
    Ok(out)
}

fn simulate_cmd(path: &str, ticks: u64, seed: u64) -> Result<String, CliError> {
    let (built, _) = load(path)?;
    let net = &built.net;
    let cfg = SimConfig {
        ticks,
        seed,
        ..SimConfig::default()
    };
    let greedy = simulate(net, &all_greedy(net), &cfg);
    // A second, randomized workload for contrast.
    let onoff = vec![
        SourceModel::OnOff {
            on: 8,
            off: 8,
            phase: 3,
        };
        net.flows().len()
    ];
    let random = simulate(net, &onoff, &cfg);
    let bound = Integrated::paper()
        .analyze(net)
        .map_err(|e| CliError::new(format!("analysis failed: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>9} {:>12}",
        "flow", "greedy", "on-off", "bound", "verdict"
    );
    let mut violations = 0;
    for (i, f) in net.flows().iter().enumerate() {
        let worst = greedy.flows[i].max_delay.max(random.flows[i].max_delay);
        let b = bound.flows[i].e2e;
        let ok = Rat::from(worst as i64) <= b;
        if !ok {
            violations += 1;
        }
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>9.3} {:>12}",
            f.name,
            greedy.flows[i].max_delay,
            random.flows[i].max_delay,
            b.to_f64(),
            if ok { "ok" } else { "VIOLATION" }
        );
    }
    if violations > 0 {
        return Err(CliError {
            message: format!("{out}\n{violations} bound violation(s)"),
            code: EXIT_VIOLATION,
        });
    }
    Ok(out)
}

/// Run the chaos soundness harness: randomized fault scenarios through
/// the simulator and the guarded analysis chain. Any simulated delay
/// above a bound still claimed valid for the degraded capacity is a
/// soundness violation (exit code [`EXIT_VIOLATION`]).
fn chaos_cmd(
    cfg: &dnc_bench::chaos::ChaosConfig,
    metrics: Option<&str>,
) -> Result<String, CliError> {
    let report = dnc_bench::chaos::run_chaos(cfg);
    let mut out = dnc_bench::chaos::render_report(&report);
    if let Some(p) = metrics {
        let mut doc = MetricsDoc::new("chaos", dnc_telemetry::snapshot());
        doc.series = dnc_bench::chaos::chaos_series(&report);
        write_metrics(&doc, std::path::Path::new(p))
            .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
        let _ = writeln!(out, "wrote {p}");
    }
    if report.violation_count() > 0 {
        Err(CliError {
            message: out,
            code: EXIT_VIOLATION,
        })
    } else {
        Ok(out)
    }
}

/// Replay scenario `id` of a chaos run alone (`--scenario`): identical
/// draws to the full sweep, same exit-code contract.
fn chaos_replay_cmd(cfg: &dnc_bench::chaos::ChaosConfig, id: usize) -> Result<String, CliError> {
    let outcome = dnc_bench::chaos::replay_scenario(cfg, id);
    let out = dnc_bench::chaos::render_scenario(cfg, &outcome);
    if outcome.violations.is_empty() {
        Ok(out)
    } else {
        Err(CliError {
            message: out,
            code: EXIT_VIOLATION,
        })
    }
}

/// Run the churn soundness harness (or replay one sequence with
/// `--seq`): randomized admit/release mixes through the durable
/// engine, independently re-certified after every commit and
/// crash-recovered from random journal truncation points. Either
/// falsifier firing is exit code [`EXIT_VIOLATION`].
fn churn_cmd(
    cfg: &dnc_bench::churn::ChurnConfig,
    metrics: Option<&str>,
    seq: Option<usize>,
) -> Result<String, CliError> {
    let report = match seq {
        Some(id) => dnc_bench::churn::ChurnReport {
            cfg: cfg.clone(),
            outcomes: vec![dnc_bench::churn::replay_sequence(cfg, id)],
        },
        None => dnc_bench::churn::run_churn(cfg),
    };
    let mut out = dnc_bench::churn::render_report(&report);
    if let Some(p) = metrics {
        let mut doc = MetricsDoc::new("churn", dnc_telemetry::snapshot());
        doc.series = dnc_bench::churn::churn_series(&report);
        write_metrics(&doc, std::path::Path::new(p))
            .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
        let _ = writeln!(out, "wrote {p}");
    }
    if report.sound() {
        Ok(out)
    } else {
        Err(CliError {
            message: out,
            code: EXIT_VIOLATION,
        })
    }
}

/// Run the disk-fault torture sweep: enumerate every storage failpoint
/// (journal append/fsync, snapshot publish, rotation), inject each
/// fault kind at each site, and verify fail-stop recovery — no acked
/// op lost, no phantom op recovered, tail-only replay past the newest
/// snapshot. Any falsifier hit is exit code [`EXIT_VIOLATION`].
fn torture_cmd(
    cfg: &dnc_bench::torture::TortureConfig,
    metrics: Option<&str>,
) -> Result<String, CliError> {
    let report = dnc_bench::torture::run_torture(cfg);
    let mut out = dnc_bench::torture::render_report(&report);
    if let Some(p) = metrics {
        let mut doc = MetricsDoc::new("torture", dnc_telemetry::snapshot());
        doc.series = dnc_bench::torture::torture_series(&report);
        write_metrics(&doc, std::path::Path::new(p))
            .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
        let _ = writeln!(out, "wrote {p}");
    }
    if report.sound() {
        Ok(out)
    } else {
        Err(CliError {
            message: out,
            code: EXIT_VIOLATION,
        })
    }
}

/// `dnc bench`: record one perf-trajectory run through
/// [`dnc_bench::runner::run_bench`], then map the outcome onto the
/// unified exit table: harness soundness failures exit 1, a tripped
/// gate (only when `--gate` was passed) exits 4.
fn bench_cmd(
    opts: &dnc_bench::runner::BenchOptions,
    gate_enforced: bool,
) -> Result<String, CliError> {
    let summary =
        dnc_bench::runner::run_bench(opts).map_err(|e| CliError::new(format!("bench: {e}")))?;
    let mut out = summary.text.clone();
    if !summary.sound() {
        let _ = writeln!(out, "bench: harness soundness failure");
        return Err(CliError {
            message: out,
            code: EXIT_VIOLATION,
        });
    }
    if gate_enforced && summary.regressed() {
        let _ = writeln!(out, "bench: regression gate tripped");
        return Err(CliError {
            message: out,
            code: EXIT_REGRESSION,
        });
    }
    Ok(out)
}

/// For every flow with a deadline that crosses GPS servers, find the
/// minimal uniform reservation (on a 1/64 grid) that certifies the
/// deadline, allocating flows greedily in declaration order.
fn provision(path: &str) -> Result<String, CliError> {
    use dnc_net::Discipline;
    let (built, spec) = load(path)?;
    let mut net = built.net.clone();
    let mut gps_flows: Vec<usize> = (0..net.flows().len())
        .filter(|&i| {
            built.deadlines[i].is_some()
                && net.flows()[i]
                    .route
                    .iter()
                    .any(|&s| net.server(s).discipline == Discipline::Gps)
        })
        .collect();
    // Allocate the tightest deadlines first so loose flows cannot starve
    // urgent ones.
    gps_flows.sort_by_key(|&i| built.deadlines[i].expect("filtered"));
    if gps_flows.is_empty() {
        return Err(CliError::new(
            "provision: no flow has both a deadline and a GPS hop",
        ));
    }

    let analyzer = Decomposed::paper();
    let mut out = String::from(
        "minimal GPS reservations meeting the deadlines (1/64 grid):
",
    );
    for &i in &gps_flows {
        let f = dnc_net::FlowId(i);
        let deadline = built.deadlines[i].expect("filtered");
        let gps_hops: Vec<dnc_net::ServerId> = net.flows()[i]
            .route
            .iter()
            .copied()
            .filter(|&s| net.server(s).discipline == Discipline::Gps)
            .collect();
        // Sustained rate is the floor; search upward on the grid.
        let floor = net.flows()[i].spec.sustained_rate();
        let mut chosen: Option<Rat> = None;
        for k in 1..=256u32 {
            let r = floor + Rat::new(k as i128, 64);
            let mut trial = net.clone();
            for &s in &gps_hops {
                trial.reserve(f, s, r);
            }
            if trial.validate().is_err() {
                break; // ran out of capacity
            }
            if let Ok(rep) = analyzer.analyze(&trial) {
                if rep.bound(f) <= deadline {
                    chosen = Some(r);
                    net = trial;
                    break;
                }
            }
        }
        let name = &spec.flows[i].name;
        match chosen {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  {:<14} reserve {:>8}  (deadline {}, bound {:.3})",
                    name,
                    r.to_string(),
                    deadline,
                    analyzer.analyze(&net).unwrap().bound(f).to_f64()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<14} INFEASIBLE within remaining capacity (deadline {deadline})",
                    name
                );
            }
        }
    }
    Ok(out)
}

/// Emit the paper's `n`-switch tandem at work load `U` as a `.dnc`
/// document (σ = 1, ρ = U/4, unit links, unit peaks).
pub(crate) fn tandem_file(n: usize, u: Rat) -> Result<String, CliError> {
    if n == 0 {
        return Err(CliError::new("tandem: n must be at least 1"));
    }
    if !u.is_positive() || u >= Rat::ONE {
        return Err(CliError::new("tandem: U must be in (0, 1)"));
    }
    let rho = u / Rat::from(4);
    let mut out = format!("# ICPP'99 evaluation tandem: n = {n}, U = {u} (rho = {rho})\n");
    for j in 0..n {
        let _ = writeln!(out, "server L{j} rate 1 fifo");
    }
    let route: Vec<String> = (0..n).map(|j| format!("L{j}")).collect();
    let _ = writeln!(
        out,
        "flow conn0 route {} bucket 1 {rho} peak 1 prio 1",
        route.join(" ")
    );
    for j in 0..n {
        let _ = writeln!(out, "flow upper{j} route L{j} bucket 1 {rho} peak 1");
        if j + 1 < n {
            let _ = writeln!(
                out,
                "flow lower{j} route L{j} L{} bucket 1 {rho} peak 1",
                j + 1
            );
        } else {
            let _ = writeln!(out, "flow lower{j} route L{j} bucket 1 {rho} peak 1");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_service::{scratch_dir, ScratchDir};

    /// The sample network, written into a fresh scratch directory that
    /// lives as long as the returned guard.
    fn sample_file() -> (ScratchDir, std::path::PathBuf) {
        let dir = scratch_dir("cli_test").unwrap();
        let path = dir.join("sample.dnc");
        std::fs::write(
            &path,
            "\
server L0 rate 1 fifo
server L1 rate 1 fifo
flow conn0 route L0 L1 bucket 1 1/8 peak 1 deadline 10
flow upper0 route L0 bucket 1 1/8 peak 1
flow upper1 route L1 bucket 1 1/8 peak 1
",
        )
        .unwrap();
        (dir, path)
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn check_reports_structure() {
        let (_dir, p) = sample_file();
        let out = run(&args(&["check", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 servers, 3 flows"));
        assert!(out.contains("topological order: L0 -> L1"));
        assert!(out.contains("integrated pairing (1 pairs)"));
    }

    #[test]
    fn analyze_all_algorithms() {
        let (_dir, p) = sample_file();
        let out = run(&args(&["analyze", p.to_str().unwrap(), "--algo", "all"])).unwrap();
        assert!(out.contains("[decomposed]"));
        assert!(out.contains("[integrated]"));
        assert!(out.contains("[service-curve]"));
        assert!(out.contains("conn0"));
        assert!(out.contains("MEETS") || out.contains("MISSES"));
    }

    #[test]
    fn analyze_csv_output() {
        let (_dir, p) = sample_file();
        let dir = p.parent().unwrap().to_path_buf();
        let csv_path = dir.join("out.csv");
        let out = run(&args(&[
            "analyze",
            p.to_str().unwrap(),
            "--algo",
            "integrated",
            "--csv",
            csv_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("algorithm,flow,name,bound,bound_f64"));
        assert!(csv.contains("integrated,0,conn0,"));
        assert_eq!(csv.lines().count(), 4, "header + three flows");
    }

    #[test]
    fn chaos_smoke_reports_soundness_and_writes_metrics() {
        let (_dir, p) = sample_file();
        let metrics = p.parent().unwrap().join("chaos-metrics.json");
        let out = run(&args(&[
            "chaos",
            "--scenarios",
            "3",
            "--seed",
            "5",
            "--ticks",
            "256",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("3 scenarios, seed 5, 256 ticks"), "{out}");
        assert!(out.contains("no soundness violations"), "{out}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        schema::validate_metrics(&json).unwrap();
        assert!(json.contains("\"chaos\""));
    }

    #[test]
    fn chaos_scenario_replay_is_exit_clean_and_detailed() {
        let out = run(&args(&[
            "chaos",
            "--scenarios",
            "4",
            "--seed",
            "11",
            "--ticks",
            "256",
            "--scenario",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("chaos replay: scenario 2 of seed 11"), "{out}");
        assert!(
            out.contains("no soundness violations") || out.contains("VIOLATION"),
            "{out}"
        );
    }

    #[test]
    fn churn_smoke_is_sound_and_writes_metrics() {
        let dir = scratch_dir("cli_churn").unwrap();
        let metrics = dir.join("churn-metrics.json");
        let out = run(&args(&[
            "churn",
            "--seqs",
            "2",
            "--ops",
            "10",
            "--seed",
            "5",
            "--kill-points",
            "3",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("2 sequences"), "{out}");
        assert!(
            out.contains("no certification or recovery violations"),
            "{out}"
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        dnc_telemetry::schema::validate_metrics(&json).unwrap();
        assert!(json.contains("\"churn\""));
        // Replay of one sequence alone is also exit-clean.
        let out = run(&args(&[
            "churn",
            "--seqs",
            "2",
            "--ops",
            "10",
            "--seed",
            "5",
            "--kill-points",
            "3",
            "--seq",
            "1",
        ]))
        .unwrap();
        assert!(
            out.contains("no certification or recovery violations"),
            "{out}"
        );
    }

    fn write_script(dir: &ScratchDir, name: &str, text: &str) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn serve_admits_releases_and_queries() {
        let (dir, p) = sample_file();
        let script = write_script(
            &dir,
            "serve-roundtrip.txt",
            "\
# one connection in, inspected, then out again
admit a route L0 L1 bucket 1 1/8 deadline 40
query
release a
query
",
        );
        let out = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("ADMIT   a: certified"), "{out}");
        assert!(out.contains("QUERY   1 admitted"), "{out}");
        assert!(out.contains("RELEASE a: ok"), "{out}");
        assert!(out.contains("QUERY   0 admitted"), "{out}");
        assert!(out.contains("2 commit(s)"), "{out}");
    }

    #[test]
    fn serve_rejects_an_impossible_deadline() {
        let (dir, p) = sample_file();
        let script = write_script(
            &dir,
            "serve-reject.txt",
            "admit hopeless route L0 L1 bucket 1 1/8 deadline 1/1000\n",
        );
        let out = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("REJECT  hopeless:"), "{out}");
        assert!(out.contains("1 rollback(s)"), "{out}");
        assert!(out.contains("0 connection(s) admitted"), "{out}");
    }

    #[test]
    fn serve_recovers_committed_state_from_the_journal() {
        let (dir, p) = sample_file();
        let journal = dir.join("serve-recovery.wal");
        let first = write_script(
            &dir,
            "serve-recovery-1.txt",
            "admit durable route L0 L1 bucket 1 1/8 deadline 40\n",
        );
        let out = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            first.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("ADMIT   durable"), "{out}");

        let second = write_script(&dir, "serve-recovery-2.txt", "query\n");
        let out = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            second.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("recovery: replayed 1 committed operation(s), 1 connection(s) live"),
            "{out}"
        );
        assert!(out.contains("QUERY   1 admitted"), "{out}");
        assert!(out.contains("durable"), "{out}");
    }

    #[test]
    fn serve_sheds_under_overload() {
        let (dir, p) = sample_file();
        let script = write_script(
            &dir,
            "serve-shed.txt",
            "\
admit a route L0 L1 bucket 1 1/8 deadline 50
admit b route L0 L1 bucket 1 1/8 deadline 30
admit c route L0 L1 bucket 1 1/8 deadline 90
",
        );
        let out = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
            "--queue",
            "1",
        ]))
        .unwrap();
        // Capacity 1: `b` (tighter) displaces `a`; `c` (loosest) is shed
        // outright; only `b` reaches certification.
        assert!(
            out.contains("SHED    a: displaced by a tighter-deadline admit"),
            "{out}"
        );
        assert!(
            out.contains("SHED    c: queue full; deadline looser than all queued admits"),
            "{out}"
        );
        assert!(out.contains("ADMIT   b: certified"), "{out}");
        assert!(out.contains("2 shed(s)"), "{out}");
    }

    #[test]
    fn serve_usage_errors_exit_2() {
        let (dir, p) = sample_file();
        // No --script at all.
        let err = run(&args(&["serve", p.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        // A script line the grammar rejects.
        let script = write_script(&dir, "serve-bad.txt", "admit x route L0 bucket 1 1/8\n");
        let err = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("deadline"), "{}", err.message);
        // An unknown server name.
        let script = write_script(
            &dir,
            "serve-bad-server.txt",
            "admit x route L9 bucket 1 1/8 deadline 5\n",
        );
        let err = run(&args(&[
            "serve",
            p.to_str().unwrap(),
            "--script",
            script.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("unknown server"), "{}", err.message);
    }

    #[test]
    fn chaos_rejects_bad_options() {
        let err = run(&args(&["chaos", "--scenarios", "not-a-number"])).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        let err = run(&args(&["chaos", "--bogus"])).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
    }

    #[test]
    fn analyze_single_algorithm() {
        let (_dir, p) = sample_file();
        let out = run(&args(&[
            "analyze",
            p.to_str().unwrap(),
            "--algo",
            "integrated",
        ]))
        .unwrap();
        assert!(out.contains("[integrated]"));
        assert!(!out.contains("[decomposed]"));
    }

    #[test]
    fn backlog_lists_every_server() {
        let (_dir, p) = sample_file();
        let out = run(&args(&["backlog", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("L0"));
        assert!(out.contains("L1"));
    }

    #[test]
    fn simulate_reports_ok() {
        let (_dir, p) = sample_file();
        let out = run(&args(&[
            "simulate",
            p.to_str().unwrap(),
            "--ticks",
            "2048",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("conn0"));
        assert!(out.contains("ok"));
        assert!(!out.contains("VIOLATION"));
    }

    #[test]
    fn bad_inputs_fail_cleanly() {
        assert!(run(&args(&["analyze", "/nonexistent.dnc"])).is_err());
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
        let (_dir, p) = sample_file();
        assert!(run(&args(&["analyze", p.to_str().unwrap(), "--algo", "magic"])).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("usage: dnc"));
    }

    fn ring_file() -> (ScratchDir, std::path::PathBuf) {
        let dir = scratch_dir("cli_ring").unwrap();
        let path = dir.join("ring.dnc");
        std::fs::write(
            &path,
            "\
server r0 rate 1
server r1 rate 1
server r2 rate 1
flow f0 route r0 r1 bucket 1 1/8 peak 1
flow f1 route r1 r2 bucket 1 1/8 peak 1
flow f2 route r2 r0 bucket 1 1/8 peak 1
",
        )
        .unwrap();
        (dir, path)
    }

    #[test]
    fn cyclic_file_is_checked_and_analyzed() {
        let (_dir, p) = ring_file();
        let out = run(&args(&["check", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("CYCLIC"));
        // `analyze` with the default routes through the resilient chain,
        // which answers via time-stopping at the decomposed tier.
        let out = run(&args(&["analyze", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("[time-stopping]"));
        assert!(out.contains("answered at tier decomposed"), "{out}");
        assert!(out.contains("integrated: inapplicable"), "{out}");
        // Feedforward-only algorithms are refused with a clear message.
        let err = run(&args(&[
            "analyze",
            p.to_str().unwrap(),
            "--algo",
            "integrated",
        ]))
        .unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn resilient_algo_on_feedforward_reports_tier() {
        let (_dir, p) = sample_file();
        let out = run(&args(&[
            "analyze",
            p.to_str().unwrap(),
            "--algo",
            "resilient",
        ]))
        .unwrap();
        assert!(out.contains("answered at tier integrated"), "{out}");
        assert!(out.contains("[integrated]"), "{out}");
    }

    #[test]
    fn diverging_ring_exits_with_no_bound_code() {
        // 5-ring with full-circumference flows past the time-stopping
        // amplification threshold: the chain must end at the explicit
        // Unbounded tier with its dedicated exit code.
        let dir = scratch_dir("cli_heavy").unwrap();
        let path = dir.join("heavy-ring.dnc");
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!("server r{i} rate 1\n"));
        }
        for k in 0..5u32 {
            let route: Vec<String> = (0..5).map(|j| format!("r{}", (k + j) % 5)).collect();
            text.push_str(&format!(
                "flow f{k} route {} bucket 2 3/20\n",
                route.join(" ")
            ));
        }
        std::fs::write(&path, text).unwrap();
        let err = run(&args(&["analyze", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, EXIT_NO_BOUND);
        assert!(err.message.contains("no valid bound"), "{}", err.message);
        assert!(err.message.contains("decomposed"), "{}", err.message);
    }

    #[test]
    fn provision_allocates_reservations() {
        let dir = scratch_dir("cli_prov").unwrap();
        let path = dir.join("prov.dnc");
        std::fs::write(
            &path,
            "\
server core rate 2 gps
flow video route core bucket 8 1/8 peak 1 deadline 20
flow voice route core bucket 1 1/16 peak 1 deadline 8
",
        )
        .unwrap();
        let out = run(&args(&["provision", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("video"));
        assert!(out.contains("voice"));
        assert!(out.contains("reserve"), "at least one allocation: {out}");
        assert!(!out.contains("INFEASIBLE"), "both must fit: {out}");
        // A FIFO-only file is rejected with a clear message.
        let fifo = dir.join("fifo.dnc");
        std::fs::write(
            &fifo,
            "server a rate 1\nflow f route a bucket 1 1/8 deadline 5\n",
        )
        .unwrap();
        assert!(run(&args(&["provision", fifo.to_str().unwrap()])).is_err());
    }

    #[test]
    fn tandem_generator_round_trips() {
        // Generate the paper tandem, parse it back, and verify it matches
        // the builder exactly (same bounds).
        use dnc_net::builders::{tandem, TandemOptions};
        let text = run(&args(&["tandem", "4", "3/5"])).unwrap();
        let spec = crate::parse::parse_spec(&text).unwrap();
        let built = spec.build().unwrap();
        built.net.validate().unwrap();
        let t = tandem(4, Rat::ONE, Rat::new(3, 20), TandemOptions::default());
        let from_file = Integrated::paper().analyze(&built.net).unwrap();
        let from_builder = Integrated::paper().analyze(&t.net).unwrap();
        let conn0 = spec.flow_id("conn0").unwrap();
        assert_eq!(from_file.bound(conn0), from_builder.bound(t.conn0));
    }

    #[test]
    fn profile_compares_all_algorithms() {
        let (_dir, p) = sample_file();
        let out = run(&args(&["profile", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("service-curve"));
        assert!(out.contains("decomposed"));
        assert!(out.contains("integrated"));
        assert!(out.contains("vs best"));
        // Exactly one algorithm is the 1.00x baseline (or all tie).
        assert!(out.contains("1.00x"), "{out}");
    }

    #[test]
    fn profile_cyclic_uses_time_stopping() {
        let (_dir, p) = ring_file();
        let out = run(&args(&["profile", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("(cyclic)"));
        assert!(out.contains("time-stopping"));
        assert!(out.contains("iters="), "{out}");
    }

    #[test]
    fn profile_writes_valid_metrics_and_trace() {
        let (_dir, p) = sample_file();
        let dir = p.parent().unwrap().to_path_buf();
        let metrics = dir.join("profile-metrics.json");
        let trace = dir.join("profile-trace.json");
        let out = run(&args(&[
            "profile",
            p.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out.matches("wrote ").count(), 2, "{out}");
        let mjson = std::fs::read_to_string(&metrics).unwrap();
        dnc_telemetry::schema::validate_metrics(&mjson).unwrap();
        assert!(mjson.contains("\"profile.algorithms\""));
        assert!(mjson.contains("integrated"));
        let tjson = std::fs::read_to_string(&trace).unwrap();
        dnc_telemetry::schema::validate_trace(&tjson).unwrap();
        if dnc_telemetry::enabled() {
            assert!(mjson.contains("integrated/algo.integrated"));
            assert!(tjson.contains("algo.decomposed"));
        }
    }

    #[test]
    fn analyze_metrics_flag_writes_valid_json() {
        let (_dir, p) = sample_file();
        let dir = p.parent().unwrap().to_path_buf();
        let metrics = dir.join("analyze-metrics.json");
        run(&args(&[
            "analyze",
            p.to_str().unwrap(),
            "--algo",
            "integrated",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let mjson = std::fs::read_to_string(&metrics).unwrap();
        dnc_telemetry::schema::validate_metrics(&mjson).unwrap();
        assert!(mjson.contains("integrated/conn0"));
    }

    #[test]
    fn profile_rejects_unknown_option() {
        let (_dir, p) = sample_file();
        assert!(run(&args(&["profile", p.to_str().unwrap(), "--bogus"])).is_err());
        assert!(run(&args(&["profile", p.to_str().unwrap(), "--metrics"])).is_err());
    }

    #[test]
    fn tandem_generator_rejects_bad_params() {
        assert!(run(&args(&["tandem", "0", "1/2"])).is_err());
        assert!(run(&args(&["tandem", "4", "1"])).is_err());
        assert!(run(&args(&["tandem", "4"])).is_err());
    }
}
