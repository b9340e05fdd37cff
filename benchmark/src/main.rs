//! The repository benchmark. One workload per run:
//!
//! ```text
//! dnc-benchmark --workload <paper-sweep|admit-tandem16>
//!               --seed <n> --seconds <s> --trace <0|1> [--dnc <path>]
//! ```
//!
//! It prints one human-readable line per check and metric, then, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed check exits 1. See `README.md` beside this
//! crate for the workloads and the metric map.

mod gen;
mod layers;
mod scratch;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Panics seen in this process (each caught panic prints once).
static PANICS: AtomicU64 = AtomicU64::new(0);
/// Caught panics by `file:line`.
static PANIC_SITES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Panics counted so far by the quiet hook installed in `main`.
pub fn panics() -> u64 {
    PANICS.load(Ordering::SeqCst)
}

/// `(site, count)` of every caught panic so far.
pub fn panic_sites() -> Vec<(String, u64)> {
    PANIC_SITES
        .lock()
        .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default()
}

/// Settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `dnc` binary (serve workloads).
    pub dnc: PathBuf,
    /// Where traces and per-run scratch directories go.
    pub out_dir: PathBuf,
    pub epoch: Instant,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations (the result line's `attempted`/`failed`).
    pub tally: stats::Tally,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Vec<Metric>,
    /// Reported beside the end-to-end metrics but not in the result
    /// line (see README.md).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }
}

fn usage() -> String {
    "usage: dnc-benchmark --workload <paper-sweep|admit-tandem16> \
     --seed <n> --seconds <s> --trace <0|1> [--dnc <path>] [--out <dir>]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dnc = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value\n{}", args[i], usage()))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or("--seconds must be in (0, 120]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--dnc" => dnc = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
        i += 2;
    }
    let workload = workload.ok_or_else(usage)?;
    if !["paper-sweep", "admit-tandem16"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        dnc: dnc.unwrap_or_else(|| PathBuf::from("target/release/dnc")),
        out_dir,
        epoch: Instant::now(),
    })
}

/// Write the run's spans to `<out>/traces/<workload>-seed<seed>.json`.
pub fn write_trace(ctx: &Ctx, tr: &trace::Tracer) -> Result<(), String> {
    let dir = ctx.out_dir.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
    std::fs::write(&path, tr.to_json(&ctx.workload, ctx.seed))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Count caught panics quietly instead of printing each one: the
    // overflow probe panics by design.
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        let at = info
            .location()
            .map_or("?".to_string(), |l| format!("{}:{}", l.file(), l.line()));
        if let Ok(mut sites) = PANIC_SITES.lock() {
            *sites.entry(at).or_insert(0) += 1;
        }
    }));

    let result = match ctx.workload.as_str() {
        "paper-sweep" => sweep::run(&ctx),
        _ => serve::run(&ctx),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };

    let mut correct = true;
    for (name, passed, detail) in &out.checks {
        correct &= *passed;
        println!(
            "check {name}: {} {detail}",
            if *passed { "ok" } else { "FAILED" }
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for m in out.e2e.iter().chain(&out.extra) {
        println!("{} {} = {} {}", ctx.workload, m.name, m.value, m.unit);
    }
    for m in &out.layers {
        println!("{} {} = {} {}", ctx.workload, m.name, m.value, m.unit);
    }
    if out.tally.attempted == 0 {
        eprintln!("{}: no operation was attempted", ctx.workload);
        std::process::exit(1);
    }
    let reported = if ctx.trace { &out.layers } else { &out.e2e };
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        eprintln!("{}: metric {} is not finite", ctx.workload, bad.name);
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted,
        out.tally.failed,
        json_metrics(reported)
    );
    if !correct {
        std::process::exit(1);
    }
}
