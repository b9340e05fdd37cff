//! Churn-certification throughput: drive the admission engine through
//! one deterministic request sequence under two certification modes
//! (uncached sequential, cached parallel fast path) and report
//! admissions/sec for each. Both modes must answer bit-identically —
//! speed without exactness is a violation.
//!
//! Usage: `throughput [--n N] [--ops N] [--seed S] [--workers W] [--check]
//! [--out-dir DIR]`
//! `--check` additionally requires the parallel mode to reach at least
//! the uncached sequential admissions/sec.
//! Exits 1 on any cross-mode mismatch (or a failed `--check`); also
//! writes `<out-dir>/metrics-throughput.json` (`dnc-metrics/v1`,
//! default `results/`).

use dnc_bench::throughput::{
    render_report, run_throughput, write_throughput_metrics_in, ThroughputConfig,
};

fn main() {
    let mut cfg = ThroughputConfig::default();
    let mut check = false;
    let mut out_dir = dnc_bench::results_dir();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let int = |i: usize, name: &str| -> u64 {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} needs an integer");
                    std::process::exit(dnc_bench::exit::USAGE);
                })
        };
        match args[i].as_str() {
            "--n" => {
                cfg.n = (int(i, "--n") as usize).max(2);
                i += 2;
            }
            "--ops" => {
                cfg.ops = int(i, "--ops") as usize;
                i += 2;
            }
            "--seed" => {
                cfg.seed = int(i, "--seed");
                i += 2;
            }
            "--workers" => {
                cfg.workers = (int(i, "--workers") as usize).max(1);
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--out-dir" => {
                out_dir = args
                    .get(i + 1)
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| {
                        eprintln!("--out-dir needs a path");
                        std::process::exit(dnc_bench::exit::USAGE);
                    });
                i += 2;
            }
            other => {
                eprintln!("unknown option {other}");
                eprintln!("usage: throughput [--n N] [--ops N] [--seed S] [--workers W] [--check] [--out-dir DIR]");
                std::process::exit(dnc_bench::exit::USAGE);
            }
        }
    }

    let report = run_throughput(&cfg);
    print!("{}", render_report(&report));
    match write_throughput_metrics_in(&out_dir, &report) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
    if !report.sound() {
        std::process::exit(dnc_bench::exit::VIOLATION);
    }
    if check && report.speedup() < 1.0 {
        eprintln!(
            "check failed: parallel fast path slower than uncached sequential ({:.2}x)",
            report.speedup()
        );
        std::process::exit(dnc_bench::exit::VIOLATION);
    }
}
