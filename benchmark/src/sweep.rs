//! `paper-sweep`: the paper's evaluation grid, in-process and
//! single-threaded. Tandems n ∈ {4, 8, 12, 16, 20} × U = k/20
//! (k = 1..19) × {Decomposed, Service Curve, Integrated}: 285 analyses a
//! pass, in a seeded order, with repeated passes reusing every curve.
//!
//! Checks: every exact bound digests to [`EXPECTED_DIGEST`], every pass
//! reproduces the first pass's bounds, and Integrated ≤ Decomposed for
//! every connection at every grid point. An untimed probe then runs
//! n ∈ {24, 28, 32} once and counts the analyses that fail.

use crate::gen::Rng;
use crate::layers::{self, Algo, LayerReport, ALGOS};
use crate::stats::{median_of, spread, Samples, Tally};
use crate::trace::Tracer;
use crate::{metric, Ctx, Outcome};
use dnc_cli::parse::parse_spec;
use dnc_net::Network;
use dnc_num::Rat;
use std::time::Instant;

const NS: [usize; 5] = [4, 8, 12, 16, 20];
const PROBE_NS: [usize; 3] = [24, 28, 32];
const KS: std::ops::RangeInclusive<usize> = 1..=19;
/// Passes per run, at least (one full triple; see `run`).
const MIN_PASSES: usize = 3;
/// Set-up repetitions before the first pass (one more follows each pass);
/// `setup_s` is the median of them all.
const SETUP_REPS: usize = 25;

/// FNV-1a over every exact bound of the grid, in grid order (see
/// [`digest`]). Recorded from the tree this benchmark was written on;
/// any change to a bound changes it.
pub const EXPECTED_DIGEST: u64 = 0xf1da_3b8b_f83e_a3be;

/// The `.dnc` text of the paper's tandem, from `dnc tandem <n> <k>/20`.
fn tandem_text(n: usize, k: usize) -> Result<String, String> {
    let args = ["tandem".to_string(), n.to_string(), format!("{k}/20")];
    dnc_cli::commands::run(&args).map_err(|e| format!("dnc tandem {n} {k}/20: {}", e.message))
}

fn build(text: &str) -> Result<Network, String> {
    let spec = parse_spec(text).map_err(|e| e.to_string())?;
    Ok(spec.build()?.net)
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of `bounds` (per grid op, in grid order).
pub fn digest(grid: &[(usize, usize)], bounds: &[Vec<Rat>]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for (op, b) in bounds.iter().enumerate() {
        let (n, k) = grid[op / ALGOS.len()];
        let algo = ALGOS[op % ALGOS.len()];
        let line: Vec<String> = b.iter().map(Rat::to_string).collect();
        fnv1a(
            &mut h,
            format!("{n} {k}/20 {} {}\n", algo.label(), line.join(" ")).as_bytes(),
        );
    }
    h
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.epoch);
    let panics_before = crate::panics();

    let grid: Vec<(usize, usize)> = NS.iter().flat_map(|&n| KS.map(move |k| (n, k))).collect();
    let texts = grid
        .iter()
        .map(|&(n, k)| tandem_text(n, k))
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up: parse + build every grid text, several times before the
    // first pass and once more after every pass, so that `setup_s`, their
    // median, does not hang on the machine's state at one moment.
    let build_all = |setup: &mut Vec<f64>| -> Result<Vec<Network>, String> {
        let t0 = Instant::now();
        let nets = texts.iter().map(|t| build(t)).collect::<Result<_, _>>()?;
        setup.push(t0.elapsed().as_secs_f64());
        Ok(nets)
    };
    let mut setup = Vec::new();
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPS {
        nets = build_all(&mut setup)?;
    }

    // Ops are (grid point, algorithm) pairs, indexed in grid order.
    let n_ops = grid.len() * ALGOS.len();
    let mut order: Vec<usize> = (0..n_ops).collect();
    let mut rng = Rng::derive(ctx.seed, 0);
    let mut first: Vec<Option<Vec<Rat>>> = vec![None; n_ops];
    let mut mismatches = 0u64;
    // Latency of op `i` in each pass, indexed by op.
    let mut by_pass: Vec<Vec<f64>> = Vec::new();
    let mut traced = Samples::default();
    let mut untraced = Samples::default();
    let mut pass_walls = Vec::new();
    let mut tally = Tally::default();
    let mut counter = 0u64;
    let start = Instant::now();
    while pass_walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        rng.shuffle(&mut order);
        let mut this_pass = vec![0.0; n_ops];
        let pass_start = Instant::now();
        for &op in &order {
            let net = &nets[op / ALGOS.len()];
            let algo = ALGOS[op % ALGOS.len()];
            let on = ctx.trace && counter.is_multiple_of(2);
            let t0 = Instant::now();
            let res = algo.analyze(net);
            let t1 = Instant::now();
            let us = t1.duration_since(t0).as_secs_f64() * 1e6;
            if ctx.trace {
                // Traced ops record their spans inside the window the
                // overhead comparison times; untraced ops record nothing.
                if on {
                    let root = tr.record("sweep.op", counter, None, t0, t1);
                    tr.record(algo.span(), counter, root, t0, t1);
                }
                if !pass_walls.is_empty() {
                    let with = Instant::now().duration_since(t0).as_secs_f64() * 1e6;
                    if on { &mut traced } else { &mut untraced }.push(with);
                }
            }
            counter += 1;
            this_pass[op] = us;
            tally.record(res.is_ok());

            let Ok(report) = res else { continue };
            let bounds: Vec<Rat> = report.flows.iter().map(|f| f.e2e).collect();
            match &first[op] {
                Some(b) => mismatches += u64::from(*b != bounds),
                None => first[op] = Some(bounds),
            }
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        by_pass.push(this_pass);
        build_all(&mut setup)?;
    }
    // An op's latency is its median over three consecutive passes, which
    // sheds a stall of the machine that hit one of them (passes left over
    // after the last full triple count only towards `ops_per_s`).
    let mut lat = Samples::default();
    for triple in by_pass.chunks_exact(3) {
        let [a, b, c] = [&triple[0], &triple[1], &triple[2]];
        for ((x, y), z) in a.iter().zip(b).zip(c) {
            lat.push(median_of(&[*x, *y, *z]).unwrap_or(0.0));
        }
    }
    let wall: f64 = pass_walls.iter().sum();
    // Every pass runs the same 285 analyses, so per-pass rates compare
    // like with like; their median shrugs off a stalled pass.
    let rates: Vec<f64> = pass_walls.iter().map(|w| n_ops as f64 / w).collect();
    let intern_len = dnc_curves::intern::store_len();

    // Correctness.
    let bounds: Vec<Vec<Rat>> = first
        .iter()
        .map(|b| b.clone().unwrap_or_default())
        .collect();
    let got = digest(&grid, &bounds);
    out.check(
        "bound-digest",
        got == EXPECTED_DIGEST,
        format!("digest {got:#018x}, expected {EXPECTED_DIGEST:#018x}"),
    );
    out.check(
        "passes-agree",
        mismatches == 0,
        format!("{mismatches} op(s) whose bounds differ from the first pass"),
    );
    let mut violations = 0;
    for p in 0..grid.len() {
        let dec = &bounds[p * ALGOS.len() + Algo::Decomposed as usize];
        let int = &bounds[p * ALGOS.len() + Algo::Integrated as usize];
        if dec.len() != int.len() || int.iter().zip(dec).any(|(i, d)| i > d) {
            violations += 1;
        }
    }
    out.check(
        "integrated-le-decomposed",
        violations == 0,
        format!("{violations} grid point(s) where an Integrated bound exceeds Decomposed"),
    );

    // Untimed overflow probe: every failure stays visible.
    let mut probe = Tally::default();
    for &n in &PROBE_NS {
        for k in KS {
            let net = build(&tandem_text(n, k)?)?;
            for algo in ALGOS {
                probe.record(algo.analyze(&net).is_ok());
            }
        }
    }
    for (site, n) in crate::panic_sites() {
        out.notes.push(format!("caught {n} panic(s) at {site}"));
    }
    out.notes.push(format!(
        "overflow probe: {} of {} analyses at n = 24, 28, 32 failed",
        probe.failed, probe.attempted
    ));

    out.tally = tally;
    let mut all = tally;
    all.add(probe);
    let p50 = lat.median().unwrap_or(0.0);
    let p99 = lat
        .tail(99.0)
        .ok_or_else(|| format!("{} samples are too few for op_p99_us", lat.len()))?;
    out.e2e = vec![
        metric(
            "ops_per_s",
            median_of(&rates).unwrap_or(tally.attempted as f64 / wall),
            "1/s",
        ),
        metric("op_p50_us", p50, "us"),
        metric("setup_s", median_of(&setup).unwrap_or(0.0), "s"),
    ];
    let tail = crate::stats::tail_percentile(lat.len()).unwrap_or(50.0);
    out.extra = vec![
        metric("op_p99_us", p99, "us"),
        metric("failed_share", all.failed_share(), "ratio"),
        metric("mean_ops_per_s", tally.attempted as f64 / wall, "1/s"),
        metric("pass_spread", spread(&rates), "ratio"),
        metric("samples", lat.len() as f64, "count"),
        metric("passes", pass_walls.len() as f64, "count"),
        metric("op_tail_percentile", tail, "%"),
        metric("op_tail_us", lat.percentile(tail).unwrap_or(0.0), "us"),
    ];

    if ctx.trace {
        let net_refs: Vec<&Network> = nets.iter().collect();
        let pairs: Vec<_> = nets.iter().flat_map(layers::curve_pairs).collect();
        layers::curve_ops(&mut tr, &pairs, 3);
        layers::partitions(&mut tr, &net_refs, 3);
        let root = tr.open("layer.cli", 0, None);
        for (i, text) in texts.iter().enumerate() {
            tr.time("cli.parse_spec", i as u64, root, || build(text).is_ok());
        }
        tr.close(root);
        let warm = &pass_walls[1..];
        let warm_mean = warm.iter().sum::<f64>() / warm.len() as f64;
        out.layers = LayerReport {
            intern_len: intern_len as f64,
            warm_over_cold: warm_mean / pass_walls[0],
            overflow_cases: probe.failed as f64,
            caught_panics: (crate::panics() - panics_before) as f64,
            overhead_share: layers::overhead(&traced, &untraced),
            ..LayerReport::from_spans(&tr)
        }
        .metrics();
        crate::write_trace(ctx, &tr)?;
    }
    Ok(out)
}
