//! Calls into each layer's public functions, timed as spans from
//! outside the program, on inputs taken from the workload.

use crate::trace::Tracer;
use dnc_core::decomposed::Decomposed;
use dnc_core::integrated::Integrated;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::{AnalysisReport, DelayAnalysis};
use dnc_curves::{bounds, minplus, Curve};
use dnc_net::pairing::{self, PairingStrategy};
use dnc_net::Network;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The paper's three algorithms (FifoFamily is a post-paper baseline and
/// is left out; see README.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Decomposed,
    ServiceCurve,
    Integrated,
}

/// In discriminant order, so `algo as usize` indexes it.
pub const ALGOS: [Algo; 3] = [Algo::Decomposed, Algo::ServiceCurve, Algo::Integrated];

impl Algo {
    pub fn label(self) -> &'static str {
        match self {
            Algo::Decomposed => "decomposed",
            Algo::ServiceCurve => "service-curve",
            Algo::Integrated => "integrated",
        }
    }

    /// The span recording one call to this algorithm's `analyze`.
    pub fn span(self) -> &'static str {
        match self {
            Algo::Decomposed => "core.decomposed",
            Algo::ServiceCurve => "core.service_curve",
            Algo::Integrated => "core.integrated",
        }
    }

    /// Run the analysis, turning a panic into an error.
    pub fn analyze(self, net: &Network) -> Result<AnalysisReport, String> {
        let run = || match self {
            Algo::Decomposed => Decomposed::paper().analyze(net),
            Algo::ServiceCurve => ServiceCurve::paper().analyze(net),
            Algo::Integrated => Integrated::paper().analyze(net),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("panicked".to_string()),
        }
    }
}

/// Arrival curve of every flow paired with the service curve of its
/// first hop: the inputs the analyses feed the curve kernel first.
pub fn curve_pairs(net: &Network) -> Vec<(Curve, Curve)> {
    net.flows()
        .iter()
        .filter_map(|f| {
            let first = *f.route.first()?;
            Some((f.spec.arrival_curve(), Curve::rate(net.server(first).rate)))
        })
        .collect()
}

/// Time `conv`, `deconv` and `hdev` on each pair, `rounds` times.
pub fn curve_ops(tr: &mut Tracer, pairs: &[(Curve, Curve)], rounds: usize) {
    let root = tr.open("layer.curves", 0, None);
    for _ in 0..rounds {
        for (i, (alpha, beta)) in pairs.iter().enumerate() {
            let op = i as u64;
            tr.time("curves.conv", op, root, || {
                black_box(minplus::conv(alpha, beta))
            });
            tr.time("curves.deconv", op, root, || {
                black_box(minplus::deconv(alpha, beta).ok())
            });
            tr.time("curves.hdev", op, root, || {
                black_box(bounds::hdev(alpha, beta).ok())
            });
        }
    }
    tr.close(root);
}

/// Time `pairing::partition` (the paper's greedy chain) on each network.
pub fn partitions(tr: &mut Tracer, nets: &[&Network], rounds: usize) {
    let root = tr.open("layer.net", 0, None);
    for _ in 0..rounds {
        for (i, net) in nets.iter().enumerate() {
            tr.time("net.partition", i as u64, root, || {
                black_box(pairing::partition(net, PairingStrategy::GreedyChain).ok())
            });
        }
    }
    tr.close(root);
}

/// Time every algorithm's `analyze` on each network; returns how many
/// calls failed (a caught panic or an analysis error).
pub fn analyses(tr: &mut Tracer, nets: &[&Network], rounds: usize) -> u64 {
    let root = tr.open("layer.core", 0, None);
    let mut failed = 0;
    for _ in 0..rounds {
        for (i, net) in nets.iter().enumerate() {
            for algo in ALGOS {
                let ok = tr.time(algo.span(), i as u64, root, || algo.analyze(net).is_ok());
                failed += u64::from(!ok);
            }
        }
    }
    tr.close(root);
    failed
}

/// Median duration in µs of the spans named `name` (0 when none ran).
pub fn median_us(tr: &Tracer, name: &str) -> f64 {
    tr.micros(name).median().unwrap_or(0.0)
}

/// Every per-layer metric; a workload leaves at 0 the layers it does not
/// reach (README.md says which).
#[derive(Clone, Debug, Default)]
pub struct LayerReport {
    pub conv_us: f64,
    pub deconv_us: f64,
    pub hdev_us: f64,
    pub intern_len: f64,
    pub partition_us: f64,
    pub decomposed_us: f64,
    pub service_curve_us: f64,
    pub integrated_us: f64,
    pub warm_over_cold: f64,
    pub integrated_share: f64,
    pub overflow_cases: f64,
    pub caught_panics: f64,
    pub certify_us: f64,
    pub journal_append_us: f64,
    pub ops_per_fsync: f64,
    pub journal_bytes_per_op: f64,
    pub snapshot_publish_us: f64,
    pub recover_us: f64,
    pub decode_us: f64,
    pub parse_spec_us: f64,
    pub wait_us: f64,
    pub overhead_share: f64,
}

impl LayerReport {
    /// Fill the timings the tracer holds spans for.
    pub fn from_spans(tr: &Tracer) -> LayerReport {
        LayerReport {
            conv_us: median_us(tr, "curves.conv"),
            deconv_us: median_us(tr, "curves.deconv"),
            hdev_us: median_us(tr, "curves.hdev"),
            partition_us: median_us(tr, "net.partition"),
            decomposed_us: median_us(tr, "core.decomposed"),
            service_curve_us: median_us(tr, "core.service_curve"),
            integrated_us: median_us(tr, "core.integrated"),
            certify_us: median_us(tr, "service.certify"),
            journal_append_us: median_us(tr, "service.journal_append"),
            snapshot_publish_us: median_us(tr, "service.snapshot_publish"),
            recover_us: median_us(tr, "service.recover"),
            decode_us: median_us(tr, "cli.decode"),
            parse_spec_us: median_us(tr, "cli.parse_spec"),
            ..LayerReport::default()
        }
    }

    pub fn metrics(&self) -> Vec<crate::Metric> {
        use crate::metric;
        vec![
            metric("curves.conv_us", self.conv_us, "us"),
            metric("curves.deconv_us", self.deconv_us, "us"),
            metric("curves.hdev_us", self.hdev_us, "us"),
            metric("curves.intern_len", self.intern_len, "count"),
            metric("net.partition_us", self.partition_us, "us"),
            metric("core.decomposed_us", self.decomposed_us, "us"),
            metric("core.service_curve_us", self.service_curve_us, "us"),
            metric("core.integrated_us", self.integrated_us, "us"),
            metric("core.warm_over_cold", self.warm_over_cold, "ratio"),
            metric("core.integrated_share", self.integrated_share, "ratio"),
            metric("core.overflow_cases", self.overflow_cases, "count"),
            metric("core.caught_panics", self.caught_panics, "count"),
            metric("service.certify_us", self.certify_us, "us"),
            metric("service.journal_append_us", self.journal_append_us, "us"),
            metric("service.ops_per_fsync", self.ops_per_fsync, "ratio"),
            metric(
                "service.journal_bytes_per_op",
                self.journal_bytes_per_op,
                "B",
            ),
            metric(
                "service.snapshot_publish_us",
                self.snapshot_publish_us,
                "us",
            ),
            metric("service.recover_us", self.recover_us, "us"),
            metric("cli.decode_us", self.decode_us, "us"),
            metric("cli.parse_spec_us", self.parse_spec_us, "us"),
            metric("server.wait_us", self.wait_us, "us"),
            metric("trace.overhead_share", self.overhead_share, "ratio"),
        ]
    }
}

/// Mean traced latency over mean untraced latency, minus one.
pub fn overhead(traced: &crate::stats::Samples, untraced: &crate::stats::Samples) -> f64 {
    match (traced.mean(), untraced.mean()) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    }
}
