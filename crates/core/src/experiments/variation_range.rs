//! Fallacy 9 / **Figure 6**: iterative probing converges to a single
//! avail-bw estimate.
//!
//! It converges to a *range*: while the iteration runs, the process
//! `A_tau(t)` moves, so a rate can be above the avail-bw at one instant
//! and below it at another. The experiment extracts the 10 ms sample path
//! of the synthetic NLANR-substitute trace (Figure 6's plot), then runs
//! Pathload against a live link carrying the same traffic and checks that
//! the reported range `(R_L, R_H)` sits inside the sample path's
//! variation — not at a single point.

use abw_netsim::{LinkConfig, SimDuration, Simulator};
use abw_stats::ecdf::Ecdf;
use abw_trace::{spawn_trace_sources, AvailBw, SyntheticTrace, SyntheticTraceConfig};

use crate::probe::{ProbeReceiver, ProbeRunner, ProbeSender, Session};
use crate::tools::pathload::{Pathload, PathloadConfig};
use crate::tools::Verdict;

/// Configuration of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct VariationRangeConfig {
    /// The trace/traffic parameters (NLANR substitute by default).
    pub trace: SyntheticTraceConfig,
    /// Sample-path averaging timescale, ns (paper: 10 ms).
    pub tau_ns: u64,
    /// Sample-path length to report, seconds (paper plots 20 s).
    pub plot_secs: f64,
    /// Pathload settings for the live measurement.
    pub pathload: PathloadConfig,
}

impl Default for VariationRangeConfig {
    fn default() -> Self {
        VariationRangeConfig {
            trace: SyntheticTraceConfig::default(),
            tau_ns: 10_000_000,
            plot_secs: 20.0,
            pathload: PathloadConfig {
                min_rate_bps: 20e6,
                max_rate_bps: 150e6,
                resolution_bps: 8e6,
                ..PathloadConfig::default()
            },
        }
    }
}

impl VariationRangeConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        VariationRangeConfig {
            trace: SyntheticTraceConfig {
                duration: SimDuration::from_secs(10),
                warmup: SimDuration::from_secs(1),
                ..SyntheticTraceConfig::default()
            },
            plot_secs: 10.0,
            pathload: PathloadConfig {
                min_rate_bps: 20e6,
                max_rate_bps: 150e6,
                resolution_bps: 10e6,
                streams_per_fleet: 6,
                packets_per_stream: 60,
                ..PathloadConfig::default()
            },
            ..VariationRangeConfig::default()
        }
    }
}

/// The Figure 6 result.
#[derive(Debug)]
pub struct VariationRangeResult {
    /// `(t seconds, A_tau(t) in Mb/s)` sample path.
    pub sample_path: Vec<(f64, f64)>,
    /// Mean avail-bw of the trace, Mb/s.
    pub mean_mbps: f64,
    /// 5th and 95th percentile of `A_tau`, Mb/s — the "true" variation
    /// range the paper describes (60–110 Mb/s on the NLANR trace).
    pub true_range_mbps: (f64, f64),
    /// Pathload's reported range `(R_L, R_H)` on the live link, Mb/s.
    pub pathload_range_mbps: (f64, f64),
}

/// Runs the Figure 6 experiment.
pub fn run(config: &VariationRangeConfig) -> VariationRangeResult {
    // (a) the passive view: the trace's 10 ms sample path
    let trace = SyntheticTrace::generate(&config.trace);
    let full_path = trace.process.sample_path(config.tau_ns, config.tau_ns);
    let sample_path: Vec<(f64, f64)> = full_path
        .iter()
        .take_while(|(t, _)| *t <= config.plot_secs)
        .map(|&(t, a)| (t, a / 1e6))
        .collect();
    let values = Ecdf::new(full_path.iter().map(|&(_, a)| a / 1e6).collect());
    let true_range = (
        values.quantile(0.05).expect("non-empty path"),
        values.quantile(0.95).expect("non-empty path"),
    );

    // (b) the active view: Pathload against a live link with identical
    // traffic
    let mut sim = Simulator::new();
    let link = sim.add_link(LinkConfig::new(
        config.trace.capacity_bps,
        SimDuration::ZERO,
    ));
    let path = sim.add_path(vec![link]);
    let sink = sim.add_agent(Box::new(abw_netsim::CountingSink::new()));
    spawn_trace_sources(&mut sim, path, sink, &config.trace);
    let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
    let sender = sim.add_agent(Box::new(ProbeSender::new(
        path,
        receiver,
        abw_netsim::FlowId(u32::MAX),
    )));
    sim.run_for(config.trace.warmup);
    let mut tool = Pathload::new(config.pathload.clone()).estimator();
    let mut session = Session::new(ProbeRunner::new(sender, receiver));
    let Verdict::Pathload(report) = session.drive(&mut sim, &mut tool) else {
        unreachable!("Pathload yields a Pathload report")
    };

    // keep the ground truth honest: the probed link's actual mean
    let live = AvailBw::from_link(
        sim.link(link),
        abw_netsim::SimTime::ZERO + config.trace.warmup,
        sim.now(),
    );

    VariationRangeResult {
        sample_path,
        mean_mbps: live.mean() / 1e6,
        true_range_mbps: true_range,
        pathload_range_mbps: (report.range_bps.0 / 1e6, report.range_bps.1 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pathload_reports_a_range_not_a_point() {
        let r = run(&VariationRangeConfig::quick());
        let (lo, hi) = r.pathload_range_mbps;
        assert!(hi > lo, "degenerate range {lo}..{hi}");
        // Fallacy 9: the width is substantial, not a measurement epsilon
        assert!(hi - lo >= 5.0, "range suspiciously tight: {lo}..{hi}");
    }

    #[test]
    fn ranges_overlap_the_true_variation() {
        let r = run(&VariationRangeConfig::quick());
        let (tl, th) = r.true_range_mbps;
        let (pl, ph) = r.pathload_range_mbps;
        assert!(tl < th);
        // the two ranges must overlap (both describe A_tau's variation)
        assert!(
            pl < th && ph > tl,
            "no overlap: pathload {pl}..{ph} vs true {tl}..{th}"
        );
        // and the true mean sits inside the true range
        assert!((tl..=th).contains(&r.mean_mbps));
    }

    #[test]
    fn sample_path_varies_like_figure_6() {
        let r = run(&VariationRangeConfig::quick());
        assert!(r.sample_path.len() > 500);
        let (tl, th) = r.true_range_mbps;
        // the paper's trace varies over tens of Mb/s at 10 ms
        assert!(th - tl > 15.0, "variation only {tl}..{th}");
    }
}
