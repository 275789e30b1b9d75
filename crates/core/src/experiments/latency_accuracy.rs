//! Fallacy 3: "faster estimation is better".
//!
//! Fewer or shorter streams reduce estimation latency but raise the
//! variance of the estimate: shorter streams shrink the averaging
//! timescale (raising `Var[A_tau]`), and fewer streams raise
//! `Var[m_A(k)] = Var[A_tau]/k`. This experiment sweeps both knobs on the
//! canonical single-hop path and reports the latency-accuracy trade-off
//! that tool comparisons must account for.

use abw_netsim::SimDuration;
use abw_stats::running::Running;
use abw_stats::sampling::relative_error;

use crate::scenario::{CrossKind, Scenario, SingleHopConfig};
use crate::tools::direct::{DirectConfig, DirectProber};

/// Configuration of the latency-accuracy sweep.
#[derive(Debug, Clone)]
pub struct LatencyAccuracyConfig {
    /// Stream counts to sweep.
    pub stream_counts: Vec<u32>,
    /// Stream durations (ms) to sweep.
    pub durations_ms: Vec<u64>,
    /// Repetitions per cell (each gives one estimate; their spread is the
    /// accuracy).
    pub repetitions: u32,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for LatencyAccuracyConfig {
    fn default() -> Self {
        LatencyAccuracyConfig {
            stream_counts: vec![5, 20, 60],
            durations_ms: vec![10, 50, 200],
            repetitions: 12,
            seed: 0xFA57,
        }
    }
}

impl LatencyAccuracyConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        LatencyAccuracyConfig {
            stream_counts: vec![3, 24],
            durations_ms: vec![10, 100],
            repetitions: 8,
            ..LatencyAccuracyConfig::default()
        }
    }
}

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LatencyAccuracyCell {
    /// Streams per estimate.
    pub streams: u32,
    /// Stream duration, ms.
    pub duration_ms: u64,
    /// Mean measurement latency (simulated seconds per estimate).
    pub latency_secs: f64,
    /// Mean absolute relative error of the estimates vs the true
    /// 25 Mb/s.
    pub mean_abs_error: f64,
    /// Standard deviation of the estimates, Mb/s.
    pub estimate_sd_mbps: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct LatencyAccuracyResult {
    /// All cells, row-major over (streams, duration).
    pub cells: Vec<LatencyAccuracyCell>,
}

impl LatencyAccuracyResult {
    /// The cell for a given configuration, if present.
    pub fn cell(&self, streams: u32, duration_ms: u64) -> Option<&LatencyAccuracyCell> {
        self.cells
            .iter()
            .find(|c| c.streams == streams && c.duration_ms == duration_ms)
    }
}

/// Runs the sweep.
pub fn run(config: &LatencyAccuracyConfig) -> LatencyAccuracyResult {
    let truth = 25e6;
    let mut cells = Vec::new();
    for &streams in &config.stream_counts {
        for &duration_ms in &config.durations_ms {
            let mut errors = Vec::new();
            let mut estimates = Running::new();
            let mut latency = Running::new();
            for rep in 0..config.repetitions {
                let mut s = Scenario::single_hop(&SingleHopConfig {
                    cross: CrossKind::Poisson,
                    seed: config
                        .seed
                        .wrapping_add((rep as u64) << 32)
                        .wrapping_add(streams as u64 * 1000 + duration_ms),
                    ..SingleHopConfig::default()
                });
                s.warm_up(SimDuration::from_millis(300));
                let mut tool = DirectProber::new(DirectConfig {
                    tight_capacity_bps: 50e6,
                    input_rate_bps: 40e6,
                    packet_size: 1500,
                    stream_duration: SimDuration::from_millis(duration_ms),
                    streams,
                })
                .estimator();
                let verdict = s.session().drive(&mut s.sim, &mut tool);
                errors.push(relative_error(verdict.avail_bps(), truth).abs());
                estimates.push(verdict.avail_bps());
                latency.push(verdict.elapsed_secs());
            }
            cells.push(LatencyAccuracyCell {
                streams,
                duration_ms,
                latency_secs: latency.mean(),
                mean_abs_error: errors.iter().sum::<f64>() / errors.len() as f64,
                estimate_sd_mbps: estimates.stddev() / 1e6,
            });
        }
    }
    LatencyAccuracyResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_streams_cost_latency_but_buy_accuracy() {
        let r = run(&LatencyAccuracyConfig::quick());
        let fast = r.cell(3, 10).expect("cell exists");
        let slow = r.cell(24, 100).expect("cell exists");
        assert!(
            slow.latency_secs > fast.latency_secs * 3.0,
            "latency: fast {:.3}s vs slow {:.3}s",
            fast.latency_secs,
            slow.latency_secs
        );
        assert!(
            slow.estimate_sd_mbps < fast.estimate_sd_mbps,
            "estimate spread should shrink with more/longer streams: \
             fast {:.2} vs slow {:.2} Mb/s",
            fast.estimate_sd_mbps,
            slow.estimate_sd_mbps
        );
    }
}
