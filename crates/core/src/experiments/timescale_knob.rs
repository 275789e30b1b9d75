//! Pitfall 2 / **Figure 2**: the probing stream duration controls the
//! averaging timescale.
//!
//! Direct probing with streams of duration `d` samples the avail-bw
//! process at timescale `tau = d`: the standard deviation of the
//! per-stream estimates must match the *population* standard deviation
//! of `A_d(t)` computed from the link's busy-period ground truth. The
//! paper's Figure 2 shows the two curves nearly coincide across stream
//! durations of 25–200 ms.

use abw_netsim::SimDuration;

use crate::scenario::{CrossKind, Scenario, SingleHopConfig};
use crate::tools::direct::{DirectConfig, DirectProber};

/// Configuration of the Figure 2 experiment.
#[derive(Debug, Clone)]
pub struct TimescaleConfig {
    /// Stream durations in ms (paper: 25, 50, 100, 150, 200).
    pub durations_ms: Vec<u64>,
    /// Streams (= samples) per duration (paper: 100).
    pub streams: u32,
    /// Input probing rate (paper: 40 Mb/s on the 50/25 link).
    pub input_rate_bps: f64,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for TimescaleConfig {
    fn default() -> Self {
        TimescaleConfig {
            durations_ms: vec![25, 50, 100, 150, 200],
            streams: 100,
            input_rate_bps: 40e6,
            seed: 0xF162,
        }
    }
}

impl TimescaleConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        TimescaleConfig {
            durations_ms: vec![25, 100, 200],
            streams: 40,
            ..TimescaleConfig::default()
        }
    }
}

/// One row of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct TimescaleRow {
    /// Stream duration = averaging timescale, ms.
    pub duration_ms: u64,
    /// Standard deviation of the direct-probing samples, Mb/s.
    pub sample_sd_mbps: f64,
    /// Population standard deviation of `A_tau` from the busy-period
    /// ground truth at the same timescale, Mb/s.
    pub population_sd_mbps: f64,
    /// Mean of the probing samples, Mb/s.
    pub sample_mean_mbps: f64,
}

/// The Figure 2 result.
#[derive(Debug, Clone)]
pub struct TimescaleResult {
    /// One row per stream duration.
    pub rows: Vec<TimescaleRow>,
}

/// Runs the Figure 2 experiment: for each stream duration, collect
/// direct-probing samples on a fresh Poisson-loaded 50/25 link, then
/// compare against the population statistics from the same run's busy
/// log.
pub fn run(config: &TimescaleConfig) -> TimescaleResult {
    let rows = config
        .durations_ms
        .iter()
        .map(|&ms| {
            // a fresh scenario per duration keeps runs independent
            let mut s = Scenario::single_hop(&SingleHopConfig {
                cross: CrossKind::Poisson,
                seed: config.seed.wrapping_add(ms),
                ..SingleHopConfig::default()
            });
            s.warm_up(SimDuration::from_millis(500));
            let mut tool = DirectProber::new(DirectConfig {
                tight_capacity_bps: 50e6,
                input_rate_bps: config.input_rate_bps,
                packet_size: 1500,
                stream_duration: SimDuration::from_millis(ms),
                streams: config.streams,
            })
            .estimator();
            s.session().drive(&mut s.sim, &mut tool);
            let sample_stats = abw_stats::running::Running::from_samples(&tool.into_samples());

            // Population statistics at the same timescale. The probing
            // itself perturbs the link, so exclude the probe's own load:
            // ground truth comes from a probe-free replica of the run.
            let mut replica = Scenario::single_hop(&SingleHopConfig {
                cross: CrossKind::Poisson,
                seed: config.seed.wrapping_add(ms),
                ..SingleHopConfig::default()
            });
            replica.warm_up(SimDuration::from_millis(500));
            replica.sim.run_for(SimDuration::from_secs(20));
            let population = replica.ground_truth(0).population(ms * 1_000_000);

            TimescaleRow {
                duration_ms: ms,
                sample_sd_mbps: sample_stats.stddev() / 1e6,
                population_sd_mbps: population.stddev() / 1e6,
                sample_mean_mbps: sample_stats.mean() / 1e6,
            }
        })
        .collect();
    TimescaleResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sd_tracks_population_sd() {
        let result = run(&TimescaleConfig::quick());
        for row in &result.rows {
            // Figure 2: the two standard deviations nearly coincide
            let ratio = row.sample_sd_mbps / row.population_sd_mbps;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{} ms: sample sd {:.2} vs population sd {:.2}",
                row.duration_ms,
                row.sample_sd_mbps,
                row.population_sd_mbps
            );
            // unbiased around the true 25 Mb/s
            assert!(
                (row.sample_mean_mbps - 25.0).abs() < 3.0,
                "{} ms: mean {:.2}",
                row.duration_ms,
                row.sample_mean_mbps
            );
        }
    }

    #[test]
    fn sd_decreases_with_duration() {
        let result = run(&TimescaleConfig::quick());
        let first = result.rows.first().unwrap();
        let last = result.rows.last().unwrap();
        assert!(
            first.population_sd_mbps > last.population_sd_mbps,
            "population SD should fall with tau: {:?}",
            result.rows
        );
        assert!(
            first.sample_sd_mbps > last.sample_sd_mbps,
            "sample SD should fall with stream duration: {:?}",
            result.rows
        );
    }
}
