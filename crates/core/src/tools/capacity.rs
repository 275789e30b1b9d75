//! bprobe-style end-to-end capacity estimation via packet-pair dispersion.
//!
//! Back-to-back packet pairs leave the path spaced by the serialisation
//! time of the *narrow* link (minimum capacity); the mode of the per-pair
//! capacity estimates `L·8 / gap_out` is therefore `Cn` — **not** the
//! tight-link capacity `Ct` that direct probing needs. Feeding this
//! estimate into Equation 9 on a path whose tight link is faster than its
//! narrow link is exactly Pitfall 5, demonstrated by the `exp_capacity`
//! experiment.

use abw_netsim::SimDuration;
use abw_stats::histogram::Histogram;
use abw_stats::running::Running;
use abw_stats::sampling::exp_variate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stream::StreamSpec;
use crate::tools::{Action, Estimator, Observation, ProbeSpec, Verdict};

/// Capacity-probe configuration.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Number of packet pairs.
    pub pairs: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Intra-pair rate: effectively back-to-back when far above any link
    /// capacity on the path.
    pub pair_rate_bps: f64,
    /// Mean (exponential) spacing between pairs.
    pub mean_pair_gap: SimDuration,
    /// Histogram bins used for the mode search.
    pub bins: usize,
    /// RNG seed for the pair spacing.
    pub seed: u64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            pairs: 100,
            packet_size: 1500,
            pair_rate_bps: 10e9,
            mean_pair_gap: SimDuration::from_millis(20),
            bins: 60,
            seed: 0xCAFE,
        }
    }
}

/// Result of a capacity probe.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// The estimated end-to-end (narrow link) capacity, bits/s.
    pub capacity_bps: f64,
    /// Statistics of the raw per-pair estimates.
    pub samples: abw_stats::running::Summary,
    /// Pairs that produced a usable dispersion.
    pub usable_pairs: u32,
    /// Probing packets transmitted (two per pair).
    pub probe_packets: u64,
}

/// The packet-pair capacity prober.
#[derive(Debug, Clone)]
pub struct CapacityProber {
    config: CapacityConfig,
}

impl CapacityProber {
    /// Creates a capacity prober.
    pub fn new(config: CapacityConfig) -> Self {
        assert!(config.pairs >= 1 && config.bins >= 2);
        CapacityProber { config }
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> CapacityEstimator {
        CapacityEstimator {
            config: self.config.clone(),
            rng: StdRng::seed_from_u64(self.config.seed),
            spec: StreamSpec::Pair {
                rate_bps: self.config.pair_rate_bps,
                size: self.config.packet_size,
            },
            sent: 0,
            estimates: Vec::new(),
        }
    }
}

/// The capacity probe as a decision state machine: exponentially spaced
/// back-to-back pairs, then a histogram-mode search over the per-pair
/// dispersion estimates.
#[derive(Debug, Clone)]
pub struct CapacityEstimator {
    config: CapacityConfig,
    rng: StdRng,
    spec: StreamSpec,
    sent: u32,
    estimates: Vec<f64>,
}

impl Estimator for CapacityEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("capacity probing sends pairs");
            if let Some(&(_, g_out)) = result.pair_gaps().first() {
                if g_out > 0.0 {
                    self.estimates
                        .push(self.config.packet_size as f64 * 8.0 / g_out);
                }
            }
        }
        if self.sent < self.config.pairs {
            self.sent += 1;
            let gap = SimDuration::from_secs_f64(exp_variate(
                &mut self.rng,
                self.config.mean_pair_gap.as_secs_f64(),
            ));
            Action::Send(ProbeSpec::Stream {
                spec: self.spec.clone(),
                pre_gap: Some(gap),
            })
        } else {
            let running = Running::from_samples(&self.estimates);
            let capacity = mode_of(&self.estimates, self.config.bins).unwrap_or(running.mean());
            Action::Done(Verdict::Capacity(CapacityReport {
                capacity_bps: capacity,
                samples: running.summary(),
                usable_pairs: u32::try_from(self.estimates.len()).unwrap_or(u32::MAX),
                probe_packets: self.config.pairs as u64 * 2,
            }))
        }
    }
}

/// Histogram mode of a positive sample set; `None` when empty.
fn mode_of(samples: &[f64], bins: usize) -> Option<f64> {
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if samples.is_empty() || max <= 0.0 {
        return None;
    }
    let mut h = Histogram::new(0.0, max * 1.001, bins);
    for &s in samples {
        h.push(s);
    }
    h.mode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, SingleHopConfig};
    use abw_netsim::SimDuration;

    fn run_capacity(s: &mut Scenario, config: CapacityConfig) -> CapacityReport {
        let mut tool = CapacityProber::new(config).estimator();
        let Verdict::Capacity(report) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("the capacity prober yields a capacity report")
        };
        report
    }

    #[test]
    fn idle_link_capacity_exact() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross_rate_bps: 0.0,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(100));
        let report = run_capacity(
            &mut s,
            CapacityConfig {
                pairs: 20,
                ..CapacityConfig::default()
            },
        );
        assert!(
            (report.capacity_bps - 50e6).abs() / 50e6 < 0.05,
            "capacity {:.2} Mb/s",
            report.capacity_bps / 1e6
        );
        assert_eq!(report.usable_pairs, 20);
    }

    #[test]
    fn loaded_link_mode_still_finds_capacity() {
        let mut s = Scenario::single_hop(&SingleHopConfig::default());
        s.warm_up(SimDuration::from_millis(300));
        let report = run_capacity(&mut s, CapacityConfig::default());
        // cross traffic expands some pairs, but the mode survives
        assert!(
            (report.capacity_bps - 50e6).abs() / 50e6 < 0.15,
            "capacity {:.2} Mb/s",
            report.capacity_bps / 1e6
        );
    }

    #[test]
    fn measures_the_narrow_link_not_the_tight_link() {
        // Pitfall 5: narrow = 100 Mb/s (idle), tight = OC-3 carrying
        // 60 Mb/s (avail 95.5 Mb/s < 100 Mb/s, so tight ≠ narrow)
        let mut s = Scenario::tight_not_narrow(60e6, 5);
        s.warm_up(SimDuration::from_millis(300));
        let report = run_capacity(&mut s, CapacityConfig::default());
        let cn = s.narrow_capacity_bps();
        assert!(
            (report.capacity_bps - cn).abs() / cn < 0.15,
            "capacity {:.2} Mb/s should be near Cn = {:.2} Mb/s",
            report.capacity_bps / 1e6,
            cn / 1e6
        );
        // and it is NOT the tight link's capacity
        assert!(report.capacity_bps < s.tight_capacity_bps() * 0.8);
    }
}
