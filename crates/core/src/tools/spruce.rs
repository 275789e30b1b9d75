//! Spruce: direct probing with Poisson-spaced packet pairs.
//!
//! Spruce sends pairs whose intra-pair gap equals the tight link's
//! transmission time of one probing packet (`gap_in = L/Ct`, i.e. the
//! pair probes at rate `Ct`), spaced with exponential inter-pair gaps to
//! emulate Poisson sampling. Each pair yields the sample
//! `A = Ct * (1 - (gap_out - gap_in) / gap_in)`; the estimate is the mean
//! of (by default) 100 pairs.
//!
//! Because each sample's averaging window is only one pair wide, Spruce's
//! per-sample quantisation noise is exactly what Fallacy 4 ("packet pairs
//! are as good as packet trains") is about — Table 1 is generated with
//! this sampling structure.

use abw_netsim::SimDuration;
use abw_stats::running::Running;
use abw_stats::sampling::exp_variate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimate, Estimator, Observation, ProbeSpec, ToolEvent, Verdict};

/// Spruce configuration.
#[derive(Debug, Clone)]
pub struct SpruceConfig {
    /// Tight-link capacity `Ct` (assumed known).
    pub tight_capacity_bps: f64,
    /// Probing packet size in bytes (Spruce uses 1500 B).
    pub packet_size: u32,
    /// Number of pairs averaged per estimate (Spruce uses 100).
    pub pairs: u32,
    /// Mean inter-pair gap; pairs are spaced `Exp(mean)` apart so the
    /// samples Poisson-sample the avail-bw process.
    pub mean_pair_gap: SimDuration,
    /// RNG seed for the exponential spacing.
    pub seed: u64,
}

impl SpruceConfig {
    /// The published defaults against a known `Ct`: 100 pairs of 1500 B,
    /// ~20 ms mean spacing (keeps the probing rate a small fraction of
    /// the path capacity).
    pub fn new(tight_capacity_bps: f64) -> Self {
        SpruceConfig {
            tight_capacity_bps,
            packet_size: 1500,
            pairs: 100,
            mean_pair_gap: SimDuration::from_millis(20),
            seed: 0x5B2C,
        }
    }
}

/// The Spruce estimator.
#[derive(Debug, Clone)]
pub struct Spruce {
    config: SpruceConfig,
}

impl Spruce {
    /// Creates a Spruce instance.
    pub fn new(config: SpruceConfig) -> Self {
        assert!(config.pairs >= 1, "need at least one pair");
        Spruce { config }
    }

    /// The avail-bw sample of one received pair; `None` when either
    /// packet was lost.
    pub fn sample(&self, result: &StreamResult) -> Option<f64> {
        let gaps = result.pair_gaps();
        let &(gap_in, gap_out) = gaps.first()?;
        Some(self.config.tight_capacity_bps * (1.0 - (gap_out - gap_in) / gap_in))
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> SpruceEstimator {
        SpruceEstimator {
            tool: self.clone(),
            rng: StdRng::seed_from_u64(self.config.seed),
            spec: StreamSpec::Pair {
                rate_bps: self.config.tight_capacity_bps,
                size: self.config.packet_size,
            },
            sent: 0,
            samples: Running::new(),
            packets: 0,
            events: Vec::new(),
        }
    }
}

/// Spruce as a decision state machine: each pair is requested with its
/// own exponentially drawn pre-gap (Poisson sampling of the avail-bw
/// process); negative samples are clamped to zero as in the published
/// tool.
#[derive(Debug, Clone)]
pub struct SpruceEstimator {
    tool: Spruce,
    rng: StdRng,
    spec: StreamSpec,
    sent: u32,
    samples: Running,
    packets: u64,
    events: Vec<ToolEvent>,
}

impl Estimator for SpruceEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("Spruce sends pairs");
            self.packets += 2;
            if let Some(a) = self.tool.sample(result) {
                self.samples.push(a.max(0.0));
                self.events.push(ToolEvent::new(
                    "spruce.pair",
                    vec![
                        ("iter", (self.samples.count() - 1).into()),
                        ("sample_bps", a.into()),
                        ("running_mean_bps", self.samples.mean().into()),
                    ],
                ));
            }
        }
        if self.sent < self.tool.config.pairs {
            self.sent += 1;
            let gap = SimDuration::from_secs_f64(exp_variate(
                &mut self.rng,
                self.tool.config.mean_pair_gap.as_secs_f64(),
            ));
            Action::Send(ProbeSpec::Stream {
                spec: self.spec.clone(),
                pre_gap: Some(gap),
            })
        } else {
            Action::Done(Verdict::Point(Estimate {
                avail_bps: self.samples.mean(),
                samples: self.samples.summary(),
                probe_packets: self.packets,
                elapsed_secs: 0.0,
            }))
        }
    }

    fn take_events(&mut self) -> Vec<ToolEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrossKind, Scenario, SingleHopConfig};
    use abw_traffic::SizeDist;

    fn run_spruce(cross: CrossKind, sizes: SizeDist, pairs: u32) -> Estimate {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            cross_sizes: sizes,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = Spruce::new(SpruceConfig {
            pairs,
            ..SpruceConfig::new(50e6)
        })
        .estimator();
        let Verdict::Point(est) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("Spruce yields a point estimate")
        };
        est
    }

    #[test]
    fn accurate_with_small_cross_packets() {
        // 40 B cross packets ≈ fluid: pairs are accurate (Table 1, row 1)
        let est = run_spruce(CrossKind::Poisson, SizeDist::Constant(40), 100);
        assert!(
            (est.avail_bps - 25e6).abs() / 25e6 < 0.05,
            "estimate {:.2} Mb/s",
            est.avail_bps / 1e6
        );
    }

    #[test]
    fn noisy_with_large_cross_packets() {
        // 1500 B cross packets: per-sample quantisation noise is large
        let est = run_spruce(CrossKind::Poisson, SizeDist::Constant(1500), 100);
        // With Lc = L = 1500 B the per-pair samples quantise to
        // {Ct, 0, negative→0}: clamping biases the mean upward — the
        // packet-pair granularity problem of Fallacy 4 in its starkest
        // form. The estimate is only ballpark-correct.
        assert!(
            (est.avail_bps - 25e6).abs() / 25e6 < 0.5,
            "estimate {:.2} Mb/s",
            est.avail_bps / 1e6
        );
        // ...but per-sample spread is on the order of the capacity
        assert!(
            est.samples.stddev > 5e6,
            "stddev {:.2} Mb/s",
            est.samples.stddev / 1e6
        );
    }

    #[test]
    fn exact_on_idle_link() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross_rate_bps: 0.0,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(100));
        let mut tool = Spruce::new(SpruceConfig {
            pairs: 10,
            ..SpruceConfig::new(50e6)
        })
        .estimator();
        let est = s.session().drive(&mut s.sim, &mut tool).avail_bps();
        // idle link: gap unchanged → A = Ct
        assert!(
            (est - 50e6).abs() / 50e6 < 0.01,
            "estimate {:.2} Mb/s",
            est / 1e6
        );
    }
}
