//! Delphi-style direct probing with periodic trains.
//!
//! Each probing stream of rate `Ri > A` yields one avail-bw sample via the
//! Equation 9 inversion `A = Ct - Ri (Ct/Ro - 1)`; the estimate is the
//! sample mean. Requires the tight-link capacity — supplying the *narrow*
//! capacity instead is Pitfall 5, and the `fig2`/`table1` experiments are
//! built directly on this prober.

use abw_netsim::SimDuration;
use abw_stats::running::Running;

use crate::fluid::direct_probing_estimate;
use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimate, Estimator, Observation, ProbeSpec, Verdict};

/// Configuration of the direct prober.
#[derive(Debug, Clone)]
pub struct DirectConfig {
    /// Tight-link capacity `Ct` in bits/s (assumed known, as in Delphi).
    pub tight_capacity_bps: f64,
    /// Input rate of each probing stream (should exceed the avail-bw so
    /// Equation 9 applies).
    pub input_rate_bps: f64,
    /// Probing packet size in bytes.
    pub packet_size: u32,
    /// Duration of each stream — the averaging-timescale knob
    /// (Pitfall 2).
    pub stream_duration: SimDuration,
    /// Number of streams (= samples; Pitfall 1 is about this `k`).
    pub streams: u32,
}

impl DirectConfig {
    /// The paper's Figure 2 parameters: Ct = 50 Mb/s, Ri = 40 Mb/s,
    /// 1500 B packets, 100 ms streams, 100 samples.
    pub fn canonical() -> Self {
        DirectConfig {
            tight_capacity_bps: 50e6,
            input_rate_bps: 40e6,
            packet_size: 1500,
            stream_duration: SimDuration::from_millis(100),
            streams: 100,
        }
    }
}

/// Direct probing with periodic trains (Delphi's sampling structure).
#[derive(Debug, Clone)]
pub struct DirectProber {
    config: DirectConfig,
}

impl DirectProber {
    /// Creates a prober with the given configuration.
    pub fn new(config: DirectConfig) -> Self {
        assert!(config.streams >= 1, "need at least one stream");
        DirectProber { config }
    }

    /// One avail-bw sample from a completed stream (Equation 9); `None`
    /// when the output rate is unmeasurable.
    pub fn sample(&self, result: &StreamResult) -> Option<f64> {
        let ro = result.output_rate_bps()?;
        Some(direct_probing_estimate(
            self.config.tight_capacity_bps,
            result.input_rate_bps(),
            ro,
        ))
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> DirectEstimator {
        DirectEstimator {
            prober: self.clone(),
            spec: StreamSpec::periodic_for_duration(
                self.config.input_rate_bps,
                self.config.packet_size,
                self.config.stream_duration,
            ),
            sent: 0,
            samples: Running::new(),
            raw: Vec::new(),
            packets: 0,
        }
    }
}

/// Direct probing as a decision state machine: send `streams` identical
/// periodic trains, turn each into an Equation 9 sample, report the mean.
#[derive(Debug, Clone)]
pub struct DirectEstimator {
    prober: DirectProber,
    spec: StreamSpec,
    sent: u32,
    samples: Running,
    raw: Vec<f64>,
    packets: u64,
}

impl DirectEstimator {
    /// The raw per-stream samples, in probing order — for experiments
    /// that study the sample distribution rather than the mean.
    pub fn into_samples(self) -> Vec<f64> {
        self.raw
    }
}

impl Estimator for DirectEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("direct probing sends streams");
            self.packets += result.spec.count() as u64;
            if let Some(a) = self.prober.sample(result) {
                self.samples.push(a);
                self.raw.push(a);
            }
        }
        if self.sent < self.prober.config.streams {
            self.sent += 1;
            Action::Send(ProbeSpec::stream(self.spec.clone()))
        } else {
            Action::Done(Verdict::Point(Estimate {
                avail_bps: self.samples.mean(),
                samples: self.samples.summary(),
                probe_packets: self.packets,
                elapsed_secs: 0.0,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrossKind, Scenario, SingleHopConfig};

    fn probe_with(cross: CrossKind, streams: u32) -> Estimate {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = DirectProber::new(DirectConfig {
            streams,
            ..DirectConfig::canonical()
        })
        .estimator();
        let Verdict::Point(est) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("direct probing yields a point estimate")
        };
        est
    }

    #[test]
    fn exact_on_cbr_cross_traffic() {
        // CBR ≈ fluid: Equation 9 recovers A almost exactly
        let est = probe_with(CrossKind::Cbr, 5);
        assert!(
            (est.avail_bps - 25e6).abs() / 25e6 < 0.02,
            "estimate {:.2} Mb/s",
            est.avail_bps / 1e6
        );
        assert!(est.probe_packets > 0);
        assert!(est.elapsed_secs > 0.0);
    }

    #[test]
    fn close_on_poisson_cross_traffic() {
        let est = probe_with(CrossKind::Poisson, 30);
        assert!(
            (est.avail_bps - 25e6).abs() / 25e6 < 0.10,
            "estimate {:.2} Mb/s",
            est.avail_bps / 1e6
        );
        // Poisson cross traffic makes individual samples vary
        assert!(est.samples.stddev > 0.0);
    }

    #[test]
    fn sample_count_matches_streams() {
        let mut s = Scenario::single_hop(&SingleHopConfig::default());
        s.warm_up(SimDuration::from_millis(200));
        let mut tool = DirectProber::new(DirectConfig {
            streams: 7,
            stream_duration: SimDuration::from_millis(25),
            ..DirectConfig::canonical()
        })
        .estimator();
        s.session().drive(&mut s.sim, &mut tool);
        assert_eq!(tool.into_samples().len(), 7);
    }
}
