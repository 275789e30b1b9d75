//! Delphi (Ribeiro et al., ITC 2000): adaptive direct probing.
//!
//! Delphi is the canonical direct prober: each packet train yields one
//! avail-bw sample through the Equation 9 inversion, assuming the tight
//! link's capacity is known and the path behaves as a single queue. Its
//! distinctive feature is *adaptation*: the input rate of the next train
//! tracks the current avail-bw estimate (the original uses a
//! multifractal cross-traffic model to extrapolate; here the tracking
//! filter is an EWMA, with the multifractal machinery out of scope —
//! the sampling structure, which is what the paper's classification is
//! about, is preserved).
//!
//! Probing *at* the avail-bw estimate is self-defeating (`Ri ≤ A` makes
//! Equation 9 degenerate), so Delphi probes at `headroom × estimate`,
//! keeping the train slightly into the overload regime.

#[cfg(test)]
use abw_netsim::SimDuration;
use abw_stats::running::Running;

use crate::fluid::direct_probing_estimate;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimate, Estimator, Observation, ProbeSpec, ToolEvent, Verdict};

/// Delphi configuration.
#[derive(Debug, Clone)]
pub struct DelphiConfig {
    /// Tight-link capacity `Ct` (assumed known).
    pub tight_capacity_bps: f64,
    /// Initial input rate (first train), bits/s.
    pub initial_rate_bps: f64,
    /// Multiplier applied to the running estimate to choose the next
    /// input rate (> 1 keeps the train overloading).
    pub headroom: f64,
    /// EWMA weight of the newest sample in the tracking filter.
    pub alpha: f64,
    /// Packets per train.
    pub packets_per_train: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Number of trains.
    pub trains: u32,
}

impl DelphiConfig {
    /// Defaults for the canonical 50/25 link.
    pub fn new(tight_capacity_bps: f64) -> Self {
        DelphiConfig {
            tight_capacity_bps,
            initial_rate_bps: tight_capacity_bps * 0.8,
            headroom: 1.25,
            alpha: 0.3,
            packets_per_train: 50,
            packet_size: 1500,
            trains: 40,
        }
    }
}

/// The Delphi estimator.
#[derive(Debug, Clone)]
pub struct Delphi {
    config: DelphiConfig,
}

/// Per-train record of a Delphi run, for studying the adaptation.
#[derive(Debug, Clone, Copy)]
pub struct DelphiStep {
    /// Input rate of this train, bits/s.
    pub ri_bps: f64,
    /// This train's raw avail-bw sample, bits/s (`None` when the train
    /// did not overload, i.e. `Ro ≈ Ri`).
    pub sample_bps: Option<f64>,
    /// The tracking estimate after this train, bits/s.
    pub estimate_bps: f64,
}

/// Delphi's result: the tracked estimate plus the adaptation trace.
#[derive(Debug, Clone)]
pub struct DelphiReport {
    /// Final tracked avail-bw estimate, bits/s.
    pub avail_bps: f64,
    /// Statistics of the raw per-train samples.
    pub samples: abw_stats::running::Summary,
    /// Every adaptation step.
    pub steps: Vec<DelphiStep>,
    /// Probing packets transmitted.
    pub probe_packets: u64,
    /// Simulated seconds the measurement took.
    pub elapsed_secs: f64,
}

impl DelphiReport {
    /// As a plain [`Estimate`].
    pub fn as_estimate(&self) -> Estimate {
        Estimate {
            avail_bps: self.avail_bps,
            samples: self.samples,
            probe_packets: self.probe_packets,
            elapsed_secs: self.elapsed_secs,
        }
    }
}

impl Delphi {
    /// Creates a Delphi instance.
    pub fn new(config: DelphiConfig) -> Self {
        assert!(config.headroom > 1.0, "headroom must keep Ri above A");
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "EWMA weight out of range"
        );
        assert!(config.trains >= 1);
        Delphi { config }
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> DelphiEstimator {
        DelphiEstimator {
            config: self.config.clone(),
            estimate_bps: self.config.initial_rate_bps / self.config.headroom,
            rate_bps: self.config.initial_rate_bps,
            samples: Running::new(),
            steps: Vec::with_capacity(self.config.trains as usize),
            packets: 0,
            sent: 0,
            events: Vec::new(),
        }
    }
}

/// Delphi as a decision state machine: each observed train yields a
/// sample that updates the EWMA tracker, which in turn sets the next
/// train's input rate.
#[derive(Debug, Clone)]
pub struct DelphiEstimator {
    config: DelphiConfig,
    estimate_bps: f64,
    /// Input rate of the train in flight (or about to be sent).
    rate_bps: f64,
    samples: Running,
    steps: Vec<DelphiStep>,
    packets: u64,
    sent: u32,
    events: Vec<ToolEvent>,
}

impl Estimator for DelphiEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        let ct = self.config.tight_capacity_bps;
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("Delphi sends streams");
            let rate = self.rate_bps;
            self.packets += result.spec.count() as u64;

            let sample = result.output_rate_bps().and_then(|ro| {
                // Equation 9 needs actual overload: Ro visibly below Ri
                if ro < rate * 0.995 {
                    Some(direct_probing_estimate(ct, rate, ro).clamp(0.0, ct))
                } else {
                    None
                }
            });
            match sample {
                Some(a) => {
                    self.samples.push(a);
                    self.estimate_bps =
                        (1.0 - self.config.alpha) * self.estimate_bps + self.config.alpha * a;
                }
                None => {
                    // train did not overload: the avail-bw is at least Ri,
                    // raise the floor so the next train probes higher
                    self.estimate_bps = self.estimate_bps.max(rate);
                }
            }
            self.events.push(ToolEvent::new(
                "delphi.train",
                vec![
                    ("iter", self.steps.len().into()),
                    ("ri_bps", rate.into()),
                    ("sample_bps", sample.unwrap_or(f64::NAN).into()),
                    ("estimate_bps", self.estimate_bps.into()),
                ],
            ));
            self.steps.push(DelphiStep {
                ri_bps: rate,
                sample_bps: sample,
                estimate_bps: self.estimate_bps,
            });
            self.rate_bps = (self.estimate_bps * self.config.headroom).min(ct * 0.98);
        }
        if self.sent < self.config.trains {
            self.sent += 1;
            Action::Send(ProbeSpec::stream(StreamSpec::Periodic {
                rate_bps: self.rate_bps,
                size: self.config.packet_size,
                count: self.config.packets_per_train,
            }))
        } else {
            Action::Done(Verdict::Delphi(DelphiReport {
                avail_bps: self.estimate_bps,
                samples: self.samples.summary(),
                steps: std::mem::take(&mut self.steps),
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

    fn run_delphi(cross: CrossKind, seed: u64) -> DelphiReport {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            seed,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = Delphi::new(DelphiConfig::new(50e6)).estimator();
        let Verdict::Delphi(r) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("Delphi yields a Delphi report")
        };
        r
    }

    #[test]
    fn tracks_avail_bw_on_cbr() {
        let r = run_delphi(CrossKind::Cbr, 1);
        assert!(
            (r.avail_bps - 25e6).abs() / 25e6 < 0.08,
            "estimate {:.2} Mb/s",
            r.avail_bps / 1e6
        );
    }

    #[test]
    fn tracks_avail_bw_on_poisson() {
        let r = run_delphi(CrossKind::Poisson, 2);
        assert!(
            (r.avail_bps - 25e6).abs() / 25e6 < 0.2,
            "estimate {:.2} Mb/s",
            r.avail_bps / 1e6
        );
    }

    #[test]
    fn adapts_rate_towards_the_overload_point() {
        let r = run_delphi(CrossKind::Cbr, 3);
        // after convergence the probing rate sits near headroom * A
        let last = r.steps.last().unwrap();
        assert!(
            (last.ri_bps - 1.25 * 25e6).abs() / (1.25 * 25e6) < 0.15,
            "final probing rate {:.2} Mb/s",
            last.ri_bps / 1e6
        );
        // the first train started far from there
        assert!((r.steps[0].ri_bps - 40e6).abs() < 1.0);
    }

    #[test]
    fn every_train_yields_at_most_one_sample() {
        let r = run_delphi(CrossKind::Poisson, 4);
        assert_eq!(r.steps.len(), 40);
        assert!(r.samples.count <= 40);
        assert!(r.samples.count > 10, "most trains should overload");
    }
}
