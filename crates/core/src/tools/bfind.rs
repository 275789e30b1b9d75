//! BFind (Akella et al.): sender-only avail-bw probing via per-hop RTTs.
//!
//! BFind needs no receiver cooperation: it ramps up a UDP load stream
//! while running traceroute-style TTL-limited probes to every router on
//! the path. When the load rate exceeds the avail-bw of some link, that
//! link's queue grows and the RTT to *that* router inflates — revealing
//! both the avail-bw (the rate at which inflation started) and which hop
//! is the tight link.
//!
//! The load/traceroute machinery lives in the session driver (the
//! [`crate::tools::ProbeSpec::LoadRamp`] probe kind); this module is only
//! the decision logic: hold each rate for an epoch, compare per-hop
//! median RTTs against the no-load baseline, stop at the first inflation.

use abw_netsim::SimDuration;
use abw_stats::trend::median;

use crate::tools::{Action, Estimator, LoadRampSpec, Observation, ProbeSpec, ToolEvent, Verdict};

/// BFind configuration.
#[derive(Debug, Clone)]
pub struct BfindConfig {
    /// First load rate probed, bits/s.
    pub start_rate_bps: f64,
    /// Rate increase per epoch, bits/s.
    pub rate_step_bps: f64,
    /// Give up beyond this rate (paper's BFind also caps its load).
    pub max_rate_bps: f64,
    /// How long each load rate is held.
    pub epoch: SimDuration,
    /// Gap between traceroute rounds within an epoch.
    pub trace_interval: SimDuration,
    /// Load packet size, bytes.
    pub load_packet_size: u32,
    /// Traceroute probe size, bytes.
    pub probe_size: u32,
    /// A hop is flagged when its median RTT exceeds the baseline by this
    /// many seconds.
    pub rtt_threshold_s: f64,
}

impl Default for BfindConfig {
    fn default() -> Self {
        BfindConfig {
            start_rate_bps: 4e6,
            rate_step_bps: 2e6,
            max_rate_bps: 49e6,
            epoch: SimDuration::from_millis(500),
            trace_interval: SimDuration::from_millis(25),
            load_packet_size: 1000,
            probe_size: 60,
            rtt_threshold_s: 2e-3,
        }
    }
}

/// Per-epoch observation.
#[derive(Debug, Clone)]
pub struct BfindEpoch {
    /// Load rate held during the epoch, bits/s.
    pub rate_bps: f64,
    /// Median RTT per hop (seconds); NaN when no reply arrived.
    pub hop_rtts: Vec<f64>,
}

/// BFind's result.
#[derive(Debug, Clone)]
pub struct BfindReport {
    /// Estimated avail-bw: the last load rate that did not inflate any
    /// hop's RTT, bits/s.
    pub avail_bps: f64,
    /// Hop index whose RTT inflated (the located tight link), when found.
    pub tight_hop: Option<usize>,
    /// All epochs, for plotting the ramp.
    pub epochs: Vec<BfindEpoch>,
    /// Load + traceroute packets transmitted.
    pub probe_packets: u64,
}

/// The BFind estimator.
#[derive(Debug, Clone)]
pub struct Bfind {
    config: BfindConfig,
}

impl Bfind {
    /// Creates a BFind instance.
    pub fn new(config: BfindConfig) -> Self {
        assert!(config.rate_step_bps > 0.0);
        assert!(config.max_rate_bps > config.start_rate_bps);
        Bfind { config }
    }

    /// The resumable state machine for one estimation round. Requires a
    /// *routed* session ([`crate::scenario::Scenario::session`]) because
    /// the load ramp installs its own probing agent.
    pub fn estimator(&self) -> BfindEstimator {
        BfindEstimator {
            config: self.config.clone(),
            baseline: None,
            rate_bps: 0.0,
            epochs: Vec::new(),
            packets: 0,
            result: None,
            events: Vec::new(),
        }
    }

    fn ramp(&self, rate_bps: f64) -> ProbeSpec {
        ProbeSpec::LoadRamp(LoadRampSpec {
            rate_bps,
            epoch: self.config.epoch,
            trace_interval: self.config.trace_interval,
            load_packet_size: self.config.load_packet_size,
            probe_size: self.config.probe_size,
        })
    }
}

/// BFind as a decision state machine: a zero-rate baseline epoch, then a
/// linear load ramp until some hop's median RTT inflates past the
/// baseline.
#[derive(Debug, Clone)]
pub struct BfindEstimator {
    config: BfindConfig,
    /// Per-hop median RTTs of the no-load epoch; `None` until observed.
    baseline: Option<Vec<f64>>,
    /// Load rate of the epoch in flight, bits/s.
    rate_bps: f64,
    epochs: Vec<BfindEpoch>,
    packets: u64,
    /// `(avail, tight_hop)` once some hop flagged.
    result: Option<(f64, usize)>,
    events: Vec<ToolEvent>,
}

impl Estimator for BfindEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        let tool = Bfind {
            config: self.config.clone(),
        };
        let Some(obs) = last else {
            // baseline epoch with no load
            return Action::Send(tool.ramp(0.0));
        };
        // lint: allow(panic_free) -- reply kind matches the request this estimator issued
        let sample = obs.load_ramp().expect("BFind sends load ramps");
        let rtts: Vec<f64> = sample.hop_rtts.iter().map(|v| median(v)).collect();
        self.packets = sample.probe_packets;

        let Some(baseline) = &self.baseline else {
            self.baseline = Some(rtts);
            self.rate_bps = self.config.start_rate_bps;
            return Action::Send(tool.ramp(self.rate_bps));
        };

        self.epochs.push(BfindEpoch {
            rate_bps: self.rate_bps,
            hop_rtts: rtts.clone(),
        });
        // a queue at link k inflates the probes of links k, k+1, ...;
        // the tight link is the FIRST link whose probe inflated
        let mut flagged: Option<usize> = None;
        for (hop, (&rtt, &base)) in rtts.iter().zip(baseline).enumerate() {
            if rtt.is_nan() || base.is_nan() {
                continue;
            }
            if rtt - base > self.config.rtt_threshold_s {
                flagged = Some(hop);
                break;
            }
        }
        self.events.push(ToolEvent::new(
            "bfind.epoch",
            vec![
                ("iter", (self.epochs.len() - 1).into()),
                ("rate_bps", self.rate_bps.into()),
                ("flagged_hop", flagged.map_or(-1i64, |h| h as i64).into()),
            ],
        ));
        if let Some(hop) = flagged {
            self.result = Some((self.rate_bps - self.config.rate_step_bps, hop));
        } else {
            self.rate_bps += self.config.rate_step_bps;
            if self.rate_bps <= self.config.max_rate_bps {
                return Action::Send(tool.ramp(self.rate_bps));
            }
        }

        let report = match self.result {
            Some((avail, hop)) => BfindReport {
                avail_bps: avail.max(self.config.start_rate_bps),
                tight_hop: Some(hop),
                epochs: std::mem::take(&mut self.epochs),
                probe_packets: self.packets,
            },
            None => BfindReport {
                avail_bps: self.config.max_rate_bps,
                tight_hop: None,
                epochs: std::mem::take(&mut self.epochs),
                probe_packets: self.packets,
            },
        };
        Action::Done(Verdict::Bfind(report))
    }

    fn take_events(&mut self) -> Vec<ToolEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrossKind, HopSpec, Scenario, SingleHopConfig};
    use abw_traffic::SizeDist;

    fn run_bfind(s: &mut Scenario, config: BfindConfig) -> BfindReport {
        let mut tool = Bfind::new(config).estimator();
        let Verdict::Bfind(report) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("BFind yields a BFind report")
        };
        report
    }

    #[test]
    fn finds_avail_bw_single_hop() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross: CrossKind::Cbr,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(300));
        let report = run_bfind(&mut s, BfindConfig::default());
        assert!(
            (report.avail_bps - 25e6).abs() <= 6e6,
            "avail {:.1} Mb/s",
            report.avail_bps / 1e6
        );
        assert_eq!(report.tight_hop, Some(0));
        assert!(!report.epochs.is_empty());
    }

    #[test]
    fn locates_the_tight_hop_on_a_multi_hop_path() {
        // hop 1 of 3 is the only tight link (avail 20 Mb/s; others 45)
        let mk = |cross_rate: f64| HopSpec {
            capacity_bps: 50e6,
            cross_rate_bps: cross_rate,
            cross: CrossKind::Cbr,
            cross_sizes: SizeDist::Constant(1500),
            prop_delay: SimDuration::from_millis(1),
            queue_bytes: None,
            impairment: None,
        };
        let mut s = Scenario::from_hops(vec![mk(5e6), mk(30e6), mk(5e6)], 11);
        s.warm_up(SimDuration::from_millis(300));
        let report = run_bfind(&mut s, BfindConfig::default());
        assert_eq!(report.tight_hop, Some(1), "wrong hop: {report:?}");
        assert!(
            (report.avail_bps - 20e6).abs() <= 6e6,
            "avail {:.1} Mb/s",
            report.avail_bps / 1e6
        );
    }

    #[test]
    fn idle_path_reports_no_tight_hop() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross_rate_bps: 0.0,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(100));
        let report = run_bfind(
            &mut s,
            BfindConfig {
                max_rate_bps: 40e6, // stay below capacity: never inflates
                ..BfindConfig::default()
            },
        );
        assert_eq!(report.tight_hop, None);
        assert_eq!(report.avail_bps, 40e6);
    }
}
