//! TOPP: Trains Of Packet Pairs (Melander et al.).
//!
//! The canonical *iterative* prober: the offered rate increases linearly
//! across probing rounds, and the turning point where the ratio `Ri/Ro`
//! starts growing above 1 marks the avail-bw. Above the turning point
//! the fluid model gives `Ri/Ro = Ri/Ct + (Ct - A)/Ct`, so an OLS fit
//! over the supra-turning segment also recovers the tight-link capacity
//! — TOPP is the one classical tool that estimates both `A` and `Ct`.
//!
//! Each round sends short *trains* at rate `Ri` (the published TOPP
//! sends trains of packet pairs for the same reason): an isolated pair's
//! own first packet inflates the second packet's queueing, so
//! single-pair dispersion reads `Ro < Ri` well below the avail-bw;
//! averaging the `n-1` gaps of a train dilutes that self-induced bias by
//! `1/(n-1)`.

use abw_netsim::SimDuration;
use abw_stats::regression::linear_fit;
use abw_stats::running::Running;

use crate::stream::StreamSpec;
use crate::tools::{Action, Estimator, Observation, ProbeSpec, ToolEvent, Verdict};

/// TOPP configuration.
#[derive(Debug, Clone)]
pub struct ToppConfig {
    /// Lowest offered rate, bits/s.
    pub min_rate_bps: f64,
    /// Highest offered rate, bits/s.
    pub max_rate_bps: f64,
    /// Linear rate increment between successive probing rounds.
    pub step_bps: f64,
    /// Trains sent per rate (their dispersions are averaged).
    pub streams_per_rate: u32,
    /// Packets per train (≥ 2; 2 degenerates to raw pairs).
    pub packets_per_stream: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// `Ri/Ro` above `1 + tolerance` counts as expansion.
    pub tolerance: f64,
    /// Inter-stream gap for the sweep's trains; `None` keeps the
    /// session runner's configured gap.
    pub stream_gap: Option<SimDuration>,
}

impl Default for ToppConfig {
    fn default() -> Self {
        ToppConfig {
            min_rate_bps: 5e6,
            max_rate_bps: 48e6,
            step_bps: 1e6,
            streams_per_rate: 6,
            packets_per_stream: 17,
            packet_size: 1500,
            tolerance: 0.05,
            stream_gap: None,
        }
    }
}

/// One probing round of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ToppPoint {
    /// Offered rate `Ri`, bits/s.
    pub ri_bps: f64,
    /// Mean measured output rate `Ro`, bits/s.
    pub ro_bps: f64,
    /// `Ri / Ro`.
    pub ratio: f64,
}

/// TOPP's result: the avail-bw, the tight-link capacity recovered from
/// the regression, and the raw sweep.
#[derive(Debug, Clone)]
pub struct ToppReport {
    /// Estimated avail-bw, bits/s.
    pub avail_bps: f64,
    /// Estimated tight-link capacity from the supra-turning regression,
    /// bits/s (`None` when too few points lie above the turning point).
    pub tight_capacity_bps: Option<f64>,
    /// First offered rate that showed sustained expansion.
    pub turning_rate_bps: f64,
    /// The full sweep, for plotting.
    pub points: Vec<ToppPoint>,
    /// Probing packets transmitted.
    pub probe_packets: u64,
}

/// The TOPP estimator.
#[derive(Debug, Clone)]
pub struct Topp {
    config: ToppConfig,
}

impl Topp {
    /// Creates a TOPP instance.
    pub fn new(config: ToppConfig) -> Self {
        assert!(config.min_rate_bps > 0.0);
        assert!(config.max_rate_bps > config.min_rate_bps);
        assert!(config.step_bps > 0.0);
        Topp { config }
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> ToppEstimator {
        ToppEstimator {
            tool: self.clone(),
            rate_bps: self.config.min_rate_bps,
            in_round: 0,
            gout: Running::new(),
            points: Vec::new(),
            packets: 0,
            events: Vec::new(),
        }
    }

    /// Turning-point analysis over a completed sweep.
    pub fn analyse(&self, points: Vec<ToppPoint>, probe_packets: u64) -> ToppReport {
        // turning point: first rate from which the ratio stays above
        // 1 + tolerance for the rest of the sweep
        let threshold = 1.0 + self.config.tolerance;
        let mut turning_idx = points.len();
        for start in 0..points.len() {
            if points.iter().skip(start).all(|p| p.ratio > threshold) {
                turning_idx = start;
                break;
            }
        }
        let turning_rate = points
            .get(turning_idx)
            .map_or(self.config.max_rate_bps, |p| p.ri_bps);
        // base estimate: the last non-expanding rate
        let base_avail = match turning_idx.checked_sub(1).and_then(|i| points.get(i)) {
            Some(p) => p.ri_bps,
            None => self.config.min_rate_bps,
        };

        // refinement: fluid model above the turning point is linear in Ri.
        // Pair-probing noise can produce a statistically meaningless fit,
        // so the regression is only accepted when it (a) explains the
        // points (r² ≥ 0.6) and (b) lands near the turning point it is
        // supposed to refine — otherwise the turning point stands.
        let supra: Vec<&ToppPoint> = points.iter().skip(turning_idx).collect();
        let (avail, ct) = if supra.len() >= 3 {
            let xs: Vec<f64> = supra.iter().map(|p| p.ri_bps).collect();
            let ys: Vec<f64> = supra.iter().map(|p| p.ratio).collect();
            match linear_fit(&xs, &ys) {
                Some(fit) if fit.slope > 0.0 && fit.r2 >= 0.6 => {
                    let ct = 1.0 / fit.slope;
                    let a = ct * (1.0 - fit.intercept);
                    let sane =
                        a > 0.0 && a < ct && a >= base_avail * 0.5 && a <= turning_rate * 1.5;
                    if sane {
                        (a, Some(ct))
                    } else {
                        (base_avail, None)
                    }
                }
                _ => (base_avail, None),
            }
        } else {
            (base_avail, None)
        };

        ToppReport {
            avail_bps: avail,
            tight_capacity_bps: ct,
            turning_rate_bps: turning_rate,
            points,
            probe_packets,
        }
    }
}

/// TOPP as a decision state machine: sweep the offered rate linearly,
/// averaging the output dispersion over `streams_per_rate` trains per
/// rate, then run the turning-point analysis.
#[derive(Debug, Clone)]
pub struct ToppEstimator {
    tool: Topp,
    /// Offered rate of the current round.
    rate_bps: f64,
    /// Trains observed so far at the current rate.
    in_round: u32,
    /// Output-gap accumulator of the current round. Averaging the
    /// *dispersion* gaps, then converting to a rate `Ro = L / mean(g_out)`,
    /// avoids the upward Jensen bias of averaging per-gap rates `L/g_out`,
    /// which at low probing rates (long gaps, many interleaved cross
    /// packets) fabricates expansion.
    gout: Running,
    points: Vec<ToppPoint>,
    packets: u64,
    events: Vec<ToolEvent>,
}

impl Estimator for ToppEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        let config = &self.tool.config;
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("TOPP sends trains");
            self.packets += result.spec.count() as u64;
            for &(_, g_out) in &result.pair_gaps() {
                if g_out > 0.0 {
                    self.gout.push(g_out);
                }
            }
            self.in_round += 1;
            if self.in_round == config.streams_per_rate {
                if self.gout.count() > 0 {
                    let ro_mean = config.packet_size as f64 * 8.0 / self.gout.mean();
                    self.events.push(ToolEvent::new(
                        "topp.round",
                        vec![
                            ("iter", self.points.len().into()),
                            ("ri_bps", self.rate_bps.into()),
                            ("ro_bps", ro_mean.into()),
                            ("ratio", (self.rate_bps / ro_mean).into()),
                        ],
                    ));
                    self.points.push(ToppPoint {
                        ri_bps: self.rate_bps,
                        ro_bps: ro_mean,
                        ratio: self.rate_bps / ro_mean,
                    });
                }
                self.gout = Running::new();
                self.in_round = 0;
                self.rate_bps += config.step_bps;
            }
        }
        if self.rate_bps <= config.max_rate_bps + 1e-9 {
            Action::Send(ProbeSpec::Stream {
                spec: StreamSpec::Periodic {
                    rate_bps: self.rate_bps,
                    size: config.packet_size,
                    count: config.packets_per_stream,
                },
                pre_gap: config.stream_gap,
            })
        } else {
            let report = self
                .tool
                .analyse(std::mem::take(&mut self.points), self.packets);
            self.events.push(ToolEvent::new(
                "topp.result",
                vec![
                    ("avail_bps", report.avail_bps.into()),
                    (
                        "tight_capacity_bps",
                        report.tight_capacity_bps.unwrap_or(f64::NAN).into(),
                    ),
                    ("turning_rate_bps", report.turning_rate_bps.into()),
                    ("rounds", report.points.len().into()),
                ],
            ));
            Action::Done(Verdict::Topp(report))
        }
    }

    fn take_events(&mut self) -> Vec<ToolEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::output_rate;
    use crate::scenario::{CrossKind, Scenario, SingleHopConfig};

    /// Drives TOPP with 5 ms stream gaps on the CBR-loaded canonical hop.
    fn run_on_cbr(config: ToppConfig) -> ToppReport {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross: CrossKind::Cbr,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(300));
        let mut session = s.session();
        session.runner_mut().stream_gap = SimDuration::from_millis(5);
        let mut tool = Topp::new(config).estimator();
        let Verdict::Topp(report) = session.drive(&mut s.sim, &mut tool) else {
            unreachable!("TOPP yields a TOPP report")
        };
        report
    }

    /// Analysis on synthetic fluid-model points must recover A and Ct.
    #[test]
    fn analyse_recovers_fluid_parameters() {
        let topp = Topp::new(ToppConfig::default());
        let points: Vec<ToppPoint> = (5..=48)
            .map(|mbps| {
                let ri = mbps as f64 * 1e6;
                let ro = output_rate(50e6, ri, 25e6);
                ToppPoint {
                    ri_bps: ri,
                    ro_bps: ro,
                    ratio: ri / ro,
                }
            })
            .collect();
        let report = topp.analyse(points, 0);
        assert!(
            (report.avail_bps - 25e6).abs() / 25e6 < 0.02,
            "A = {:.2} Mb/s",
            report.avail_bps / 1e6
        );
        let ct = report.tight_capacity_bps.expect("regression possible");
        assert!((ct - 50e6).abs() / 50e6 < 0.02, "Ct = {:.2} Mb/s", ct / 1e6);
    }

    #[test]
    fn end_to_end_on_cbr() {
        let report = run_on_cbr(ToppConfig {
            step_bps: 2e6,
            ..ToppConfig::default()
        });
        assert!(
            (report.avail_bps - 25e6).abs() / 25e6 < 0.25,
            "A = {:.2} Mb/s",
            report.avail_bps / 1e6
        );
        assert!(!report.points.is_empty());
        assert!(report.probe_packets > 0);
    }

    #[test]
    fn turning_rate_bounds_avail() {
        let report = run_on_cbr(ToppConfig {
            step_bps: 3e6,
            streams_per_rate: 3,
            ..ToppConfig::default()
        });
        assert!(report.turning_rate_bps >= report.avail_bps * 0.5);
    }
}
