//! IGI and PTR (Hu & Steenkiste).
//!
//! Both techniques send trains of 60 packets and *increase the input gap*
//! (decrease the rate) until the **turning point**, where the average
//! output gap stops exceeding the input gap — the train rate then matches
//! the avail-bw:
//!
//! * **PTR** (Packet Transmission Rate) reports the train's transmission
//!   rate at the turning point — pure iterative probing, like TOPP but
//!   with 60-packet trains instead of pairs;
//! * **IGI** (Initial Gap Increasing) additionally applies a
//!   direct-probing-style formula at the turning point: the competing
//!   traffic rate is estimated from the gaps that grew,
//!   `Rc = Ct * Σ_{g_out > g_in}(g_out - g_in) / Σ g_out`, and
//!   `A = Ct - Rc` — which is why the paper calls IGI "harder to
//!   classify" (an iterative tool that still needs `Ct`).

use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimator, Observation, ProbeSpec, ToolEvent, Verdict};

/// IGI/PTR configuration.
#[derive(Debug, Clone)]
pub struct IgiConfig {
    /// Tight-link capacity `Ct` (used by the IGI formula only).
    pub tight_capacity_bps: f64,
    /// Packets per train (published default 60).
    pub packets_per_train: u32,
    /// Probing packet size (published default ~750 B).
    pub packet_size: u32,
    /// First probed rate (the initial gap is `8L / rate`), bits/s.
    pub initial_rate_bps: f64,
    /// Multiplicative gap increase per iteration (rate divides by this).
    pub gap_growth: f64,
    /// Turning point declared when `avg(g_out) <= g_in * (1 + tolerance)`.
    pub tolerance: f64,
    /// Hard cap on iterations.
    pub max_iterations: u32,
}

impl Default for IgiConfig {
    fn default() -> Self {
        IgiConfig {
            tight_capacity_bps: 50e6,
            packets_per_train: 60,
            packet_size: 750,
            initial_rate_bps: 48e6,
            gap_growth: 1.12,
            tolerance: 0.02,
            max_iterations: 40,
        }
    }
}

/// Result of an IGI/PTR run.
#[derive(Debug, Clone)]
pub struct IgiReport {
    /// The IGI estimate `A = Ct - Rc`, bits/s.
    pub igi_bps: f64,
    /// The PTR estimate (train transmission rate at the turning point),
    /// bits/s.
    pub ptr_bps: f64,
    /// Input rate of the train at the turning point, bits/s.
    pub turning_rate_bps: f64,
    /// Trains sent before the turning point was found.
    pub iterations: u32,
    /// Probing packets transmitted.
    pub probe_packets: u64,
}

/// IGI/PTR as a decision state machine: grow the input gap train by
/// train until the turning point, then report via the IGI formula (or
/// the train rate, in PTR mode).
#[derive(Debug, Clone)]
pub struct Igi {
    config: IgiConfig,
    /// Report as [`Verdict::Ptr`] instead of [`Verdict::Igi`].
    ptr: bool,
    /// Input rate of the train in flight (or about to be sent).
    rate_bps: f64,
    /// Trains sent so far (the 1-based iteration counter).
    sent: u32,
    packets: u64,
    /// Most recent train that produced gaps, for the exhausted case:
    /// `(igi, ptr, rate, iteration)`.
    last: Option<(f64, f64, f64, u32)>,
    events: Vec<ToolEvent>,
}

impl Igi {
    /// A fresh single-shot round reporting the IGI estimate.
    pub fn new(config: IgiConfig) -> Self {
        assert!(config.gap_growth > 1.0, "gap must grow between iterations");
        assert!(config.packets_per_train >= 3);
        Igi {
            rate_bps: config.initial_rate_bps,
            config,
            ptr: false,
            sent: 0,
            packets: 0,
            last: None,
            events: Vec::new(),
        }
    }

    /// A fresh single-shot round reporting the PTR estimate. The run is
    /// identical to [`Igi::new`]'s; only the [`Verdict`] variant (and so
    /// the registry's headline number) differs.
    pub fn ptr(config: IgiConfig) -> Self {
        Igi {
            ptr: true,
            ..Igi::new(config)
        }
    }

    /// The IGI competing-rate formula applied to one train.
    ///
    /// An *increased* gap (`g_out > g_in`) means the tight link's queue
    /// stayed busy across the whole gap, so the cross traffic it carried
    /// is `(g_out - g_B) * Ct` where `g_B = 8L/Ct` is the probe's own
    /// service time (the bottleneck gap). Summing over increased gaps:
    /// `Rc = Ct * Σ(g_out - g_B) / Σ g_out`, and `A = Ct - Rc`.
    ///
    /// Returns `(igi_avail, ptr_rate)`; `None` when fewer than 2 packets
    /// arrived.
    pub fn analyse_train(&self, result: &StreamResult, g_in: f64) -> Option<(f64, f64)> {
        let gaps = result.pair_gaps();
        if gaps.is_empty() {
            return None;
        }
        let l_bits = self.config.packet_size as f64 * 8.0;
        let g_bottleneck = l_bits / self.config.tight_capacity_bps;
        let mut cross_time = 0.0;
        let mut total_out = 0.0;
        for &(_, g_out) in &gaps {
            if g_out > g_in && g_out > g_bottleneck {
                cross_time += g_out - g_bottleneck;
            }
            total_out += g_out;
        }
        if total_out <= 0.0 {
            return None;
        }
        let rc = self.config.tight_capacity_bps * cross_time / total_out;
        let igi = self.config.tight_capacity_bps - rc;
        let ptr = gaps.len() as f64 * l_bits / total_out;
        Some((igi, ptr))
    }

    fn verdict(&self, report: IgiReport) -> Verdict {
        if self.ptr {
            Verdict::Ptr(report)
        } else {
            Verdict::Igi(report)
        }
    }
}

impl Estimator for Igi {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        let config = &self.config;
        let l_bits = config.packet_size as f64 * 8.0;
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("IGI sends trains");
            self.packets += result.spec.count() as u64;
            let g_in = l_bits / self.rate_bps;
            if let Some((igi, ptr)) = self.analyse_train(result, g_in) {
                self.last = Some((igi, ptr, self.rate_bps, self.sent));
                // turning point: output gaps no longer exceed input gaps
                let gaps = result.pair_gaps();
                let avg_out: f64 = gaps.iter().map(|&(_, g)| g).sum::<f64>() / gaps.len() as f64;
                let turned = avg_out <= g_in * (1.0 + config.tolerance);
                self.events.push(ToolEvent::new(
                    "igi.train",
                    vec![
                        ("iter", u64::from(self.sent).into()),
                        ("rate_bps", self.rate_bps.into()),
                        ("g_in_s", g_in.into()),
                        ("avg_g_out_s", avg_out.into()),
                        ("igi_bps", igi.into()),
                        ("ptr_bps", ptr.into()),
                        ("turned", turned.into()),
                    ],
                ));
                if turned {
                    let report = IgiReport {
                        igi_bps: igi,
                        ptr_bps: ptr,
                        turning_rate_bps: self.rate_bps,
                        iterations: self.sent,
                        probe_packets: self.packets,
                    };
                    return Action::Done(self.verdict(report));
                }
            }
            self.rate_bps /= config.gap_growth;
        }
        if self.sent < config.max_iterations {
            self.sent += 1;
            Action::Send(ProbeSpec::stream(StreamSpec::Periodic {
                rate_bps: self.rate_bps,
                size: config.packet_size,
                count: config.packets_per_train,
            }))
        } else {
            // never converged: report the last train's numbers; if no
            // train ever produced usable gaps (e.g. total loss), fall
            // back to the current probe state rather than panicking
            let (igi, ptr, rate, iterations) =
                self.last
                    .unwrap_or((self.rate_bps, self.rate_bps, self.rate_bps, self.sent));
            let report = IgiReport {
                igi_bps: igi,
                ptr_bps: ptr,
                turning_rate_bps: rate,
                iterations,
                probe_packets: self.packets,
            };
            Action::Done(self.verdict(report))
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
    use abw_netsim::SimDuration;

    fn scenario(cross: CrossKind) -> Scenario {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        s
    }

    fn run_igi(s: &mut Scenario) -> IgiReport {
        let mut tool = Igi::new(IgiConfig::default());
        let Verdict::Igi(r) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("IGI yields an IGI report")
        };
        r
    }

    #[test]
    fn converges_on_cbr() {
        let r = run_igi(&mut scenario(CrossKind::Cbr));
        assert!(
            (r.ptr_bps - 25e6).abs() / 25e6 < 0.25,
            "PTR {:.2} Mb/s",
            r.ptr_bps / 1e6
        );
        assert!(
            (r.igi_bps - 25e6).abs() / 25e6 < 0.25,
            "IGI {:.2} Mb/s",
            r.igi_bps / 1e6
        );
        assert!(r.iterations >= 2, "should need several gap increases");
    }

    #[test]
    fn converges_on_poisson() {
        let r = run_igi(&mut scenario(CrossKind::Poisson));
        // burstiness biases towards underestimation (Pitfall 6); accept a
        // wide band but require the right ballpark
        assert!(
            r.ptr_bps > 10e6 && r.ptr_bps < 35e6,
            "PTR {:.2} Mb/s",
            r.ptr_bps / 1e6
        );
    }

    #[test]
    fn turning_rate_tracks_ptr() {
        let r = run_igi(&mut scenario(CrossKind::Cbr));
        // the PTR (output-side rate) can only lag the input rate at the
        // turning point
        assert!(r.ptr_bps <= r.turning_rate_bps * 1.05);
    }

    #[test]
    fn idle_link_turns_immediately() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross_rate_bps: 0.0,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(100));
        let r = run_igi(&mut s);
        assert_eq!(r.iterations, 1, "48 Mb/s < C = 50 Mb/s: no queueing");
        assert!(r.igi_bps > 45e6);
    }

    /// IGI and PTR share one engine: on identically seeded scenarios the
    /// two estimators send the same trains and build the same report,
    /// which only the verdict variant reads differently.
    #[test]
    fn ptr_run_matches_igi_run() {
        let igi = run_igi(&mut scenario(CrossKind::Poisson));
        let mut s = scenario(CrossKind::Poisson);
        let mut tool = Igi::ptr(IgiConfig::default());
        let Verdict::Ptr(ptr) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("PTR yields a PTR report")
        };
        assert_eq!(igi.igi_bps, ptr.igi_bps);
        assert_eq!(igi.ptr_bps, ptr.ptr_bps);
        assert_eq!(igi.turning_rate_bps, ptr.turning_rate_bps);
        assert_eq!(igi.iterations, ptr.iterations);
        assert_eq!(igi.probe_packets, ptr.probe_packets);
    }
}
