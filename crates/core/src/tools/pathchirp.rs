//! pathChirp (Ribeiro et al.): iterative probing with exponentially
//! spaced "chirps".
//!
//! One chirp of `N` packets probes `N-1` rates at once — the paper notes
//! this per-packet efficiency comes from using *consecutive packet
//! pairs*. Per chirp, the queueing-delay signature is segmented into
//! excursions; the estimate combines the rates where excursions begin
//! with the rate at the start of the final (unterminated) excursion.
//!
//! This implementation follows the published excursion-segmentation
//! algorithm in simplified form (documented inline); the simplifications
//! do not change the tool's character — an iterative prober whose single
//! chirp spans a whole rate range.

use abw_stats::running::Running;

use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimate, Estimator, Observation, ProbeSpec, ToolEvent, Verdict};

/// pathChirp configuration.
#[derive(Debug, Clone)]
pub struct PathchirpConfig {
    /// Rate probed by the first (widest) pair, bits/s.
    pub start_rate_bps: f64,
    /// Spreading factor between consecutive pairs (published default 1.2).
    pub gamma: f64,
    /// Packets per chirp.
    pub packets_per_chirp: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Chirps averaged per estimate.
    pub chirps: u32,
    /// A queueing delay above this threshold (seconds) counts as
    /// "excursion" — absorbs sub-packet-time jitter.
    pub delay_threshold_s: f64,
}

impl Default for PathchirpConfig {
    fn default() -> Self {
        PathchirpConfig {
            start_rate_bps: 5e6,
            gamma: 1.2,
            packets_per_chirp: 24,
            packet_size: 1000,
            chirps: 30,
            delay_threshold_s: 60e-6,
        }
    }
}

/// pathChirp as a decision state machine: send `chirps` identical chirp
/// streams, run the excursion analysis on each, report the mean.
#[derive(Debug, Clone)]
pub struct Pathchirp {
    config: PathchirpConfig,
    spec: StreamSpec,
    sent: u32,
    /// Chirps observed so far (the trace-event iteration counter).
    processed: u32,
    samples: Running,
    packets: u64,
    events: Vec<ToolEvent>,
}

impl Pathchirp {
    /// A fresh single-shot pathChirp round.
    pub fn new(config: PathchirpConfig) -> Self {
        assert!(config.gamma > 1.0, "gamma must exceed 1");
        assert!(config.packets_per_chirp >= 4, "chirp too short");
        Pathchirp {
            spec: StreamSpec::Chirp {
                start_rate_bps: config.start_rate_bps,
                gamma: config.gamma,
                size: config.packet_size,
                count: config.packets_per_chirp,
            },
            config,
            sent: 0,
            processed: 0,
            samples: Running::new(),
            packets: 0,
            events: Vec::new(),
        }
    }

    /// The per-chirp avail-bw estimate from one received chirp.
    ///
    /// Simplified excursion analysis:
    /// * compute each pair's probing rate `R_k` and the queueing delay
    ///   `q_k` of the pair's second packet (relative OWD);
    /// * find the last index `j*` from which `q` stays above the
    ///   threshold to the end of the chirp — the unterminated excursion
    ///   marking sustained overload; its start rate is the estimate;
    /// * when no such point exists the chirp never overloaded the path
    ///   and the estimate is the highest rate probed.
    pub fn chirp_estimate(&self, result: &StreamResult) -> Option<f64> {
        let pairs = chirp_pairs(result, self.config.packet_size)?;

        // last start of a run that stays above the threshold to the end
        let mut j_star = None;
        for (k, pair) in pairs.iter().enumerate().rev() {
            if pair.1 > self.config.delay_threshold_s {
                j_star = Some(k);
            } else {
                break;
            }
        }
        match j_star.and_then(|j| pairs.get(j)) {
            Some(pair) => Some(pair.0),
            // never overloaded: avail-bw is at least the top probed rate
            None => pairs.last().map(|p| p.0),
        }
    }
}

impl Estimator for Pathchirp {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("pathChirp sends chirps");
            self.packets += result.spec.count() as u64;
            if let Some(e) = self.chirp_estimate(result) {
                self.samples.push(e);
                self.events.push(ToolEvent::new(
                    "pathchirp.chirp",
                    vec![
                        ("iter", u64::from(self.processed).into()),
                        ("estimate_bps", e.into()),
                        ("running_mean_bps", self.samples.mean().into()),
                        ("received", result.received().into()),
                    ],
                ));
            }
            self.processed += 1;
        }
        if self.sent < self.config.chirps {
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

    fn take_events(&mut self) -> Vec<ToolEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The per-pair `(probing rate, queueing delay)` series of one received
/// chirp, shared by pathChirp and S-chirp; `None` when fewer than 4
/// packets arrived or no consecutive pair survived.
///
/// Pair k is two adjacent received packets with consecutive seqs: the
/// probing rate comes from the pair's send gap, the queueing-delay
/// signature from the relative OWD of the pair's second packet. Pairing
/// the two by record position keeps them aligned when loss punches
/// holes in the chirp — a raw `owds[1..]` drifts one slot per lost
/// packet.
pub(crate) fn chirp_pairs(result: &StreamResult, packet_size: u32) -> Option<Vec<(f64, f64)>> {
    if result.received() < 4 {
        return None;
    }
    let owds = result.relative_owds();
    let pairs: Vec<(f64, f64)> = result
        .records
        .windows(2)
        .enumerate()
        .filter_map(|(i, w)| match w {
            [a, b] if b.seq == a.seq + 1 => {
                let g_in = b.sent_at.since(a.sent_at).as_secs_f64();
                let rate = packet_size as f64 * 8.0 / g_in;
                owds.get(i + 1).map(|&q| (rate, q))
            }
            _ => None,
        })
        .collect();
    (!pairs.is_empty()).then_some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrossKind, Scenario, SingleHopConfig};
    use abw_netsim::SimDuration;

    fn run_chirp(cross: CrossKind, chirps: u32) -> Verdict {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = Pathchirp::new(PathchirpConfig {
            chirps,
            ..PathchirpConfig::default()
        });
        s.session().drive(&mut s.sim, &mut tool)
    }

    #[test]
    fn tracks_avail_bw_on_cbr() {
        let est = run_chirp(CrossKind::Cbr, 20).avail_bps();
        assert!(
            (est - 25e6).abs() / 25e6 < 0.3,
            "estimate {:.2} Mb/s",
            est / 1e6
        );
    }

    #[test]
    fn tracks_avail_bw_on_poisson() {
        let est = run_chirp(CrossKind::Poisson, 40).avail_bps();
        assert!(
            (est - 25e6).abs() / 25e6 < 0.4,
            "estimate {:.2} Mb/s",
            est / 1e6
        );
    }

    #[test]
    fn idle_path_reports_top_of_chirp() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross_rate_bps: 0.0,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(100));
        let cfg = PathchirpConfig {
            chirps: 3,
            ..PathchirpConfig::default()
        };
        let top_rate = cfg.start_rate_bps * cfg.gamma.powi(cfg.packets_per_chirp as i32 - 2);
        let mut tool = Pathchirp::new(cfg);
        let est = s.session().drive(&mut s.sim, &mut tool).avail_bps();
        // on an idle 50 Mb/s link the chirp's top rates exceed the
        // capacity, so an excursion forms near the capacity — the
        // estimate is between 25 Mb/s and the top probed rate
        assert!(
            est >= 25e6 && est <= top_rate,
            "estimate {:.2} Mb/s (top {:.2})",
            est / 1e6,
            top_rate / 1e6
        );
    }

    #[test]
    fn lossy_chirp_still_yields_an_estimate() {
        // A chirp with holes (lost seqs 3 and 7) has fewer consecutive
        // pairs than received packets; the excursion analysis must keep
        // rates and delays aligned and not panic on the mismatch.
        use crate::probe::{ProbeRecord, StreamResult};
        use crate::stream::StreamSpec;
        use abw_netsim::SimTime;

        let cfg = PathchirpConfig::default();
        let spec = StreamSpec::Chirp {
            start_rate_bps: cfg.start_rate_bps,
            gamma: cfg.gamma,
            size: cfg.packet_size,
            count: 12,
        };
        let records: Vec<ProbeRecord> = (0u32..12)
            .filter(|s| *s != 3 && *s != 7)
            .map(|seq| ProbeRecord {
                seq,
                sent_at: SimTime::from_nanos(seq as u64 * 1_000_000),
                // delays ramp up late in the chirp, as under overload
                recv_at: SimTime::from_nanos(
                    seq as u64 * 1_000_000 + 500_000 + (seq as u64).pow(2) * 20_000,
                ),
            })
            .collect();
        let result = StreamResult {
            stream_id: 0,
            spec,
            records,
        };
        let est = Pathchirp::new(cfg).chirp_estimate(&result);
        assert!(est.is_some_and(|e| e > 0.0), "estimate {est:?}");
    }

    #[test]
    fn efficiency_fewer_packets_than_pathload() {
        // one chirp probes ~22 rates with 24 packets; verify the packet
        // accounting reflects that efficiency
        assert_eq!(run_chirp(CrossKind::Cbr, 10).probe_packets(), 240);
    }
}
