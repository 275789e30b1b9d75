//! S-chirp — smoothed chirps (Pásztor, PhD thesis 2003).
//!
//! Like pathChirp, S-chirp probes a whole rate range within one stream;
//! the difference is the analysis: instead of segmenting the raw
//! queueing-delay signature into excursions, S-chirp *smooths* the
//! per-pair delay-variation series over a window before locating the
//! sustained-increase onset. Smoothing trades rate resolution for
//! robustness to packet-scale noise — the same latency/accuracy dial as
//! everywhere else in this area (Fallacy 3).

#[cfg(test)]
use abw_netsim::SimDuration;
use abw_stats::running::Running;

use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::pathchirp::chirp_pairs;
use crate::tools::{Action, Estimate, Estimator, Observation, ProbeSpec, Verdict};

/// S-chirp configuration.
#[derive(Debug, Clone)]
pub struct SchirpConfig {
    /// Rate probed by the first (widest) pair, bits/s.
    pub start_rate_bps: f64,
    /// Spreading factor between consecutive pairs.
    pub gamma: f64,
    /// Packets per chirp.
    pub packets_per_chirp: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Chirps averaged per estimate.
    pub chirps: u32,
    /// Moving-average window (in pairs) applied to the delay series.
    pub smoothing_window: usize,
    /// Smoothed delay slope above this (seconds per pair) marks the
    /// overload onset.
    // lint: allow(units) -- compound unit (seconds per pair) outside the suffix vocabulary
    pub slope_threshold: f64,
}

impl Default for SchirpConfig {
    fn default() -> Self {
        SchirpConfig {
            start_rate_bps: 5e6,
            gamma: 1.2,
            packets_per_chirp: 24,
            packet_size: 1000,
            chirps: 30,
            smoothing_window: 3,
            slope_threshold: 8e-6,
        }
    }
}

/// S-chirp as a decision state machine: send the configured chirps and
/// average the per-chirp onset estimates.
#[derive(Debug, Clone)]
pub struct Schirp {
    config: SchirpConfig,
    spec: StreamSpec,
    sent: u32,
    samples: Running,
    packets: u64,
}

impl Schirp {
    /// A fresh single-shot S-chirp round.
    pub fn new(config: SchirpConfig) -> Self {
        assert!(config.gamma > 1.0);
        assert!(config.smoothing_window >= 1);
        assert!(config.packets_per_chirp >= 4);
        Schirp {
            spec: StreamSpec::Chirp {
                start_rate_bps: config.start_rate_bps,
                gamma: config.gamma,
                size: config.packet_size,
                count: config.packets_per_chirp,
            },
            config,
            sent: 0,
            samples: Running::new(),
            packets: 0,
        }
    }

    /// Centered moving average with the configured window.
    fn smooth(&self, xs: &[f64]) -> Vec<f64> {
        let w = self.config.smoothing_window;
        (0..xs.len())
            .map(|i| {
                let lo = i.saturating_sub(w / 2);
                let hi = (i + w.div_ceil(2)).min(xs.len());
                // lint: allow(panic_free) -- lo <= i < hi <= len by construction
                xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// The per-chirp estimate: the pair rate at the onset of a sustained
    /// increase in the smoothed queueing-delay series.
    pub fn chirp_estimate(&self, result: &StreamResult) -> Option<f64> {
        // per-pair (rate, delay), built exactly as pathChirp builds them
        let pairs = chirp_pairs(result, self.config.packet_size)?;
        let q_raw: Vec<f64> = pairs.iter().map(|&(_, q)| q).collect();
        let q = self.smooth(&q_raw);

        // onset: the last index from which the smoothed delays increase
        // by at least the threshold per pair, through to the chirp's end
        let mut onset = None;
        for (k, w) in q.windows(2).enumerate().rev() {
            match w {
                [prev, cur] if cur - prev > self.config.slope_threshold => onset = Some(k),
                _ => break,
            }
        }
        onset
            .and_then(|j| pairs.get(j))
            .or(pairs.last())
            .map(|&(rate, _)| rate)
    }
}

impl Estimator for Schirp {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("S-chirp sends chirps");
            self.packets += result.spec.count() as u64;
            if let Some(e) = self.chirp_estimate(result) {
                self.samples.push(e);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrossKind, Scenario, SingleHopConfig};

    fn run_schirp(cross: CrossKind, seed: u64) -> f64 {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            seed,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = Schirp::new(SchirpConfig::default());
        s.session().drive(&mut s.sim, &mut tool).avail_bps()
    }

    #[test]
    fn tracks_avail_bw_on_cbr() {
        let est = run_schirp(CrossKind::Cbr, 1);
        assert!(
            (est - 25e6).abs() / 25e6 < 0.35,
            "estimate {:.2} Mb/s",
            est / 1e6
        );
    }

    #[test]
    fn tracks_avail_bw_on_poisson() {
        let est = run_schirp(CrossKind::Poisson, 2);
        assert!(
            (est - 25e6).abs() / 25e6 < 0.45,
            "estimate {:.2} Mb/s",
            est / 1e6
        );
    }

    #[test]
    fn smoothing_preserves_length_and_mean() {
        let s = Schirp::new(SchirpConfig::default());
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let sm = s.smooth(&xs);
        assert_eq!(sm.len(), xs.len());
        let mean_raw = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_sm = sm.iter().sum::<f64>() / sm.len() as f64;
        assert!((mean_raw - mean_sm).abs() < 1.0);
        // a linear ramp stays (approximately) a linear ramp
        for w in sm.windows(2).skip(2).take(14) {
            assert!((w[1] - w[0] - 1.0).abs() < 0.5);
        }
    }
}
