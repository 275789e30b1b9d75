//! Pathload (Jain & Dovrolis): binary-search iterative probing with
//! one-way-delay trend analysis.
//!
//! Pathload differs from the other iterative tools in three ways the
//! paper emphasises:
//!
//! 1. it infers `Ri > A` from the *statistical trend* of the stream's
//!    OWDs (PCT/PDT tests on group medians) rather than from the single
//!    ratio `Ro/Ri` (Fallacy 8);
//! 2. it varies the rate by **binary search** rather than linearly;
//! 3. it reports a **variation range** `(R_L, R_H)` rather than a point
//!    estimate, because the avail-bw process moves while the iteration
//!    runs (Fallacy 9).

use abw_stats::trend::{TrendAnalyzer, TrendVerdict};

use crate::probe::StreamResult;
use crate::stream::StreamSpec;
use crate::tools::{Action, Estimator, Observation, ProbeSpec, RangeEstimate, ToolEvent, Verdict};

/// Pathload configuration.
#[derive(Debug, Clone)]
pub struct PathloadConfig {
    /// Initial lower bound of the search, bits/s.
    pub min_rate_bps: f64,
    /// Initial upper bound of the search, bits/s.
    pub max_rate_bps: f64,
    /// Terminate when `max - min` falls below this resolution (Pathload's
    /// `omega`).
    pub resolution_bps: f64,
    /// Streams per fleet (Pathload sends a fleet at each rate and votes).
    pub streams_per_fleet: u32,
    /// Packets per stream (Pathload's `K`; 100 in the published tool).
    pub packets_per_stream: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Fraction of increasing-trend streams above which the fleet's rate
    /// is declared above the avail-bw.
    pub above_fraction: f64,
    /// Fraction below which the rate is declared below the avail-bw.
    pub below_fraction: f64,
    /// The PCT/PDT analyser.
    pub trend: TrendAnalyzer,
}

impl Default for PathloadConfig {
    fn default() -> Self {
        PathloadConfig {
            min_rate_bps: 1e6,
            max_rate_bps: 49e6,
            resolution_bps: 2e6,
            streams_per_fleet: 12,
            packets_per_stream: 100,
            packet_size: 1500,
            above_fraction: 0.7,
            below_fraction: 0.3,
            trend: TrendAnalyzer::default(),
        }
    }
}

impl PathloadConfig {
    /// A faster configuration for tests and examples: smaller fleets,
    /// coarser resolution.
    pub fn quick() -> Self {
        PathloadConfig {
            streams_per_fleet: 6,
            packets_per_stream: 60,
            resolution_bps: 4e6,
            ..PathloadConfig::default()
        }
    }
}

/// Outcome of one fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetVerdict {
    /// Most streams had increasing OWDs: rate > avail-bw.
    Above,
    /// Few streams had increasing OWDs: rate ≤ avail-bw.
    Below,
    /// Mixed verdicts: the rate sits inside the avail-bw variation range
    /// (Pathload's "grey region").
    Grey,
}

impl FleetVerdict {
    /// Lower-case label, as used in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            FleetVerdict::Above => "above",
            FleetVerdict::Below => "below",
            FleetVerdict::Grey => "grey",
        }
    }
}

/// Pathload's result: the variation range and the search trace.
#[derive(Debug, Clone)]
pub struct PathloadReport {
    /// The variation range `(R_L, R_H)` in bits/s.
    pub range_bps: (f64, f64),
    /// Every fleet: `(rate, verdict, increasing fraction)`.
    pub fleets: Vec<(f64, FleetVerdict, f64)>,
    /// Probing packets transmitted.
    pub probe_packets: u64,
    /// Simulated seconds the measurement took.
    pub elapsed_secs: f64,
}

impl PathloadReport {
    /// The range as a [`RangeEstimate`].
    pub fn as_range(&self) -> RangeEstimate {
        RangeEstimate::new(
            self.range_bps.0,
            self.range_bps.1,
            self.probe_packets,
            self.elapsed_secs,
        )
    }
}

/// The Pathload estimator.
#[derive(Debug, Clone)]
pub struct Pathload {
    config: PathloadConfig,
}

impl Pathload {
    /// Creates a Pathload instance.
    pub fn new(config: PathloadConfig) -> Self {
        assert!(config.max_rate_bps > config.min_rate_bps);
        assert!(config.resolution_bps > 0.0);
        assert!(config.streams_per_fleet >= 1);
        Pathload { config }
    }

    /// The resumable state machine for one estimation round.
    pub fn estimator(&self) -> PathloadEstimator {
        PathloadEstimator {
            config: self.config.clone(),
            lo_bps: self.config.min_rate_bps,
            hi_bps: self.config.max_rate_bps,
            grey_lo_bps: f64::INFINITY,
            grey_hi_bps: f64::NEG_INFINITY,
            fleets: Vec::new(),
            packets: 0,
            fleet: None,
            events: Vec::new(),
        }
    }
}

/// One fleet of identical-rate streams, as a sub-machine of the binary
/// search: hand out stream specs until the fleet is complete, collect
/// trend votes, then tally the verdict.
#[derive(Debug, Clone)]
struct FleetMachine {
    rate_bps: f64,
    sent: u32,
    observed: u32,
    increasing: u32,
    decided: u32,
    packets: u64,
}

impl FleetMachine {
    fn new(rate_bps: f64) -> Self {
        FleetMachine {
            rate_bps,
            sent: 0,
            observed: 0,
            increasing: 0,
            decided: 0,
            packets: 0,
        }
    }

    /// The next stream to send, or `None` once the whole fleet is out.
    fn next_spec(&mut self, config: &PathloadConfig) -> Option<StreamSpec> {
        if self.sent >= config.streams_per_fleet {
            return None;
        }
        self.sent += 1;
        Some(StreamSpec::Periodic {
            rate_bps: self.rate_bps,
            size: config.packet_size,
            count: config.packets_per_stream,
        })
    }

    fn observe(&mut self, result: &StreamResult, config: &PathloadConfig) {
        self.observed += 1;
        self.packets += result.spec.count() as u64;
        match config.trend.classify(&result.owds()) {
            TrendVerdict::Increasing => {
                self.increasing += 1;
                self.decided += 1;
            }
            TrendVerdict::NoTrend => self.decided += 1,
            TrendVerdict::Ambiguous => {}
        }
    }

    fn tally(&self, config: &PathloadConfig) -> (FleetVerdict, f64, u64) {
        let fraction = if self.decided == 0 {
            0.5
        } else {
            f64::from(self.increasing) / f64::from(self.decided)
        };
        let verdict = if fraction > config.above_fraction {
            FleetVerdict::Above
        } else if fraction < config.below_fraction {
            FleetVerdict::Below
        } else {
            FleetVerdict::Grey
        };
        (verdict, fraction, self.packets)
    }
}

/// Pathload as a decision state machine: a binary search over rates,
/// each probe of the search being a full fleet (run by an internal
/// `FleetMachine`).
#[derive(Debug, Clone)]
pub struct PathloadEstimator {
    config: PathloadConfig,
    lo_bps: f64,
    hi_bps: f64,
    /// Grey-region bounds observed during the search.
    grey_lo_bps: f64,
    grey_hi_bps: f64,
    fleets: Vec<(f64, FleetVerdict, f64)>,
    packets: u64,
    /// The fleet in flight, if any.
    fleet: Option<FleetMachine>,
    events: Vec<ToolEvent>,
}

impl Estimator for PathloadEstimator {
    fn next(&mut self, last: Option<&Observation>) -> Action {
        if let Some(obs) = last {
            // lint: allow(panic_free) -- reply kind matches the request this estimator issued
            let result = obs.stream().expect("Pathload sends streams");
            self.fleet
                .as_mut()
                // lint: allow(panic_free) -- an observation only arrives for a fleet's own Send
                .expect("observation with no fleet in flight")
                .observe(result, &self.config);
        }
        loop {
            match &mut self.fleet {
                Some(fleet) => {
                    if let Some(spec) = fleet.next_spec(&self.config) {
                        return Action::Send(ProbeSpec::stream(spec));
                    }
                    // fleet complete: vote and update the search bracket
                    // lint: allow(panic_free) -- taken inside the Some arm of the match above
                    let fleet = self.fleet.take().expect("fleet present");
                    let rate = fleet.rate_bps;
                    let (verdict, fraction, pkts) = fleet.tally(&self.config);
                    self.packets += pkts;
                    self.fleets.push((rate, verdict, fraction));
                    match verdict {
                        FleetVerdict::Above => self.hi_bps = rate,
                        FleetVerdict::Below => self.lo_bps = rate,
                        FleetVerdict::Grey => {
                            self.grey_lo_bps = self.grey_lo_bps.min(rate);
                            self.grey_hi_bps = self.grey_hi_bps.max(rate);
                            // a grey rate is inside the variation range:
                            // tighten both sides toward it so the search
                            // can terminate
                            let quarter = (self.hi_bps - self.lo_bps) / 4.0;
                            self.lo_bps = (rate - quarter).max(self.lo_bps);
                            self.hi_bps = (rate + quarter).min(self.hi_bps);
                        }
                    }
                    self.events.push(ToolEvent::new(
                        "pathload.fleet",
                        vec![
                            ("iter", (self.fleets.len() - 1).into()),
                            ("rate_bps", rate.into()),
                            ("verdict", verdict.as_str().into()),
                            ("inc_fraction", fraction.into()),
                            ("lo_bps", self.lo_bps.into()),
                            ("hi_bps", self.hi_bps.into()),
                        ],
                    ));
                }
                None => {
                    if self.hi_bps - self.lo_bps > self.config.resolution_bps {
                        self.fleet = Some(FleetMachine::new((self.lo_bps + self.hi_bps) / 2.0));
                        continue;
                    }
                    // widen the final bracket by any grey rates seen
                    // outside it
                    let range_lo = self.lo_bps.min(self.grey_lo_bps);
                    let range_hi = self.hi_bps.max(self.grey_hi_bps);
                    self.events.push(ToolEvent::new(
                        "pathload.result",
                        vec![
                            ("lo_bps", range_lo.into()),
                            ("hi_bps", range_hi.into()),
                            ("fleets", self.fleets.len().into()),
                            ("packets", self.packets.into()),
                        ],
                    ));
                    return Action::Done(Verdict::Pathload(PathloadReport {
                        range_bps: (range_lo, range_hi),
                        fleets: std::mem::take(&mut self.fleets),
                        probe_packets: self.packets,
                        elapsed_secs: 0.0,
                    }));
                }
            }
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

    fn run_quick(cross: CrossKind) -> PathloadReport {
        let mut s = scenario(cross);
        let mut tool = Pathload::new(PathloadConfig::quick()).estimator();
        let Verdict::Pathload(report) = s.session().drive(&mut s.sim, &mut tool) else {
            unreachable!("Pathload yields a Pathload report")
        };
        report
    }

    #[test]
    fn brackets_avail_bw_on_cbr() {
        let report = run_quick(CrossKind::Cbr);
        let (lo, hi) = report.range_bps;
        assert!(lo <= 25e6 + 3e6, "low bound {:.1} Mb/s", lo / 1e6);
        assert!(hi >= 25e6 - 3e6, "high bound {:.1} Mb/s", hi / 1e6);
        assert!(
            hi - lo <= 10e6,
            "range too wide: {:.1} Mb/s",
            (hi - lo) / 1e6
        );
    }

    #[test]
    fn brackets_avail_bw_on_poisson() {
        let report = run_quick(CrossKind::Poisson);
        let (lo, hi) = report.range_bps;
        let mid = (lo + hi) / 2.0;
        assert!(
            (mid - 25e6).abs() / 25e6 < 0.3,
            "midpoint {:.1} Mb/s",
            mid / 1e6
        );
    }

    /// Runs one fleet at `rate_bps` by driving the internal
    /// [`FleetMachine`] directly against the scenario's runner.
    fn run_one_fleet(
        s: &mut Scenario,
        runner: &mut crate::probe::ProbeRunner,
        config: &PathloadConfig,
        rate_bps: f64,
    ) -> (FleetVerdict, f64, u64) {
        let mut fleet = FleetMachine::new(rate_bps);
        while let Some(spec) = fleet.next_spec(config) {
            let result = runner.run_stream(&mut s.sim, &spec);
            fleet.observe(&result, config);
        }
        fleet.tally(config)
    }

    #[test]
    fn fleet_verdicts_flip_across_the_avail_bw() {
        let mut s = scenario(CrossKind::Cbr);
        let config = PathloadConfig::quick();
        let mut runner = s.runner();
        let (below, frac_b, _) = run_one_fleet(&mut s, &mut runner, &config, 15e6);
        let (above, frac_a, _) = run_one_fleet(&mut s, &mut runner, &config, 40e6);
        assert_eq!(below, FleetVerdict::Below, "15 Mb/s fraction {frac_b}");
        assert_eq!(above, FleetVerdict::Above, "40 Mb/s fraction {frac_a}");
    }

    #[test]
    fn report_converts_to_range_estimate() {
        let report = run_quick(CrossKind::Cbr);
        let range = report.as_range();
        assert!(range.range_bps.0 <= range.midpoint_bps);
        assert!(range.midpoint_bps <= range.range_bps.1);
        assert_eq!(range.probe_packets, report.probe_packets);
    }
}
