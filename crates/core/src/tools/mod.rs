//! The estimation techniques the paper classifies (§2), rewritten as
//! resumable [`Estimator`] state machines.
//!
//! **Direct probing** (each stream yields an avail-bw *sample*, requires
//! the tight-link capacity `Ct`):
//! * [`direct`] — periodic trains inverted with Equation 9;
//! * [`delphi`] — the adaptive train prober (input rate tracks the
//!   estimate);
//! * [`spruce`] — Poisson-spaced packet pairs at the tight-link rate.
//!
//! **Iterative probing** (each stream only reveals whether its rate
//! exceeds the avail-bw; no `Ct` needed):
//! * [`topp`] — linear rate sweep with regression on `Ri/Ro`;
//! * [`pathload`] — binary rate search with PCT/PDT one-way-delay trend
//!   tests, reporting a *variation range*;
//! * [`pathchirp`] — exponentially spaced chirps with excursion analysis;
//! * [`schirp`] — smoothed chirps (Pásztor's S-chirp);
//! * [`igi`] — IGI and PTR: gap-increase trains at the turning point;
//! * [`bfind`] — sender-only ramping UDP load with traceroute-style
//!   per-hop RTT monitoring.
//!
//! Plus [`capacity`], a bprobe-style end-to-end capacity estimator: it
//! measures the *narrow* link, which is exactly why using it to supply
//! `Ct` to direct probing is Pitfall 5.
//!
//! # Architecture
//!
//! The paper's central observation is that avail-bw is a time-varying
//! process, so an estimator is not a one-shot function but an ongoing
//! measurement dialogue with the path. Each tool is therefore a pure
//! *decision* state machine implementing [`Estimator`]: given the last
//! observation it either requests the next probing action
//! ([`Action::Send`]) or concludes with a [`Verdict`]
//! ([`Action::Done`]). No tool touches the simulator — all simulator
//! interaction lives in one driver, [`crate::probe::Session`], whose
//! `step()` executes exactly one action so sessions can interleave and a
//! tool can keep re-estimating against time-varying cross traffic (the
//! `tracking` experiment).
//!
//! Each tool is one type: `X::new(config)` checks the config and returns
//! a fresh single-shot estimator (`Pathload::new(config)`; IGI and PTR
//! share one machine, built by `Igi::new` and `Igi::ptr`). Tools are
//! instantiated by name through the [`registry`] or from their configs,
//! and run only under a session:
//! [`Scenario::session`](crate::scenario::Scenario::session) then
//! [`Session::drive`](crate::probe::Session::drive). A caller that needs
//! a tool's own report matches its [`Verdict`] variant. The state
//! machines reproduce the pre-refactor blocking implementations bit for
//! bit (pinned by `tests/golden_tools.rs`).

pub mod bfind;
pub mod capacity;
pub mod delphi;
pub mod direct;
pub mod igi;
pub mod pathchirp;
pub mod pathload;
pub mod registry;
pub mod schirp;
pub mod spruce;
pub mod topp;

use abw_netsim::SimDuration;
use abw_obs::Value;
use abw_stats::running::Summary;

use crate::probe::StreamResult;
use crate::stream::StreamSpec;

use bfind::BfindReport;
use capacity::CapacityReport;
use delphi::DelphiReport;
use igi::IgiReport;
use pathload::PathloadReport;
use topp::ToppReport;

/// A point estimate of the avail-bw plus per-sample statistics.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The avail-bw estimate in bits/s.
    pub avail_bps: f64,
    /// Statistics of the per-stream samples behind the estimate.
    pub samples: Summary,
    /// Probing packets transmitted to produce the estimate (overhead).
    pub probe_packets: u64,
    /// Simulated time the measurement occupied (latency).
    pub elapsed_secs: f64,
}

/// A variation-range estimate `(R_L, R_H)` — what iterative probing
/// actually converges to (Fallacy 9).
#[derive(Debug, Clone)]
pub struct RangeEstimate {
    /// `(low, high)` of the variation range, bits/s.
    pub range_bps: (f64, f64),
    /// Midpoint of the range, bits/s.
    pub midpoint_bps: f64,
    /// True when a non-finite bound was passed to
    /// [`RangeEstimate::new`] and replaced by zero.
    pub clamped: bool,
    /// Probing packets transmitted.
    pub probe_packets: u64,
    /// Simulated time the measurement occupied.
    pub elapsed_secs: f64,
}

impl RangeEstimate {
    /// Builds a range estimate, ordering the bounds.
    ///
    /// Non-finite bounds (NaN or ±∞) are rejected rather than silently
    /// propagated into the midpoint: each offending bound is replaced by
    /// `0.0` and the verdict is marked [`RangeEstimate::clamped`] so
    /// consumers can tell a degenerate measurement from a genuine zero.
    pub fn new(lo: f64, hi: f64, probe_packets: u64, elapsed_secs: f64) -> Self {
        let clamped = !(lo.is_finite() && hi.is_finite());
        let lo = if lo.is_finite() { lo } else { 0.0 };
        let hi = if hi.is_finite() { hi } else { 0.0 };
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        RangeEstimate {
            range_bps: (lo, hi),
            midpoint_bps: (lo + hi) / 2.0,
            clamped,
            probe_packets,
            elapsed_secs,
        }
    }
}

/// Parameters of one load-ramp epoch (BFind's probing primitive): hold a
/// UDP load at `rate_bps` for `epoch` while running traceroute rounds
/// every `trace_interval`.
#[derive(Debug, Clone, Copy)]
pub struct LoadRampSpec {
    /// Load rate held during the epoch, bits/s (0 = idle baseline).
    pub rate_bps: f64,
    /// How long the rate is held.
    pub epoch: SimDuration,
    /// Gap between traceroute rounds within the epoch.
    pub trace_interval: SimDuration,
    /// Load packet size, bytes.
    pub load_packet_size: u32,
    /// Traceroute probe size, bytes.
    pub probe_size: u32,
}

/// One probing action an [`Estimator`] can request from the session.
#[derive(Debug, Clone)]
pub enum ProbeSpec {
    /// Send one probing stream through the session's
    /// [`ProbeRunner`](crate::probe::ProbeRunner).
    Stream {
        /// The stream to transmit.
        spec: StreamSpec,
        /// Inter-stream gap override for this stream only; `None` keeps
        /// the runner's configured gap. Tools with randomised spacing
        /// (Spruce, the capacity prober) draw it per stream.
        pre_gap: Option<SimDuration>,
    },
    /// Hold a load-ramp epoch (requires a routed session, i.e. one built
    /// by [`Scenario::session`](crate::scenario::Scenario::session)).
    LoadRamp(LoadRampSpec),
}

impl ProbeSpec {
    /// A stream action with the runner's default inter-stream gap.
    pub fn stream(spec: StreamSpec) -> Self {
        ProbeSpec::Stream {
            spec,
            pre_gap: None,
        }
    }
}

/// Per-hop RTT samples collected during one load-ramp epoch.
#[derive(Debug, Clone)]
pub struct LoadRampSample {
    /// Raw RTT samples per hop since the previous epoch boundary.
    pub hop_rtts: Vec<Vec<f64>>,
    /// Cumulative load + traceroute packets transmitted by the agent.
    pub probe_packets: u64,
}

/// What the session observed while executing one [`ProbeSpec`].
#[derive(Debug, Clone)]
pub enum Observation {
    /// Measurements of a completed probing stream.
    Stream(StreamResult),
    /// Measurements of a completed load-ramp epoch.
    LoadRamp(LoadRampSample),
}

impl Observation {
    /// The stream result, when this observation is one.
    pub fn stream(&self) -> Option<&StreamResult> {
        match self {
            Observation::Stream(r) => Some(r),
            Observation::LoadRamp(_) => None,
        }
    }

    /// The load-ramp sample, when this observation is one.
    pub fn load_ramp(&self) -> Option<&LoadRampSample> {
        match self {
            Observation::LoadRamp(s) => Some(s),
            Observation::Stream(_) => None,
        }
    }
}

/// A buffered trace event produced by an [`Estimator`] decision; the
/// session emits it through the simulator so event kinds, fields and
/// ordering match the pre-refactor inline `sim.emit` calls exactly.
#[derive(Debug, Clone)]
pub struct ToolEvent {
    /// Event kind (e.g. `"delphi.train"`).
    pub kind: &'static str,
    /// Event fields in emission order.
    pub fields: Vec<(&'static str, Value<'static>)>,
}

impl ToolEvent {
    /// A new event.
    pub fn new(kind: &'static str, fields: Vec<(&'static str, Value<'static>)>) -> Self {
        ToolEvent { kind, fields }
    }
}

/// The next move of an [`Estimator`].
#[derive(Debug)]
pub enum Action {
    /// Execute this probing action and feed the observation back.
    Send(ProbeSpec),
    /// The measurement concluded with this verdict.
    Done(Verdict),
}

/// A resumable estimation state machine: pure decision logic with no
/// simulator access.
///
/// The contract: the driver calls [`Estimator::next`] with `None` first,
/// then with the observation of each requested action, until the tool
/// returns [`Action::Done`]. Estimators are single-shot — driving one
/// past `Done` is a contract violation (build a fresh instance per
/// round, as the `tracking` experiment does).
pub trait Estimator: Send {
    /// Decides the next action given the last observation (`None` on the
    /// first call).
    fn next(&mut self, last: Option<&Observation>) -> Action;

    /// Drains trace events buffered by the last decision; the session
    /// emits them before executing the next action.
    fn take_events(&mut self) -> Vec<ToolEvent> {
        Vec::new()
    }
}

/// The unified result of an estimation round: every tool's report behind
/// one enum with common accessors.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A point estimate (direct probing, chirp tools).
    Point(Estimate),
    /// A variation range.
    Range(RangeEstimate),
    /// Delphi's report with the adaptation trace.
    Delphi(DelphiReport),
    /// TOPP's report with the sweep and the recovered `Ct`.
    Topp(ToppReport),
    /// Pathload's report with the fleet trace.
    Pathload(PathloadReport),
    /// An IGI/PTR report read as IGI (`A = Ct - Rc`).
    Igi(IgiReport),
    /// An IGI/PTR report read as PTR (turning-point train rate).
    Ptr(IgiReport),
    /// BFind's report with the located tight hop.
    Bfind(BfindReport),
    /// A bprobe-style capacity report (measures `Cn`, not avail-bw —
    /// Pitfall 5).
    Capacity(CapacityReport),
}

impl Verdict {
    /// The headline estimate in bits/s: the avail-bw for estimation
    /// tools, the narrow-link capacity for [`Verdict::Capacity`], and
    /// the range midpoint for range verdicts.
    pub fn avail_bps(&self) -> f64 {
        match self {
            Verdict::Point(e) => e.avail_bps,
            Verdict::Range(r) => r.midpoint_bps,
            Verdict::Delphi(r) => r.avail_bps,
            Verdict::Topp(r) => r.avail_bps,
            Verdict::Pathload(r) => (r.range_bps.0 + r.range_bps.1) / 2.0,
            Verdict::Igi(r) => r.igi_bps,
            Verdict::Ptr(r) => r.ptr_bps,
            Verdict::Bfind(r) => r.avail_bps,
            Verdict::Capacity(r) => r.capacity_bps,
        }
    }

    /// Probing packets transmitted (overhead).
    pub fn probe_packets(&self) -> u64 {
        match self {
            Verdict::Point(e) => e.probe_packets,
            Verdict::Range(r) => r.probe_packets,
            Verdict::Delphi(r) => r.probe_packets,
            Verdict::Topp(r) => r.probe_packets,
            Verdict::Pathload(r) => r.probe_packets,
            Verdict::Igi(r) | Verdict::Ptr(r) => r.probe_packets,
            Verdict::Bfind(r) => r.probe_packets,
            Verdict::Capacity(r) => r.probe_packets,
        }
    }

    /// Simulated seconds the measurement occupied (latency); `0.0` for
    /// reports that do not track elapsed time (TOPP, IGI/PTR, BFind,
    /// capacity), matching their pre-refactor behaviour.
    pub fn elapsed_secs(&self) -> f64 {
        match self {
            Verdict::Point(e) => e.elapsed_secs,
            Verdict::Range(r) => r.elapsed_secs,
            Verdict::Delphi(r) => r.elapsed_secs,
            Verdict::Pathload(r) => r.elapsed_secs,
            Verdict::Topp(_)
            | Verdict::Igi(_)
            | Verdict::Ptr(_)
            | Verdict::Bfind(_)
            | Verdict::Capacity(_) => 0.0,
        }
    }

    /// The variation range, for verdicts that carry one.
    pub fn range_bps(&self) -> Option<(f64, f64)> {
        match self {
            Verdict::Range(r) => Some(r.range_bps),
            Verdict::Pathload(r) => Some(r.range_bps),
            _ => None,
        }
    }

    /// Stamps the measurement latency on verdicts that track it (the
    /// session measures wall time; reports without an elapsed field keep
    /// reporting `0.0` as before the refactor).
    pub(crate) fn set_elapsed(&mut self, secs: f64) {
        match self {
            Verdict::Point(e) => e.elapsed_secs = secs,
            Verdict::Range(r) => r.elapsed_secs = secs,
            Verdict::Delphi(r) => r.elapsed_secs = secs,
            Verdict::Pathload(r) => r.elapsed_secs = secs,
            Verdict::Topp(_)
            | Verdict::Igi(_)
            | Verdict::Ptr(_)
            | Verdict::Bfind(_)
            | Verdict::Capacity(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_estimate_orders_bounds() {
        let r = RangeEstimate::new(30e6, 20e6, 10, 1.0);
        assert_eq!(r.range_bps, (20e6, 30e6));
        assert_eq!(r.midpoint_bps, 25e6);
        assert!(!r.clamped);
    }

    #[test]
    fn range_estimate_rejects_non_finite_bounds() {
        // NaN low: clamped to zero instead of poisoning the midpoint
        let r = RangeEstimate::new(f64::NAN, 30e6, 10, 1.0);
        assert!(r.clamped);
        assert_eq!(r.range_bps, (0.0, 30e6));
        assert_eq!(r.midpoint_bps, 15e6);

        // infinite high bound
        let r = RangeEstimate::new(10e6, f64::INFINITY, 10, 1.0);
        assert!(r.clamped);
        assert_eq!(r.range_bps, (0.0, 10e6));
        assert!(r.midpoint_bps.is_finite());

        // both non-finite: degenerate but well-defined
        let r = RangeEstimate::new(f64::NAN, f64::NAN, 0, 0.0);
        assert!(r.clamped);
        assert_eq!(r.range_bps, (0.0, 0.0));
        assert_eq!(r.midpoint_bps, 0.0);
    }

    #[test]
    fn verdict_accessors_cover_every_variant() {
        let est = Estimate {
            avail_bps: 25e6,
            samples: abw_stats::running::Running::new().summary(),
            probe_packets: 42,
            elapsed_secs: 1.5,
        };
        let v = Verdict::Point(est);
        assert_eq!(v.avail_bps(), 25e6);
        assert_eq!(v.probe_packets(), 42);
        assert_eq!(v.elapsed_secs(), 1.5);
        assert!(v.range_bps().is_none());

        let v = Verdict::Range(RangeEstimate::new(20e6, 30e6, 7, 2.0));
        assert_eq!(v.avail_bps(), 25e6);
        assert_eq!(v.range_bps(), Some((20e6, 30e6)));
    }
}
