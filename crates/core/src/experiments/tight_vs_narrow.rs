//! Pitfall 5: estimating the tight-link capacity with end-to-end
//! capacity estimation tools.
//!
//! Direct probing needs the capacity `Ct` of the *tight* link (minimum
//! avail-bw). End-to-end capacity tools, however, measure the *narrow*
//! link (minimum capacity) — `Cn` can be well below `Ct`, as when a Fast
//! Ethernet interface precedes a loaded OC-3. This experiment builds that
//! path, estimates capacity with the bprobe-style prober, and shows that
//! direct probing fed the measured `Cn` underestimates the avail-bw while
//! the true `Ct` recovers it.

use abw_netsim::SimDuration;

use crate::scenario::Scenario;
use crate::tools::capacity::{CapacityConfig, CapacityProber};
use crate::tools::direct::{DirectConfig, DirectProber};
use crate::tools::Verdict;

/// Configuration of the Pitfall 5 experiment.
#[derive(Debug, Clone)]
pub struct TightVsNarrowConfig {
    /// Cross traffic on the OC-3 tight link, bits/s. The default
    /// 100 Mb/s leaves 55.5 Mb/s available — well below the idle narrow
    /// link's 100 Mb/s, so tight ≠ narrow and the `Ct`-vs-`Cn` bias is
    /// large.
    pub oc3_cross_bps: f64,
    /// Input rate of the direct-probing streams (must exceed the
    /// avail-bw; the narrow link caps it at 100 Mb/s).
    pub probe_rate_bps: f64,
    /// Direct-probing streams per estimate.
    pub streams: u32,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for TightVsNarrowConfig {
    fn default() -> Self {
        TightVsNarrowConfig {
            oc3_cross_bps: 100e6,
            probe_rate_bps: 80e6,
            streams: 60,
            seed: 0xF165,
        }
    }
}

impl TightVsNarrowConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        TightVsNarrowConfig {
            streams: 25,
            ..TightVsNarrowConfig::default()
        }
    }
}

/// The Pitfall 5 result.
#[derive(Debug, Clone)]
pub struct TightVsNarrowResult {
    /// True tight-link capacity, Mb/s.
    pub true_ct_mbps: f64,
    /// True narrow-link capacity, Mb/s.
    pub true_cn_mbps: f64,
    /// True path avail-bw, Mb/s.
    pub true_avail_mbps: f64,
    /// What the capacity tool measured, Mb/s (≤ `Cn`, never `Ct`).
    pub measured_capacity_mbps: f64,
    /// Direct-probing avail-bw using the narrow capacity `Cn` — the
    /// answer a perfect end-to-end capacity tool would supply, Mb/s.
    pub avail_with_cn_mbps: f64,
    /// Direct-probing avail-bw using the true `Ct`, Mb/s.
    pub avail_with_true_ct_mbps: f64,
}

/// Runs the Pitfall 5 experiment.
pub fn run(config: &TightVsNarrowConfig) -> TightVsNarrowResult {
    let mut s = Scenario::tight_not_narrow(config.oc3_cross_bps, config.seed);
    s.warm_up(SimDuration::from_millis(500));
    let true_ct = s.tight_capacity_bps();
    let true_cn = s.narrow_capacity_bps();
    let true_avail = s.configured_avail_bps();

    // one session for all three tools, so stream ids keep counting and
    // no straggler of an earlier stream can join a later one's records
    let mut session = s.session();
    let mut capacity = CapacityProber::new(CapacityConfig::default()).estimator();
    let Verdict::Capacity(cap) = session.drive(&mut s.sim, &mut capacity) else {
        unreachable!("the capacity prober yields a capacity report")
    };

    // probe well above the avail-bw so Equation 9 applies on this path
    let mut probing = |ct: f64| {
        let mut tool = DirectProber::new(DirectConfig {
            tight_capacity_bps: ct,
            input_rate_bps: config.probe_rate_bps,
            packet_size: 1500,
            stream_duration: SimDuration::from_millis(100),
            streams: config.streams,
        })
        .estimator();
        session.drive(&mut s.sim, &mut tool).avail_bps()
    };
    // even a perfect capacity tool only gives Cn: compare the two inputs
    let with_cn = probing(true_cn);
    let with_true_ct = probing(true_ct);

    TightVsNarrowResult {
        true_ct_mbps: true_ct / 1e6,
        true_cn_mbps: true_cn / 1e6,
        true_avail_mbps: true_avail / 1e6,
        measured_capacity_mbps: cap.capacity_bps / 1e6,
        avail_with_cn_mbps: with_cn / 1e6,
        avail_with_true_ct_mbps: with_true_ct / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_tool_never_reports_the_tight_capacity() {
        let r = run(&TightVsNarrowConfig::quick());
        // under heavy OC-3 load the dispersion mode sits at or below the
        // narrow capacity; the point is it is nowhere near Ct
        assert!(
            r.measured_capacity_mbps < r.true_ct_mbps * 0.8,
            "measured {:.1} vs Ct {:.1}",
            r.measured_capacity_mbps,
            r.true_ct_mbps
        );
        assert!(
            r.measured_capacity_mbps <= r.true_cn_mbps * 1.1,
            "measured {:.1} should not exceed Cn {:.1}",
            r.measured_capacity_mbps,
            r.true_cn_mbps
        );
    }

    #[test]
    fn wrong_capacity_biases_direct_probing() {
        let r = run(&TightVsNarrowConfig::quick());
        let err_wrong = (r.avail_with_cn_mbps - r.true_avail_mbps).abs();
        let err_right = (r.avail_with_true_ct_mbps - r.true_avail_mbps).abs();
        assert!(
            err_wrong > err_right + 4.0,
            "using Cn must be visibly worse: wrong err {:.1}, right err {:.1} \
             (truth {:.1}, wrong {:.1}, right {:.1})",
            err_wrong,
            err_right,
            r.true_avail_mbps,
            r.avail_with_cn_mbps,
            r.avail_with_true_ct_mbps
        );
    }
}
