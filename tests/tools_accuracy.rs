//! End-to-end accuracy of every estimation tool on a known path — the
//! "reproducible and controllable conditions" comparison the paper's
//! summary calls for. Tolerances reflect each technique's published
//! character (pairs noisier than trains, burstiness biases downward).

use abwe::core::scenario::{CrossKind, Scenario, SingleHopConfig};
use abwe::core::tools::bfind::{Bfind, BfindConfig};
use abwe::core::tools::capacity::{CapacityConfig, CapacityProber};
use abwe::core::tools::direct::{DirectConfig, DirectProber};
use abwe::core::tools::igi::{Igi, IgiConfig};
use abwe::core::tools::pathchirp::{Pathchirp, PathchirpConfig};
use abwe::core::tools::pathload::{Pathload, PathloadConfig};
use abwe::core::tools::spruce::{Spruce, SpruceConfig};
use abwe::core::tools::topp::{Topp, ToppConfig};
use abwe::core::tools::{Estimator, Verdict};
use abwe::netsim::SimDuration;

const TRUTH: f64 = 25e6;

fn scenario(cross: CrossKind, seed: u64) -> Scenario {
    let mut s = Scenario::single_hop(&SingleHopConfig {
        cross,
        seed,
        ..SingleHopConfig::default()
    });
    s.warm_up(SimDuration::from_millis(500));
    s
}

/// Drives `tool` to its verdict on a fresh scenario.
fn drive(cross: CrossKind, seed: u64, tool: &mut dyn Estimator) -> Verdict {
    let mut s = scenario(cross, seed);
    s.session().drive(&mut s.sim, tool)
}

#[test]
fn all_tools_agree_on_poisson_cross_traffic() {
    // every tool on its own scenario instance; all must land in a band
    // around the true 25 Mb/s appropriate to its technique
    let poisson = |seed, tool: &mut dyn Estimator| drive(CrossKind::Poisson, seed, tool);
    let mut results: Vec<(&str, f64, f64)> = Vec::new(); // (tool, estimate, rel tolerance)

    let mut direct = DirectProber::new(DirectConfig {
        streams: 40,
        ..DirectConfig::canonical()
    })
    .estimator();
    results.push(("direct", poisson(1, &mut direct).avail_bps(), 0.12));
    // pair quantisation with 1500 B cross packets biases Spruce up
    let mut spruce = Spruce::new(SpruceConfig::new(50e6)).estimator();
    results.push(("spruce", poisson(2, &mut spruce).avail_bps(), 0.45));
    {
        let mut s = scenario(CrossKind::Poisson, 3);
        let mut session = s.session();
        session.runner_mut().stream_gap = SimDuration::from_millis(5);
        let mut topp = Topp::new(ToppConfig::default()).estimator();
        let est = session.drive(&mut s.sim, &mut topp).avail_bps();
        results.push(("topp", est, 0.35));
    }
    // the range midpoint
    let mut pathload = Pathload::new(PathloadConfig::default()).estimator();
    results.push(("pathload", poisson(4, &mut pathload).avail_bps(), 0.25));
    let mut pathchirp = Pathchirp::new(PathchirpConfig::default()).estimator();
    results.push(("pathchirp", poisson(5, &mut pathchirp).avail_bps(), 0.40));
    let Verdict::Igi(rep) = poisson(6, &mut Igi::new(IgiConfig::default()).estimator()) else {
        unreachable!("IGI yields an IGI report")
    };
    results.push(("igi", rep.igi_bps, 0.35));
    results.push(("ptr", rep.ptr_bps, 0.35));
    let mut bfind = Bfind::new(BfindConfig::default()).estimator();
    results.push(("bfind", poisson(7, &mut bfind).avail_bps(), 0.35));

    for (tool, est, tol) in results {
        let err = (est - TRUTH).abs() / TRUTH;
        assert!(
            err <= tol,
            "{tool}: estimate {:.2} Mb/s, error {:.1}% exceeds {:.0}%",
            est / 1e6,
            err * 100.0,
            tol * 100.0
        );
    }
}

#[test]
fn iterative_tools_underestimate_on_bursty_traffic() {
    // Pitfall 6: burstiness biases rate-ratio tools downward; verify the
    // direction on Pareto ON-OFF traffic for PTR (the clean rate-ratio
    // iterative tool)
    let mut ptr = Igi::new(IgiConfig::default()).ptr_estimator();
    let ptr_bps = drive(CrossKind::ParetoOnOff, 21, &mut ptr).avail_bps();
    assert!(
        ptr_bps < TRUTH * 1.1,
        "PTR should not overestimate under bursty traffic: {:.2} Mb/s",
        ptr_bps / 1e6
    );
}

#[test]
fn capacity_estimate_feeds_direct_probing() {
    // capacity tool → Ct estimate → direct probing, on a single-hop path
    // where tight = narrow so the pipeline is self-consistent; both tools
    // share one session, so stream ids keep counting across them
    let mut s = scenario(CrossKind::Poisson, 31);
    let mut session = s.session();
    let mut capacity = CapacityProber::new(CapacityConfig::default()).estimator();
    let Verdict::Capacity(cap) = session.drive(&mut s.sim, &mut capacity) else {
        unreachable!("the capacity prober yields a capacity report")
    };
    assert!(
        (cap.capacity_bps - 50e6).abs() / 50e6 < 0.1,
        "capacity {:.2} Mb/s",
        cap.capacity_bps / 1e6
    );
    let mut direct = DirectProber::new(DirectConfig {
        tight_capacity_bps: cap.capacity_bps,
        streams: 30,
        ..DirectConfig::canonical()
    })
    .estimator();
    let est = session.drive(&mut s.sim, &mut direct).avail_bps();
    assert!(
        (est - TRUTH).abs() / TRUTH < 0.15,
        "pipeline estimate {:.2} Mb/s",
        est / 1e6
    );
}

#[test]
fn pathload_range_narrows_on_smooth_traffic() {
    // CBR: the avail-bw barely varies, so the range should be tight;
    // Pareto ON-OFF: the range must be wider
    let width = |cross, seed| {
        let mut tool = Pathload::new(PathloadConfig::default()).estimator();
        let (lo, hi) = drive(cross, seed, &mut tool)
            .range_bps()
            .expect("Pathload reports a range");
        hi - lo
    };
    let w_smooth = width(CrossKind::Cbr, 41);
    let w_bursty = width(CrossKind::ParetoOnOff, 42);

    assert!(
        w_bursty >= w_smooth,
        "bursty range ({:.1} Mb/s) should be at least as wide as CBR's ({:.1} Mb/s)",
        w_bursty / 1e6,
        w_smooth / 1e6
    );
}
