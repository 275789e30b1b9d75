//! Cross-crate pipelines: simulate → record busy periods → extract the
//! avail-bw process → estimate, with every stage's numbers agreeing.

use abwe::core::scenario::{CrossKind, Scenario, SingleHopConfig};
use abwe::core::tools::direct::{DirectConfig, DirectProber};
use abwe::netsim::SimDuration;
use abwe::stats::sampling::relative_error;
use abwe::traffic::SizeDist;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn ground_truth_matches_configuration_across_models() {
    for (cross, tolerance) in [
        (CrossKind::Cbr, 0.01),
        (CrossKind::Poisson, 0.03),
        (CrossKind::ParetoOnOff, 0.10),
        (CrossKind::ParetoInterarrival, 0.05),
    ] {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_secs(1));
        s.sim.run_for(SimDuration::from_secs(15));
        let gt = s.ground_truth(0);
        let err = relative_error(gt.mean(), 25e6).abs();
        assert!(
            err < tolerance,
            "{cross:?}: ground-truth mean {:.2} Mb/s (err {:.3})",
            gt.mean() / 1e6,
            err
        );
    }
}

#[test]
fn probing_estimate_matches_ground_truth_not_just_configuration() {
    // estimate and ground truth are computed from the SAME run, so they
    // must agree even more tightly than either agrees with the nominal
    // configuration
    let mut s = Scenario::single_hop(&SingleHopConfig {
        cross: CrossKind::Poisson,
        cross_sizes: SizeDist::internet_mix(),
        ..SingleHopConfig::default()
    });
    s.warm_up(SimDuration::from_millis(500));
    let mut tool = DirectProber::new(DirectConfig {
        streams: 60,
        ..DirectConfig::canonical()
    });
    let est = s.session().drive(&mut s.sim, &mut tool).avail_bps();
    assert!(
        relative_error(est, 25e6).abs() < 0.10,
        "estimate {:.2} Mb/s",
        est / 1e6
    );
    // ground truth over a probe-free window after the measurement (the
    // probing itself consumes ~40 Mb/s while a stream is in flight, so
    // the window during probing reflects probe + cross load, not A)
    s.measure_from = s.sim.now();
    s.sim.run_for(SimDuration::from_secs(10));
    let gt = s.ground_truth(0).mean();
    assert!(
        relative_error(gt, 25e6).abs() < 0.05,
        "ground truth {:.2} Mb/s",
        gt / 1e6
    );
}

#[test]
fn poisson_sampling_of_live_link_is_unbiased() {
    let mut s = Scenario::single_hop(&SingleHopConfig {
        cross: CrossKind::ParetoOnOff,
        ..SingleHopConfig::default()
    });
    s.warm_up(SimDuration::from_secs(1));
    s.sim.run_for(SimDuration::from_secs(20));
    let gt = s.ground_truth(0);
    let mut rng = StdRng::seed_from_u64(11);
    // many Poisson samples at 10 ms must average to the process mean
    let samples = gt.poisson_sample(&mut rng, 10_000_000, 2000);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    assert!(
        relative_error(mean, gt.mean()).abs() < 0.03,
        "sampled mean {:.2} vs process mean {:.2} Mb/s",
        mean / 1e6,
        gt.mean() / 1e6
    );
}

#[test]
fn multi_hop_path_avail_is_the_minimum() {
    use abwe::core::scenario::HopSpec;
    let mk = |rate: f64| HopSpec {
        cross_rate_bps: rate,
        ..HopSpec::canonical(CrossKind::Poisson)
    };
    // hop 1 is tightest: avail 15 Mb/s vs 35/30 on the others
    let mut s = Scenario::from_hops(vec![mk(15e6), mk(35e6), mk(20e6)], 9);
    s.warm_up(SimDuration::from_secs(1));
    s.sim.run_for(SimDuration::from_secs(10));
    let path_avail = s.path_avail_bps(s.measure_from, s.sim.now());
    assert!(
        relative_error(path_avail, 15e6).abs() < 0.05,
        "path avail {:.2} Mb/s, expected 15",
        path_avail / 1e6
    );
    assert_eq!(s.tight_hop().0, 1);
}
