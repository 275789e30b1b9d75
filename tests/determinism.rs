//! Determinism: a simulation is a pure function of its configuration
//! and seeds. Every experiment in the repo relies on this for
//! reproducibility (DESIGN.md §6).

use abwe::core::scenario::{CrossKind, Scenario, SingleHopConfig};
use abwe::core::stream::StreamSpec;
use abwe::core::tools::pathload::{Pathload, PathloadConfig};
use abwe::netsim::SimDuration;
use abwe::trace::{SyntheticTrace, SyntheticTraceConfig};

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::single_hop(&SingleHopConfig {
        cross: CrossKind::ParetoOnOff,
        seed,
        ..SingleHopConfig::default()
    });
    s.warm_up(SimDuration::from_millis(500));
    s
}

#[test]
fn identical_seeds_identical_streams() {
    let spec = StreamSpec::Periodic {
        rate_bps: 30e6,
        size: 1500,
        count: 100,
    };
    let run = |seed| {
        let mut s = scenario(seed);
        let mut runner = s.runner();
        let r = runner.run_stream(&mut s.sim, &spec);
        (r.owds(), r.output_rate_bps())
    };
    let (owds_a, ro_a) = run(7);
    let (owds_b, ro_b) = run(7);
    assert_eq!(owds_a, owds_b, "same seed must give identical OWDs");
    assert_eq!(ro_a, ro_b);

    let (owds_c, _) = run(8);
    assert_ne!(owds_a, owds_c, "different seeds must differ");
}

#[test]
fn identical_seeds_identical_pathload_ranges() {
    let run = |seed| {
        let mut s = scenario(seed);
        let mut tool = Pathload::new(PathloadConfig::quick()).estimator();
        s.session().drive(&mut s.sim, &mut tool).range_bps()
    };
    assert_eq!(run(3), run(3));
}

#[test]
fn trace_generation_is_reproducible() {
    let cfg = SyntheticTraceConfig {
        duration: SimDuration::from_secs(5),
        warmup: SimDuration::from_secs(1),
        ..SyntheticTraceConfig::default()
    };
    let a = SyntheticTrace::generate(&cfg);
    let b = SyntheticTrace::generate(&cfg);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.process.mean(), b.process.mean());
    // and the busy structure matches at fine grain
    for t in (0..40).map(|i| 1_100_000_000u64 + i * 100_000_000) {
        assert_eq!(
            a.process.busy_ns(t, t + 10_000_000),
            b.process.busy_ns(t, t + 10_000_000)
        );
    }
}
