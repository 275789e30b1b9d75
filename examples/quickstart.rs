//! Quickstart: build the paper's canonical single-hop path (50 Mb/s
//! link, 25 Mb/s of Poisson cross traffic), measure the ground-truth
//! avail-bw, and estimate it with one direct and one iterative tool.
//!
//! Run with: `cargo run --release --example quickstart`

use abwe::core::scenario::{CrossKind, Scenario, SingleHopConfig};
use abwe::core::tools::direct::{DirectConfig, DirectProber};
use abwe::core::tools::pathload::{Pathload, PathloadConfig};
use abwe::core::tools::Verdict;
use abwe::netsim::SimDuration;

fn main() {
    // 1. the path: one 50 Mb/s store-and-forward link, 25 Mb/s of
    //    Poisson cross traffic → avail-bw A = 25 Mb/s
    let mut scenario = Scenario::single_hop(&SingleHopConfig {
        cross: CrossKind::Poisson,
        ..SingleHopConfig::default()
    });
    scenario.warm_up(SimDuration::from_millis(500));
    println!(
        "configured: C = {} Mb/s, A = {} Mb/s",
        scenario.tight_capacity_bps() / 1e6,
        scenario.configured_avail_bps() / 1e6
    );

    // 2. direct probing (Delphi-style): needs the tight-link capacity,
    //    inverts Equation 9 per stream, averages the samples; a session
    //    drives the tool's probing over the scenario's endpoints
    let mut tool = DirectProber::new(DirectConfig::canonical());
    let Verdict::Point(direct) = scenario.session().drive(&mut scenario.sim, &mut tool) else {
        unreachable!("direct probing yields a point estimate")
    };
    println!(
        "direct probing:  A ≈ {:.2} Mb/s  ({} packets, {:.2} s of probing, \
         per-sample sd {:.2} Mb/s)",
        direct.avail_bps / 1e6,
        direct.probe_packets,
        direct.elapsed_secs,
        direct.samples.stddev / 1e6,
    );

    // 3. iterative probing (Pathload): no capacity needed; binary-search
    //    on the rate with OWD trend tests, reports a variation range
    let mut tool = Pathload::new(PathloadConfig::quick());
    let pathload = scenario.session().drive(&mut scenario.sim, &mut tool);
    let (lo, hi) = pathload.range_bps().expect("Pathload reports a range");
    println!(
        "pathload:        A in [{:.2}, {:.2}] Mb/s  ({} packets, {:.2} s)",
        lo / 1e6,
        hi / 1e6,
        pathload.probe_packets(),
        pathload.elapsed_secs(),
    );

    // 4. the ground truth, from the link's exact busy periods — over a
    //    probe-free window (while a probing stream is in flight the link
    //    also carries the probe's own load)
    scenario.measure_from = scenario.sim.now();
    scenario.sim.run_for(SimDuration::from_secs(10));
    let truth = scenario.ground_truth(0);
    println!(
        "ground truth:    A = {:.2} Mb/s over a 10 s probe-free window",
        truth.mean() / 1e6
    );
}
