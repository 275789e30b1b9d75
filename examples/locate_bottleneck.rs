//! Locate the tight link of a multi-hop path with BFind: sender-only
//! probing that ramps a UDP load while watching per-hop RTTs from ICMP
//! time-exceeded replies.
//!
//! Run with: `cargo run --release --example locate_bottleneck`

use abwe::core::scenario::{CrossKind, HopSpec, Scenario};
use abwe::core::tools::bfind::{Bfind, BfindConfig};
use abwe::core::tools::Verdict;
use abwe::netsim::SimDuration;
use abwe::traffic::SizeDist;

fn main() {
    // a 4-hop path; hop 2 is the tight link (avail 18 Mb/s), the rest
    // are lightly loaded
    let hop = |cross_rate: f64| HopSpec {
        capacity_bps: 50e6,
        cross_rate_bps: cross_rate,
        cross: CrossKind::Poisson,
        cross_sizes: SizeDist::Constant(1500),
        prop_delay: SimDuration::from_millis(2),
        queue_bytes: None,
        impairment: None,
    };
    let mut scenario = Scenario::from_hops(vec![hop(8e6), hop(12e6), hop(32e6), hop(5e6)], 42);
    scenario.warm_up(SimDuration::from_millis(500));
    println!(
        "path: 4 hops of 50 Mb/s; per-hop avail-bw = {:?} Mb/s",
        scenario
            .hops
            .iter()
            .map(|h| h.avail_bps() / 1e6)
            .collect::<Vec<_>>()
    );

    let mut tool = Bfind::new(BfindConfig::default()).estimator();
    let Verdict::Bfind(report) = scenario.session().drive(&mut scenario.sim, &mut tool) else {
        unreachable!("BFind yields a BFind report")
    };

    println!("\nload ramp (median per-hop RTT in ms):");
    println!("rate_Mbps   hop0    hop1    hop2    hop3");
    for e in &report.epochs {
        print!("{:>9.0}", e.rate_bps / 1e6);
        for rtt in &e.hop_rtts {
            print!("{:>8.2}", rtt * 1e3);
        }
        println!();
    }

    match report.tight_hop {
        Some(hop) => println!(
            "\nBFind: tight link at hop {hop}, avail-bw ≈ {:.0} Mb/s \
             (configured: hop 2, 18 Mb/s)",
            report.avail_bps / 1e6
        ),
        None => println!("\nBFind: no hop inflated below the rate cap"),
    }
    println!(
        "({} probe + load packets; BFind needs no receiver cooperation \
         but injects the most traffic of all the tools)",
        report.probe_packets
    );
}
