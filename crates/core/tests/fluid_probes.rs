//! The fluid window carrying probe streams: it runs the probe sender's
//! packet timers, serves the probe packets hop by hop on every link it
//! holds and runs the receiver's halting deliveries, and every stream
//! (and every tool round) must come out exactly as on the per-event
//! path, on one link and on paths of several.
//!
//! The tests read `prof` cost deltas, which are process-wide once
//! flushed, so they take turns on one lock and this file holds no other
//! test.

use std::sync::Mutex;

use abw_core::probe::ProbeRecord;
use abw_core::scenario::{CrossKind, HopSpec, Scenario, SingleHopConfig};
use abw_core::stream::StreamSpec;
use abw_core::tools::direct::{DirectConfig, DirectProber};
use abw_core::tools::registry::{self, ToolConfig};
use abw_netsim::{ImpairmentConfig, LinkCounters, LossModel, SimCounters, SimDuration, SimTime};
use abw_obs::prof::{self, Cost, CostSnapshot, ALL_COSTS};
use abw_traffic::SizeDist;

static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the cost counters it added. The
/// simulator must be dropped inside `f`, so that the totals it adds then
/// (`Injected`, `Delivered`, …) count too.
fn with_costs<T>(f: impl FnOnce() -> T) -> (T, CostSnapshot) {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let before = prof::snapshot();
    let out = f();
    (out, prof::snapshot().delta(&before))
}

/// Asserts that a run with the window on cost what the run with it off
/// did, in every counter but the window's own: the same events popped,
/// packets simulated, queue operations, RNG draws and simulator totals.
fn assert_same_costs(on: &CostSnapshot, off: &CostSnapshot, case: &str) {
    for cost in ALL_COSTS {
        if matches!(
            cost,
            Cost::FluidPackets | Cost::FluidWindows | Cost::FfSkips
        ) {
            continue;
        }
        assert_eq!(on.get(cost), off.get(cost), "{case}: {}", cost.name());
    }
}

/// Every link's counters, busy time and peak queue depth.
type LinkStates = Vec<(LinkCounters, SimDuration, u64)>;

fn link_states(s: &Scenario) -> LinkStates {
    s.links
        .iter()
        .map(|&l| {
            let l = s.sim.link(l);
            (l.counters(), l.busy_log().total_busy(), l.peak_queue_pkts())
        })
        .collect()
}

/// Everything a stream leaves behind: its records, the clock after it,
/// the packet counters, and every link's state.
type StreamObservables = (Vec<ProbeRecord>, SimTime, SimCounters, LinkStates);

/// Periodic streams below and above the avail-bw, a pair, a chirp and a
/// stream whose three packets share one send instant, with the gaps
/// before them that move each launch against the cross traffic.
fn streams() -> Vec<(StreamSpec, SimDuration)> {
    let ms = SimDuration::from_millis;
    vec![
        (
            StreamSpec::Periodic {
                rate_bps: 20e6,
                size: 1500,
                count: 60,
            },
            ms(50),
        ),
        // overloads the link: the stream queues behind itself
        (
            StreamSpec::Periodic {
                rate_bps: 60e6,
                size: 1500,
                count: 100,
            },
            ms(0),
        ),
        (
            StreamSpec::Pair {
                rate_bps: 100e6,
                size: 1500,
            },
            ms(10),
        ),
        (
            StreamSpec::Chirp {
                start_rate_bps: 5e6,
                gamma: 1.2,
                size: 1000,
                count: 15,
            },
            ms(0),
        ),
        (
            StreamSpec::Periodic {
                rate_bps: 30e6,
                size: 700,
                count: 40,
            },
            ms(3),
        ),
        // the gap rounds to 0 ns: each packet's timer is re-armed on its
        // own send instant, before that packet's arrival
        (
            StreamSpec::Periodic {
                rate_bps: 1e13,
                size: 40,
                count: 3,
            },
            ms(1),
        ),
    ]
}

/// Warms the path `hops` up with the window on or off, sends every
/// stream through `ProbeRunner::run_stream`, and returns what each
/// stream left behind, the cross packets injected while probing, the
/// probe packets sent, and the arrivals at each link.
fn probe(hops: &[HopSpec], fluid: bool) -> (Vec<StreamObservables>, u64, u64, Vec<u64>) {
    let mut s = Scenario::from_hops(hops.to_vec(), 23);
    s.sim.set_fluid(fluid);
    s.warm_up(SimDuration::from_millis(200));
    let mut runner = s.runner();
    let injected_before = s.sim.counters().injected;
    let mut probes = 0u64;
    let mut out = Vec::new();
    for (spec, gap) in streams() {
        runner.stream_gap = gap;
        let r = runner.run_stream(&mut s.sim, &spec);
        probes += u64::from(spec.count());
        out.push((r.records, s.sim.now(), s.sim.counters(), link_states(&s)));
    }
    let cross = s.sim.counters().injected - injected_before - probes;
    // every packet that reached a link: served, still queued (the one
    // on the wire included), or lost there
    let arrivals = s
        .links
        .iter()
        .map(|&l| {
            let l = s.sim.link(l);
            let c = l.counters();
            c.forwarded_pkts + l.queue_len() as u64 + c.dropped_pkts + c.impaired_pkts
        })
        .collect();
    (out, cross, probes, arrivals)
}

/// The link impairments the window admits: none, or ingress loss.
fn ingress_only() -> Vec<(&'static str, Option<ImpairmentConfig>)> {
    vec![
        ("pristine", None),
        ("1% loss", Some(ImpairmentConfig::iid_loss(0.01))),
        ("30% loss", Some(ImpairmentConfig::iid_loss(0.3))),
        ("Gilbert-Elliott", Some(gilbert_elliott())),
        ("total loss", Some(ImpairmentConfig::iid_loss(1.0))),
    ]
}

fn gilbert_elliott() -> ImpairmentConfig {
    ImpairmentConfig::none().with_loss(LossModel::GilbertElliott {
        p_good_to_bad: 0.05,
        p_bad_to_good: 0.3,
        loss_bad: 0.5,
        loss_good: 0.0,
    })
}

/// Three canonical tight hops whose middle hop carries `impairment`.
fn middle_impaired(impairment: ImpairmentConfig) -> Vec<HopSpec> {
    let mut hops = Scenario::multi_tight(3, CrossKind::Poisson, 0).hops;
    hops[1].impairment = Some(impairment);
    hops
}

/// A path to probe: its name, its hops, the hop the window may never
/// hold, if any, and the period of its first hop's CBR cross fires when
/// they must meet probe sends on the nanosecond. On a path without a
/// hop never held, the window must carry most probe packet-hops.
struct Path {
    name: String,
    hops: Vec<HopSpec>,
    never_held: Option<usize>,
    cross_grid_ns: Option<u64>,
}

fn paths() -> Vec<Path> {
    let mut out = Vec::new();
    // CBR cross traffic puts fires and completions on the same
    // nanosecond as probe events: tie-breaks by sequence number matter
    for cross in [CrossKind::Poisson, CrossKind::Cbr] {
        for (name, impairment) in ingress_only() {
            let mut hop = HopSpec::canonical(cross);
            hop.impairment = impairment;
            out.push(Path {
                name: format!("{cross:?}, {name}"),
                hops: vec![hop],
                never_held: None,
                cross_grid_ns: None,
            });
        }
        for n in [2, 3, 5] {
            out.push(Path {
                name: format!("{cross:?}, {n} tight links"),
                hops: Scenario::multi_tight(n, cross, 0).hops,
                never_held: None,
                cross_grid_ns: None,
            });
        }
    }
    // 500 B CBR packets at 20 Mb/s fire every 200 us from t = 0. Every
    // launch falls on the 1 ms grid (a 200 ms warm-up, streams that end
    // on the 5 ms poll grid, whole-millisecond gaps), and the 20 and
    // 60 Mb/s streams send every 600 and 200 us: their packet timers and
    // the cross fires share instants, and the ties break on the packet
    // timers' reserved numbers
    let mut hop = HopSpec::canonical(CrossKind::Cbr);
    hop.cross_rate_bps = 20e6;
    hop.cross_sizes = SizeDist::Constant(500);
    out.push(Path {
        name: "CBR fires on probe send instants".into(),
        hops: vec![hop],
        never_held: None,
        cross_grid_ns: Some(200_000),
    });
    out.push(Path {
        name: "idle narrow link before the tight link".into(),
        hops: Scenario::tight_not_narrow(100e6, 0).hops,
        never_held: None,
        cross_grid_ns: None,
    });
    out.push(Path {
        name: "1% loss on the middle of 3 links".into(),
        hops: middle_impaired(ImpairmentConfig::iid_loss(0.01)),
        never_held: None,
        cross_grid_ns: None,
    });
    out.push(Path {
        name: "Gilbert-Elliott middle of 3 links".into(),
        hops: middle_impaired(gilbert_elliott()),
        never_held: None,
        cross_grid_ns: None,
    });
    out.push(Path {
        name: "jitter on the middle of 3 links".into(),
        hops: middle_impaired(ImpairmentConfig::none().with_jitter(SimDuration::from_micros(100))),
        never_held: Some(1),
        cross_grid_ns: None,
    });
    out
}

#[test]
fn probe_streams_in_the_fluid_window_are_bit_identical_to_event_loop() {
    abw_netsim::invariants::arm();
    for path in paths() {
        let case = &path.name;
        let ((fluid, cross_pkts, probe_pkts, arrivals), on) =
            with_costs(|| probe(&path.hops, true));
        let ((per_event, ..), off) = with_costs(|| probe(&path.hops, false));
        for (k, (got, want)) in fluid.iter().zip(&per_event).enumerate() {
            assert_eq!(got, want, "{case}: stream {k}");
        }
        assert_eq!(fluid.len(), per_event.len(), "{case}");
        assert_same_costs(&on, &off, case);
        // the zero-gap stream came through whole
        let (records, ..) = &fluid[fluid.len() - 1];
        assert!(
            records.len() == 3 || path.hops.iter().any(|h| h.impairment.is_some()),
            "{case}: the zero-gap stream lost packets"
        );
        if let Some(grid) = path.cross_grid_ns {
            let ties = fluid
                .iter()
                .flat_map(|(records, ..)| records)
                .filter(|r| r.sent_at.as_nanos().is_multiple_of(grid))
                .count();
            assert!(ties > 0, "{case}: no probe send met a cross fire");
        }
        let in_window = on.get(Cost::FluidPackets);
        if let Some(hop) = path.never_held {
            // no arrival at the jitter link ran in a window
            assert!(
                in_window + arrivals[hop] <= on.get(Cost::PacketsSimulated),
                "{case}: the window held hop {hop}"
            );
        } else {
            // the warm-up's cross packets ran in the window too; beyond
            // them and the cross packets sent while probing, the window
            // must have offered most probe packet-hops to their links
            let (_, warm_up) = with_costs(|| {
                let mut s = Scenario::from_hops(path.hops.clone(), 23);
                s.warm_up(SimDuration::from_millis(200));
            });
            let carried = in_window.saturating_sub(warm_up.get(Cost::FluidPackets) + cross_pkts);
            let hops = path.hops.len() as u64;
            assert!(
                carried * 2 > probe_pkts * hops,
                "{case}: only {carried} of {} probe packet-hops ran in the window",
                probe_pkts * hops
            );
        }
    }
}

/// One round of `tool` on the warmed-up path `hops`: the verdict, the
/// clock and packet counters after it, and every link's state.
fn tool_round(
    hops: &[HopSpec],
    tool: &str,
    fluid: bool,
) -> (String, SimTime, SimCounters, LinkStates) {
    let mut s = Scenario::from_hops(hops.to_vec(), 29);
    s.sim.set_fluid(fluid);
    s.warm_up(SimDuration::from_millis(200));
    let entry = registry::find(tool).expect("registered tool");
    let mut estimator = entry.build(&ToolConfig::quick());
    let verdict = s.session().drive(&mut s.sim, estimator.as_mut());
    (
        format!("{verdict:?}"),
        s.sim.now(),
        s.sim.counters(),
        link_states(&s),
    )
}

#[test]
fn tool_rounds_in_the_fluid_window_are_bit_identical_to_event_loop() {
    abw_netsim::invariants::arm();
    // BFind's load ramp runs its own agent: its timers run inside the
    // window, its packets arrive through the queue, and its echoes go
    // to an active agent; on several links its TTL-limited probes
    // expire on the way. Pathload and pathChirp run probe streams.
    let mut paths: Vec<(String, Vec<HopSpec>)> = ingress_only()
        .into_iter()
        .take(3)
        .map(|(name, impairment)| {
            let mut hop = HopSpec::canonical(CrossKind::Cbr);
            hop.impairment = impairment;
            (name.to_string(), vec![hop])
        })
        .collect();
    paths.push((
        "3 tight links".into(),
        Scenario::multi_tight(3, CrossKind::Poisson, 0).hops,
    ));
    for (name, hops) in &paths {
        for tool in ["bfind", "pathload", "pathchirp"] {
            let case = format!("{name}: {tool}");
            let (fluid, on) = with_costs(|| tool_round(hops, tool, true));
            let (per_event, off) = with_costs(|| tool_round(hops, tool, false));
            assert_eq!(fluid, per_event, "{case}");
            assert_same_costs(&on, &off, &case);
        }
    }
}

#[test]
fn probe_streams_on_timing_impairments_stay_per_event() {
    let timing = [
        ImpairmentConfig::none().with_jitter(SimDuration::from_micros(100)),
        ImpairmentConfig::none().with_reorder(0.05, SimDuration::from_millis(1)),
        ImpairmentConfig::none().with_flap(SimTime::from_nanos(300_000_000), 40e6),
    ];
    for config in timing {
        let hop = HopSpec::canonical(CrossKind::Poisson).with_impairment(config.clone());
        let (_, costs) = with_costs(|| probe(&[hop], true));
        assert_eq!(
            costs.get(Cost::FluidPackets),
            0,
            "{config:?} must keep the per-event path"
        );
    }
}

/// Windows opened are the window's own cost, so the on/off comparisons
/// skip them; this pins them for one direct-probing round (Figure 2's
/// 100 periodic trains of 335 packets) on the canonical hop after its
/// warm-up. A stream's window closes on the receiver's halt, and the run
/// to the next poll boundary opens another.
#[test]
fn a_direct_probing_round_opens_a_pinned_number_of_windows() {
    let (windows, _) = with_costs(|| {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            seed: 7,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let before = prof::snapshot();
        let mut tool = DirectProber::new(DirectConfig::canonical());
        let verdict = s.session().drive(&mut s.sim, &mut tool);
        assert!(verdict.avail_bps().is_finite());
        assert_eq!(verdict.probe_packets(), 100 * 335);
        prof::snapshot().delta(&before).get(Cost::FluidWindows)
    });
    assert_eq!(windows, 187);
}
