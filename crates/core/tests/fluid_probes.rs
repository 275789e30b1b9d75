//! The fluid window carrying probe streams: on a single-link path it
//! runs the probe sender's packet timers, serves the probe packets and
//! runs the receiver's halting deliveries, and every stream (and every
//! tool round) must come out exactly as on the per-event path.
//!
//! The tests read `Cost::FluidPackets` deltas, which are process-wide
//! once flushed, so they take turns on one lock and this file holds no
//! other test.

use std::sync::Mutex;

use abw_core::probe::ProbeRecord;
use abw_core::scenario::{CrossKind, HopSpec, Scenario};
use abw_core::stream::StreamSpec;
use abw_core::tools::registry::{self, ToolConfig};
use abw_netsim::{ImpairmentConfig, LinkCounters, LossModel, SimCounters, SimDuration, SimTime};
use abw_obs::prof::{self, Cost};

static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the packets the fluid window
/// simulated meanwhile.
fn with_fluid_packets<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let before = prof::snapshot();
    let out = f();
    (out, prof::snapshot().delta(&before).get(Cost::FluidPackets))
}

/// Everything a stream leaves behind: its records, the clock after it,
/// the packet counters, and the link's counters, busy time and peak
/// queue depth.
type StreamObservables = (
    Vec<ProbeRecord>,
    SimTime,
    SimCounters,
    LinkCounters,
    SimDuration,
    u64,
);

/// Periodic streams below and above the avail-bw, a pair and a chirp,
/// with the gaps before them that move each launch against the cross
/// traffic.
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
    ]
}

/// Warms a single hop up with the window on or off, sends every stream
/// through `ProbeRunner::run_stream`, and returns what each stream left
/// behind plus the cross packets injected while probing.
fn probe(hop: &HopSpec, fluid: bool) -> (Vec<StreamObservables>, u64, u64) {
    let mut s = Scenario::from_hops(vec![hop.clone()], 23);
    s.sim.set_fluid(fluid);
    s.warm_up(SimDuration::from_millis(200));
    let link = s.links[0];
    let mut runner = s.runner();
    let injected_before = s.sim.counters().injected;
    let mut probes = 0u64;
    let mut out = Vec::new();
    for (spec, gap) in streams() {
        runner.stream_gap = gap;
        let r = runner.run_stream(&mut s.sim, &spec);
        probes += u64::from(spec.count());
        let l = s.sim.link(link);
        out.push((
            r.records,
            s.sim.now(),
            s.sim.counters(),
            l.counters(),
            l.busy_log().total_busy(),
            l.peak_queue_pkts(),
        ));
    }
    let cross = s.sim.counters().injected - injected_before - probes;
    (out, cross, probes)
}

/// The link impairments the window admits: none, or ingress loss.
fn ingress_only() -> Vec<(&'static str, Option<ImpairmentConfig>)> {
    vec![
        ("pristine", None),
        ("1% loss", Some(ImpairmentConfig::iid_loss(0.01))),
        ("30% loss", Some(ImpairmentConfig::iid_loss(0.3))),
        (
            "Gilbert-Elliott",
            Some(
                ImpairmentConfig::none().with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_bad: 0.5,
                    loss_good: 0.0,
                }),
            ),
        ),
        ("total loss", Some(ImpairmentConfig::iid_loss(1.0))),
    ]
}

#[test]
fn probe_streams_in_the_fluid_window_are_bit_identical_to_event_loop() {
    abw_netsim::invariants::arm();
    // CBR cross traffic puts fires and completions on the same
    // nanosecond as probe events: tie-breaks by sequence number matter
    for cross in [CrossKind::Poisson, CrossKind::Cbr] {
        for (name, impairment) in ingress_only() {
            let mut hop = HopSpec::canonical(cross);
            hop.impairment = impairment;
            let case = format!("{cross:?}, {name}");
            let ((fluid, cross_pkts, probe_pkts), in_window) =
                with_fluid_packets(|| probe(&hop, true));
            let (per_event, ..) = probe(&hop, false);
            for (k, (got, want)) in fluid.iter().zip(&per_event).enumerate() {
                assert_eq!(got, want, "{case}: stream {k}");
            }
            assert_eq!(fluid.len(), per_event.len(), "{case}");
            // the warm-up's cross packets ran in the window too; beyond
            // them and the cross packets sent while probing, the window
            // must have offered most probe packets to the link itself
            let warm_up_fluid = {
                let (_, n) = with_fluid_packets(|| {
                    let mut s = Scenario::from_hops(vec![hop.clone()], 23);
                    s.warm_up(SimDuration::from_millis(200));
                });
                n
            };
            let carried = in_window.saturating_sub(warm_up_fluid + cross_pkts);
            assert!(
                carried * 2 > probe_pkts,
                "{case}: only {carried} of {probe_pkts} probe packets ran in the window"
            );
        }
    }
}

/// One round of `tool` on a warmed-up single hop: the verdict, the
/// clock and packet counters after it, and the link's counters, busy
/// time and peak queue depth.
fn tool_round(
    hop: &HopSpec,
    tool: &str,
    fluid: bool,
) -> (String, SimTime, SimCounters, LinkCounters, SimDuration, u64) {
    let mut s = Scenario::from_hops(vec![hop.clone()], 29);
    s.sim.set_fluid(fluid);
    s.warm_up(SimDuration::from_millis(200));
    let entry = registry::find(tool).expect("registered tool");
    let mut estimator = entry.build(&ToolConfig::quick());
    let verdict = s.session().drive(&mut s.sim, estimator.as_mut());
    let l = s.sim.link(s.links[0]);
    (
        format!("{verdict:?}"),
        s.sim.now(),
        s.sim.counters(),
        l.counters(),
        l.busy_log().total_busy(),
        l.peak_queue_pkts(),
    )
}

#[test]
fn tool_rounds_in_the_fluid_window_are_bit_identical_to_event_loop() {
    abw_netsim::invariants::arm();
    // BFind's load ramp runs its own agent: its timers run inside the
    // window, its packets arrive through the queue, and its echoes go
    // to an active agent. Pathload and pathChirp run probe streams.
    for (name, impairment) in ingress_only().into_iter().take(3) {
        let mut hop = HopSpec::canonical(CrossKind::Cbr);
        hop.impairment = impairment;
        for tool in ["bfind", "pathload", "pathchirp"] {
            let (fluid, _) = with_fluid_packets(|| tool_round(&hop, tool, true));
            assert_eq!(fluid, tool_round(&hop, tool, false), "{name}: {tool}");
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
        let (_, simulated) = with_fluid_packets(|| probe(&hop, true));
        assert_eq!(simulated, 0, "{config:?} must keep the per-event path");
    }
}
