//! Driving an [`ArrivalProcess`] onto a path.

use abw_netsim::{
    packet_to, Agent, AgentId, Ctx, FlowId, FluidRoute, FluidStep, PacketKind, PathId, Rearm,
    SimDuration, SimTime, Simulator,
};

use crate::process::{ArrivalProcess, ParetoOnOff};

/// Draws buffered ahead per refill: one dynamic dispatch and one
/// buffer-management pass amortise over this many arrivals.
const DRAW_BATCH: usize = 64;

/// A simulator agent that injects the packets of an [`ArrivalProcess`]
/// down a path until an optional stop time.
///
/// Cross traffic in the paper's multi-hop experiments is *one-hop
/// persistent*: it enters at link `i` and exits at link `i+1`, which in
/// this simulator is simply a source whose path contains only link `i`.
pub struct SourceAgent {
    process: Box<dyn ArrivalProcess>,
    path: PathId,
    dst: AgentId,
    flow: FlowId,
    stop_at: Option<SimTime>,
    /// Pre-drawn `(gap, size)` pairs (see [`ArrivalProcess::next_arrivals`]);
    /// buffering changes *when* draws happen, never their values or order,
    /// so the emitted packet stream is bit-identical to unbuffered draws.
    draws: Vec<(SimDuration, u32)>,
    /// Next unconsumed index into `draws`.
    draws_next: usize,
    /// Packets injected so far.
    pub sent_packets: u64,
    /// Bytes injected so far.
    pub sent_bytes: u64,
}

impl SourceAgent {
    /// Creates a source that runs from the simulation start until stopped.
    pub fn new(process: Box<dyn ArrivalProcess>, path: PathId, dst: AgentId, flow: FlowId) -> Self {
        SourceAgent {
            process,
            path,
            dst,
            flow,
            stop_at: None,
            draws: Vec::new(),
            draws_next: 0,
            sent_packets: 0,
            sent_bytes: 0,
        }
    }

    /// Stops injecting at the given simulated time.
    pub fn with_stop_at(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Retunes the process's mean rate mid-simulation (see
    /// [`ArrivalProcess::set_rate_bps`]); already-scheduled arrivals and
    /// the up-to-`DRAW_BATCH` (64) pre-drawn gaps in the buffer are
    /// unaffected — the new rate takes full effect within at most one
    /// draw batch. The tracking experiments measure convergence with a
    /// tolerance that absorbs this latency.
    pub fn set_rate_bps(&mut self, rate_bps: f64) -> bool {
        self.process.set_rate_bps(rate_bps)
    }

    /// The next `(gap, size)` draw, through the batch buffer.
    #[inline]
    fn next_draw(&mut self) -> (SimDuration, u32) {
        if self.draws_next == self.draws.len() {
            self.draws.clear();
            self.draws_next = 0;
            self.process.next_arrivals(&mut self.draws, DRAW_BATCH);
        }
        let d = self.draws[self.draws_next];
        self.draws_next += 1;
        d
    }
}

impl Agent for SourceAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // The first packet arrives after one gap: sources started together
        // do not emit a synchronised burst at t = 0.
        let (gap, _) = self.next_draw();
        ctx.schedule_in(gap, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        // one code path for both the event loop and the fluid window
        match self.fluid_step(ctx.now()) {
            FluidStep::Stop => {}
            FluidStep::Send { size, seq, rearm } => {
                let p = packet_to(self.dst, self.path, self.flow, size, seq, PacketKind::Data);
                ctx.send(p);
                if let Rearm::After(gap) = rearm {
                    ctx.schedule_in(gap, 0);
                }
            }
        }
    }

    fn fluid_route(&self) -> Option<FluidRoute> {
        Some(FluidRoute {
            path: self.path,
            dst: self.dst,
            flow: self.flow,
            kind: PacketKind::Data,
        })
    }

    fn fluid_step(&mut self, now: SimTime) -> FluidStep {
        if let Some(stop) = self.stop_at {
            if now >= stop {
                return FluidStep::Stop;
            }
        }
        // send one packet now, draw the next gap
        let (next_gap, size) = self.next_draw();
        let seq = self.sent_packets;
        self.sent_packets += 1;
        self.sent_bytes += size as u64;
        FluidStep::Send {
            size,
            seq,
            rearm: Rearm::After(next_gap),
        }
    }
}

/// Adds `n` Pareto ON-OFF sources whose rates sum to `total_rate_bps`,
/// all feeding `path` towards `dst`. Aggregated heavy-tailed ON-OFF
/// sources yield long-range-dependent traffic — the model behind the
/// synthetic NLANR-substitute trace.
///
/// Returns the created agent ids. Flows are numbered `flow_base + i`.
#[allow(clippy::too_many_arguments)]
pub fn spawn_aggregate(
    sim: &mut Simulator,
    n: usize,
    total_rate_bps: f64,
    peak_rate_bps: f64,
    packet_size: u32,
    path: PathId,
    dst: AgentId,
    flow_base: u32,
    seed: u64,
) -> Vec<AgentId> {
    assert!(n > 0, "aggregate needs at least one source");
    let per_source = total_rate_bps / n as f64;
    (0..n)
        .map(|i| {
            let process = ParetoOnOff::new(
                per_source,
                peak_rate_bps,
                packet_size,
                seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15),
            );
            sim.add_agent(Box::new(SourceAgent::new(
                Box::new(process),
                path,
                dst,
                FlowId(flow_base + i as u32),
            )))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Cbr, ParetoInterarrival, PoissonProcess};
    use crate::sizes::SizeDist;
    use abw_netsim::{CountingSink, ImpairmentConfig, LinkConfig, LinkId, LossModel};
    use abw_obs::prof::{self, Cost, CostSnapshot, ALL_COSTS};

    fn build(capacity_bps: f64) -> (Simulator, PathId, AgentId) {
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(capacity_bps, SimDuration::ZERO));
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        (sim, path, sink)
    }

    #[test]
    fn cbr_source_delivers_at_rate() {
        let (mut sim, path, sink) = build(100e6);
        sim.add_agent(Box::new(SourceAgent::new(
            Box::new(Cbr::new(10e6, 1250)),
            path,
            sink,
            FlowId(1),
        )));
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        let s: &CountingSink = sim.agent(sink);
        // 10 Mb/s for 2 s = 2.5 MB; first packet delayed one gap (1 ms)
        let expected = 2_500_000.0;
        let got = s.bytes as f64;
        assert!(
            (got - expected).abs() / expected < 0.01,
            "delivered {got} bytes"
        );
    }

    #[test]
    fn source_respects_stop_time() {
        let (mut sim, path, sink) = build(100e6);
        let stop = SimTime::from_nanos(500_000_000);
        sim.add_agent(Box::new(
            SourceAgent::new(Box::new(Cbr::new(10e6, 1250)), path, sink, FlowId(1))
                .with_stop_at(stop),
        ));
        sim.run_until(SimTime::from_nanos(2_000_000_000));
        let s: &CountingSink = sim.agent(sink);
        let expected = 10e6 * 0.5 / 8.0;
        let got = s.bytes as f64;
        assert!(
            (got - expected).abs() / expected < 0.02,
            "delivered {got} bytes"
        );
        assert!(s.last_arrival.unwrap() <= stop + SimDuration::from_millis(1));
    }

    #[test]
    fn poisson_source_utilisation_matches() {
        let (mut sim, path, sink) = build(50e6);
        sim.add_agent(Box::new(SourceAgent::new(
            Box::new(PoissonProcess::new(25e6, SizeDist::Constant(1500), 4)),
            path,
            sink,
            FlowId(1),
        )));
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        let link = sim.link(abw_netsim::LinkId(0));
        let busy = link.busy_log().total_busy().as_secs_f64();
        let util = busy / 20.0;
        assert!((util - 0.5).abs() < 0.02, "utilisation {util}");
    }

    /// Each sink's packets, bytes, first and last arrival; the injected
    /// and delivered counters; each link's drops, impairment losses,
    /// busy time and peak queue.
    type Observables = (
        Vec<(u64, u64, Option<SimTime>, Option<SimTime>)>,
        u64,
        u64,
        Vec<(u64, u64, u64, u64)>,
    );

    /// What `spawn` adds over the links it is given: its sources and
    /// the sinks to observe.
    type Spawn<'a> = &'a dyn Fn(&mut Simulator, &[LinkId]) -> (Vec<AgentId>, Vec<AgentId>);

    /// Runs the sources `spawn` adds over `links` bottleneck links, each
    /// impaired by `impairment` when given, and returns every observable
    /// the fluid fast-forward path could plausibly disturb.
    fn run_observables(
        fluid: bool,
        impairment: Option<&ImpairmentConfig>,
        links: usize,
        spawn: Spawn<'_>,
    ) -> Observables {
        let mut sim = Simulator::new();
        sim.set_fluid(fluid);
        // 60 Mb/s offered into a 50 Mb/s link with a tight queue: the
        // window must reproduce drop-tail decisions, not just timings
        let links: Vec<LinkId> = (0..links)
            .map(|i| {
                let link = sim.add_link(
                    LinkConfig::new(50e6, SimDuration::from_millis(1)).with_queue_bytes(15_000),
                );
                if let Some(config) = impairment {
                    sim.impair_link(link, config.clone(), 11 + i as u64);
                }
                link
            })
            .collect();
        let (sources, sinks) = spawn(&mut sim, &links);
        for &src in &sources {
            sim.agent_mut::<SourceAgent>(src).stop_at = Some(SimTime::from_nanos(1_600_000_000));
        }
        // chunked run: windows must close at each deadline and
        // materialise their pending virtual events exactly
        for i in 1..=8 {
            sim.run_until(SimTime::from_nanos(i * 250_000_000));
            if i == 3 {
                // retune mid-run: the draw buffer persists across it
                let rate_bps = 30e6 / sources.len() as f64;
                for &src in &sources {
                    sim.agent_mut::<SourceAgent>(src).set_rate_bps(rate_bps);
                }
            }
        }
        sim.run_to_quiescence();
        let sinks = sinks
            .iter()
            .map(|&id| {
                let s: &CountingSink = sim.agent(id);
                (s.packets, s.bytes, s.first_arrival, s.last_arrival)
            })
            .collect();
        let links = links
            .iter()
            .map(|&id| {
                let l = sim.link(id);
                (
                    l.counters().dropped_pkts,
                    l.counters().impaired_pkts,
                    l.busy_log().total_busy().as_nanos(),
                    l.peak_queue_pkts(),
                )
            })
            .collect();
        let c = sim.counters();
        (sinks, c.injected, c.delivered, links)
    }

    /// `run`'s result and the cost counters it added on this thread, the
    /// totals of the simulators it dropped included. A snapshot flushes
    /// the calling thread's tallies into the process-wide totals, so
    /// measuring tests take turns: no other thread's flush lands between
    /// the two snapshots.
    fn with_costs<T>(run: impl FnOnce() -> T) -> (T, CostSnapshot) {
        static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
        let before = prof::snapshot();
        let out = run();
        (out, prof::snapshot().delta(&before))
    }

    /// Runs `spawn` with the window on and off, asserts the two runs
    /// agree on every observable and on every cost counter but the
    /// window's own, and returns the packets the window simulated.
    fn assert_fluid_identical(
        impairment: Option<&ImpairmentConfig>,
        links: usize,
        spawn: Spawn<'_>,
        case: &str,
    ) -> u64 {
        let (fluid, on) = with_costs(|| run_observables(true, impairment, links, spawn));
        let (per_event, off) = with_costs(|| run_observables(false, impairment, links, spawn));
        assert_eq!(fluid, per_event, "{case}");
        for cost in ALL_COSTS {
            if !matches!(
                cost,
                Cost::FluidPackets | Cost::FluidWindows | Cost::FfSkips
            ) {
                assert_eq!(on.get(cost), off.get(cost), "{case}: {}", cost.name());
            }
        }
        on.get(Cost::FluidPackets)
    }

    #[test]
    fn fluid_fast_forward_is_bit_identical_to_event_loop() {
        abw_netsim::invariants::arm();
        const MTU: SizeDist = SizeDist::Constant(1500);
        let shapes: [fn() -> Box<dyn ArrivalProcess>; 4] = [
            || Box::new(Cbr::new(60e6, 1500)),
            || Box::new(PoissonProcess::new(60e6, MTU, 7)),
            || Box::new(ParetoOnOff::new(60e6, 150e6, 1500, 7)),
            || Box::new(ParetoInterarrival::new(60e6, MTU, 1.5, 7)),
        ];
        // 16 sources on one link: windows hand off between sources
        let aggregate = |sim: &mut Simulator, links: &[LinkId]| {
            let path = sim.add_path(links.to_vec());
            let sink = sim.add_agent(Box::new(CountingSink::new()));
            let sources = spawn_aggregate(sim, 16, 60e6, 150e6, 1500, path, sink, 1, 7);
            (sources, vec![sink])
        };
        // Cross traffic on each of two links and a flow across both, all
        // into one sink: the window holds both links, carries the flow's
        // packets from the first to the second, and runs the deliveries
        // from the link the sink is not bound to at their own position.
        let two_links = |sim: &mut Simulator, links: &[LinkId]| {
            let sink = sim.add_agent(Box::new(CountingSink::new()));
            let mut paths: Vec<PathId> = links.iter().map(|&l| sim.add_path(vec![l])).collect();
            paths.push(sim.add_path(links.to_vec()));
            let sources = paths
                .into_iter()
                .enumerate()
                .map(|(i, path)| {
                    let rate_bps = if i < 2 { 30e6 } else { 25e6 };
                    let process = PoissonProcess::new(rate_bps, MTU, 7 + i as u64);
                    let flow = FlowId(i as u32);
                    sim.add_agent(Box::new(SourceAgent::new(
                        Box::new(process),
                        path,
                        sink,
                        flow,
                    )))
                })
                .collect();
            (sources, vec![sink])
        };
        // the link impairments the fluid window admits: ingress loss only
        let ingress_only = [
            None,
            Some(ImpairmentConfig::iid_loss(0.01)),
            Some(ImpairmentConfig::iid_loss(0.3)),
            Some(
                ImpairmentConfig::none().with_loss(LossModel::GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_bad: 0.5,
                    loss_good: 0.0,
                }),
            ),
        ];
        for impairment in &ingress_only {
            let impairment = impairment.as_ref();
            for (i, make) in shapes.iter().enumerate() {
                let spawn = |sim: &mut Simulator, links: &[LinkId]| {
                    let path = sim.add_path(links.to_vec());
                    let sink = sim.add_agent(Box::new(CountingSink::new()));
                    let source = SourceAgent::new(make(), path, sink, FlowId(1));
                    (vec![sim.add_agent(Box::new(source))], vec![sink])
                };
                let case = format!("shape {i}, {impairment:?}");
                let simulated = assert_fluid_identical(impairment, 1, &spawn, &case);
                assert!(simulated > 0, "{case}: the window never opened");
            }
            assert_fluid_identical(
                impairment,
                1,
                &aggregate,
                &format!("aggregate, {impairment:?}"),
            );
            let case = format!("two links, {impairment:?}");
            let simulated = assert_fluid_identical(impairment, 2, &two_links, &case);
            assert!(simulated > 0, "{case}: the window never opened");
        }
    }

    #[test]
    fn fluid_window_stays_shut_on_timing_impairments() {
        let spawn = |sim: &mut Simulator, links: &[LinkId]| {
            let path = sim.add_path(links.to_vec());
            let sink = sim.add_agent(Box::new(CountingSink::new()));
            let process = PoissonProcess::new(60e6, SizeDist::Constant(1500), 7);
            let source = SourceAgent::new(Box::new(process), path, sink, FlowId(1));
            (vec![sim.add_agent(Box::new(source))], vec![sink])
        };
        let timing = [
            ImpairmentConfig::none().with_jitter(SimDuration::from_micros(100)),
            ImpairmentConfig::none().with_reorder(0.05, SimDuration::from_millis(1)),
            ImpairmentConfig::none().with_flap(SimTime::from_nanos(500_000_000), 40e6),
            ImpairmentConfig::iid_loss(0.01).with_jitter(SimDuration::from_micros(100)),
        ];
        for config in &timing {
            let (_, costs) = with_costs(|| run_observables(true, Some(config), 1, &spawn));
            assert_eq!(
                costs.get(Cost::FluidPackets),
                0,
                "{config:?} must keep the per-event path"
            );
        }
    }

    #[test]
    fn aggregate_spawns_and_sums_to_rate() {
        let (mut sim, path, sink) = build(155.52e6);
        let ids = spawn_aggregate(&mut sim, 16, 70e6, 155.52e6, 1500, path, sink, 10, 99);
        assert_eq!(ids.len(), 16);
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        let s: &CountingSink = sim.agent(sink);
        let rate = s.bytes as f64 * 8.0 / 30.0;
        assert!((rate - 70e6).abs() / 70e6 < 0.08, "aggregate rate {rate}");
    }
}
