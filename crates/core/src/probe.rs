//! Probing endpoints and per-stream measurements.
//!
//! [`ProbeSender`] transmits one [`StreamSpec`] at a time;
//! [`ProbeReceiver`] records, for every probing packet, when it was sent
//! and when it arrived. A [`StreamResult`] packages one stream's records
//! with the derived quantities all the tools consume: the one-way-delay
//! series (for trend analysis — Fallacy 8 is precisely that OWDs carry
//! more information than the single `Ro/Ri` ratio) and the input/output
//! rates.
//!
//! [`ProbeRunner`] sends one stream and waits for it to drain;
//! [`Session`] is the one driver every [`Estimator`] runs under: it
//! executes the tool's requested actions through its runner (or, for
//! BFind's load ramp, its own agent) and feeds the observations back.

use std::collections::BTreeMap;

use abw_netsim::{
    gap_for_rate, packet_to, Agent, AgentId, Ctx, FlowId, FluidRoute, FluidStep, Packet,
    PacketKind, PathId, Rearm, SimDuration, SimTime, Simulator, SinkRole, TimerBlock,
};

use crate::stream::StreamSpec;
use crate::tools::{
    Action, Estimator, LoadRampSample, LoadRampSpec, Observation, ProbeSpec, Verdict,
};

/// Token that fires the launch of a pending stream.
const TOKEN_LAUNCH: u64 = u64::MAX;

/// Token of a stream packet's timer; the sender counts the packets.
const TOKEN_PACKET: u64 = 0;

/// The grid, counted from the start of [`ProbeRunner::run_stream`], on
/// which a completed stream hands the clock back to its caller.
const STREAM_POLL: SimDuration = SimDuration::from_millis(5);

/// The probing sender agent: idle until a stream is armed, then emits the
/// stream's packets at their exact offsets.
///
/// The launch reserves one event sequence number per packet timer, the
/// numbers a timer per packet pushed at launch would take, and schedules
/// only the first packet's; each packet's timer schedules the next one's
/// under its reserved number ([`Ctx::schedule_reserved`]). While the
/// stream has packets left the sender is a fluid source
/// ([`Agent::fluid_route`]), so the simulator's fluid window can run the
/// stream as a lane, as it runs a cross source.
pub struct ProbeSender {
    path: PathId,
    dst: AgentId,
    flow: FlowId,
    /// Stream waiting for the launch timer.
    pending: Option<(StreamSpec, u32)>,
    /// Stream on the wire, while it has packets left to send.
    current: Option<Sending>,
}

/// A stream on the wire.
struct Sending {
    id: u32,
    size: u32,
    /// Send instants of its packets.
    at: Vec<SimTime>,
    /// Index of the next packet to send.
    next: usize,
    /// The numbers its packets' timers take, one each, in order.
    timers: TimerBlock,
    /// Whether it may run as a window lane: no two of its packets share
    /// a send instant. A lane holds one pending arrival, and a timer
    /// re-armed on the send instant, whose reserved number is smaller
    /// than that arrival's, would fire before it.
    lane: bool,
}

impl ProbeSender {
    /// A sender probing `path` towards the receiver `dst`.
    pub fn new(path: PathId, dst: AgentId, flow: FlowId) -> Self {
        ProbeSender {
            path,
            dst,
            flow,
            pending: None,
            current: None,
        }
    }

    /// Arms `spec` as the next stream; it launches when the launch timer
    /// (scheduled by [`ProbeRunner`]) fires.
    ///
    /// Panics if a stream is already armed — streams must not overlap.
    pub fn arm(&mut self, spec: StreamSpec, stream_id: u32) {
        assert!(
            self.pending.is_none(),
            "a stream is already armed; streams must not overlap"
        );
        // the launch timer is never taken for a packet fire: the sender
        // is a fluid source only while a stream has packets left
        debug_assert!(
            self.current.is_none(),
            "a stream is still sending; streams must not overlap"
        );
        self.pending = Some((spec, stream_id));
    }
}

impl Agent for ProbeSender {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_LAUNCH {
            let (spec, id) = self.pending.take().expect("launch with no armed stream");
            let now = ctx.now();
            let at: Vec<SimTime> = spec.offsets().into_iter().map(|off| now + off).collect();
            let Some(&first) = at.first() else {
                return;
            };
            let mut timers = ctx.reserve_timers(at.len() as u64);
            ctx.schedule_reserved(first, timers.take(), TOKEN_PACKET);
            self.current = Some(Sending {
                id,
                size: spec.size(),
                lane: at.windows(2).all(|w| w[0] < w[1]),
                at,
                next: 0,
                timers,
            });
            return;
        }
        let stream = self
            .current
            .as_ref()
            .expect("packet timer with no stream")
            .id;
        let FluidStep::Send { size, seq, rearm } = self.fluid_step(ctx.now()) else {
            unreachable!("a stream packet's timer always sends");
        };
        let kind = PacketKind::Probe { stream };
        ctx.send(packet_to(self.dst, self.path, self.flow, size, seq, kind));
        if let Rearm::Reserved { at, seq } = rearm {
            ctx.schedule_reserved(at, seq, TOKEN_PACKET);
        }
    }

    /// The stream's route while it has packets left to send, unless two
    /// of them share a send instant.
    fn fluid_route(&self) -> Option<FluidRoute> {
        let s = self.current.as_ref().filter(|s| s.lane)?;
        Some(FluidRoute {
            path: self.path,
            dst: self.dst,
            flow: self.flow,
            kind: PacketKind::Probe { stream: s.id },
        })
    }

    /// Sends the stream's next packet and re-arms under the next
    /// reserved number, or not at all after the last packet, when the
    /// stream leaves the wire.
    fn fluid_step(&mut self, now: SimTime) -> FluidStep {
        let s = self.current.as_mut().expect("packet timer with no stream");
        debug_assert!(
            s.at.get(s.next) == Some(&now),
            "packet timer off its send instant"
        );
        let seq = s.next as u64;
        s.next += 1;
        let size = s.size;
        let rearm = match s.at.get(s.next) {
            Some(&at) => Rearm::Reserved {
                at,
                seq: s.timers.take(),
            },
            None => {
                self.current = None;
                Rearm::Never
            }
        };
        FluidStep::Send { size, seq, rearm }
    }
}

/// One probing packet's life: sequence number, send time, arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Sequence number within the stream.
    pub seq: u32,
    /// Send timestamp (stamped by the sender).
    pub sent_at: SimTime,
    /// Arrival timestamp at the receiver.
    pub recv_at: SimTime,
}

/// The probing receiver agent: records every probing packet by stream id.
///
/// Streams live in a `BTreeMap` so traversal order is deterministic by
/// construction (D2), not only after the sort in [`ProbeReceiver::take`].
#[derive(Default)]
pub struct ProbeReceiver {
    streams: BTreeMap<u32, Vec<ProbeRecord>>,
    /// `(stream, count)` armed by `expect`: the run halts when that
    /// stream holds `count` records.
    expect: Option<(u32, usize)>,
}

impl ProbeReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        ProbeReceiver::default()
    }

    /// Arms the receiver to halt the running simulation
    /// ([`Ctx::halt`]) on the arrival that brings `stream` to `count`
    /// records. Returns `true`, and stays unarmed, when the stream
    /// already holds that many.
    fn expect(&mut self, stream: u32, count: usize) -> bool {
        let complete = self.streams.get(&stream).map_or(0, Vec::len) >= count;
        self.expect = (!complete).then_some((stream, count));
        complete
    }

    /// Removes and returns the records of `stream`, sorted by sequence,
    /// and disarms the halt [`ProbeRunner::run_stream`] armed.
    pub fn take(&mut self, stream: u32) -> Vec<ProbeRecord> {
        self.expect = None;
        let mut v = self.streams.remove(&stream).unwrap_or_default();
        v.sort_by_key(|r| r.seq);
        v
    }
}

impl Agent for ProbeReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let PacketKind::Probe { stream } = packet.kind else {
            return;
        };
        let records = self.streams.entry(stream).or_default();
        records.push(ProbeRecord {
            seq: packet.seq as u32,
            sent_at: packet.sent_at,
            recv_at: ctx.now(),
        });
        if self.expect == Some((stream, records.len())) {
            self.expect = None;
            ctx.halt();
        }
    }

    /// Records and halts on the expected stream's last packet; never
    /// sends or schedules.
    fn sink_role(&self) -> SinkRole {
        SinkRole::Halting
    }
}

/// Everything measured about one probing stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The stream that was sent.
    pub spec: StreamSpec,
    /// Stream id.
    pub stream_id: u32,
    /// Per-packet records, sorted by sequence; lost packets are absent.
    pub records: Vec<ProbeRecord>,
}

impl StreamResult {
    /// Packets received.
    pub fn received(&self) -> usize {
        self.records.len()
    }

    /// Packets lost. Saturating: duplicate records (e.g. from a
    /// misbehaving path) can make `received > sent`, which counts as
    /// zero lost rather than underflowing.
    pub fn lost(&self) -> usize {
        (self.spec.count() as usize).saturating_sub(self.records.len())
    }

    /// Loss fraction in `[0, 1]`; zero for an empty spec (never NaN).
    pub fn loss_fraction(&self) -> f64 {
        let count = self.spec.count();
        if count == 0 {
            return 0.0;
        }
        self.lost() as f64 / count as f64
    }

    /// One-way delays (seconds) of the received packets, in sequence
    /// order. Clock offset does not matter for trend analysis; only
    /// differences are used.
    pub fn owds(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.recv_at.since(r.sent_at).as_secs_f64())
            .collect()
    }

    /// OWDs shifted so the minimum is zero — convenient for plotting
    /// (Figure 5 plots "relative OWD").
    pub fn relative_owds(&self) -> Vec<f64> {
        let owds = self.owds();
        let min = owds.iter().cloned().fold(f64::INFINITY, f64::min);
        owds.iter().map(|d| d - min).collect()
    }

    /// The nominal input rate of the stream in bits/s.
    pub fn input_rate_bps(&self) -> f64 {
        self.spec.nominal_rate_bps()
    }

    /// Measured output rate `Ro` in bits/s: `(n-1) * L * 8 / span` over
    /// the received packets. `None` with fewer than 2 arrivals or a
    /// zero-length span.
    ///
    /// The span is the min-to-max arrival time, **not** first-to-last of
    /// the sequence-sorted records: under reordering the last sequence
    /// number can arrive before the first, which would make a
    /// sequence-based span negative and silently discard the stream.
    pub fn output_rate_bps(&self) -> Option<f64> {
        if self.records.len() < 2 {
            return None;
        }
        let first_ns = self.records.iter().map(|r| r.recv_at).min()?;
        let last_ns = self.records.iter().map(|r| r.recv_at).max()?;
        let span = last_ns.since(first_ns).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some((self.records.len() - 1) as f64 * self.spec.size() as f64 * 8.0 / span)
    }

    /// `Ro / Ri`; `None` when the output rate is unmeasurable.
    pub fn rate_ratio(&self) -> Option<f64> {
        Some(self.output_rate_bps()? / self.input_rate_bps())
    }

    /// Gaps of consecutive (by sequence) packet pairs: `(input gap,
    /// output gap)` in seconds. Pairs broken by a loss are skipped, and
    /// so are pairs whose arrival order was inverted by reordering or
    /// jitter — a negative output gap is not a dispersion sample (found
    /// by the scenario fuzzer: the subtraction underflowed and
    /// panicked).
    pub fn pair_gaps(&self) -> Vec<(f64, f64)> {
        self.records
            .windows(2)
            .filter(|w| w[1].seq == w[0].seq + 1 && w[1].recv_at >= w[0].recv_at)
            .map(|w| {
                (
                    w[1].sent_at.since(w[0].sent_at).as_secs_f64(),
                    w[1].recv_at.since(w[0].recv_at).as_secs_f64(),
                )
            })
            .collect()
    }
}

/// Orchestrates probing streams over a simulator: arms the sender, runs
/// the event loop until the stream drains, and collects the result.
///
/// A [`Session`] sends every stream its estimator asks for through
/// [`ProbeRunner::run_stream`]; experiments that study raw streams
/// (Table 1, Figures 3 to 5) call it directly.
pub struct ProbeRunner {
    /// The [`ProbeSender`] agent.
    pub sender: AgentId,
    /// The [`ProbeReceiver`] agent.
    pub receiver: AgentId,
    /// Idle gap inserted before each stream (lets queues drain between
    /// streams; the paper's tools space streams for the same reason).
    pub stream_gap: SimDuration,
    /// Extra time to wait for in-flight packets after the last send.
    pub drain_timeout: SimDuration,
    next_stream_id: u32,
}

impl ProbeRunner {
    /// A runner with a 50 ms inter-stream gap and 1 s drain timeout.
    pub fn new(sender: AgentId, receiver: AgentId) -> Self {
        ProbeRunner {
            sender,
            receiver,
            stream_gap: SimDuration::from_millis(50),
            drain_timeout: SimDuration::from_secs(1),
            next_stream_id: 0,
        }
    }

    /// Sends one stream and returns its measurements. The simulation
    /// advances until every packet arrived or the drain timeout expires
    /// (lost packets simply stay absent from the result); a complete
    /// stream then runs on to the next 5 ms boundary counted from the
    /// call. Emits one `probe.stream` trace event: the stream id,
    /// packets sent and received, and the input and output rates
    /// (`null` when the output rate is unmeasurable).
    pub fn run_stream(&mut self, sim: &mut Simulator, spec: &StreamSpec) -> StreamResult {
        let _prof = abw_obs::prof::span("probe.stream");
        let id = self.next_stream_id;
        self.next_stream_id += 1;

        sim.agent_mut::<ProbeSender>(self.sender)
            .arm(spec.clone(), id);
        let t0 = sim.now();
        let launch_at = t0 + self.stream_gap;
        sim.schedule_timer(self.sender, launch_at, TOKEN_LAUNCH);

        // the receiver halts the run on the stream's last arrival; a
        // lossy stream runs to the deadline, costing exactly the drain
        // timeout
        let deadline = launch_at + spec.duration() + self.drain_timeout;
        let complete = sim
            .agent_mut::<ProbeReceiver>(self.receiver)
            .expect(id, spec.count() as usize);
        if t0 < deadline && (complete || sim.run_until(deadline)) {
            // Once complete, run on to the first poll boundary at or
            // after the last arrival (at least one poll in), capped at
            // the deadline: the instant a runner that checked the
            // receiver every 5 ms stopped at. The next stream starts
            // from this clock, so keeping the boundary keeps every
            // result bit-identical; moving it would change the golden
            // outputs and is a separate decision.
            let polls = sim
                .now()
                .since(t0)
                .as_nanos()
                .div_ceil(STREAM_POLL.as_nanos())
                .max(1);
            sim.run_until(deadline.min(t0 + STREAM_POLL.mul(polls)));
        }
        let records = sim.agent_mut::<ProbeReceiver>(self.receiver).take(id);
        let result = StreamResult {
            spec: spec.clone(),
            stream_id: id,
            records,
        };
        sim.emit(
            "probe.stream",
            &[
                ("stream", id.into()),
                ("sent", spec.count().into()),
                ("recv", result.received().into()),
                ("ri_bps", result.input_rate_bps().into()),
                (
                    "ro_bps",
                    result.output_rate_bps().unwrap_or(f64::NAN).into(),
                ),
            ],
        );
        result
    }
}

/// Routing facts a session needs for probing primitives that bypass the
/// [`ProbeRunner`] (BFind's load ramp installs its own agent on the
/// probed path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionRoute {
    pub(crate) path: PathId,
    pub(crate) hops: usize,
    pub(crate) dst: AgentId,
}

/// The generic session driver: owns **all** simulator interaction on
/// behalf of an [`Estimator`].
///
/// [`Session::step`] executes exactly one tool action — materialise a
/// probing stream (or load-ramp epoch), advance the simulation until it
/// drains, and feed the [`Observation`] back on the next call — so
/// multiple sessions can interleave in one simulation and a session can
/// keep re-estimating against time-varying cross traffic (the
/// `tracking` experiment). [`Session::drive`] loops `step` to
/// completion. A session is the only way an estimator runs: build one
/// with [`Scenario::session`](crate::scenario::Scenario::session), or
/// with [`Session::new`] over a hand-built path.
pub struct Session {
    runner: ProbeRunner,
    route: Option<SessionRoute>,
    load_agent: Option<AgentId>,
    /// When the current estimation round started (set lazily by the
    /// first `step`, cleared on `Done` so the next round re-stamps).
    round_start: Option<SimTime>,
    last: Option<Observation>,
}

impl Session {
    /// A session owning its runner.
    pub fn new(runner: ProbeRunner) -> Session {
        Session {
            runner,
            route: None,
            load_agent: None,
            round_start: None,
            last: None,
        }
    }

    /// A routed session: like [`Session::new`] but able to execute
    /// [`ProbeSpec::LoadRamp`] actions on the given path.
    pub(crate) fn with_route(
        runner: ProbeRunner,
        path: PathId,
        hops: usize,
        dst: AgentId,
    ) -> Session {
        Session {
            route: Some(SessionRoute { path, hops, dst }),
            ..Session::new(runner)
        }
    }

    /// The session's probe runner (e.g. to adjust `stream_gap`).
    pub fn runner_mut(&mut self) -> &mut ProbeRunner {
        &mut self.runner
    }

    /// Executes one estimator action: asks `tool` for its next move
    /// (feeding back the last observation), emits any trace events the
    /// decision buffered, and either runs the requested probing action
    /// or returns the final verdict (stamped with the round's elapsed
    /// simulated time).
    pub fn step(&mut self, sim: &mut Simulator, tool: &mut dyn Estimator) -> Option<Verdict> {
        let started = *self.round_start.get_or_insert(sim.now());
        let action = tool.next(self.last.take().as_ref());
        for ev in tool.take_events() {
            sim.emit(ev.kind, &ev.fields);
        }
        match action {
            Action::Send(spec) => {
                self.last = Some(self.execute(sim, spec));
                None
            }
            Action::Done(mut verdict) => {
                verdict.set_elapsed(sim.now().since(started).as_secs_f64());
                self.round_start = None;
                self.pause_load(sim);
                Some(verdict)
            }
        }
    }

    /// Drives `tool` to completion and returns its verdict.
    pub fn drive(&mut self, sim: &mut Simulator, tool: &mut dyn Estimator) -> Verdict {
        let _prof = abw_obs::prof::span("session.drive");
        loop {
            if let Some(verdict) = self.step(sim, tool) {
                return verdict;
            }
        }
    }

    /// Drives `tool` until it finishes or the simulated clock reaches
    /// `deadline`, whichever comes first. `None` means the deadline cut
    /// the round short: the estimator is abandoned mid-decision and the
    /// session is reset (round stamp cleared, any load ramp paused) so
    /// the caller can start a fresh round on the same session.
    ///
    /// The check runs between steps — one step materialises a whole
    /// probing stream and drains it — so the clock can overshoot the
    /// deadline by up to one stream's duration, never by more.
    pub fn drive_until(
        &mut self,
        sim: &mut Simulator,
        tool: &mut dyn Estimator,
        deadline: SimTime,
    ) -> Option<Verdict> {
        let _prof = abw_obs::prof::span("session.drive");
        loop {
            if sim.now() >= deadline {
                self.round_start = None;
                self.last = None;
                self.pause_load(sim);
                return None;
            }
            if let Some(verdict) = self.step(sim, tool) {
                return Some(verdict);
            }
        }
    }

    fn execute(&mut self, sim: &mut Simulator, spec: ProbeSpec) -> Observation {
        match spec {
            ProbeSpec::Stream { spec, pre_gap } => {
                let runner = &mut self.runner;
                match pre_gap {
                    Some(gap) => {
                        let saved = runner.stream_gap;
                        runner.stream_gap = gap;
                        let r = runner.run_stream(sim, &spec);
                        runner.stream_gap = saved;
                        Observation::Stream(r)
                    }
                    None => Observation::Stream(runner.run_stream(sim, &spec)),
                }
            }
            ProbeSpec::LoadRamp(ramp) => self.execute_load_ramp(sim, &ramp),
        }
    }

    fn execute_load_ramp(&mut self, sim: &mut Simulator, ramp: &LoadRampSpec) -> Observation {
        let route = self
            .route
            .expect("load-ramp probing needs a routed session (Scenario::session)");
        let agent = match self.load_agent {
            Some(id) => {
                let a = sim.agent_mut::<LoadProbeAgent>(id);
                if !a.running {
                    a.running = true;
                    sim.schedule_timer(id, sim.now(), TOKEN_LOAD);
                    sim.schedule_timer(id, sim.now(), TOKEN_TRACE);
                }
                id
            }
            None => {
                // non-rate parameters (packet sizes, trace cadence) are
                // fixed by the first epoch's spec for the agent's lifetime
                let id = sim.add_agent(Box::new(LoadProbeAgent::new(
                    route.path, route.hops, route.dst, ramp,
                )));
                sim.agent_mut::<LoadProbeAgent>(id).running = true;
                sim.schedule_timer(id, sim.now(), TOKEN_LOAD);
                sim.schedule_timer(id, sim.now(), TOKEN_TRACE);
                self.load_agent = Some(id);
                id
            }
        };
        sim.agent_mut::<LoadProbeAgent>(agent).load_rate_bps = ramp.rate_bps;
        sim.run_for(ramp.epoch);
        let a = sim.agent_mut::<LoadProbeAgent>(agent);
        Observation::LoadRamp(LoadRampSample {
            hop_rtts: a.drain(),
            probe_packets: a.packets,
        })
    }

    /// Quiesces the load-ramp agent (if any) so a finished round stops
    /// injecting traffic while the session stays reusable.
    fn pause_load(&mut self, sim: &mut Simulator) {
        if let Some(id) = self.load_agent {
            let a = sim.agent_mut::<LoadProbeAgent>(id);
            a.running = false;
            a.load_rate_bps = 0.0;
        }
    }
}

/// Token for the load-stream timer of [`LoadProbeAgent`].
const TOKEN_LOAD: u64 = 1;
/// Token for the traceroute-round timer of [`LoadProbeAgent`].
const TOKEN_TRACE: u64 = 2;

/// The load-ramp probing agent (BFind's primitive): a rate-adjustable
/// UDP load stream plus periodic TTL-limited traceroute rounds, with
/// per-hop RTT collection.
struct LoadProbeAgent {
    path: PathId,
    hops: usize,
    dst: AgentId,
    load_rate_bps: f64,
    load_size: u32,
    probe_size: u32,
    trace_interval: SimDuration,
    load_seq: u64,
    trace_seq: u64,
    /// RTTs collected since the last drain, per hop.
    rtt_samples: Vec<Vec<f64>>,
    packets: u64,
    running: bool,
}

impl LoadProbeAgent {
    fn new(path: PathId, hops: usize, dst: AgentId, spec: &LoadRampSpec) -> Self {
        LoadProbeAgent {
            path,
            hops,
            dst,
            load_rate_bps: 0.0,
            load_size: spec.load_packet_size,
            probe_size: spec.probe_size,
            trace_interval: spec.trace_interval,
            load_seq: 0,
            trace_seq: 0,
            rtt_samples: vec![Vec::new(); hops],
            packets: 0,
            running: false,
        }
    }

    fn drain(&mut self) -> Vec<Vec<f64>> {
        std::mem::replace(&mut self.rtt_samples, vec![Vec::new(); self.hops])
    }
}

impl Agent for LoadProbeAgent {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_LOAD => {
                if !self.running {
                    return;
                }
                if self.load_rate_bps > 0.0 {
                    let p = packet_to(
                        self.dst,
                        self.path,
                        FlowId(u32::MAX - 1),
                        self.load_size,
                        self.load_seq,
                        PacketKind::Data,
                    );
                    ctx.send(p);
                    self.load_seq += 1;
                    self.packets += 1;
                    ctx.schedule_in(gap_for_rate(self.load_size, self.load_rate_bps), TOKEN_LOAD);
                } else {
                    // idle baseline: poll for a rate change
                    ctx.schedule_in(SimDuration::from_millis(10), TOKEN_LOAD);
                }
            }
            TOKEN_TRACE => {
                if !self.running {
                    return;
                }
                // One probe per link. A probe measuring link k must cross
                // link k's queue, so it expires at the NEXT router
                // (ttl = k + 2); the reply attributes to link k. The last
                // link has no router behind it, so its probe travels the
                // full path addressed back to this agent (an echo whose
                // one-way delay includes the last queue; the baseline
                // difference cancels the missing reverse delay).
                for hop in 0..self.hops {
                    let mut p = packet_to(
                        self.dst,
                        self.path,
                        FlowId(u32::MAX - 2),
                        self.probe_size,
                        self.trace_seq,
                        PacketKind::Data,
                    );
                    if hop + 1 < self.hops {
                        p.ttl = hop as u8 + 2;
                    } else {
                        p.dst = ctx.self_id();
                    }
                    ctx.send(p);
                    self.trace_seq += 1;
                    self.packets += 1;
                }
                ctx.schedule_in(self.trace_interval, TOKEN_TRACE);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        match packet.kind {
            PacketKind::TtlExceeded {
                router,
                orig_sent_at,
                ..
            } => {
                // expired at router `router` ⇒ crossed the queue of link
                // `router - 1`
                let rtt = ctx.now().since(orig_sent_at).as_secs_f64();
                let link = (router as usize).saturating_sub(1);
                if let Some(bucket) = self.rtt_samples.get_mut(link) {
                    bucket.push(rtt);
                }
            }
            PacketKind::Data => {
                // the self-addressed full-path echo: attribute to the
                // last link
                let owd = ctx.now().since(packet.sent_at).as_secs_f64();
                if let Some(bucket) = self.rtt_samples.last_mut() {
                    bucket.push(owd);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abw_netsim::LinkConfig;

    /// Idle 50 Mb/s link: measurements must match the fluid model with
    /// zero cross traffic (Ro = Ri, flat OWDs).
    fn idle_sim() -> (Simulator, ProbeRunner) {
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_millis(2)));
        let path = sim.add_path(vec![link]);
        let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
        let sender = sim.add_agent(Box::new(ProbeSender::new(path, receiver, FlowId(0))));
        let runner = ProbeRunner::new(sender, receiver);
        (sim, runner)
    }

    #[test]
    fn idle_link_passes_stream_unchanged() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 50,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 50);
        assert_eq!(r.lost(), 0);
        let ratio = r.rate_ratio().unwrap();
        assert!((ratio - 1.0).abs() < 1e-6, "Ro/Ri = {ratio}");
        // all OWDs identical: serialisation + propagation
        let owds = r.owds();
        let expected = 1500.0 * 8.0 / 50e6 + 0.002;
        for &d in &owds {
            assert!((d - expected).abs() < 1e-9, "OWD {d}");
        }
    }

    #[test]
    fn overloading_stream_expands() {
        // probing at 80 Mb/s over a 50 Mb/s link: Ro must be ~50 Mb/s
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 80e6,
            size: 1500,
            count: 100,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 100);
        let ro = r.output_rate_bps().unwrap();
        assert!((ro - 50e6).abs() / 50e6 < 0.01, "Ro = {ro}");
        // OWDs must increase monotonically
        let owds = r.owds();
        assert!(owds.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn sequential_streams_do_not_interfere() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 80e6,
            size: 1500,
            count: 20,
        };
        let a = runner.run_stream(&mut sim, &spec);
        let b = runner.run_stream(&mut sim, &spec);
        assert_eq!(a.received(), 20);
        assert_eq!(b.received(), 20);
        assert_ne!(a.stream_id, b.stream_id);
        // the second stream starts on an empty queue: same OWD profile
        let (oa, ob) = (a.relative_owds(), b.relative_owds());
        for (x, y) in oa.iter().zip(&ob) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn pair_gaps_expand_at_the_narrow_link() {
        let (mut sim, mut runner) = idle_sim();
        // intra-pair rate 100 Mb/s over a 50 Mb/s link: output gap equals
        // the link serialisation time of 240 us
        let spec = StreamSpec::Pair {
            rate_bps: 100e6,
            size: 1500,
        };
        let r = runner.run_stream(&mut sim, &spec);
        let gaps = r.pair_gaps();
        assert_eq!(gaps.len(), 1);
        let (g_in, g_out) = gaps[0];
        assert!((g_in - 120e-6).abs() < 1e-9);
        assert!((g_out - 240e-6).abs() < 1e-9, "output gap {g_out}");
    }

    fn record(seq: u32, sent_ns: u64, recv_ns: u64) -> ProbeRecord {
        ProbeRecord {
            seq,
            sent_at: SimTime::from_nanos(sent_ns),
            recv_at: SimTime::from_nanos(recv_ns),
        }
    }

    #[test]
    fn lost_saturates_on_duplicate_records() {
        // 3 records against a 2-packet pair spec: a duplicated arrival
        // must read as 0 lost, not underflow
        let r = StreamResult {
            spec: StreamSpec::Pair {
                rate_bps: 10e6,
                size: 1500,
            },
            stream_id: 0,
            records: vec![
                record(0, 0, 1_000),
                record(1, 500, 1_500),
                record(1, 500, 1_500),
            ],
        };
        assert_eq!(r.lost(), 0);
        assert_eq!(r.loss_fraction(), 0.0);
    }

    #[test]
    fn pair_gaps_skip_reorder_inverted_arrivals() {
        // seq 1 overtook seq 0 on the wire (reordering): the (0,1) pair
        // has a negative output gap and must be skipped, not panic; the
        // (1,2) pair is intact and survives
        let r = StreamResult {
            spec: StreamSpec::Periodic {
                rate_bps: 10e6,
                size: 1500,
                count: 3,
            },
            stream_id: 0,
            records: vec![
                record(0, 0, 2_000),
                record(1, 500, 1_500),
                record(2, 1_000, 2_500),
            ],
        };
        let gaps = r.pair_gaps();
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0].0 - 500e-9).abs() < 1e-15);
        assert!((gaps[0].1 - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn loss_fraction_of_empty_spec_is_zero_not_nan() {
        let r = StreamResult {
            spec: StreamSpec::Periodic {
                rate_bps: 10e6,
                size: 1500,
                count: 0,
            },
            stream_id: 0,
            records: Vec::new(),
        };
        assert_eq!(r.lost(), 0);
        assert_eq!(r.loss_fraction(), 0.0);
        assert!(!r.loss_fraction().is_nan());
    }

    #[test]
    fn output_rate_survives_reordered_records() {
        // records are sequence-sorted, but seq 0 arrived LAST: the
        // arrival span must come from min/max recv_at, not first/last
        let spec = StreamSpec::Periodic {
            rate_bps: 12e6,
            size: 1500,
            count: 3,
        };
        let reordered = StreamResult {
            spec: spec.clone(),
            stream_id: 0,
            records: vec![
                record(0, 0, 3_000_000),
                record(1, 1_000_000, 2_000_000),
                record(2, 2_000_000, 2_500_000),
            ],
        };
        let ro = reordered
            .output_rate_bps()
            .expect("reordering must not erase the rate");
        // span = 3 ms - 2 ms = 1 ms, 2 gaps of 1500 B => 24 Mb/s
        assert!((ro - 24e6).abs() < 1.0, "Ro = {ro}");
        // and an in-order stream with the same span agrees
        let in_order = StreamResult {
            spec,
            stream_id: 1,
            records: vec![
                record(0, 0, 2_000_000),
                record(1, 1_000_000, 2_500_000),
                record(2, 2_000_000, 3_000_000),
            ],
        };
        assert!((in_order.output_rate_bps().unwrap() - ro).abs() < 1.0);
    }

    #[test]
    fn lossy_stream_drains_for_exactly_the_timeout() {
        // total loss: the runner must give up exactly at
        // launch + stream duration + drain timeout, not a slice later
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_millis(2)));
        sim.impair_link(link, abw_netsim::ImpairmentConfig::iid_loss(1.0), 3);
        let path = sim.add_path(vec![link]);
        let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
        let sender = sim.add_agent(Box::new(ProbeSender::new(path, receiver, FlowId(0))));
        let mut runner = ProbeRunner::new(sender, receiver);
        let spec = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 10,
        };
        let t0 = sim.now();
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 0);
        assert_eq!(r.lost(), 10);
        assert_eq!(r.loss_fraction(), 1.0);
        let deadline = t0 + runner.stream_gap + spec.duration() + runner.drain_timeout;
        assert_eq!(sim.now(), deadline, "run_stream overran its drain deadline");
    }

    /// The runner's former completion loop, kept as the reference
    /// `run_stream` must match: advance in 5 ms slices, the last one
    /// clamped to the deadline, and check the receiver after each.
    fn run_stream_polling(
        runner: &mut ProbeRunner,
        sim: &mut Simulator,
        spec: &StreamSpec,
    ) -> StreamResult {
        let id = runner.next_stream_id;
        runner.next_stream_id += 1;
        sim.agent_mut::<ProbeSender>(runner.sender)
            .arm(spec.clone(), id);
        let launch_at = sim.now() + runner.stream_gap;
        sim.schedule_timer(runner.sender, launch_at, TOKEN_LAUNCH);
        let expected = spec.count() as usize;
        let deadline = launch_at + spec.duration() + runner.drain_timeout;
        let slice = SimDuration::from_millis(5);
        while sim.now() < deadline {
            let step = slice.min(deadline.since(sim.now()));
            sim.run_for(step);
            let receiver = sim.agent::<ProbeReceiver>(runner.receiver);
            if receiver.streams.get(&id).map_or(0, Vec::len) >= expected {
                break;
            }
        }
        let records = sim.agent_mut::<ProbeReceiver>(runner.receiver).take(id);
        StreamResult {
            spec: spec.clone(),
            stream_id: id,
            records,
        }
    }

    #[test]
    fn completion_matches_the_polling_reference() {
        use crate::scenario::{CrossKind, HopSpec, Scenario};
        use abw_netsim::ImpairmentConfig;

        let canonical = HopSpec::canonical(CrossKind::Poisson);
        let lossy = |p| {
            vec![canonical
                .clone()
                .with_impairment(ImpairmentConfig::iid_loss(p))]
        };
        let paths = [
            ("pristine", vec![canonical.clone()]),
            ("5% loss", lossy(0.05)),
            ("total loss", lossy(1.0)),
            (
                "2 hops",
                vec![canonical.clone(), HopSpec::canonical(CrossKind::Cbr)],
            ),
        ];
        let specs = [
            StreamSpec::Periodic {
                rate_bps: 20e6,
                size: 1500,
                count: 50,
            },
            // overloads the tight link: the stream queues behind itself
            StreamSpec::Periodic {
                rate_bps: 60e6,
                size: 1500,
                count: 100,
            },
            StreamSpec::Pair {
                rate_bps: 100e6,
                size: 1500,
            },
            StreamSpec::Chirp {
                start_rate_bps: 5e6,
                gamma: 1.2,
                size: 1000,
                count: 15,
            },
        ];
        for (name, hops) in &paths {
            for gap_ms in [0, 10, 50] {
                let case = format!("{name}, {gap_ms} ms gap");
                let build = || {
                    let mut s = Scenario::from_hops(hops.clone(), 7);
                    s.warm_up(SimDuration::from_millis(200));
                    let mut runner = s.runner();
                    runner.stream_gap = SimDuration::from_millis(gap_ms);
                    (s, runner)
                };
                let (mut a, mut runner_a) = build();
                let (mut b, mut runner_b) = build();
                for spec in &specs {
                    let got = runner_a.run_stream(&mut a.sim, spec);
                    let want = run_stream_polling(&mut runner_b, &mut b.sim, spec);
                    assert_eq!(got.records, want.records, "{case}: {spec:?}");
                    assert_eq!(a.sim.now(), b.sim.now(), "{case}: {spec:?}");
                    assert_eq!(a.sim.counters(), b.sim.counters(), "{case}: {spec:?}");
                }
                // records left over for the next id complete the stream
                // before it launches: both stop on the first poll
                let stale = record(0, 0, 0);
                for (s, runner) in [(&mut a, &runner_a), (&mut b, &runner_b)] {
                    let receiver = s.sim.agent_mut::<ProbeReceiver>(runner.receiver);
                    receiver
                        .streams
                        .insert(runner.next_stream_id, vec![stale; 2]);
                }
                let pair = &specs[2];
                let got = runner_a.run_stream(&mut a.sim, pair);
                let want = run_stream_polling(&mut runner_b, &mut b.sim, pair);
                assert_eq!(got.records, want.records, "{case}: stale records");
                assert_eq!(a.sim.now(), b.sim.now(), "{case}: stale records");
            }
        }
    }

    #[test]
    fn arrival_on_a_poll_boundary_stops_on_that_boundary() {
        // idle 50 Mb/s link, 3.76 ms propagation, no stream gap: the
        // pair's second packet leaves at 1 ms and lands at exactly
        // 1 ms + 240 us + 3.76 ms = 5 ms, the first poll boundary
        let build = || {
            let mut sim = Simulator::new();
            let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_micros(3_760)));
            let path = sim.add_path(vec![link]);
            let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
            let sender = sim.add_agent(Box::new(ProbeSender::new(path, receiver, FlowId(0))));
            let mut runner = ProbeRunner::new(sender, receiver);
            runner.stream_gap = SimDuration::ZERO;
            (sim, runner)
        };
        let pair = StreamSpec::Pair {
            rate_bps: 12e6,
            size: 1500,
        };
        let (mut a, mut runner_a) = build();
        let (mut b, mut runner_b) = build();
        let got = runner_a.run_stream(&mut a, &pair);
        let want = run_stream_polling(&mut runner_b, &mut b, &pair);
        assert_eq!(got.records, want.records);
        assert_eq!(got.records[1].recv_at, SimTime::from_nanos(5_000_000));
        assert_eq!(a.now(), b.now());
        assert_eq!(a.now(), SimTime::from_nanos(5_000_000));
    }

    /// An empty spec never reaches the completion logic: its duration
    /// is undefined, so `run_stream` rejects it before simulating, as
    /// the polling loop did.
    #[test]
    #[should_panic(expected = "a stream needs at least 2 packets")]
    fn zero_packet_spec_is_rejected_before_probing() {
        let (mut sim, mut runner) = idle_sim();
        let empty = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 0,
        };
        runner.run_stream(&mut sim, &empty);
    }

    #[test]
    fn chirp_arrives_complete() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Chirp {
            start_rate_bps: 5e6,
            gamma: 1.2,
            size: 1000,
            count: 15,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 15);
        assert_eq!(r.pair_gaps().len(), 14);
    }
}
