//! Agents: the active endpoints of the simulation.
//!
//! Traffic sources, sinks, probing senders/receivers and TCP endpoints all
//! implement [`Agent`]. Agents interact with the network exclusively
//! through the [`Ctx`] handle they receive in callbacks: sending packets
//! down a path, delivering directly to a peer (uncongested reverse path),
//! and scheduling timers.
//!
//! Optional methods declare what an agent does, so that the
//! simulator's fluid window can run its events without dispatching
//! them one by one: [`Agent::fluid_route`] and [`Agent::fluid_step`] (a
//! cross-traffic source's timer loop) and [`Agent::sink_role`] (a sink
//! that only records what arrives, and whether it may halt the run). The defaults keep an
//! agent's packets on the per-event path.

use std::any::Any;

use abw_obs::{Event as ObsEvent, Field, Recorder};

use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue};
use crate::packet::{AgentId, FlowId, Packet, PacketKind, PathId};
use crate::time::{SimDuration, SimTime};

/// Behaviour of a simulation endpoint.
///
/// All callbacks receive a [`Ctx`] scoped to the current simulation time.
/// Implementations must be `'static` so the simulator can own them, and
/// `Send` so a whole simulation can be handed to a worker thread — the
/// parallel executor (`abw-exec`) runs one independent simulation per
/// job.
pub trait Agent: Any + Send {
    /// Called once when the simulation starts (before any event).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a timer scheduled with [`Ctx::schedule_in`] /
    /// [`Ctx::schedule_at`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Called when a packet addressed to this agent is delivered.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    /// Where the agent's packets go, when it is a fluid source.
    ///
    /// A fluid source is an agent whose *entire* timer behaviour is "draw
    /// the next (gap, size), send one packet now, re-arm the same timer"
    /// — exactly the shape of a cross-traffic generator — and whose
    /// every packet goes down the same route. Exposing that shape lets
    /// the simulator run the source through the fluid fast-forward loop
    /// in [`run_until`](crate::sim::Simulator::run_until), which produces
    /// bit-identical state without a queue round-trip per packet, calling
    /// [`Agent::fluid_step`] for each timer fire. Agents with any other
    /// timer behaviour must return `None`.
    fn fluid_route(&self) -> Option<FluidRoute> {
        None
    }

    /// Performs one timer firing of a fluid source at `now`: the draw,
    /// the send-side counter updates, and the decision to stop. Must
    /// mutate exactly the state `on_timer` would, in the same order.
    /// Called only on an agent whose [`Agent::fluid_route`] is `Some`.
    fn fluid_step(&mut self, _now: SimTime) -> FluidStep {
        FluidStep::Stop
    }

    /// What `on_packet` may do to the simulation (see [`SinkRole`]).
    /// Deliveries to a [`SinkRole::Passive`] or [`SinkRole::Halting`]
    /// agent may run inside a fluid fast-forward window; the default,
    /// [`SinkRole::Active`], keeps every delivery on the per-event path.
    fn sink_role(&self) -> SinkRole {
        SinkRole::Active
    }
}

/// What an agent's `on_packet` may do, declared for the fluid
/// fast-forward window ([`Agent::sink_role`]). A sink in either recording
/// role only stores what arrives: it never sends, schedules or emits a
/// trace event, so a delivery to it changes nothing the window reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkRole {
    /// `on_packet` may send, schedule, emit or halt. A delivery to this
    /// agent closes a fluid window.
    Active,
    /// Records and never calls [`Ctx::halt`]. A window may defer
    /// deliveries to it and run them in batches.
    Passive,
    /// Records and may call [`Ctx::halt`]. A window runs each delivery
    /// to it at its own `(time, seq)` position, and closes at the
    /// delivery that halts.
    Halting,
}

/// One step of a fluid source's timer loop (see [`Agent::fluid_step`]).
#[derive(Debug, Clone, Copy)]
pub enum FluidStep {
    /// Send a `size`-byte packet with sequence number `seq` now, and
    /// fire the timer again after `gap`.
    Send {
        gap: SimDuration,
        size: u32,
        seq: u64,
    },
    /// The source has stopped; do not re-arm the timer.
    Stop,
}

/// Static routing of a fluid source's packets: every packet it emits
/// goes down the same path to the same destination.
#[derive(Debug, Clone, Copy)]
pub struct FluidRoute {
    /// Path the packets travel.
    pub path: PathId,
    /// Destination agent.
    pub dst: AgentId,
    /// Flow id stamped on the packets.
    pub flow: FlowId,
    /// Packet kind stamped on the packets.
    pub kind: PacketKind,
}

/// Handle through which an agent acts on the simulation.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) agent: AgentId,
    pub(crate) events: &'a mut EventQueue,
    pub(crate) arena: &'a mut PacketArena,
    pub(crate) next_packet_id: &'a mut u64,
    pub(crate) injected: &'a mut u64,
    pub(crate) halt: &'a mut bool,
    pub(crate) recorder: Option<&'a mut (dyn Recorder + 'static)>,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the agent being called.
    pub fn self_id(&self) -> AgentId {
        self.agent
    }

    /// Stops the running [`Simulator::run_until`] right after the
    /// current event, with the clock at this event's time — how a
    /// receiver ends a run the moment what it waits for has arrived.
    /// [`Simulator::run_to_quiescence`] ignores it.
    ///
    /// [`Simulator::run_until`]: crate::sim::Simulator::run_until
    /// [`Simulator::run_to_quiescence`]: crate::sim::Simulator::run_to_quiescence
    pub fn halt(&mut self) {
        *self.halt = true;
    }

    /// True when the simulation has a recorder installed — lets agents
    /// skip building expensive event fields.
    pub fn recorder_active(&self) -> bool {
        self.recorder.is_some()
    }

    /// Emits a point event at the current simulation time (dropped when
    /// the simulation is untraced). Used by agents — TCP senders emit
    /// `tcp.cwnd` and `tcp.loss`.
    #[inline]
    pub fn emit(&mut self, kind: &'static str, fields: &[Field<'_>]) {
        if let Some(r) = self.recorder.as_mut() {
            r.record(&ObsEvent {
                t_ns: self.now.as_nanos(),
                kind,
                fields,
            });
        }
    }

    /// Sends `packet` onto the first link of its path, right now.
    ///
    /// The packet's `id` is assigned here; `src` is forced to the calling
    /// agent so ICMP errors return to the right place. `hop` is reset to 0.
    pub fn send(&mut self, packet: Packet) {
        let pkt = inject(
            self.arena,
            self.next_packet_id,
            self.injected,
            self.agent,
            self.now,
            packet,
        );
        self.events.push(self.now, Event::Arrive { packet: pkt });
    }

    /// Delivers `packet` directly to `dst` after `delay`, bypassing all
    /// links — the model of an uncongested reverse path used for TCP ACKs.
    pub fn send_direct(&mut self, dst: AgentId, mut packet: Packet, delay: SimDuration) {
        packet.id = *self.next_packet_id;
        *self.next_packet_id += 1;
        packet.src = self.agent;
        packet.sent_at = self.now;
        *self.injected += 1;
        let pkt = self.arena.alloc(packet);
        self.events.push(
            self.now + delay,
            Event::Deliver {
                agent: dst,
                packet: pkt,
            },
        );
    }

    /// Schedules `on_timer(token)` for this agent after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) {
        self.events.push(
            self.now + delay,
            Event::Timer {
                agent: self.agent,
                token,
            },
        );
    }

    /// Schedules `on_timer(token)` for this agent at absolute time `at`
    /// (which must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "cannot schedule a timer in the past");
        self.events.push(
            at,
            Event::Timer {
                agent: self.agent,
                token,
            },
        );
    }
}

/// A packet sink that counts and optionally timestamps deliveries.
///
/// Used directly as the destination for cross-traffic flows, and in tests.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Arrival time of the first packet.
    pub first_arrival: Option<SimTime>,
    /// Arrival time of the most recent packet.
    pub last_arrival: Option<SimTime>,
}

impl CountingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Mean received rate in bits/s between first and last arrival;
    /// `None` with fewer than 2 packets.
    pub fn mean_rate_bps(&self) -> Option<f64> {
        let (first, last) = (self.first_arrival?, self.last_arrival?);
        if last <= first {
            return None;
        }
        Some(self.bytes as f64 * 8.0 / last.since(first).as_secs_f64())
    }
}

impl Agent for CountingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.packets += 1;
        self.bytes += packet.size as u64;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(ctx.now());
        }
        self.last_arrival = Some(ctx.now());
    }

    fn sink_role(&self) -> SinkRole {
        SinkRole::Passive
    }
}

/// What sending a packet does short of scheduling its arrival: assigns
/// the packet id, stamps the source, hop 0 and the send time, counts the
/// injection and stores the packet. [`Ctx::send`] and the fluid window
/// both send through here, so a send mutates the same state on either
/// path.
#[inline]
pub(crate) fn inject(
    arena: &mut PacketArena,
    next_packet_id: &mut u64,
    injected: &mut u64,
    src: AgentId,
    now: SimTime,
    mut packet: Packet,
) -> PacketRef {
    packet.id = *next_packet_id;
    *next_packet_id += 1;
    packet.src = src;
    packet.hop = 0;
    packet.sent_at = now;
    *injected += 1;
    arena.alloc(packet)
}

/// Helper for agents that need a well-formed packet skeleton: fills the
/// routing fields and leaves sizing/kind to the caller.
pub fn packet_to(
    dst: AgentId,
    path: PathId,
    flow: crate::packet::FlowId,
    size: u32,
    seq: u64,
    kind: crate::packet::PacketKind,
) -> Packet {
    Packet {
        id: 0, // assigned by Ctx::send
        flow,
        src: AgentId(usize::MAX), // overwritten by Ctx::send
        dst,
        path,
        hop: 0,
        size,
        seq,
        sent_at: SimTime::ZERO, // overwritten by Ctx::send
        ttl: crate::packet::DEFAULT_TTL,
        kind,
    }
}
