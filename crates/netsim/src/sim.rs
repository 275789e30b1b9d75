//! The simulator: network state plus the event loop.
//!
//! Besides the per-event loop, `run_until` has one exact fast path, the
//! fluid window ([`Simulator::set_fluid`]). A timer fire of a cross
//! source ([`crate::agent::FluidSource`]) on a single-link path into a
//! passive sink opens it, and it then runs the source's packets —
//! timer fire, arrival, transmission completion, delivery — as plain
//! state mutation in the merged `(time, seq)` order against the real
//! queue. On a link that no multi-link path crosses it also carries the
//! link's other traffic: it runs other agents' timers in place (a probe
//! stream's packet timers among them), offers their arrivals at the
//! link, absorbs its transmission completions, and runs deliveries to
//! recording sinks ([`SinkRole`]), the probe receiver's included, which
//! may halt the run. It closes before any event it cannot carry,
//! materialising what it elided under the sequence numbers the events
//! would have had, so every observable state is the per-event loop's.

use std::any::Any;
use std::collections::VecDeque;

use abw_obs::prof::{self, Cost};
use abw_obs::{Event as ObsEvent, Field, Recorder};

use crate::agent::{inject, packet_to, Agent, Ctx, FluidRoute, FluidSource, FluidStep, SinkRole};
use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue};
use crate::impair::{Impairment, ImpairmentConfig};
use crate::invariants::invariant;
use crate::link::{EnqueueOutcome, Link, LinkConfig};
use crate::packet::{AgentId, LinkId, Packet, PacketKind, PathId};
use crate::time::{SimDuration, SimTime};

/// Global packet accounting, used by conservation checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Packets injected by agents (`send` and `send_direct`).
    pub injected: u64,
    /// Packets handed to destination agents.
    pub delivered: u64,
    /// Packets discarded because their TTL reached zero.
    pub ttl_expired: u64,
    /// ICMP time-exceeded packets generated by routers.
    pub icmp_generated: u64,
}

/// A deterministic discrete-event network simulator.
///
/// Build the topology with [`Simulator::add_link`] / [`Simulator::add_path`],
/// register endpoints with [`Simulator::add_agent`], then advance time with
/// [`Simulator::run_until`] / [`Simulator::run_for`]. Between runs, inspect
/// or reconfigure agents through [`Simulator::agent`] /
/// [`Simulator::agent_mut`] and kick them with
/// [`Simulator::schedule_timer`] — this is how the iterative probing tools
/// adapt their rate between streams.
pub struct Simulator {
    time: SimTime,
    links: Vec<Link>,
    paths: Vec<Vec<LinkId>>,
    agents: Vec<Option<Box<dyn Agent>>>,
    events: EventQueue,
    /// Slab of in-flight packets; events carry [`PacketRef`] handles.
    arena: PacketArena,
    next_packet_id: u64,
    counters: SimCounters,
    started: bool,
    /// When true (default), timer fires of agents exposing
    /// [`Agent::fluid_source`] run through the fluid fast-forward window
    /// in the event loop — bit-identical state, no queue round-trip per
    /// cross-traffic packet, traced or not.
    fluid_enabled: bool,
    /// Deadline of the in-progress `run_until` (`u64::MAX` ns during
    /// `run_to_quiescence`); fluid windows must not advance past it.
    run_deadline: SimTime,
    /// Set by [`Ctx::halt`]; `run_until` returns after the event that
    /// set it.
    halt_requested: bool,
    /// When true (default), routers answer TTL expiry with ICMP
    /// time-exceeded messages on an uncongested reverse path.
    pub icmp_replies: bool,
    /// Installed event sink, if any. The event loop itself emits
    /// nothing; agents ([`Ctx::emit`]) and the layers above
    /// ([`Simulator::emit`]) do.
    recorder: Option<Box<dyn Recorder + Send>>,
    /// The fluid window's delivery queues, kept between windows: taken at
    /// window open and handed back (empty) at close, so opening a window
    /// never allocates.
    fluid_queues: DeliveryQueues,
}

// A simulation must be movable to a worker thread: the parallel
// executor (`abw-exec`) runs one independent simulation per job. This
// assertion keeps the property from silently regressing.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>()
};

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at `t = 0`.
    ///
    /// When a process-global recorder is installed
    /// ([`abw_obs::global::set_global`]), the new simulator picks it up
    /// automatically — this is how `ABW_TRACE` reaches every simulation
    /// an experiment creates without explicit plumbing.
    pub fn new() -> Self {
        let recorder = abw_obs::global::global().map(|g| Box::new(g) as Box<dyn Recorder + Send>);
        Simulator {
            time: SimTime::ZERO,
            links: Vec::new(),
            paths: Vec::new(),
            agents: Vec::new(),
            events: EventQueue::new(),
            arena: PacketArena::new(),
            next_packet_id: 0,
            counters: SimCounters::default(),
            started: false,
            fluid_enabled: true,
            run_deadline: SimTime::ZERO,
            halt_requested: false,
            icmp_replies: true,
            recorder,
            fluid_queues: DeliveryQueues::default(),
        }
    }

    /// Enables or disables the fluid fast-forward path (on by default).
    /// Output is bit-identical either way — the toggle exists for the
    /// equivalence tests and for isolating the optimisation in profiles.
    pub fn set_fluid(&mut self, on: bool) {
        self.fluid_enabled = on;
    }

    /// Installs an event sink.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder + Send>) {
        self.recorder = Some(recorder);
    }

    /// Removes the event sink, including one picked up from the
    /// process-global recorder: the simulation then runs untraced.
    pub fn clear_recorder(&mut self) {
        self.recorder = None;
    }

    /// Emits a point event at the current simulation time (dropped when
    /// no recorder is installed). This is the hook the estimator layer
    /// uses for convergence events and the probe runner for its
    /// per-stream `probe.stream` line.
    #[inline]
    pub fn emit(&mut self, kind: &'static str, fields: &[Field<'_>]) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&ObsEvent {
                t_ns: self.time.as_nanos(),
                kind,
                fields,
            });
        }
    }

    /// Adds a link and returns its id.
    pub fn add_link(&mut self, config: LinkConfig) -> LinkId {
        self.links.push(Link::new(config));
        LinkId(self.links.len() - 1)
    }

    /// Registers an ordered sequence of links as a path.
    ///
    /// Panics on an empty hop list or an unknown link.
    pub fn add_path(&mut self, hops: Vec<LinkId>) -> PathId {
        assert!(!hops.is_empty(), "a path needs at least one link");
        for l in &hops {
            assert!(l.0 < self.links.len(), "path references unknown link");
        }
        if hops.len() > 1 {
            for l in &hops {
                // lint: allow(panic_free) -- checked against the link table just above
                self.links[l.0].mark_transit();
            }
        }
        self.paths.push(hops);
        PathId(self.paths.len() - 1)
    }

    /// Registers an agent and returns its id.
    ///
    /// Agents added after the simulation started receive `on_start` at the
    /// current simulation time.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        self.agents.push(Some(agent));
        let id = AgentId(self.agents.len() - 1);
        if self.started {
            self.dispatch_agent(id, AgentCall::Start);
        }
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Read access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// The links of a path.
    pub fn path(&self, id: PathId) -> &[LinkId] {
        &self.paths[id.0]
    }

    /// Global packet counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Total packets dropped at link queues, summed over all links.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.counters().dropped_pkts).sum()
    }

    /// Total packets lost to injected impairments, summed over all links.
    pub fn total_impaired(&self) -> u64 {
        self.links.iter().map(|l| l.counters().impaired_pkts).sum()
    }

    /// Installs an impairment pipeline on `link`, replacing any existing
    /// one. All of the pipeline's random decisions come from a private
    /// RNG stream seeded with `seed`, so the run stays a pure function
    /// of its seeds regardless of worker count.
    pub fn impair_link(&mut self, link: LinkId, config: ImpairmentConfig, seed: u64) {
        self.links[link.0].set_impairment(config, seed);
    }

    /// Typed read access to an agent.
    ///
    /// Panics when the id is unknown, the agent is mid-callback, or the
    /// concrete type differs — all programming errors.
    pub fn agent<T: Agent>(&self, id: AgentId) -> &T {
        let a = self.agents[id.0]
            .as_ref()
            .expect("agent is currently being dispatched");
        (a.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    /// Typed mutable access to an agent (see [`Simulator::agent`]).
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> &mut T {
        let a = self.agents[id.0]
            .as_mut()
            .expect("agent is currently being dispatched");
        (a.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("agent type mismatch")
    }

    /// Schedules a timer for `agent` at absolute time `at` from outside the
    /// event loop — the hook experiment controllers use to start probing
    /// streams between runs.
    pub fn schedule_timer(&mut self, agent: AgentId, at: SimTime, token: u64) {
        assert!(at >= self.time, "cannot schedule a timer in the past");
        self.events.push(at, Event::Timer { agent, token });
    }

    /// Runs the event loop until simulated time reaches `deadline`, or
    /// until an agent calls [`Ctx::halt`].
    ///
    /// Events at exactly `deadline` are processed. Returns `false` when
    /// the run reached `deadline`: the clock then reads `deadline` even
    /// if the event queue drained earlier. Returns `true` when an agent
    /// halted the run: the clock then reads the time of the halting
    /// event, and events still due at or before `deadline` stay queued
    /// for the next run.
    ///
    /// Panics when `deadline` is before [`Simulator::now`]: simulated
    /// time never runs backwards.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        assert!(
            deadline >= self.time,
            "cannot run to a deadline in the past"
        );
        let _prof = prof::span("sim.run_until");
        self.ensure_started();
        self.run_deadline = deadline;
        self.halt_requested = false;
        while let Some((t, event)) = self.events.pop_at_or_before(deadline) {
            debug_assert!(t >= self.time, "event loop went back in time");
            invariant!(
                t >= self.time,
                "event clock went backwards: {} -> {}",
                self.time,
                t
            );
            self.time = t;
            self.handle(event);
            if self.halt_requested {
                self.halt_requested = false;
                return true;
            }
        }
        self.time = deadline;
        false
    }

    /// Runs the event loop for `d` of simulated time; see
    /// [`Simulator::run_until`] for the return value.
    pub fn run_for(&mut self, d: SimDuration) -> bool {
        self.run_until(self.time + d)
    }

    /// Runs until no events remain (all traffic quiesces). Returns the
    /// time of the last processed event. [`Ctx::halt`] is ignored.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        let _prof = prof::span("sim.run_to_quiescence");
        self.ensure_started();
        self.run_deadline = SimTime::from_nanos(u64::MAX);
        while let Some((t, event)) = self.events.pop() {
            invariant!(
                t >= self.time,
                "event clock went backwards: {} -> {}",
                self.time,
                t
            );
            self.time = t;
            self.handle(event);
            self.halt_requested = false;
        }
        // with no events left, every injected packet must be accounted
        // for: delivered, dropped at a queue, lost to an injected
        // impairment, or expired in flight
        invariant!(
            self.counters.injected
                == self.counters.delivered
                    + self.total_drops()
                    + self.total_impaired()
                    + self.counters.ttl_expired,
            "global packet conservation at quiescence: injected {} != delivered {} + \
             dropped {} + impaired {} + ttl_expired {}",
            self.counters.injected,
            self.counters.delivered,
            self.total_drops(),
            self.total_impaired(),
            self.counters.ttl_expired
        );
        self.time
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            self.dispatch_agent(AgentId(i), AgentCall::Start);
        }
    }

    fn handle(&mut self, event: Event) {
        prof::count(Cost::EventsPopped);
        match event {
            Event::Arrive { packet } => self.handle_arrive(packet),
            Event::TxDone { link } => self.handle_tx_done(link),
            Event::Timer { agent, token } => self.dispatch_timer(agent, token),
            Event::Deliver { agent, packet } => {
                self.counters.delivered += 1;
                let packet = self.arena.take(packet);
                self.dispatch_agent(agent, AgentCall::Packet(packet));
            }
        }
    }

    /// Dispatches a timer fire, routing fluid-capable sources through the
    /// fast-forward window when the topology around them is fluid-safe.
    fn dispatch_timer(&mut self, id: AgentId, token: u64) {
        // lint: allow(panic_free) -- agent ids index the simulator's own table; the box is only absent mid-dispatch, which never re-enters
        let mut agent = self.agents[id.0].take().expect("re-entrant agent dispatch");
        if self.fluid_enabled {
            if let Some(fs) = agent.fluid_source() {
                let route = fs.fluid_route();
                // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
                let hops = &self.paths[route.path.0];
                // Fluid-safe: a single link into a passive sink, whose
                // impairment (if any) acts only at ingress. Loss draws
                // keep their order because the window calls
                // `Link::enqueue` in the exact merged event order, and a
                // loss-only link adds no egress delay, so deliveries stay
                // FIFO. Anything else (a multi-hop source path,
                // jitter/reorder/flaps, a sink that is not passive) falls
                // back to the exact per-event path.
                if hops.len() == 1 {
                    // lint: allow(panic_free) -- guarded: hops.len() == 1
                    let link_id = hops[0];
                    // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
                    let safe = self.links[link_id.0]
                        .impairment()
                        .is_none_or(Impairment::is_ingress_only)
                        // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
                        && self.agents[route.dst.0]
                            .as_ref()
                            .is_some_and(|a| a.sink_role() == SinkRole::Passive);
                    if safe {
                        self.fluid_window(id, fs, route, link_id, token);
                        // lint: allow(panic_free) -- restoring the box taken above; same id
                        self.agents[id.0] = Some(agent);
                        return;
                    }
                }
            }
        }
        agent.on_timer(&mut self.ctx(id, self.time), token);
        // lint: allow(panic_free) -- restoring the box taken above; same id
        self.agents[id.0] = Some(agent);
    }

    /// The [`Ctx`] an agent `id` acts through at `now`. Its box stays
    /// with the caller: the agent table's ([`Simulator::dispatch_agent`]),
    /// a timer's, or the fluid window's sink, whose take/restore through
    /// the table the window hoists out of its loop.
    #[inline]
    fn ctx(&mut self, id: AgentId, now: SimTime) -> Ctx<'_> {
        Ctx {
            now,
            agent: id,
            events: &mut self.events,
            arena: &mut self.arena,
            next_packet_id: &mut self.next_packet_id,
            injected: &mut self.counters.injected,
            halt: &mut self.halt_requested,
            recorder: self
                .recorder
                .as_deref_mut()
                .map(|r| r as &mut (dyn Recorder + 'static)),
        }
    }

    /// The [`SinkRole`] of `id`, read through the agent table. An agent
    /// whose box is out of the table (the fluid window's own source)
    /// counts as active.
    fn sink_role_of(&self, id: AgentId) -> SinkRole {
        // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
        self.agents[id.0]
            .as_deref()
            .map_or(SinkRole::Active, |a| a.sink_role())
    }

    /// Processes deferred deliveries with key below `bound` through the
    /// window's sink. A delivery touches nothing but the sink, the
    /// arena and the delivered counter, so the window defers deliveries
    /// to its passive sink out of the hot selection loop entirely and
    /// drains them in batches — at any point at or after their due time,
    /// and always before a delivery that runs at its own position could
    /// observe the same sink, or halt the run, out of order. Each
    /// delivery still runs at its own instant: `ctx.now` is the delivery
    /// time, never the drain time.
    fn fluid_drain(
        &mut self,
        slots: &mut FluidSlots,
        dst: &mut dyn Agent,
        dst_id: AgentId,
        bound: SlotKey,
        popped: &mut u64,
    ) {
        #[cfg(debug_assertions)]
        let before = (
            self.events.peek_entry().map(|(t, s, _)| (t, s)),
            self.halt_requested,
        );
        while let Some(&(t, s, pkt)) = slots.deferred.front() {
            if slot_key(t, s) >= bound {
                break;
            }
            slots.deferred.pop_front();
            *popped += 1;
            self.counters.delivered += 1;
            let p = self.arena.take(pkt);
            dst.on_packet(&mut self.ctx(dst_id, t), p);
            #[cfg(debug_assertions)]
            debug_assert!(
                (
                    self.events.peek_entry().map(|(t, s, _)| (t, s)),
                    self.halt_requested
                ) == before,
                "passive sink mutated the event queue or halted the run"
            );
        }
    }

    /// One delivery the window runs at its own `(time, seq)` position
    /// `key` (the clock already reads its time): an absorbed real
    /// delivery, or one to a sink other than the window's own. The
    /// deferred deliveries before `key` run first: they may share the
    /// sink, and if this delivery halts the run, every event before it
    /// has then run and none after it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn fluid_deliver(
        &mut self,
        slots: &mut FluidSlots,
        dst_box: &mut dyn Agent,
        dst_id: AgentId,
        key: SlotKey,
        agent: AgentId,
        packet: PacketRef,
        popped: &mut u64,
    ) {
        self.fluid_drain(slots, dst_box, dst_id, key, popped);
        self.counters.delivered += 1;
        let p = self.arena.take(packet);
        if agent == dst_id {
            dst_box.on_packet(&mut self.ctx(agent, self.time), p);
        } else {
            #[cfg(debug_assertions)]
            let head = self.events.peek_entry().map(|(t, s, _)| (t, s));
            self.dispatch_agent(agent, AgentCall::Packet(p));
            #[cfg(debug_assertions)]
            debug_assert!(
                self.events.peek_entry().map(|(t, s, _)| (t, s)) == head,
                "recording sink mutated the event queue"
            );
        }
    }

    /// One fluid arrival: TTL bookkeeping and the offer to the link,
    /// exactly what [`Simulator::handle_arrive`] does minus the TTL
    /// expiry and multi-hop branches the window already excluded.
    #[inline(always)]
    fn fluid_arrive(
        &mut self,
        packet: PacketRef,
        link_id: LinkId,
        vt: SimTime,
        slots: &mut FluidSlots,
        arrivals: &mut u64,
        qops: &mut u64,
    ) {
        *arrivals += 1;
        let size = {
            let p = self.arena.get_mut(packet);
            p.ttl = p.ttl.saturating_sub(1);
            debug_assert!(p.ttl > 0, "the window admits no packet that expires");
            p.size
        };
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[link_id.0];
        match link.enqueue(packet, size, vt) {
            EnqueueOutcome::Accepted { starts_service } => {
                *qops += 1;
                if starts_service {
                    let done = link.start_transmission(vt);
                    let s = self.events.consume_seq();
                    debug_assert!(slots.tx_done == SLOT_EMPTY, "link already serving");
                    slots.tx_done = slot_key(done, s);
                }
            }
            // the link already counted the drop or the ingress loss
            EnqueueOutcome::Dropped | EnqueueOutcome::Impaired => {
                self.arena.take(packet);
            }
        }
    }

    /// One transmission completion on the window's link at `vt` (key
    /// `key`), virtual or absorbed from the queue: what
    /// [`Simulator::handle_tx_done`] does, with the next completion and
    /// the delivery kept in the window. A delivery to the window's own
    /// sink is deferred; one to another recording sink waits in
    /// `slots.ordered` for its own position; one to an active agent goes
    /// into the queue, where it closes the window when due. The real
    /// head (`next_real`, `real_key`) and `other` (the earliest event
    /// outside the source's cycle) follow either move.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn fluid_tx_done(
        &mut self,
        link_id: LinkId,
        prop: SimDuration,
        vt: SimTime,
        key: SlotKey,
        slots: &mut FluidSlots,
        dst_box: &mut dyn Agent,
        dst_id: AgentId,
        popped: &mut u64,
        qops: &mut u64,
        next_real: &mut Option<(SimTime, u64, Event)>,
        real_key: &mut SlotKey,
        other: &mut SlotKey,
    ) {
        *qops += 1;
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[link_id.0];
        let (pkt, more) = link.finish_transmission(vt);
        let extra = link.egress_extra(); // zero: ingress-only impairment
        if more {
            let done = link.start_transmission(vt);
            let s = self.events.consume_seq();
            slots.tx_done = slot_key(done, s);
        }
        let dst = {
            let p = self.arena.get_mut(pkt);
            p.hop += 1;
            debug_assert!(
                // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
                p.hop as usize == self.paths[p.path.0].len(),
                "a window packet travels on"
            );
            p.dst
        };
        let s = self.events.consume_seq();
        let at = vt + prop + extra;
        if dst == dst_id {
            slots.push_deferred(at, s, pkt);
            // Deliveries already due drain at any point before the next
            // observer; batching them keeps the hot loop a predictable
            // fire/serve alternation.
            if slots.deferred.len() >= DELIVER_DRAIN {
                self.fluid_drain(slots, dst_box, dst_id, key, popped);
            }
            return;
        }
        match self.sink_role_of(dst) {
            SinkRole::Passive | SinkRole::Halting => {
                slots.push_ordered(at, s, dst, pkt);
                *other = (*other).min(slots.aux);
            }
            SinkRole::Active => {
                self.events.push_with_seq(
                    at,
                    s,
                    Event::Deliver {
                        agent: dst,
                        packet: pkt,
                    },
                );
                *next_real = self.events.peek_entry();
                *real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
                *other = (*other).min(*real_key);
            }
        }
    }

    /// One fluid timer firing at `t`: the draw, the send and the re-arm,
    /// mutating exactly the state the `on_timer` → [`Ctx::send`] /
    /// [`Ctx::schedule_in`] path would. The two event pushes are elided:
    /// their sequence numbers are still allocated (in the same order) and
    /// the events go into the window's virtual slots instead of the queue.
    fn fluid_fire(
        &mut self,
        fs: &mut dyn FluidSource,
        route: &FluidRoute,
        t: SimTime,
        slots: &mut FluidSlots,
    ) {
        match fs.fluid_step(t) {
            FluidStep::Stop => {}
            FluidStep::Send { gap, size, seq } => {
                let p = packet_to(route.dst, route.path, route.flow, size, seq, route.kind);
                let pkt = inject(
                    &mut self.arena,
                    &mut self.next_packet_id,
                    &mut self.counters.injected,
                    slots.src,
                    t,
                    p,
                );
                let s_arrive = self.events.consume_seq();
                debug_assert!(slots.arrive == SLOT_EMPTY, "fluid arrive slot occupied");
                slots.arrive = slot_key(t, s_arrive);
                slots.arrive_ref = pkt;
                let s_timer = self.events.consume_seq();
                slots.timer = slot_key(t + gap, s_timer);
            }
        }
    }

    /// The ordered delivery at `slots.aux`, due before everything else
    /// pending (the clock is not yet set). It does not touch the queue.
    /// Out of line, so the source's cycle stays a tight loop.
    #[inline(never)]
    fn fluid_ordered(
        &mut self,
        slots: &mut FluidSlots,
        dst_box: &mut dyn Agent,
        dst_id: AgentId,
    ) -> Tally {
        let mut t = Tally {
            popped: 1,
            ..Tally::default()
        };
        let key = slots.aux;
        self.time = slot_time(key);
        // lint: allow(panic_free) -- aux below SLOT_EMPTY is the ordered front's key
        let (_, _, agent, packet) = slots.ordered.pop_front().expect("ordered front");
        slots.refresh_aux();
        self.fluid_deliver(slots, dst_box, dst_id, key, agent, packet, &mut t.popped);
        t
    }

    /// The real head `(rt, key, event)`, due before everything the
    /// window holds and not a delivery to the window's own sink: absorbs
    /// it when the window can, and returns whether it did, with the
    /// step's tallies. Out of line, so the source's cycle stays a tight
    /// loop.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn fluid_absorb(
        &mut self,
        slots: &mut FluidSlots,
        dst_box: &mut dyn Agent,
        dst_id: AgentId,
        link_id: LinkId,
        carry: bool,
        rt: SimTime,
        key: SlotKey,
        event: Event,
    ) -> (bool, Tally) {
        let mut t = Tally::default();
        match event {
            Event::Deliver { agent, packet } => {
                let absorb = match self.sink_role_of(agent) {
                    SinkRole::Passive => true,
                    SinkRole::Halting => carry,
                    SinkRole::Active => false,
                };
                if !absorb {
                    return (false, t);
                }
                self.events.pop();
                t.popped += 1;
                self.time = rt;
                self.fluid_deliver(slots, dst_box, dst_id, key, agent, packet, &mut t.popped);
            }
            Event::Arrive { packet } if carry => {
                // an arrival at this link that survives the hop: offered
                // here, as `handle_arrive` would offer it
                let p = self.arena.get(packet);
                // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
                let here = self.paths[p.path.0].get(p.hop as usize) == Some(&link_id);
                if !here || p.ttl <= 1 {
                    return (false, t);
                }
                self.events.pop();
                t.popped += 1;
                self.time = rt;
                self.fluid_arrive(packet, link_id, rt, slots, &mut t.arrivals, &mut t.qops);
            }
            Event::TxDone { link } if carry && link == link_id => {
                debug_assert!(slots.tx_done == SLOT_EMPTY, "link serving twice");
                self.events.pop();
                t.popped += 1;
                self.time = rt;
                // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
                let prop = self.links[link_id.0].prop_delay();
                // the caller re-reads the real head after an absorbed event
                let (mut next, mut real, mut other) = (None, SLOT_EMPTY, SLOT_EMPTY);
                self.fluid_tx_done(
                    link_id,
                    prop,
                    rt,
                    key,
                    slots,
                    dst_box,
                    dst_id,
                    &mut t.popped,
                    &mut t.qops,
                    &mut next,
                    &mut real,
                    &mut other,
                );
            }
            Event::Timer { agent, token } if carry => {
                // Any timer but a cross source's runs here, as the
                // per-event loop would run it: it reaches only its own
                // agent and the queue, never what the window holds back.
                // A probe sender's packet timer pushes its arrival, which
                // the window then offers to the link like any other. A
                // cross source's timer closes the window: it opens its
                // own. So does a timer of the window's source or sink,
                // whose box is out of the table.
                // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
                let Some(a) = self.agents[agent.0].as_mut() else {
                    return (false, t);
                };
                if a.fluid_source().is_some() {
                    return (false, t);
                }
                self.events.pop();
                t.popped += 1;
                self.time = rt;
                self.dispatch_agent(agent, AgentCall::Timer(token));
            }
            _ => return (false, t),
        }
        (true, t)
    }

    /// The fluid fast-forward window: runs a fluid source's packets
    /// through the link and into the sink without queue round-trips.
    ///
    /// Virtual events (the source's timer fires, its packets' arrivals
    /// and transmission completions) are processed in exact merged
    /// `(time, seq)` order against the real queue, calling the same
    /// link/sink/counter mutations at the same timestamps the per-event
    /// loop would. On a link that no multi-link path crosses, every
    /// packet the link serves is delivered right after it, and the
    /// window carries all of the link's traffic: it runs other agents'
    /// timers in place (a probe stream's packet timers among them),
    /// offers every real arrival at the link through the same
    /// [`Link::enqueue`], absorbs the link's real transmission
    /// completions, and runs deliveries to halting sinks such as a probe
    /// receiver. On a link shared with a multi-link path it carries only
    /// its source's packets.
    ///
    /// Deliveries to the source's passive sink are deferred and drained
    /// in batches — legal because their only observers are the sink, the
    /// arena and the delivered counter, and the drain runs before every
    /// point at which any of those becomes observable again. A delivery
    /// to any other recording sink runs at its own position, because it
    /// may halt: the window then closes with the clock at that delivery,
    /// having run every event before it and none after, as the per-event
    /// loop would. The window also closes when a real event it cannot
    /// absorb becomes due, the run deadline is reached, or nothing
    /// virtual is pending; any still-pending virtual events are then
    /// materialised into the queue under their originally allocated
    /// sequence numbers.
    fn fluid_window(
        &mut self,
        src: AgentId,
        fs: &mut dyn FluidSource,
        route: FluidRoute,
        link_id: LinkId,
        token: u64,
    ) {
        let deadline = self.run_deadline;
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let prop = self.links[link_id.0].prop_delay();
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let carry = !self.links[link_id.0].is_transit();
        let mut slots = FluidSlots::new(src, token, std::mem::take(&mut self.fluid_queues));
        // Local tallies, flushed once per window (the per-event
        // thread-local increments would dominate the saved work).
        let mut popped = 0u64;
        let mut arrivals = 0u64;
        let mut qops = 0u64;

        // the initiating timer was popped (and counted) by the main loop
        self.fluid_fire(fs, &route, self.time, &mut slots);

        // The sink's box is held out for the whole window: each delivery
        // is a direct `on_packet` call instead of the per-dispatch
        // take/restore through the agent table. Restored after the loop —
        // every exit path below is a `break`.
        // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
        let mut dst_box = self.agents[route.dst.0]
            .take()
            // lint: allow(panic_free) -- the fluid gate checked the dst slot is occupied
            .expect("fluid dst exists (checked by the gate)");

        // The head of the real queue, re-read only after an operation
        // that can change it: a pop, an agent dispatch, or a delivery to
        // an active agent pushed by a completion. `other` is the earliest
        // event outside the source's cycle (the real head or an ordered
        // delivery), so the cycle pays one comparison for both.
        let mut next_real = self.events.peek_entry();
        let mut real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
        let mut other = real_key.min(slots.aux);
        loop {
            // `vk`/`which`: earliest pending event of the source's cycle
            // — a branch-light minimum over packed keys, no heap walk
            // (deferred deliveries never compete for selection)
            let (vk, which) = slots.min_key();

            if other < vk {
                if slots.aux < real_key {
                    if slot_time(slots.aux) > deadline {
                        break;
                    }
                    let t = self.fluid_ordered(&mut slots, dst_box.as_mut(), route.dst);
                    popped += t.popped;
                } else {
                    // lint: allow(panic_free) -- real_key < SLOT_EMPTY implies peek_entry was Some
                    let (rt, _, rev) = next_real.expect("real key implies a real head");
                    // Nothing virtual pending: leftover deliveries
                    // materialise below.
                    if rt > deadline || (vk == SLOT_EMPTY && slots.aux == SLOT_EMPTY) {
                        break;
                    }
                    match rev {
                        // What this source's earlier windows
                        // materialised, on any link: delivered in line.
                        Event::Deliver { agent, packet } if agent == route.dst => {
                            self.events.pop();
                            popped += 1;
                            self.time = rt;
                            self.fluid_deliver(
                                &mut slots,
                                dst_box.as_mut(),
                                route.dst,
                                real_key,
                                agent,
                                packet,
                                &mut popped,
                            );
                        }
                        // On a transit link only a delivery can be
                        // absorbed: anything else closes the window here,
                        // before the out-of-line step.
                        Event::Arrive { .. } | Event::TxDone { .. } | Event::Timer { .. }
                            if !carry =>
                        {
                            break;
                        }
                        _ => {
                            let (ran, t) = self.fluid_absorb(
                                &mut slots,
                                dst_box.as_mut(),
                                route.dst,
                                link_id,
                                carry,
                                rt,
                                real_key,
                                rev,
                            );
                            popped += t.popped;
                            arrivals += t.arrivals;
                            qops += t.qops;
                            if !ran {
                                break;
                            }
                        }
                    }
                    next_real = self.events.peek_entry();
                    real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
                }
                if self.halt_requested {
                    break;
                }
                other = real_key.min(slots.aux);
                continue;
            }
            if vk == SLOT_EMPTY {
                // nothing pending at all
                break;
            }
            let vt = slot_time(vk);
            if vt > deadline {
                break;
            }

            self.time = vt;
            popped += 1; // EventsPopped parity with the per-event loop
            match which {
                FluidNext::Timer => {
                    slots.timer = SLOT_EMPTY;
                    self.fluid_fire(fs, &route, vt, &mut slots);
                    // The arrival the fire just created sits at this same
                    // instant, and its sequence number is larger than any
                    // event allocated before it — so unless some other
                    // selectable event lands on exactly this nanosecond
                    // (which would carry a smaller seq and sort first),
                    // the arrival is provably the next selection. Process
                    // it inline and save a selection round trip. (`other`
                    // is the earliest of its set: if it lies after this
                    // nanosecond, so does the rest of the set.)
                    let t_hi = (vt.as_nanos() as u128) << 64;
                    if slots.arrive != SLOT_EMPTY
                        && slots.tx_done & KEY_TIME != t_hi
                        && other & KEY_TIME != t_hi
                    {
                        let packet = slots.arrive_ref;
                        slots.arrive = SLOT_EMPTY;
                        popped += 1; // the elided selection still counts
                        self.fluid_arrive(
                            packet,
                            link_id,
                            vt,
                            &mut slots,
                            &mut arrivals,
                            &mut qops,
                        );
                    }
                }
                FluidNext::Arrive => {
                    let packet = slots.arrive_ref;
                    slots.arrive = SLOT_EMPTY;
                    self.fluid_arrive(packet, link_id, vt, &mut slots, &mut arrivals, &mut qops);
                }
                FluidNext::TxDone => {
                    slots.tx_done = SLOT_EMPTY;
                    self.fluid_tx_done(
                        link_id,
                        prop,
                        vt,
                        vk,
                        &mut slots,
                        dst_box.as_mut(),
                        route.dst,
                        &mut popped,
                        &mut qops,
                        &mut next_real,
                        &mut real_key,
                        &mut other,
                    );
                }
            }
        }

        // Deferred deliveries already behind the clock drain now (the
        // real loop must never pop an event in its past); ones at or
        // after `self.time` materialise below and are processed by the
        // real loop in exact order. After a halt, `fluid_deliver` has
        // already drained every one before the halting delivery.
        let bound = (self.time.as_nanos() as u128) << 64;
        self.fluid_drain(&mut slots, dst_box.as_mut(), route.dst, bound, &mut popped);

        // lint: allow(panic_free) -- restoring the box taken above; same id
        self.agents[route.dst.0] = Some(dst_box);

        // materialise what the window didn't get to — under the seqs the
        // events would have carried had they never been elided
        let mut materialise = |key: SlotKey, event: Event| {
            if key != SLOT_EMPTY {
                self.events.push_with_seq(slot_time(key), key as u64, event);
            }
        };
        materialise(
            slots.timer,
            Event::Timer {
                agent: src,
                token: slots.token,
            },
        );
        materialise(
            slots.arrive,
            Event::Arrive {
                packet: slots.arrive_ref,
            },
        );
        materialise(slots.tx_done, Event::TxDone { link: link_id });
        for (t, s, p) in slots.deferred.drain(..) {
            self.events.push_with_seq(
                t,
                s,
                Event::Deliver {
                    agent: route.dst,
                    packet: p,
                },
            );
        }
        for (t, s, agent, p) in slots.ordered.drain(..) {
            self.events
                .push_with_seq(t, s, Event::Deliver { agent, packet: p });
        }
        self.fluid_queues = DeliveryQueues {
            deferred: slots.deferred,
            ordered: slots.ordered,
        };
        prof::count_n(Cost::EventsPopped, popped);
        prof::count_n(Cost::PacketsSimulated, arrivals);
        prof::count_n(Cost::FluidPackets, arrivals);
        prof::count_n(Cost::QueueOps, qops);
    }

    /// A packet reaches the router feeding `path[hop]`: decrement TTL,
    /// expire if needed, otherwise offer to the link queue.
    fn handle_arrive(&mut self, packet: PacketRef) {
        prof::count(Cost::PacketsSimulated);
        let (ttl, path, hop, size) = {
            let p = self.arena.get_mut(packet);
            p.ttl = p.ttl.saturating_sub(1);
            (p.ttl, p.path, p.hop, p.size)
        };
        if ttl == 0 {
            let p = self.arena.take(packet);
            self.expire_ttl(p);
            return;
        }
        // lint: allow(panic_free) -- hop < path length or the packet would have been delivered, not re-queued
        let link_id = self.paths[path.0][hop as usize];
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[link_id.0];
        match link.enqueue(packet, size, self.time) {
            EnqueueOutcome::Accepted { starts_service } => {
                prof::count(Cost::QueueOps);
                if starts_service {
                    let done = link.start_transmission(self.time);
                    self.events.push(done, Event::TxDone { link: link_id });
                }
            }
            // the link already counted the drop or the ingress loss
            EnqueueOutcome::Dropped | EnqueueOutcome::Impaired => {
                self.arena.take(packet);
            }
        }
    }

    fn handle_tx_done(&mut self, link_id: LinkId) {
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[link_id.0];
        prof::count(Cost::QueueOps);
        let (packet, more) = link.finish_transmission(self.time);
        let prop = link.prop_delay();
        // injected egress delay (reorder hold + jitter); zero without an
        // impairment. Drawn here, once per departing packet, so the RNG
        // stream advances in deterministic event order.
        let extra = link.egress_extra();
        if more {
            let done = link.start_transmission(self.time);
            self.events.push(done, Event::TxDone { link: link_id });
        }
        let (hop, path, dst) = {
            let p = self.arena.get_mut(packet);
            p.hop += 1;
            (p.hop, p.path, p.dst)
        };
        let at = self.time + prop + extra;
        // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
        if (hop as usize) < self.paths[path.0].len() {
            self.events.push(at, Event::Arrive { packet });
        } else {
            self.events.push(at, Event::Deliver { agent: dst, packet });
        }
    }

    /// TTL reached zero at the router feeding `path[hop]`: discard and,
    /// when enabled, return an ICMP time-exceeded to the sender over an
    /// uncongested reverse path whose delay is the sum of the forward
    /// propagation delays up to (and including) this router's position.
    fn expire_ttl(&mut self, packet: Packet) {
        self.counters.ttl_expired += 1;
        if !self.icmp_replies {
            return;
        }
        // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
        let path = &self.paths[packet.path.0];
        let mut reverse = SimDuration::ZERO;
        // lint: allow(panic_free) -- hop counts links already crossed, <= path length
        for link in &path[..packet.hop as usize] {
            // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
            reverse += self.links[link.0].prop_delay();
        }
        let icmp = Packet {
            id: self.next_packet_id,
            flow: packet.flow,
            src: packet.src, // nominal: the router has no agent id
            dst: packet.src,
            path: packet.path,
            hop: packet.hop,
            size: 56,
            seq: packet.seq,
            sent_at: self.time,
            ttl: crate::packet::DEFAULT_TTL,
            kind: PacketKind::TtlExceeded {
                router: packet.hop,
                orig_seq: packet.seq,
                orig_sent_at: packet.sent_at,
            },
        };
        self.next_packet_id += 1;
        self.counters.icmp_generated += 1;
        self.counters.injected += 1;
        let icmp = self.arena.alloc(icmp);
        self.events.push(
            self.time + reverse,
            Event::Deliver {
                agent: packet.src,
                packet: icmp,
            },
        );
    }

    fn dispatch_agent(&mut self, id: AgentId, call: AgentCall) {
        // lint: allow(panic_free) -- agent ids index the simulator's own table; the box is only absent mid-dispatch, which never re-enters
        let mut agent = self.agents[id.0].take().expect("re-entrant agent dispatch");
        let mut ctx = self.ctx(id, self.time);
        match call {
            AgentCall::Start => agent.on_start(&mut ctx),
            AgentCall::Timer(token) => agent.on_timer(&mut ctx, token),
            AgentCall::Packet(p) => agent.on_packet(&mut ctx, p),
        }
        // lint: allow(panic_free) -- restoring the box taken above; same id
        self.agents[id.0] = Some(agent);
    }
}

impl Drop for Simulator {
    /// Adds this simulation's totals to the cost counters once, as it
    /// goes out of scope: the counts a run manifest reports, with no
    /// plumbing through the experiments that create simulators.
    fn drop(&mut self) {
        let c = self.counters;
        for (cost, n) in [
            (Cost::SimTimeNs, self.time.as_nanos()),
            (Cost::Injected, c.injected),
            (Cost::Delivered, c.delivered),
            (Cost::TtlExpired, c.ttl_expired),
            (Cost::IcmpGenerated, c.icmp_generated),
            (Cost::LinkDropped, self.total_drops()),
            (Cost::LinkImpaired, self.total_impaired()),
        ] {
            prof::count_n(cost, n);
        }
    }
}

enum AgentCall {
    Start,
    Timer(u64),
    Packet(Packet),
}

/// A `(time, seq)` pair packed into one integer so the full event order
/// is a single comparison: nanoseconds in the high 64 bits, sequence
/// number in the low 64. [`SLOT_EMPTY`] (all ones) sorts after every
/// real key — a `SimTime` of `u64::MAX` ns never arises from event
/// arithmetic, and sequence numbers are allocated from zero.
type SlotKey = u128;

const SLOT_EMPTY: SlotKey = u128::MAX;

/// Mask selecting the time half of a [`SlotKey`].
const KEY_TIME: SlotKey = !0u128 << 64;

#[inline]
fn slot_key(t: SimTime, s: u64) -> SlotKey {
    ((t.as_nanos() as u128) << 64) | s as u128
}

#[inline]
fn slot_time(k: SlotKey) -> SimTime {
    SimTime::from_nanos((k >> 64) as u64)
}

/// Deferred deliveries drain in batches of roughly this many (see
/// [`Simulator::fluid_drain`]); the threshold bounds the deque while
/// keeping drains rare enough to amortise.
const DELIVER_DRAIN: usize = 32;

/// Cost tallies of a window step run out of line
/// ([`Simulator::fluid_ordered`], [`Simulator::fluid_absorb`]). Returned
/// by value, so the window's own tallies stay out of memory the step
/// could write.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Events processed, virtual or absorbed (`Cost::EventsPopped`).
    popped: u64,
    /// Arrivals offered to the link (`Cost::PacketsSimulated` and
    /// `Cost::FluidPackets`).
    arrivals: u64,
    /// Accepted enqueues and completed transmissions (`Cost::QueueOps`).
    qops: u64,
}

/// The fluid window's virtual event set. The window's structure bounds
/// it exactly: at most one pending timer fire of the source (it re-arms
/// once per packet), one arrival of the source (created at the fire
/// instant and consumed before the next fire), and one transmission
/// completion (the link serialises one packet at a time). Every other
/// packet the window carries, a probe packet among them, arrives through
/// the real queue. In-flight deliveries wait in two deques — a FIFO link
/// with constant propagation delay produces them in strictly increasing
/// `(time, seq)` order. Deliveries to the source's sink are deferred and
/// never compete for selection ([`Simulator::fluid_drain`]); deliveries
/// to any other recording sink compete through `aux`. Selecting the next
/// event is therefore a branch-light minimum over packed keys instead of
/// a priority-queue operation.
struct FluidSlots {
    src: AgentId,
    /// Token the source's timer chain carries (re-armed unchanged).
    token: u64,
    timer: SlotKey,
    arrive: SlotKey,
    arrive_ref: PacketRef,
    tx_done: SlotKey,
    /// Key of the front of `ordered`, or `SLOT_EMPTY`.
    aux: SlotKey,
    /// Deliveries to the source's passive sink.
    deferred: VecDeque<(SimTime, u64, PacketRef)>,
    /// Deliveries to other recording sinks, each run at its own position.
    ordered: VecDeque<(SimTime, u64, AgentId, PacketRef)>,
}

/// Which slot [`FluidSlots::min_key`] selected.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FluidNext {
    Timer,
    Arrive,
    TxDone,
}

/// The window's delivery queues, kept on the simulator between windows.
#[derive(Default)]
struct DeliveryQueues {
    deferred: VecDeque<(SimTime, u64, PacketRef)>,
    ordered: VecDeque<(SimTime, u64, AgentId, PacketRef)>,
}

impl FluidSlots {
    /// The slots of a window of `src`'s timer chain, over the
    /// simulator's reusable (empty) delivery queues.
    fn new(src: AgentId, token: u64, queues: DeliveryQueues) -> Self {
        debug_assert!(
            queues.deferred.is_empty() && queues.ordered.is_empty(),
            "fluid deliveries left over from the last window"
        );
        FluidSlots {
            src,
            token,
            timer: SLOT_EMPTY,
            arrive: SLOT_EMPTY,
            arrive_ref: PacketRef::DANGLING,
            tx_done: SLOT_EMPTY,
            aux: SLOT_EMPTY,
            deferred: queues.deferred,
            ordered: queues.ordered,
        }
    }

    /// The earliest pending event of the source's cycle (timer, arrival,
    /// transmission completion) in full `(time, seq)` order, or
    /// `SLOT_EMPTY`. Sequence numbers are unique, so the order is total
    /// and the selection matches what a merged priority queue would pop.
    #[inline]
    fn min_key(&self) -> (SlotKey, FluidNext) {
        let mut k = self.timer;
        let mut w = FluidNext::Timer;
        if self.arrive < k {
            k = self.arrive;
            w = FluidNext::Arrive;
        }
        if self.tx_done < k {
            k = self.tx_done;
            w = FluidNext::TxDone;
        }
        (k, w)
    }

    /// Recomputes `aux` after the ordered deque changed.
    #[inline]
    fn refresh_aux(&mut self) {
        self.aux = self
            .ordered
            .front()
            .map_or(SLOT_EMPTY, |&(t, s, _, _)| slot_key(t, s));
    }

    #[inline]
    fn push_deferred(&mut self, t: SimTime, s: u64, pkt: PacketRef) {
        debug_assert!(
            self.deferred
                .back()
                .is_none_or(|&(bt, bs, _)| (bt, bs) < (t, s)),
            "fluid deliveries out of order"
        );
        self.deferred.push_back((t, s, pkt));
    }

    fn push_ordered(&mut self, t: SimTime, s: u64, agent: AgentId, pkt: PacketRef) {
        debug_assert!(
            self.ordered
                .back()
                .is_none_or(|&(bt, bs, _, _)| (bt, bs) < (t, s)),
            "fluid deliveries out of order"
        );
        self.ordered.push_back((t, s, agent, pkt));
        self.refresh_aux();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{packet_to, CountingSink};
    use crate::packet::FlowId;

    /// Sends `n` packets of `size` bytes with a fixed gap, starting at t=0.
    struct PeriodicSender {
        path: PathId,
        dst: AgentId,
        n: u32,
        size: u32,
        gap: SimDuration,
        sent: u32,
    }

    impl Agent for PeriodicSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule_in(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent >= self.n {
                return;
            }
            let p = packet_to(
                self.dst,
                self.path,
                FlowId(1),
                self.size,
                self.sent as u64,
                PacketKind::Data,
            );
            ctx.send(p);
            self.sent += 1;
            if self.sent < self.n {
                ctx.schedule_in(self.gap, 0);
            }
        }
    }

    fn one_link_sim(capacity_bps: f64, prop_ms: u64) -> (Simulator, LinkId) {
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(
            capacity_bps,
            SimDuration::from_millis(prop_ms),
        ));
        (sim, link)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut sim, link) = one_link_sim(12e6, 1);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 10,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let s: &CountingSink = sim.agent(sink);
        assert_eq!(s.packets, 10);
        assert_eq!(s.bytes, 15_000);
        // first packet: 1 ms serialisation + 1 ms propagation
        assert_eq!(s.first_arrival, Some(SimTime::from_nanos(2_000_000)));
        let c = sim.counters();
        assert_eq!(c.injected, 10);
        assert_eq!(c.delivered, 10);
    }

    #[test]
    fn back_to_back_packets_space_out_at_capacity() {
        // Input rate 24 Mb/s on a 12 Mb/s link: output gaps must equal the
        // 1 ms serialisation time, not the 0.5 ms input gap.
        let (mut sim, link) = one_link_sim(12e6, 0);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(RecordingSink::default()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 5,
            size: 1500,
            gap: SimDuration::from_micros(500),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let s: &RecordingSink = sim.agent(sink);
        assert_eq!(s.arrivals.len(), 5);
        for w in s.arrivals.windows(2) {
            assert_eq!(w[1].since(w[0]), SimDuration::from_millis(1));
        }
    }

    #[derive(Default)]
    struct RecordingSink {
        arrivals: Vec<SimTime>,
    }
    impl Agent for RecordingSink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
            self.arrivals.push(ctx.now());
        }
    }

    #[test]
    fn multi_hop_owd_is_sum_of_hops() {
        let mut sim = Simulator::new();
        // three identical 12 Mb/s links, 1 ms propagation each
        let links: Vec<LinkId> = (0..3)
            .map(|_| sim.add_link(LinkConfig::new(12e6, SimDuration::from_millis(1))))
            .collect();
        let path = sim.add_path(links);
        let sink = sim.add_agent(Box::new(RecordingSink::default()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 1,
            size: 1500,
            gap: SimDuration::from_millis(1),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let s: &RecordingSink = sim.agent(sink);
        // per hop: 1 ms serialisation + 1 ms propagation
        assert_eq!(s.arrivals, vec![SimTime::from_nanos(6_000_000)]);
    }

    #[test]
    fn ttl_expiry_generates_icmp() {
        let mut sim = Simulator::new();
        let links: Vec<LinkId> = (0..3)
            .map(|_| sim.add_link(LinkConfig::new(12e6, SimDuration::from_millis(1))))
            .collect();
        let path = sim.add_path(links);
        let sink = sim.add_agent(Box::new(CountingSink::new()));

        struct TtlProbe {
            path: PathId,
            dst: AgentId,
            replies: Vec<(u8, SimTime)>,
        }
        impl Agent for TtlProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let mut p = packet_to(self.dst, self.path, FlowId(9), 64, 0, PacketKind::Data);
                p.ttl = 2; // expires at hop index 1 (second router)
                ctx.send(p);
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
                if let PacketKind::TtlExceeded { router, .. } = packet.kind {
                    self.replies.push((router, ctx.now()));
                }
            }
        }
        let probe = sim.add_agent(Box::new(TtlProbe {
            path,
            dst: sink,
            replies: Vec::new(),
        }));
        sim.run_to_quiescence();
        let p: &TtlProbe = sim.agent(probe);
        assert_eq!(p.replies.len(), 1);
        let (router, at) = p.replies[0];
        assert_eq!(router, 1);
        // forward: 42.67 us serialisation + 1 ms prop on link 0, then expiry
        // at link 1 input; reverse: 1 ms (sum of prop delays of links 0..1)
        let fwd = crate::time::transmission_time(64, 12e6) + SimDuration::from_millis(1);
        assert_eq!(at, SimTime::ZERO + fwd + SimDuration::from_millis(1));
        assert_eq!(sim.counters().ttl_expired, 1);
        assert_eq!(sim.counters().icmp_generated, 1);
        let s: &CountingSink = sim.agent(sink);
        assert_eq!(s.packets, 0, "expired packet must not be delivered");
    }

    #[test]
    fn icmp_can_be_disabled() {
        let (mut sim, link) = one_link_sim(12e6, 0);
        sim.icmp_replies = false;
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        struct OneShot {
            path: PathId,
            dst: AgentId,
        }
        impl Agent for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let mut p = packet_to(self.dst, self.path, FlowId(0), 64, 0, PacketKind::Data);
                p.ttl = 1;
                ctx.send(p);
            }
        }
        sim.add_agent(Box::new(OneShot { path, dst: sink }));
        sim.run_to_quiescence();
        assert_eq!(sim.counters().ttl_expired, 1);
        assert_eq!(sim.counters().icmp_generated, 0);
    }

    #[test]
    fn conservation_at_quiescence() {
        let (mut sim, link) = one_link_sim(1e6, 1);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 200,
            size: 1200,
            gap: SimDuration::from_micros(100),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let c = sim.counters();
        assert_eq!(
            c.injected,
            c.delivered + sim.total_drops() + c.ttl_expired,
            "packet conservation violated"
        );
    }

    #[test]
    fn armed_invariants_pass_on_loaded_simulation() {
        // every conservation / busy-period / clock check runs hot on a
        // congested, dropping link and must stay silent on correct code
        crate::invariants::arm();
        let mut sim = Simulator::new();
        let link =
            sim.add_link(LinkConfig::new(1e6, SimDuration::from_millis(1)).with_queue_bytes(4_000));
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 300,
            size: 1200,
            gap: SimDuration::from_micros(200),
            sent: 0,
        }));
        sim.run_to_quiescence();
        assert!(sim.total_drops() > 0, "scenario must exercise drops");
        let c = sim.counters();
        assert_eq!(c.injected, c.delivered + sim.total_drops());
    }

    #[test]
    fn impaired_link_conserves_packets() {
        // armed conservation invariant must hold with injected loss
        crate::invariants::arm();
        let (mut sim, link) = one_link_sim(12e6, 1);
        sim.impair_link(link, crate::impair::ImpairmentConfig::iid_loss(0.3), 7);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 200,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let c = sim.counters();
        assert!(sim.total_impaired() > 0, "loss must actually trigger");
        assert_eq!(sim.total_drops(), 0, "no queue drops in this scenario");
        assert_eq!(
            c.injected,
            c.delivered + sim.total_impaired(),
            "impaired packets must be accounted for"
        );
        assert_eq!(sim.agent::<CountingSink>(sink).packets, c.delivered);
    }

    #[test]
    fn event_loop_tallies_profiling_costs() {
        let before = abw_obs::prof::snapshot();
        let (mut sim, link) = one_link_sim(12e6, 1);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 10,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let end_ns = sim.now().as_nanos();
        drop(sim); // the per-simulation totals are added here
        let delta = abw_obs::prof::snapshot().delta(&before);
        use abw_obs::prof::Cost;
        // no other test in this binary flushes tallies into the process
        // totals, so the drop totals are exactly this simulation's
        assert_eq!(delta.get(Cost::SimTimeNs), end_ns);
        assert_eq!(delta.get(Cost::Injected), 10);
        assert_eq!(delta.get(Cost::Delivered), 10);
        assert_eq!(delta.get(Cost::LinkDropped), 0);
        assert_eq!(delta.get(Cost::LinkImpaired), 0);
        assert!(
            delta.get(Cost::PacketsSimulated) >= 10,
            "each sent packet is an arrival"
        );
        assert!(
            delta.get(Cost::QueueOps) >= 20,
            "every packet enqueues and dequeues"
        );
        assert!(
            delta.get(Cost::EventsPopped) >= delta.get(Cost::PacketsSimulated),
            "arrivals are a subset of popped events"
        );
    }

    #[test]
    fn reordering_lets_later_packets_overtake() {
        let (mut sim, link) = one_link_sim(12e6, 1);
        // hold ~half the packets back 5 ms while packets flow every 2 ms
        sim.impair_link(
            link,
            crate::impair::ImpairmentConfig::none().with_reorder(0.5, SimDuration::from_millis(5)),
            13,
        );
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(SeqSink::default()));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 100,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        sim.run_to_quiescence();
        let seqs = &sim.agent::<SeqSink>(sink).seqs;
        assert_eq!(seqs.len(), 100, "reordering must not lose packets");
        assert!(
            seqs.windows(2).any(|w| w[1] < w[0]),
            "some packet must arrive out of order"
        );
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
    }

    #[derive(Default)]
    struct SeqSink {
        seqs: Vec<u64>,
    }
    impl Agent for SeqSink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: Packet) {
            self.seqs.push(p.seq);
        }
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    #[should_panic(expected = "cannot run to a deadline in the past")]
    fn run_until_refuses_to_rewind_the_clock() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        sim.run_until(SimTime::from_nanos(1_000));
    }

    /// Records arrivals and halts the run on the `halt_at`-th one.
    struct HaltingSink {
        halt_at: usize,
        arrivals: Vec<SimTime>,
    }
    impl Agent for HaltingSink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _p: Packet) {
            self.arrivals.push(ctx.now());
            if self.arrivals.len() == self.halt_at {
                ctx.halt();
            }
        }
    }

    #[test]
    fn halt_stops_run_until_at_the_halting_event() {
        let (mut sim, link) = one_link_sim(12e6, 1);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(HaltingSink {
            halt_at: 3,
            arrivals: Vec::new(),
        }));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 10,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        let far = SimTime::from_nanos(1_000_000_000);
        // 1 ms serialisation + 1 ms propagation, one packet every 2 ms
        assert!(sim.run_until(far), "the third arrival halts the run");
        assert_eq!(sim.now(), SimTime::from_nanos(6_000_000));
        assert_eq!(sim.agent::<HaltingSink>(sink).arrivals.len(), 3);
        // the next run resumes where the halt left off and runs out
        assert!(!sim.run_until(far));
        assert_eq!(sim.now(), far);
        assert_eq!(sim.agent::<HaltingSink>(sink).arrivals.len(), 10);

        // run_to_quiescence ignores halts
        let (mut sim, link) = one_link_sim(12e6, 1);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(HaltingSink {
            halt_at: 1,
            arrivals: Vec::new(),
        }));
        sim.add_agent(Box::new(PeriodicSender {
            path,
            dst: sink,
            n: 4,
            size: 1500,
            gap: SimDuration::from_millis(2),
            sent: 0,
        }));
        sim.run_to_quiescence();
        assert_eq!(sim.agent::<HaltingSink>(sink).arrivals.len(), 4);
    }

    #[test]
    fn external_timer_scheduling() {
        #[derive(Default)]
        struct TokenLog {
            tokens: Vec<u64>,
        }
        impl Agent for TokenLog {
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.tokens.push(token);
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_agent(Box::new(TokenLog::default()));
        sim.run_until(SimTime::from_nanos(100));
        sim.schedule_timer(a, SimTime::from_nanos(500), 42);
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.agent::<TokenLog>(a).tokens, vec![42]);
    }
}
