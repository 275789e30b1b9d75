//! The simulator: network state plus the event loop.
//!
//! Besides the per-event loop, `run_until` has one exact fast path, the
//! fluid window ([`Simulator::set_fluid`]). A timer fire of a fluid
//! source ([`Agent::fluid_route`]) opens it: a cross source on a
//! single-link path into a passive sink, or a probe stream with packets
//! left into its halting receiver, on a path of any length. The window
//! then runs, as plain state mutation in the merged `(time, seq)` order
//! against the real queue, every such source whose timer comes due (a
//! *lane*: timer fire, arrival, transmission completion, delivery) and
//! every link a lane or a carried packet reaches (a *held* link), unless
//! it has jitter, reorder or flaps. A probe lane re-arms its timer under
//! the sequence numbers the stream's launch reserved, so it runs where
//! the per-event loop would pop it. The window runs other agents' timers
//! in place, offers their arrivals at held links, absorbs the links'
//! transmission completions, pushes a served packet that travels on as
//! its next hop's arrival and absorbs that when it is due, and runs
//! deliveries to recording sinks ([`SinkRole`]), the probe receiver's
//! included, which may halt the run. It closes before any event it
//! cannot carry, materialising what it elided under the sequence numbers
//! the events would have had, so every observable state is the per-event
//! loop's.

use std::any::Any;

use abw_obs::prof::{self, Cost};
use abw_obs::{Event as ObsEvent, Field, Recorder};

use crate::agent::{inject, packet_to, Agent, Ctx, FluidRoute, FluidStep, Rearm, SinkRole};
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
    /// [`Agent::fluid_route`] run through the fluid fast-forward window
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
    /// The fluid window's lanes, held links and delivery queues, kept
    /// between windows: taken at window open and handed back (empty) at
    /// close, so opening a window does not allocate.
    window: Window,
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
            window: Window::default(),
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

    /// Dispatches a timer fire, opening a fluid window for a fluid source
    /// whose surroundings are fluid-safe ([`Simulator::lane_link`]).
    fn dispatch_timer(&mut self, id: AgentId, token: u64) {
        // lint: allow(panic_free) -- agent ids index the simulator's own table; the box is only absent mid-dispatch, which never re-enters
        let mut agent = self.agents[id.0].take().expect("re-entrant agent dispatch");
        if let Some(route) = agent.fluid_route().filter(|_| self.fluid_enabled) {
            if let Some(link) = self.lane_link(&route, &[]) {
                self.fluid_window(id, agent, route, link, token);
                return;
            }
        }
        agent.on_timer(&mut self.ctx(id, self.time), token);
        // lint: allow(panic_free) -- restoring the box taken above; same id
        self.agents[id.0] = Some(agent);
    }

    /// The link a fluid source with `route` runs on as a window lane,
    /// when it is fluid-safe: the first link of its path, which the
    /// window must be able to hold ([`Simulator::holdable`]), and a sink
    /// that records. Into a passive sink, in the agent table or already
    /// held by the window (`sinks`), the path must be that one link: the
    /// window defers the deliveries. Into a halting sink (a probe
    /// stream's receiver) the path may be any length: onward hops pass
    /// through the queue, and each delivery runs at its own position.
    /// Anything else (a multi-hop path into a passive sink, a jitter,
    /// reorder or flap first link, an active sink) keeps the source on
    /// the per-event path.
    fn lane_link(&self, route: &FluidRoute, sinks: &[HeldSink]) -> Option<LinkId> {
        let role = if sinks.iter().any(|s| s.id == route.dst) {
            SinkRole::Passive
        } else {
            self.sink_role_of(route.dst)
        };
        // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
        let link = match (role, &self.paths[route.path.0][..]) {
            (SinkRole::Passive, &[link]) | (SinkRole::Halting, &[link, ..]) => link,
            _ => return None,
        };
        self.holdable(link).then_some(link)
    }

    /// Whether a window may hold `link`: its impairment, if any, acts
    /// only at ingress. Loss draws keep their order because the window
    /// calls `Link::enqueue` in the exact merged event order, and a
    /// loss-only link adds no egress delay, so deliveries stay FIFO.
    /// Jitter and reorder holds would break that order, and a capacity
    /// flap changes the rate at the next transmission start.
    fn holdable(&self, link: LinkId) -> bool {
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        self.links[link.0]
            .impairment()
            .is_none_or(Impairment::is_ingress_only)
    }

    /// The window's index of `link`, holding it first if it is not held
    /// yet and may be; `None` when it may not.
    fn try_hold(&self, w: &mut Window, link: LinkId) -> Option<usize> {
        // lint: allow(panic_free) -- the window sizes `held` to the link table at open
        let j = w.held[link.0];
        match j {
            NOT_HELD if self.holdable(link) => {
                // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
                Some(w.hold(link, self.links[link.0].prop_delay()))
            }
            NOT_HELD => None,
            _ => Some(j),
        }
    }

    /// The [`Ctx`] an agent `id` acts through at `now`. Its box stays
    /// with the caller: the agent table's ([`Simulator::dispatch_agent`]),
    /// a timer's, or a window's sink, whose take/restore through the
    /// table the window hoists out of its loop.
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
    /// whose box is out of the table (a window lane's source) counts as
    /// active.
    fn sink_role_of(&self, id: AgentId) -> SinkRole {
        // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
        self.agents[id.0]
            .as_deref()
            .map_or(SinkRole::Active, |a| a.sink_role())
    }

    /// Adopts the fluid source `id` (its box `agent`, its timer's
    /// `token`) as a window lane on `link`: holds the link and a passive
    /// sink (a halting sink stays in the agent table), and runs the
    /// timer fire the caller popped, at the current clock.
    fn adopt(
        &mut self,
        w: &mut Window,
        id: AgentId,
        agent: Box<dyn Agent>,
        route: FluidRoute,
        link: LinkId,
        token: u64,
    ) {
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let j = w.hold(link, self.links[link.0].prop_delay());
        if !w.sinks.iter().any(|s| s.id == route.dst)
            && self.sink_role_of(route.dst) == SinkRole::Passive
        {
            // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
            let sink = self.agents[route.dst.0]
                .take()
                // lint: allow(panic_free) -- `lane_link` found the sink in the table, since it is not held
                .expect("a lane's sink is in the table or held");
            // lint: allow(panic_free) -- `hold` returned an index into the held links
            let hl = &mut w.links[j];
            if hl.hint.dst == NO_AGENT {
                hl.hint = Hint {
                    path: route.path,
                    dst: route.dst,
                    sink: w.sinks.len(),
                };
            }
            w.sinks.push(HeldSink {
                id: route.dst,
                agent: sink,
                link: j,
            });
        }
        let i = w.lanes.len();
        let mut lane = Lane {
            id,
            agent,
            token,
            route,
            link: j,
            slot: w.slots.push(Next::Fire(i)),
            timer: SLOT_EMPTY,
            arrive: SLOT_EMPTY,
            arrive_ref: PacketRef::DANGLING,
        };
        self.lane_fire(&mut lane, self.time);
        let (key, next) = lane.next_slot(i);
        w.slots.set(lane.slot, key, next);
        w.lanes.push(lane);
    }

    /// One timer fire of `lane` at `t`: the draw, the send and the
    /// re-arm, mutating exactly the state the `on_timer` →
    /// [`Ctx::send`] / [`Ctx::schedule_in`] (or
    /// [`Ctx::schedule_reserved`]) path would. The event pushes are
    /// elided: their sequence numbers are still allocated (in the same
    /// order) or claimed from the agent's reserved block, and the events
    /// go into the lane's slots instead of the queue. The caller updates
    /// the lane's key.
    fn lane_fire(&mut self, lane: &mut Lane, t: SimTime) {
        match lane.agent.fluid_step(t) {
            FluidStep::Stop => lane.timer = SLOT_EMPTY,
            FluidStep::Send { size, seq, rearm } => {
                let r = &lane.route;
                let p = packet_to(r.dst, r.path, r.flow, size, seq, r.kind);
                let pkt = inject(
                    &mut self.arena,
                    &mut self.next_packet_id,
                    &mut self.counters.injected,
                    lane.id,
                    t,
                    p,
                );
                debug_assert!(lane.arrive == SLOT_EMPTY, "lane arrival slot occupied");
                lane.arrive = slot_key(t, self.events.consume_seq());
                lane.arrive_ref = pkt;
                lane.timer = match rearm {
                    Rearm::After(gap) => slot_key(t + gap, self.events.consume_seq()),
                    Rearm::Reserved { at, seq } => {
                        // a reserved number is smaller than the arrival's,
                        // so the timer must fire later than the send
                        debug_assert!(at > t, "a reserved re-arm at the send instant");
                        self.events.claim(lane.id, seq);
                        slot_key(at, seq)
                    }
                    Rearm::Never => {
                        debug_assert!(
                            lane.agent.fluid_route().is_none(),
                            "a fluid route with no packet left to send"
                        );
                        SLOT_EMPTY
                    }
                };
            }
        }
    }

    /// Retires lane `i`, whose source stopped re-arming and whose last
    /// arrival has run, so nothing of it is pending: its box goes back to
    /// the agent table and its slot leaves the tree. A probe stream's
    /// lane leaves after its last packet, and a single-hop window is back
    /// to one lane on one link, whose tree picks with two leaves.
    #[cold]
    fn retire(&mut self, w: &mut Window, i: usize) {
        let lane = w.lanes.swap_remove(i);
        debug_assert!(
            lane.timer == SLOT_EMPTY && lane.arrive == SLOT_EMPTY,
            "a lane retired with events pending"
        );
        // lint: allow(panic_free) -- restoring a box the window took; same id
        self.agents[lane.id.0] = Some(lane.agent);
        // the last lane took index `i`
        if let Some(moved) = w.lanes.get(i) {
            let (key, next) = moved.next_slot(i);
            w.slots.set(moved.slot, key, next);
        }
        // the last slot took the retired lane's
        match w.slots.remove(lane.slot) {
            // lint: allow(panic_free) -- a slot's node names its lane's index
            Some(Next::Fire(k) | Next::Arrive(k)) => w.lanes[k].slot = lane.slot,
            // lint: allow(panic_free) -- a slot's node names its held link's index
            Some(Next::TxDone(j)) => w.links[j].slot = lane.slot,
            None => {}
        }
    }

    /// One arrival at the held link `j` at `vt`: TTL bookkeeping and the
    /// offer to the link, exactly what [`Simulator::handle_arrive`] does
    /// minus the TTL expiry the window excludes.
    #[inline(always)]
    fn window_arrive(
        &mut self,
        w: &mut Window,
        j: usize,
        packet: PacketRef,
        vt: SimTime,
        tally: &mut Tally,
    ) {
        tally.arrivals += 1;
        let size = {
            let p = self.arena.get_mut(packet);
            p.ttl = p.ttl.saturating_sub(1);
            debug_assert!(p.ttl > 0, "the window admits no packet that expires");
            p.size
        };
        // lint: allow(panic_free) -- callers pass an index into the held links
        let hl = &mut w.links[j];
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[hl.id.0];
        match link.enqueue(packet, size, vt) {
            EnqueueOutcome::Accepted { starts_service } => {
                tally.qops += 1;
                if starts_service {
                    let done = link.start_transmission(vt);
                    debug_assert!(hl.tx_done == SLOT_EMPTY, "link already serving");
                    hl.tx_done = slot_key(done, self.events.consume_seq());
                    w.slots.set_key(hl.slot, hl.tx_done);
                }
            }
            // the link already counted the drop or the ingress loss
            EnqueueOutcome::Dropped | EnqueueOutcome::Impaired => {
                self.arena.take(packet);
            }
        }
    }

    /// One transmission completion on the held link `j` at `vt` (key
    /// `key`), virtual or absorbed from the queue: what
    /// [`Simulator::handle_tx_done`] does, with the next completion kept
    /// in the window. A packet that travels on is pushed as its next
    /// hop's arrival under the sequence number the per-event loop would
    /// give it; a delivery is deferred, ordered or pushed by
    /// [`Simulator::window_delivery`]. Returns whether it pushed an event
    /// into the queue or ordered a delivery.
    #[inline(always)]
    fn window_tx_done(
        &mut self,
        w: &mut Window,
        j: usize,
        vt: SimTime,
        key: SlotKey,
        tally: &mut Tally,
    ) -> bool {
        tally.qops += 1;
        // lint: allow(panic_free) -- callers pass an index into the held links
        let hl = &mut w.links[j];
        // lint: allow(panic_free) -- link ids are simulator-issued and index its own table
        let link = &mut self.links[hl.id.0];
        let (pkt, more) = link.finish_transmission(vt);
        let extra = link.egress_extra(); // zero: ingress-only impairment
        hl.tx_done = if more {
            let done = link.start_transmission(vt);
            slot_key(done, self.events.consume_seq())
        } else {
            SLOT_EMPTY
        };
        w.slots.set_key(hl.slot, hl.tx_done);
        let (hop, path, dst) = {
            let p = self.arena.get_mut(pkt);
            p.hop += 1;
            (p.hop, p.path, p.dst)
        };
        let s = self.events.consume_seq();
        let at = vt + hl.prop + extra;
        // a lane's packet: its path is this one link
        if path == hl.hint.path && dst == hl.hint.dst {
            hl.deferred.push(Deferred {
                t: at,
                s,
                pkt,
                sink: hl.hint.sink,
            });
            // Deliveries already due drain at any point before the next
            // observer; batching them keeps the hot loop a predictable
            // fire/serve alternation.
            if hl.deferred.len() >= DELIVER_DRAIN {
                tally.popped += self.drain_link(hl, &mut w.sinks, key);
            }
            return false;
        }
        // lint: allow(panic_free) -- path ids are simulator-issued and index its own table
        if (hop as usize) < self.paths[path.0].len() {
            self.events
                .push_with_seq(at, s, Event::Arrive { packet: pkt });
            return true;
        }
        self.window_delivery(w, j, at, s, dst, pkt)
    }

    /// A delivery from the held link `j` to an agent other than the
    /// link's first bound sink: deferred when the window holds the sink
    /// for this link, run at its own position for any other recording
    /// sink, and pushed into the queue for an active agent, where it
    /// closes the window when due. Returns whether it ordered or pushed
    /// it. Out of line, so the cross traffic's cycle stays a tight loop.
    #[inline(never)]
    fn window_delivery(
        &mut self,
        w: &mut Window,
        j: usize,
        t: SimTime,
        s: u64,
        agent: AgentId,
        pkt: PacketRef,
    ) -> bool {
        let held = w.sinks.iter().position(|h| h.id == agent);
        // lint: allow(panic_free) -- callers pass an index into the held links
        let hl = &mut w.links[j];
        // lint: allow(panic_free) -- `position` returned an index into the held sinks
        if let Some(sink) = held.filter(|&k| w.sinks[k].link == j) {
            hl.deferred.push(Deferred { t, s, pkt, sink });
            return false;
        }
        if held.is_some() || self.sink_role_of(agent) != SinkRole::Active {
            let key = slot_key(t, s);
            let at = w.ordered.partition_point(|o| o.0 > key);
            w.ordered.insert(at, (key, agent, pkt));
            w.aux = w.aux.min(key);
        } else {
            self.events
                .push_with_seq(t, s, Event::Deliver { agent, packet: pkt });
        }
        true
    }

    /// Runs the deferred deliveries of the held link `hl` with key below
    /// `bound` through their held sinks. A delivery to a passive sink
    /// touches nothing but the sink, the arena and the delivered counter,
    /// and every sink's deferred deliveries sit in one link's queue, in
    /// key order. So the window drains them in batches, at any point at
    /// or after their due time, and always before a step that runs at
    /// its own position could observe the same sink, or halt the run,
    /// out of order. Each delivery still runs at its own instant:
    /// `ctx.now` is the delivery time, never the drain time.
    fn drain_link(&mut self, hl: &mut HeldLink, sinks: &mut [HeldSink], bound: SlotKey) -> u64 {
        let mut drained = 0;
        #[cfg(debug_assertions)]
        let before = (
            self.events.peek_entry().map(|(t, s, _)| (t, s)),
            self.halt_requested,
        );
        while let Some(&d) = hl.deferred.get(drained) {
            if slot_key(d.t, d.s) >= bound {
                break;
            }
            drained += 1;
            self.counters.delivered += 1;
            let p = self.arena.take(d.pkt);
            // lint: allow(panic_free) -- a deferred delivery names a held sink
            let sink = &mut sinks[d.sink];
            sink.agent.on_packet(&mut self.ctx(sink.id, d.t), p);
            #[cfg(debug_assertions)]
            debug_assert!(
                (
                    self.events.peek_entry().map(|(t, s, _)| (t, s)),
                    self.halt_requested
                ) == before,
                "passive sink mutated the event queue or halted the run"
            );
        }
        if drained > 0 {
            hl.deferred.drain(..drained);
        }
        drained as u64
    }

    /// [`Simulator::drain_link`] on every held link.
    fn drain_all(&mut self, w: &mut Window, bound: SlotKey) -> u64 {
        debug_assert!(
            bound <= w.aux,
            "a delivery that runs at its own position is overdue"
        );
        let mut drained = 0;
        for hl in &mut w.links {
            if hl
                .deferred
                .first()
                .is_some_and(|d| slot_key(d.t, d.s) < bound)
            {
                drained += self.drain_link(hl, &mut w.sinks, bound);
            }
        }
        drained
    }

    /// One delivery the window runs at its own position (the clock
    /// already reads its time, and the deferred deliveries before it
    /// have drained): to a held sink through its box, to any other
    /// recording sink through the agent table.
    fn deliver_in_place(&mut self, w: &mut Window, agent: AgentId, packet: PacketRef) {
        self.counters.delivered += 1;
        let p = self.arena.take(packet);
        if let Some(sink) = w.sinks.iter_mut().find(|h| h.id == agent) {
            sink.agent.on_packet(&mut self.ctx(agent, self.time), p);
            return;
        }
        #[cfg(debug_assertions)]
        let head = self.events.peek_entry().map(|(t, s, _)| (t, s));
        self.dispatch_agent(agent, AgentCall::Packet(p));
        #[cfg(debug_assertions)]
        debug_assert!(
            self.events.peek_entry().map(|(t, s, _)| (t, s)) == head,
            "recording sink mutated the event queue"
        );
    }

    /// The ordered delivery at `w.aux`, due before everything else
    /// pending (the clock is not yet set), and the events it popped. It
    /// does not touch the queue. Out of line, so the cross traffic's
    /// cycle stays a tight loop, and the tallies come back by value, so
    /// the window's own stay out of memory the step could write.
    #[inline(never)]
    fn window_ordered(&mut self, w: &mut Window) -> u64 {
        let key = w.aux;
        self.time = slot_time(key);
        let popped = 1 + self.drain_all(w, key);
        // lint: allow(panic_free) -- `aux` is the key of the last ordered delivery
        let (_, agent, pkt) = w.ordered.pop().expect("an ordered delivery at `aux`");
        w.aux = w.ordered.last().map_or(SLOT_EMPTY, |o| o.0);
        self.deliver_in_place(w, agent, pkt);
        popped
    }

    /// The real head `(rt, key, event)`, due before everything the
    /// window holds: absorbs it when the window can, and returns the
    /// step's tallies if it did. Out of line, so the cross traffic's
    /// cycle stays a tight loop.
    #[inline(never)]
    fn window_absorb(
        &mut self,
        w: &mut Window,
        rt: SimTime,
        key: SlotKey,
        event: Event,
    ) -> Option<Tally> {
        // every absorbed event is one the per-event loop would pop
        let mut tally = Tally {
            popped: 1,
            ..Tally::default()
        };
        match event {
            Event::Deliver { agent, packet } => {
                // a delivery to a recording sink runs at its own
                // position; one to an active agent closes the window
                if !w.sinks.iter().any(|h| h.id == agent)
                    && self.sink_role_of(agent) == SinkRole::Active
                {
                    return None;
                }
                self.events.pop();
                self.time = rt;
                tally.popped += self.drain_all(w, key);
                self.deliver_in_place(w, agent, packet);
            }
            Event::Arrive { packet } => {
                // an arrival that survives the hop, at a link the window
                // holds or may hold: offered as `handle_arrive` would
                let p = self.arena.get(packet);
                // lint: allow(panic_free) -- an arrival's hop is below its path length
                let link = self.paths[p.path.0][p.hop as usize];
                if p.ttl <= 1 {
                    return None;
                }
                let j = self.try_hold(w, link)?;
                self.events.pop();
                self.time = rt;
                self.window_arrive(w, j, packet, rt, &mut tally);
            }
            Event::TxDone { link } => {
                let j = self.try_hold(w, link)?;
                // lint: allow(panic_free) -- `try_hold` returned an index into the held links
                debug_assert!(w.links[j].tx_done == SLOT_EMPTY, "link serving twice");
                self.events.pop();
                self.time = rt;
                // the caller re-reads the real head after an absorbed event
                self.window_tx_done(w, j, rt, key, &mut tally);
            }
            Event::Timer { agent, token } => {
                // A timer of an agent whose box is out of the table (a
                // held sink's) closes the window.
                // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
                let a = self.agents[agent.0].as_mut()?;
                let lane = a
                    .fluid_route()
                    .and_then(|r| Some((r, self.lane_link(&r, &w.sinks)?)));
                if let Some((route, link)) = lane {
                    // A fluid-safe source joins the window as a lane.
                    // lint: allow(panic_free) -- agent ids are simulator-issued and index its own table
                    let a = self.agents[agent.0].take()?;
                    self.events.pop();
                    self.time = rt;
                    self.adopt(w, agent, a, route, link, token);
                } else {
                    // Any other timer runs here, as the per-event loop
                    // would run it: it reaches only its own agent and
                    // the queue, never what the window holds back. A
                    // probe stream's launch pushes its first packet's
                    // timer, and a packet timer of a stream that cannot
                    // be a lane pushes its arrival, which the window
                    // then offers to the link like any other.
                    self.events.pop();
                    self.time = rt;
                    tally.popped += self.drain_all(w, key);
                    self.dispatch_agent(agent, AgentCall::Timer(token));
                }
            }
        }
        Some(tally)
    }

    /// The fluid fast-forward window: runs fluid sources' packets
    /// through their first links and into their sinks, and the packets
    /// of everything else on those links hop by hop, without queue
    /// round-trips.
    ///
    /// The window is a set of *lanes* and *held links*. A lane is one
    /// adopted fluid source: its timer fires and its packets' arrivals at
    /// its first link, and for a cross source the deferred deliveries to
    /// its sink. A held link is one whose transmission completions the
    /// window runs. The window opens with one lane, adopts every
    /// fluid-safe source whose timer reaches the head of the queue,
    /// retires a lane once its source stops re-arming and its last
    /// arrival has run (a probe stream after its last packet), and holds
    /// every link a lane or a carried packet reaches, unless it has
    /// jitter, reorder or flaps. A probe lane's timer keys carry numbers
    /// its stream's launch reserved: each is older than every event
    /// allocated after the launch, exactly as when the launch pushed a
    /// timer per packet, so ties with cross fires and completions break
    /// as in the per-event loop.
    /// Virtual events are processed in exact merged `(time, seq)` order
    /// against the real queue, calling the same link/sink/counter
    /// mutations at the same timestamps the per-event loop would: each
    /// step picks the earliest of the lanes' earliest keys, the held
    /// links' completions, the ordered deliveries and the real head.
    ///
    /// From the real queue the window absorbs other agents' timers (run
    /// in place, a probe stream's launch among them), arrivals at links
    /// it holds or may hold, their transmission completions, and
    /// deliveries to recording sinks. A packet a held link serves that
    /// travels on goes back into the queue as its next hop's arrival,
    /// and the window absorbs it when it is due. Deliveries to a lane's
    /// passive sink are deferred and drained in batches; a delivery to
    /// any other recording sink runs at its own position, because it may
    /// halt: the window then closes with the clock at that delivery,
    /// having run every event before it and none after, as the per-event
    /// loop would. The window also closes when a real event it cannot
    /// absorb becomes due, the run deadline is reached, or nothing
    /// virtual is pending; any still-pending virtual events are then
    /// materialised into the queue under their originally allocated
    /// sequence numbers.
    fn fluid_window(
        &mut self,
        src: AgentId,
        agent: Box<dyn Agent>,
        route: FluidRoute,
        link: LinkId,
        token: u64,
    ) {
        let deadline = self.run_deadline;
        let mut w = std::mem::take(&mut self.window);
        w.open(self.links.len());
        prof::count(Cost::FluidWindows);
        // Local tallies, flushed once per window (the per-event
        // thread-local increments would dominate the saved work).
        let mut tally = Tally::default();

        // the initiating timer was popped (and counted) by the main loop
        self.adopt(&mut w, src, agent, route, link, token);

        // The head of the real queue, re-read only after an operation
        // that can change it: a pop, an agent dispatch, or a push by a
        // completion. `limit` sorts after every event due by the
        // deadline and before every later one. `other` is the earliest
        // of the real head, the ordered deliveries and `limit`, so a
        // step pays one comparison for all three.
        let limit = slot_key(deadline, u64::MAX);
        let mut next_real = self.events.peek_entry();
        let mut real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
        let mut other = real_key.min(w.aux).min(limit);
        loop {
            // `vk`: the earliest key of the lanes and held links, and
            // `next` what runs at it
            let Node { key: vk, next } = w.slots.top();

            if other <= vk {
                // the deadline comes first, or nothing is pending
                if other == limit {
                    break;
                }
                if w.aux < real_key {
                    tally.popped += self.window_ordered(&mut w);
                } else {
                    let Some((rt, _, event)) = next_real else {
                        break;
                    };
                    // Nothing virtual pending: leftover deliveries
                    // materialise below.
                    if vk == SLOT_EMPTY && w.aux == SLOT_EMPTY {
                        break;
                    }
                    let Some(t) = self.window_absorb(&mut w, rt, real_key, event) else {
                        break;
                    };
                    tally.popped += t.popped;
                    tally.arrivals += t.arrivals;
                    tally.qops += t.qops;
                    next_real = self.events.peek_entry();
                    real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
                }
                if self.halt_requested {
                    break;
                }
                other = real_key.min(w.aux).min(limit);
                continue;
            }
            // below `limit`: pending, and due by the deadline
            let vt = slot_time(vk);
            self.time = vt;
            tally.popped += 1; // EventsPopped parity with the per-event loop
            match next {
                Next::Fire(i) => {
                    // lint: allow(panic_free) -- a lane's slot names its index
                    let lane = &mut w.lanes[i];
                    self.lane_fire(lane, vt);
                    // The arrival the fire just created sits at this same
                    // instant, and its sequence number is larger than any
                    // event allocated before it — so unless some other
                    // event lands on exactly this nanosecond (which would
                    // carry a smaller seq and sort first), the arrival is
                    // provably the next selection. Process it inline and
                    // save a selection round trip. The lane's slot moves
                    // to its re-armed timer first, so the root is the
                    // earliest key but the arrival's (a timer re-armed on
                    // this nanosecond only makes the check conservative).
                    w.slots.set_key(lane.slot, lane.timer);
                    let t_hi = vk & KEY_TIME;
                    let stopped = lane.timer == SLOT_EMPTY;
                    if lane.arrive != SLOT_EMPTY
                        && w.slots.top().key & KEY_TIME != t_hi
                        && other & KEY_TIME != t_hi
                    {
                        let (j, packet) = (lane.link, lane.arrive_ref);
                        lane.arrive = SLOT_EMPTY;
                        tally.popped += 1; // the elided selection still counts
                        self.window_arrive(&mut w, j, packet, vt, &mut tally);
                        if stopped {
                            self.retire(&mut w, i);
                        }
                    } else if stopped && lane.arrive == SLOT_EMPTY {
                        self.retire(&mut w, i);
                    } else {
                        let (key, next) = lane.next_slot(i);
                        w.slots.set(lane.slot, key, next);
                    }
                }
                Next::Arrive(i) => {
                    // lint: allow(panic_free) -- a lane's slot names its index
                    let lane = &mut w.lanes[i];
                    let (j, packet) = (lane.link, lane.arrive_ref);
                    lane.arrive = SLOT_EMPTY;
                    let stopped = lane.timer == SLOT_EMPTY;
                    w.slots.set(lane.slot, lane.timer, Next::Fire(i));
                    self.window_arrive(&mut w, j, packet, vt, &mut tally);
                    if stopped {
                        self.retire(&mut w, i);
                    }
                }
                Next::TxDone(j) => {
                    if self.window_tx_done(&mut w, j, vt, vk, &mut tally) {
                        next_real = self.events.peek_entry();
                        real_key = next_real.map_or(SLOT_EMPTY, |(t, s, _)| slot_key(t, s));
                        other = real_key.min(w.aux).min(limit);
                    }
                }
            }
        }
        self.close_window(w, tally);
    }

    /// Closes a window: drains the deferred deliveries already behind
    /// the clock (the real loop must never pop an event in its past),
    /// hands the lanes' and sinks' boxes back to the agent table, and
    /// materialises what the window didn't get to — under the seqs the
    /// events would have carried had they never been elided. Deferred
    /// deliveries at or after `self.time` are processed by the real loop
    /// in exact order. After a halt, every deferred delivery before the
    /// halting step has drained already.
    fn close_window(&mut self, mut w: Window, mut tally: Tally) {
        let bound = (self.time.as_nanos() as u128) << 64;
        tally.popped += self.drain_all(&mut w, bound);
        for sink in w.sinks.drain(..) {
            // lint: allow(panic_free) -- restoring a box the window took; same id
            self.agents[sink.id.0] = Some(sink.agent);
        }
        let mut materialise = |key: SlotKey, event: Event| {
            if key != SLOT_EMPTY {
                self.events.push_with_seq(slot_time(key), key as u64, event);
            }
        };
        for lane in w.lanes.drain(..) {
            materialise(
                lane.timer,
                Event::Timer {
                    agent: lane.id,
                    token: lane.token,
                },
            );
            materialise(
                lane.arrive,
                Event::Arrive {
                    packet: lane.arrive_ref,
                },
            );
            // lint: allow(panic_free) -- restoring a box the window took; same id
            self.agents[lane.id.0] = Some(lane.agent);
        }
        for mut hl in w.links.drain(..) {
            materialise(hl.tx_done, Event::TxDone { link: hl.id });
            for d in hl.deferred.drain(..) {
                let agent = self.arena.get(d.pkt).dst;
                materialise(
                    slot_key(d.t, d.s),
                    Event::Deliver {
                        agent,
                        packet: d.pkt,
                    },
                );
            }
            // lint: allow(panic_free) -- the window sized `held` to the link table at open
            w.held[hl.id.0] = NOT_HELD;
            w.spare.push(hl.deferred);
        }
        for (key, agent, packet) in w.ordered.drain(..) {
            materialise(key, Event::Deliver { agent, packet });
        }
        w.slots.clear();
        w.aux = SLOT_EMPTY;
        self.window = w;
        prof::count_n(Cost::EventsPopped, tally.popped);
        prof::count_n(Cost::PacketsSimulated, tally.arrivals);
        prof::count_n(Cost::FluidPackets, tally.arrivals);
        prof::count_n(Cost::QueueOps, tally.qops);
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

/// Deferred deliveries drain in batches of roughly this many per link
/// (see [`Simulator::drain_link`]); the threshold bounds the queue while
/// keeping drains rare enough to amortise.
const DELIVER_DRAIN: usize = 32;

/// [`Window::held`] of a link the window does not hold.
const NOT_HELD: usize = usize::MAX;

/// [`Hint::dst`] of a link no held sink is bound to yet.
const NO_AGENT: AgentId = AgentId(usize::MAX);

/// Cost tallies of one window, flushed into the `prof` counters when it
/// closes.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Events processed, virtual or absorbed (`Cost::EventsPopped`).
    popped: u64,
    /// Arrivals offered to held links (`Cost::PacketsSimulated` and
    /// `Cost::FluidPackets`).
    arrivals: u64,
    /// Accepted enqueues and completed transmissions (`Cost::QueueOps`).
    qops: u64,
}

/// The window's pending events: one slot per lane (its earliest key)
/// and one per held link (its pending completion), under a tournament
/// tree. Each inner node holds the earlier of its two subtrees' nodes,
/// so picking the next event reads the root, and a slot whose key
/// changes replays only the `log n` matches on its way up: a window of
/// 24 lanes picks almost as cheaply as a window of one.
#[derive(Default)]
struct Slots {
    /// Node `n` of the tree: the leaf of slot `s` is node `cap + s`
    /// ([`VACANT`] for a leaf without a slot), and an inner node `1..cap`
    /// holds the winner of nodes `2n` and `2n + 1`. Entry 0 is unused.
    tree: Vec<Node>,
    /// Slots in use.
    len: usize,
    /// Leaves: 0 before the first slot, then a power of two, at least 2
    /// and at least the slot count. Kept between windows.
    cap: usize,
}

/// A node of the [`Slots`] tree: a key and what runs at it.
#[derive(Clone, Copy)]
struct Node {
    key: SlotKey,
    next: Next,
}

/// The leaf of no slot. Its key is empty, so it never runs: the window
/// stops when the earliest key is empty.
const VACANT: Node = Node {
    key: SLOT_EMPTY,
    next: Next::TxDone(NOT_HELD),
};

impl Slots {
    /// Adds an empty slot that runs `next`, and returns it.
    fn push(&mut self, next: Next) -> usize {
        let slot = self.len;
        self.len += 1;
        if slot >= self.cap {
            // double the leaves in place: the old leaves move up to the
            // new leaf row, the new ones start vacant, and every inner
            // match is replayed
            let old = self.cap;
            self.cap = (2 * old).max(2);
            self.tree.resize(2 * self.cap, VACANT);
            self.tree.copy_within(old..2 * old, self.cap);
            self.tree
                .iter_mut()
                .skip(self.cap + old)
                .for_each(|l| *l = VACANT);
            for n in (1..self.cap).rev() {
                self.play(n);
            }
        }
        self.set(slot, SLOT_EMPTY, next);
        slot
    }

    /// Replays the match at inner node `n`; ties (two empty keys) go to
    /// the left.
    #[inline(always)]
    fn play(&mut self, n: usize) {
        // lint: allow(panic_free) -- inner nodes are below `cap`, and `tree` has `2 cap` entries
        let (a, b) = (self.tree[2 * n], self.tree[2 * n + 1]);
        // lint: allow(panic_free) -- inner nodes are below `cap`, and `tree` has `2 cap` entries
        self.tree[n] = if b.key < a.key { b } else { a };
    }

    /// The earliest pending key and what runs at it; an empty key when
    /// none is pending. With two leaves, the one match is played here
    /// rather than on every update: a window of one lane on one link
    /// picks as its single-source ancestor did.
    #[inline(always)]
    fn top(&self) -> Node {
        // lint: allow(panic_free) -- a slice pattern over the full range, not an index
        if let [_, _, a, b] = self.tree[..] {
            return if b.key < a.key { b } else { a };
        }
        self.tree.get(1).copied().unwrap_or(VACANT)
    }

    /// Sets the key of `slot` and what it runs.
    #[inline(always)]
    fn set(&mut self, slot: usize, key: SlotKey, next: Next) {
        // lint: allow(panic_free) -- slots come from `push`, and a slot's leaf is below `2 cap`
        self.tree[self.cap + slot].next = next;
        self.set_key(slot, key);
    }

    /// Sets the key of `slot` and replays its matches up to the root:
    /// at each level the new winner of the slot's side meets the winner
    /// of the sibling subtree.
    #[inline(always)]
    fn set_key(&mut self, slot: usize, key: SlotKey) {
        let mut n = self.cap + slot;
        // lint: allow(panic_free) -- slots come from `push`, and a slot's leaf is below `2 cap`
        self.tree[n].key = key;
        if self.cap <= 2 {
            return;
        }
        // lint: allow(panic_free) -- as above
        let mut win = self.tree[n];
        while n > 1 {
            // lint: allow(panic_free) -- a node on a leaf's way up, below `2 cap`
            let sibling = self.tree[n ^ 1];
            win = if sibling.key < win.key { sibling } else { win };
            n /= 2;
            // lint: allow(panic_free) -- a node on a leaf's way up, below `2 cap`
            self.tree[n] = win;
        }
    }

    /// Removes `slot`, moving the last slot into its place, and halves
    /// the leaves while no more than half are in use. Returns what the
    /// moved slot runs, so that its owner learns its new index, unless
    /// `slot` was the last.
    fn remove(&mut self, slot: usize) -> Option<Next> {
        self.len -= 1;
        let last = self.len;
        // lint: allow(panic_free) -- the last slot's leaf is below `2 cap`
        let node = self.tree[self.cap + last];
        self.set(last, VACANT.key, VACANT.next);
        let moved = (slot != last).then(|| {
            self.set(slot, node.key, node.next);
            node.next
        });
        while self.cap > 2 && self.len <= self.cap / 2 {
            // the leaves in use move down a row and the inner matches are
            // replayed
            let old = self.cap;
            self.cap /= 2;
            self.tree.copy_within(old..old + self.cap, self.cap);
            self.tree.truncate(2 * self.cap);
            for n in (1..self.cap).rev() {
                self.play(n);
            }
        }
        moved
    }

    /// Empties every slot, keeping the tree's size: the next window
    /// usually has the same shape.
    fn clear(&mut self) {
        self.tree.fill(VACANT);
        self.len = 0;
    }
}

/// What a slot runs, with the index of its lane or held link.
#[derive(Clone, Copy)]
enum Next {
    /// The lane's timer fire.
    Fire(usize),
    /// The arrival of the lane's packet at its link.
    Arrive(usize),
    /// The held link's transmission completion.
    TxDone(usize),
}

/// A lane: one fluid source the window adopted, a cross source or a
/// probe stream. Its structure bounds its virtual events exactly: at
/// most one pending timer fire (it re-arms at most once per packet) and
/// one arrival (created at the fire instant and consumed before the next
/// fire: a cross source re-arms under a number taken after the
/// arrival's, and a probe stream re-arms later than the send instant, or
/// stays off the lanes).
struct Lane {
    id: AgentId,
    /// The source's box, out of the agent table while the window runs.
    agent: Box<dyn Agent>,
    /// Token the source's timer chain carries (re-armed unchanged).
    token: u64,
    route: FluidRoute,
    /// Index of its link among the window's held links.
    link: usize,
    /// Its slot in [`Window::slots`].
    slot: usize,
    timer: SlotKey,
    arrive: SlotKey,
    arrive_ref: PacketRef,
}

impl Lane {
    /// The earliest pending event of lane `i`: its key and what runs.
    #[inline]
    fn next_slot(&self, i: usize) -> (SlotKey, Next) {
        if self.arrive < self.timer {
            (self.arrive, Next::Arrive(i))
        } else {
            (self.timer, Next::Fire(i))
        }
    }
}

/// A link whose transmission completions the window runs: at most one
/// pending (the link serialises one packet at a time), plus the
/// deliveries of the packets it served. A FIFO link with constant
/// propagation delay, which a loss-only link is, produces its deliveries
/// in strictly increasing `(time, seq)` order, so its deferred
/// deliveries queue up in key order.
struct HeldLink {
    id: LinkId,
    prop: SimDuration,
    tx_done: SlotKey,
    /// Its slot in [`Window::slots`].
    slot: usize,
    /// The first lane on this link: its packets are deferred without a
    /// search.
    hint: Hint,
    /// Deliveries to the held sinks bound to this link, in key order:
    /// pushed once per packet and cut from the front after each drain,
    /// a vector because its `push` stays in line in the hot loop.
    deferred: Vec<Deferred>,
}

/// The path and sink of the first lane on a held link, and the sink's
/// index among the held sinks.
#[derive(Clone, Copy)]
struct Hint {
    path: PathId,
    dst: AgentId,
    sink: usize,
}

/// A lane's passive sink, whose box the window holds out of the agent
/// table, so that each delivery is a direct `on_packet` call instead of
/// the per-dispatch take/restore. Its deferred deliveries all sit in the
/// queue of one held link, in key order.
struct HeldSink {
    id: AgentId,
    agent: Box<dyn Agent>,
    /// Index of the held link whose queue holds its deferred deliveries.
    link: usize,
}

/// A delivery that runs at its own position: its key, agent and packet.
type Ordered = (SlotKey, AgentId, PacketRef);

/// A deferred delivery of a held link; the packet's `dst` names the
/// agent.
#[derive(Clone, Copy)]
struct Deferred {
    t: SimTime,
    s: u64,
    pkt: PacketRef,
    /// Index of the held sink it is deferred to.
    sink: usize,
}

/// The fluid window's lanes, held links and held sinks
/// ([`Simulator::fluid_window`]). Kept on the simulator between windows,
/// empty: taken at window open and handed back at close, so opening a
/// window allocates nothing once the vectors and queues have grown.
#[derive(Default)]
struct Window {
    lanes: Vec<Lane>,
    links: Vec<HeldLink>,
    sinks: Vec<HeldSink>,
    /// Each lane's earliest event and each held link's pending
    /// completion.
    slots: Slots,
    /// The held-link index of every simulator link, or [`NOT_HELD`].
    held: Vec<usize>,
    /// Deliveries to recording sinks other than a link's bound ones, each
    /// run at its own position, latest key first. They are few at any
    /// time (a probe stream's packets in flight on its last link), so
    /// one vector kept in order serves every held link.
    ordered: Vec<Ordered>,
    /// The earliest ordered delivery, or `SLOT_EMPTY`.
    aux: SlotKey,
    /// Deferred-delivery queues of links held by earlier windows, for
    /// reuse.
    spare: Vec<Vec<Deferred>>,
}

impl Window {
    /// Readies an empty window over a simulator of `links` links.
    fn open(&mut self, links: usize) {
        debug_assert!(
            self.lanes.is_empty()
                && self.links.is_empty()
                && self.sinks.is_empty()
                && self.ordered.is_empty(),
            "window state left over from the last window"
        );
        if self.held.len() < links {
            self.held.resize(links, NOT_HELD);
        }
        self.aux = SLOT_EMPTY;
    }

    /// Holds `link` (propagation delay `prop`) unless it is held, and
    /// returns its index.
    fn hold(&mut self, link: LinkId, prop: SimDuration) -> usize {
        // lint: allow(panic_free) -- the window sizes `held` to the link table at open
        let j = self.held[link.0];
        if j != NOT_HELD {
            return j;
        }
        let j = self.links.len();
        // lint: allow(panic_free) -- as above
        self.held[link.0] = j;
        let slot = self.slots.push(Next::TxDone(j));
        let deferred = self.spare.pop().unwrap_or_default();
        self.links.push(HeldLink {
            id: link,
            prop,
            tx_done: SLOT_EMPTY,
            slot,
            hint: Hint {
                path: PathId(usize::MAX),
                dst: NO_AGENT,
                sink: 0,
            },
            deferred,
        });
        j
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
