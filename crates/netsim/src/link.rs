//! Store-and-forward links with FIFO drop-tail queues.
//!
//! A link models an output interface: packets that arrive while the
//! interface is transmitting wait in a FIFO queue bounded in bytes.
//! Every transmission is recorded as a busy interval so that the exact
//! available bandwidth `A_tau(t) = C * (1 - u(t, t+tau))` of the link can
//! be computed afterwards (the "population" ground truth the paper's
//! Figures 1, 2 and 6 compare against).

use std::collections::VecDeque;

use crate::arena::PacketRef;
use crate::impair::{Impairment, ImpairmentConfig, IngressDecision};
use crate::invariants::invariant;
use crate::time::{transmission_time, SimDuration, SimTime};

/// Static configuration of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Transmission capacity in bits per second.
    pub capacity_bps: f64,
    /// Propagation delay to the next hop.
    pub prop_delay: SimDuration,
    /// Queue bound in bytes; `None` means unbounded.
    pub queue_bytes: Option<u64>,
}

impl LinkConfig {
    /// A link with the given capacity (bits/s) and propagation delay,
    /// and an unbounded queue.
    pub fn new(capacity_bps: f64, prop_delay: SimDuration) -> Self {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive"
        );
        LinkConfig {
            capacity_bps,
            prop_delay,
            queue_bytes: None,
        }
    }

    /// Sets the queue bound in bytes.
    pub fn with_queue_bytes(mut self, bytes: u64) -> Self {
        self.queue_bytes = Some(bytes);
        self
    }

    /// Sets the queue bound in packets of the given size.
    pub fn with_queue_packets(mut self, packets: u64, packet_size: u32) -> Self {
        self.queue_bytes = Some(packets * packet_size as u64);
        self
    }
}

/// Packet/byte counters of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Packets fully transmitted.
    pub forwarded_pkts: u64,
    /// Bytes fully transmitted.
    pub forwarded_bytes: u64,
    /// Packets dropped at the queue tail.
    pub dropped_pkts: u64,
    /// Bytes dropped at the queue tail.
    pub dropped_bytes: u64,
    /// Packets lost to an injected impairment (never entered the queue).
    pub impaired_pkts: u64,
    /// Bytes lost to an injected impairment.
    pub impaired_bytes: u64,
}

/// Merged busy intervals of a link: `(start, end)` pairs in nanoseconds,
/// non-overlapping and sorted. Back-to-back transmissions coalesce.
#[derive(Debug, Clone, Default)]
pub struct BusyLog {
    intervals: Vec<(u64, u64)>,
}

impl BusyLog {
    /// Appends a busy interval, merging with the previous one when they
    /// touch. Intervals must be appended in non-decreasing start order.
    pub fn push(&mut self, start: SimTime, end: SimTime) {
        let (s, e) = (start.as_nanos(), end.as_nanos());
        debug_assert!(s <= e, "busy interval ends before it starts");
        if let Some(last) = self.intervals.last_mut() {
            debug_assert!(s >= last.0, "busy intervals out of order");
            if s <= last.1 {
                last.1 = last.1.max(e);
                return;
            }
        }
        self.intervals.push((s, e));
    }

    /// The merged `(start_ns, end_ns)` intervals.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.intervals
    }

    /// Total recorded busy time.
    pub fn total_busy(&self) -> SimDuration {
        SimDuration::from_nanos(self.intervals.iter().map(|(s, e)| e - s).sum())
    }
}

/// The result of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was queued (or went straight into service); when
    /// `starts_service` the caller must schedule the transmission
    /// completion returned by [`Link::start_transmission`].
    Accepted { starts_service: bool },
    /// The queue was full; the packet was dropped.
    Dropped,
    /// An injected impairment lost the packet before it reached the
    /// queue (it never occupied buffer space).
    Impaired,
}

/// One queued packet: the arena handle plus the only field the link
/// itself ever reads — the wire size. Keeping the size inline lets the
/// byte ledger, the busy-period maths and `queueing_delay` run without
/// touching the arena.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    pkt: PacketRef,
    size: u32,
}

/// A store-and-forward link.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    queue: VecDeque<QueuedPacket>,
    queued_bytes: u64,
    /// Set while a packet is being serialised onto the wire.
    transmitting: bool,
    tx_started_at: SimTime,
    counters: LinkCounters,
    busy: BusyLog,
    /// Packets accepted into the queue (fuel for the `ABW_CHECK`
    /// conservation invariant: accepted = forwarded + in-queue).
    accepted_pkts: u64,
    /// Largest queue depth seen, in packets (including the one in
    /// service). Tracked unconditionally — it is two instructions.
    peak_queue_pkts: u64,
    /// Injected-fault pipeline, if any (loss/reorder/jitter/flaps).
    impairment: Option<Box<Impairment>>,
    /// Capacity the in-flight (or most recent) transmission was started
    /// at. Differs from `config.capacity_bps` only under rate flaps; the
    /// busy-period invariant must use the rate the packet was actually
    /// serialised at.
    tx_capacity_bps: f64,
    /// Memo of the last `(size, rate) → serialisation time` computation;
    /// steady streams of same-size packets skip the floating-point
    /// rounding entirely. Pure caching — hits return exactly what
    /// [`transmission_time`] would.
    tx_memo: (u32, f64, SimDuration),
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            queue: VecDeque::new(),
            queued_bytes: 0,
            transmitting: false,
            tx_started_at: SimTime::ZERO,
            counters: LinkCounters::default(),
            busy: BusyLog::default(),
            accepted_pkts: 0,
            peak_queue_pkts: 0,
            impairment: None,
            tx_capacity_bps: config.capacity_bps,
            tx_memo: (0, 0.0, SimDuration::ZERO),
        }
    }

    /// [`transmission_time`] through the one-entry memo.
    #[inline]
    fn tx_time(&mut self, size: u32, rate_bps: f64) -> SimDuration {
        let (ms, mr, md) = self.tx_memo;
        if ms == size && mr == rate_bps {
            return md;
        }
        let d = transmission_time(size, rate_bps);
        self.tx_memo = (size, rate_bps, d);
        d
    }

    /// Installs an impairment pipeline, replacing any existing one.
    /// `seed` drives this link's private RNG stream, so the decision
    /// sequence is a pure function of `(config, seed)`.
    pub fn set_impairment(&mut self, config: ImpairmentConfig, seed: u64) {
        self.impairment = Some(Box::new(Impairment::new(config, seed)));
    }

    /// The installed impairment pipeline, if any.
    pub fn impairment(&self) -> Option<&Impairment> {
        self.impairment.as_deref()
    }

    /// Extra egress delay (reorder hold + jitter) for the packet that
    /// just finished transmission. Advances the impairment RNG by one
    /// egress decision; zero when no impairment is installed.
    pub fn egress_extra(&mut self) -> SimDuration {
        self.impairment
            .as_deref_mut()
            .map_or(SimDuration::ZERO, Impairment::egress_extra)
    }

    /// The capacity the link would serialise a packet at right now:
    /// the base capacity, overridden by the active rate flap if any.
    pub fn effective_capacity_bps(&self, now: SimTime) -> f64 {
        self.impairment
            .as_deref()
            .map_or(self.config.capacity_bps, |i| {
                i.capacity_at(now, self.config.capacity_bps)
            })
    }

    /// Link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Capacity in bits per second.
    pub fn capacity_bps(&self) -> f64 {
        self.config.capacity_bps
    }

    /// Propagation delay to the next hop.
    pub fn prop_delay(&self) -> SimDuration {
        self.config.prop_delay
    }

    /// Counters snapshot.
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }

    /// Recorded busy intervals.
    pub fn busy_log(&self) -> &BusyLog {
        &self.busy
    }

    /// Largest queue depth seen so far, in packets (including the
    /// packet in service).
    pub fn peak_queue_pkts(&self) -> u64 {
        self.peak_queue_pkts
    }

    /// Bytes currently waiting (not counting the packet in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently waiting (not counting the packet in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Offers a packet (by arena handle plus wire size) to the link at
    /// time `now`.
    ///
    /// On `Accepted { starts_service: true }` the caller must immediately
    /// call [`Link::start_transmission`] and schedule its completion. On
    /// `Dropped` / `Impaired` the caller still owns the handle and must
    /// free it.
    ///
    /// Profiling contract: the link does not tally `Cost::QueueOps`
    /// itself — each caller counts one op per accepted enqueue, so the
    /// fluid fast path can batch its tallies per window instead of
    /// paying a thread-local increment per packet.
    pub fn enqueue(&mut self, pkt: PacketRef, size: u32, _now: SimTime) -> EnqueueOutcome {
        if let Some(imp) = self.impairment.as_deref_mut() {
            if imp.ingress() == IngressDecision::Lose {
                self.counters.impaired_pkts += 1;
                self.counters.impaired_bytes += size as u64;
                return EnqueueOutcome::Impaired;
            }
        }
        if let Some(limit) = self.config.queue_bytes {
            // The byte bound applies once the system holds a packet; an idle
            // link always accepts, so a packet larger than the bound can
            // still cross it.
            if !self.queue.is_empty() && self.queued_bytes + size as u64 > limit {
                self.counters.dropped_pkts += 1;
                self.counters.dropped_bytes += size as u64;
                return EnqueueOutcome::Dropped;
            }
        }
        self.queued_bytes += size as u64;
        self.queue.push_back(QueuedPacket { pkt, size });
        self.accepted_pkts += 1;
        let depth = self.queue.len() as u64;
        self.peak_queue_pkts = self.peak_queue_pkts.max(depth);
        self.check_conservation("enqueue");
        EnqueueOutcome::Accepted {
            starts_service: !self.transmitting,
        }
    }

    /// Begins serialising the head-of-line packet at `now`; returns the
    /// time the last bit leaves the interface.
    ///
    /// Panics when the queue is empty or a transmission is in progress —
    /// both indicate an event-loop bug.
    pub fn start_transmission(&mut self, now: SimTime) -> SimTime {
        assert!(!self.transmitting, "link already transmitting");
        let head_size = self
            .queue
            .front()
            // lint: allow(panic_free) -- asserted non-empty: service only starts on a queued head
            .expect("start_transmission on empty queue")
            .size;
        self.transmitting = true;
        self.tx_started_at = now;
        self.tx_capacity_bps = self.effective_capacity_bps(now);
        now + self.tx_time(head_size, self.tx_capacity_bps)
    }

    /// Completes the in-progress transmission at `now`, returning the
    /// transmitted packet. The caller forwards it and, when the return
    /// value's `next_starts_service` is true, schedules the next
    /// completion via [`Link::start_transmission`].
    ///
    /// Profiling contract: as with [`Link::enqueue`], the caller tallies
    /// the `Cost::QueueOps` unit for this dequeue (batched per window on
    /// the fluid fast path).
    pub fn finish_transmission(&mut self, now: SimTime) -> (PacketRef, bool) {
        assert!(self.transmitting, "no transmission in progress");
        self.transmitting = false;
        let head = self
            .queue
            .pop_front()
            // lint: allow(panic_free) -- asserted transmitting above; the head is on the wire
            .expect("transmission finished on empty queue");
        // busy-period bookkeeping: the completion event must fire exactly
        // one serialisation time after service began
        invariant!(
            now >= self.tx_started_at
                && now.since(self.tx_started_at)
                    == transmission_time(head.size, self.tx_capacity_bps),
            "link busy-period bookkeeping: tx of {} B started at {} but finished at {} \
             (capacity {} b/s)",
            head.size,
            self.tx_started_at,
            now,
            self.tx_capacity_bps
        );
        invariant!(
            self.queued_bytes >= head.size as u64,
            "link queue depth went negative: {} queued bytes < {} B packet leaving",
            self.queued_bytes,
            head.size
        );
        self.queued_bytes -= head.size as u64;
        self.counters.forwarded_pkts += 1;
        self.counters.forwarded_bytes += head.size as u64;
        self.busy.push(self.tx_started_at, now);
        self.check_conservation("finish_transmission");
        (head.pkt, !self.queue.is_empty())
    }

    /// `ABW_CHECK` FIFO conservation: every packet accepted into the
    /// queue is either forwarded or still queued (dropped packets never
    /// enter), and the byte ledger agrees with the queue contents.
    /// Free when disarmed — the operands are not evaluated.
    fn check_conservation(&self, site: &str) {
        invariant!(
            self.accepted_pkts == self.counters.forwarded_pkts + self.queue.len() as u64,
            "link packet conservation at {site}: accepted {} != forwarded {} + in-queue {}",
            self.accepted_pkts,
            self.counters.forwarded_pkts,
            self.queue.len()
        );
        invariant!(
            self.queued_bytes == self.queue.iter().map(|p| p.size as u64).sum::<u64>(),
            "link byte ledger at {site}: {} queued bytes != queue contents",
            self.queued_bytes
        );
        invariant!(
            !self.transmitting || !self.queue.is_empty(),
            "link busy-period bookkeeping at {site}: transmitting with an empty queue"
        );
    }

    /// Instantaneous queueing delay a newly arriving packet would see:
    /// remaining service time of the packet on the wire plus serialisation
    /// of everything queued behind it.
    pub fn queueing_delay(&self, now: SimTime) -> SimDuration {
        let rate = self.effective_capacity_bps(now);
        let mut ns = 0u64;
        if self.transmitting {
            // lint: allow(panic_free) -- transmitting implies a head packet on the wire
            let head = self.queue.front().expect("transmitting without head");
            // the in-flight packet drains at the rate it was started at
            let done = self.tx_started_at + transmission_time(head.size, self.tx_capacity_bps);
            ns += done.saturating_since(now).as_nanos();
            for p in self.queue.iter().skip(1) {
                ns += transmission_time(p.size, rate).as_nanos();
            }
        } else {
            for p in self.queue.iter() {
                ns += transmission_time(p.size, rate).as_nanos();
            }
        }
        SimDuration::from_nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::{AgentId, FlowId, Packet, PacketKind, PathId, DEFAULT_TTL};

    fn pkt(size: u32, seq: u64) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(0),
            src: AgentId(0),
            dst: AgentId(1),
            path: PathId(0),
            hop: 0,
            size,
            seq,
            sent_at: SimTime::ZERO,
            ttl: DEFAULT_TTL,
            kind: PacketKind::Data,
        }
    }

    /// Allocates a packet and offers it to the link.
    fn offer(
        l: &mut Link,
        a: &mut PacketArena,
        size: u32,
        seq: u64,
        now: SimTime,
    ) -> EnqueueOutcome {
        let r = a.alloc(pkt(size, seq));
        let out = l.enqueue(r, size, now);
        if !matches!(out, EnqueueOutcome::Accepted { .. }) {
            a.take(r); // dropped/impaired packets are freed by the caller
        }
        out
    }

    fn test_link() -> Link {
        // 12 Mb/s: a 1500 B packet takes exactly 1 ms
        Link::new(LinkConfig::new(12e6, SimDuration::from_millis(1)))
    }

    #[test]
    fn single_packet_service() {
        let mut l = test_link();
        let mut a = PacketArena::new();
        let t0 = SimTime::ZERO;
        match offer(&mut l, &mut a, 1500, 0, t0) {
            EnqueueOutcome::Accepted { starts_service } => assert!(starts_service),
            _ => panic!("accept expected"),
        }
        let done = l.start_transmission(t0);
        assert_eq!(done, SimTime::from_nanos(1_000_000));
        let (r, more) = l.finish_transmission(done);
        assert_eq!(a.take(r).size, 1500);
        assert!(!more);
        assert_eq!(l.counters().forwarded_pkts, 1);
        assert_eq!(l.busy_log().total_busy(), SimDuration::from_millis(1));
    }

    #[test]
    fn fifo_order_and_backlog() {
        let mut l = test_link();
        let mut a = PacketArena::new();
        let t0 = SimTime::ZERO;
        assert_eq!(
            offer(&mut l, &mut a, 1500, 1, t0),
            EnqueueOutcome::Accepted {
                starts_service: true
            }
        );
        let done1 = l.start_transmission(t0);
        assert_eq!(
            offer(&mut l, &mut a, 1500, 2, t0),
            EnqueueOutcome::Accepted {
                starts_service: false
            }
        );
        let (r1, more) = l.finish_transmission(done1);
        assert_eq!(a.take(r1).seq, 1);
        assert!(more);
        let done2 = l.start_transmission(done1);
        let (r2, more) = l.finish_transmission(done2);
        assert_eq!(a.take(r2).seq, 2);
        assert!(!more);
        // back-to-back transmissions merge into one busy interval
        assert_eq!(l.busy_log().intervals().len(), 1);
        assert_eq!(l.busy_log().total_busy(), SimDuration::from_millis(2));
    }

    #[test]
    fn drop_tail() {
        let cfg = LinkConfig::new(12e6, SimDuration::ZERO).with_queue_bytes(3000);
        let mut l = Link::new(cfg);
        let mut a = PacketArena::new();
        let t0 = SimTime::ZERO;
        assert!(matches!(
            offer(&mut l, &mut a, 1500, 0, t0),
            EnqueueOutcome::Accepted { .. }
        ));
        l.start_transmission(t0);
        assert!(matches!(
            offer(&mut l, &mut a, 1500, 1, t0),
            EnqueueOutcome::Accepted { .. }
        ));
        // third packet exceeds the 3000 B bound
        assert_eq!(offer(&mut l, &mut a, 1500, 2, t0), EnqueueOutcome::Dropped);
        assert_eq!(l.counters().dropped_pkts, 1);
        assert_eq!(l.counters().dropped_bytes, 1500);
        assert_eq!(a.in_flight(), 2, "dropped packet was freed by the caller");
    }

    #[test]
    fn queueing_delay_accumulates() {
        let mut l = test_link();
        let mut a = PacketArena::new();
        let t0 = SimTime::ZERO;
        assert_eq!(l.queueing_delay(t0), SimDuration::ZERO);
        offer(&mut l, &mut a, 1500, 0, t0);
        l.start_transmission(t0);
        offer(&mut l, &mut a, 1500, 1, t0);
        // one full packet on the wire + one queued = 2 ms
        assert_eq!(l.queueing_delay(t0), SimDuration::from_millis(2));
        // halfway through the first transmission: 1.5 ms remain
        let mid = t0 + SimDuration::from_micros(500);
        assert_eq!(l.queueing_delay(mid), SimDuration::from_micros(1500));
    }

    #[test]
    fn busy_log_merges_only_contiguous() {
        let mut log = BusyLog::default();
        log.push(SimTime::from_nanos(0), SimTime::from_nanos(10));
        log.push(SimTime::from_nanos(10), SimTime::from_nanos(20));
        log.push(SimTime::from_nanos(30), SimTime::from_nanos(40));
        assert_eq!(log.intervals(), &[(0, 20), (30, 40)]);
        assert_eq!(log.total_busy(), SimDuration::from_nanos(30));
    }

    #[test]
    #[should_panic]
    fn double_start_panics() {
        let mut l = test_link();
        let mut a = PacketArena::new();
        offer(&mut l, &mut a, 100, 0, SimTime::ZERO);
        l.start_transmission(SimTime::ZERO);
        l.start_transmission(SimTime::ZERO);
    }

    #[test]
    fn impairment_loss_bypasses_queue() {
        let mut l = test_link();
        let mut a = PacketArena::new();
        l.set_impairment(ImpairmentConfig::iid_loss(1.0), 1);
        assert_eq!(
            offer(&mut l, &mut a, 1500, 0, SimTime::ZERO),
            EnqueueOutcome::Impaired
        );
        let c = l.counters();
        assert_eq!(c.impaired_pkts, 1);
        assert_eq!(c.impaired_bytes, 1500);
        assert_eq!(c.dropped_pkts, 0, "impairment loss is not a queue drop");
        assert_eq!(l.queue_len(), 0, "lost packet never occupies the queue");
        assert_eq!(a.in_flight(), 0, "lost packet was freed by the caller");
    }

    #[test]
    fn capacity_flap_changes_service_time() {
        // base 12 Mb/s (1500 B = 1 ms), flapped to 6 Mb/s at t = 10 ms
        let mut l = test_link();
        let mut a = PacketArena::new();
        l.set_impairment(
            ImpairmentConfig::none().with_flap(SimTime::from_nanos(10_000_000), 6e6),
            0,
        );
        let t0 = SimTime::ZERO;
        offer(&mut l, &mut a, 1500, 0, t0);
        let done = l.start_transmission(t0);
        assert_eq!(done.since(t0), SimDuration::from_millis(1));
        l.finish_transmission(done);

        let t1 = SimTime::from_nanos(20_000_000);
        offer(&mut l, &mut a, 1500, 1, t1);
        let done = l.start_transmission(t1);
        assert_eq!(done.since(t1), SimDuration::from_millis(2), "half rate");
        // busy-period invariant must hold at the flapped rate
        crate::invariants::arm();
        l.finish_transmission(done);
    }
}
