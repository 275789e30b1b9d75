//! The discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated
//! time resolve in insertion order, which makes every run bit-identical
//! for a given seed — a property the integration tests assert.
//!
//! The queue is a calendar queue: a ring of fixed-width time buckets
//! plus an overflow heap for events beyond the ring's horizon. Compared
//! to the original `BinaryHeap` (kept below as `baseline::BaselineQueue`
//! for the equivalence property test), entries stay put in their bucket
//! instead of being sifted on every operation, empty stretches of
//! simulated time are skipped a 64-bucket word at a time, and a cached
//! minimum makes the peek-then-pop pattern of the simulator's event loop
//! cost one bucket scan per event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use abw_obs::prof::{self, Cost};

use crate::arena::PacketRef;
use crate::packet::{AgentId, LinkId};
use crate::time::SimTime;

/// A scheduled occurrence.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// `packet` arrives at the input of the link `packet.path[packet.hop]`.
    Arrive { packet: PacketRef },
    /// The link finishes serialising its head-of-line packet.
    TxDone { link: LinkId },
    /// An agent timer fires; `token` is the value the agent scheduled.
    Timer { agent: AgentId, token: u64 },
    /// `packet` is handed to its destination agent.
    Deliver { agent: AgentId, packet: PacketRef },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry surfaces.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Bucket width: `2^18` ns ≈ 262 µs. Packet service times and probe
/// gaps in the paper's scenarios are tens to hundreds of microseconds,
/// so a bucket holds a handful of events at steady state.
const BUCKET_SHIFT: u32 = 18;
/// Ring size (must be a power of two). `256 × 262 µs ≈ 67 ms` of
/// horizon — propagation delays and probe-stream pauses fit; only
/// coarse experiment timers land in the overflow heap.
const BUCKETS: usize = 256;
const BUCKET_MASK: u64 = BUCKETS as u64 - 1;
/// Occupancy bitmap words (64 buckets per word).
const WORDS: usize = BUCKETS / 64;

/// Where the cached minimum entry currently lives.
#[derive(Debug, Clone, Copy)]
enum MinLoc {
    /// `buckets[idx][pos]`.
    Ring { idx: usize, pos: usize },
    /// Top of the overflow heap.
    Overflow,
}

#[derive(Debug, Clone, Copy)]
struct CachedMin {
    time: SimTime,
    seq: u64,
    loc: MinLoc,
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue {
    /// Ring buckets; bucket `i` holds entries of exactly one "day"
    /// (`time >> BUCKET_SHIFT`) congruent to `i` modulo [`BUCKETS`].
    buckets: Vec<Vec<Entry>>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occupied: [u64; WORDS],
    /// Events beyond the ring horizon at push time.
    overflow: BinaryHeap<Entry>,
    /// Day of the most recently popped event. All pending entries have
    /// `day >= cursor_day`, and every ring bucket therefore holds at
    /// most one distinct day — the proof is in DESIGN.md §16.
    cursor_day: u64,
    /// Entries currently in the ring (not counting `overflow`).
    ring_len: usize,
    /// Total pending entries.
    len: usize,
    /// Next insertion sequence number.
    seq: u64,
    /// Lazily computed earliest entry; invalidated by [`EventQueue::pop`],
    /// kept exact by pushes (a new entry either beats the cached minimum
    /// and replaces it, or cannot be the minimum).
    cached_min: Option<CachedMin>,
    /// Reserved blocks with numbers left to schedule: owner, next
    /// number, end (debug builds only, for [`EventQueue::claim`]).
    #[cfg(debug_assertions)]
    reserved: Vec<(AgentId, u64, u64)>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            cursor_day: 0,
            ring_len: 0,
            len: 0,
            seq: 0,
            cached_min: None,
            #[cfg(debug_assertions)]
            reserved: Vec::new(),
        }
    }
}

#[inline]
fn day_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { time, seq, event });
    }

    /// Allocates and returns the sequence number the next [`EventQueue::push`]
    /// would use, without storing anything. The simulator's fluid burst
    /// path uses this to keep later tie-breaks bit-identical when an
    /// event's push/pop round-trip is elided entirely.
    #[inline]
    pub(crate) fn consume_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `time` under a sequence number previously
    /// allocated with [`EventQueue::consume_seq`] — the fluid burst path
    /// materialising a virtual event back into the queue.
    #[inline]
    pub(crate) fn push_with_seq(&mut self, time: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.seq, "sequence number was never allocated");
        self.insert(Entry { time, seq, event });
    }

    /// Reserves the next `n` sequence numbers, exactly the numbers `n`
    /// pushes would take now, as one block for `owner`'s timers, and
    /// returns the first. The owner schedules them later, one at a time
    /// and in order ([`EventQueue::push_reserved`]): pushed no earlier
    /// than its predecessor pops, with a key above its predecessor's, a
    /// reserved timer pops exactly where it would had all `n` been
    /// pushed at once.
    pub(crate) fn reserve(&mut self, owner: AgentId, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        #[cfg(debug_assertions)]
        if n > 0 {
            self.reserved.push((owner, first, first + n));
        }
        let _ = owner;
        first
    }

    /// Schedules `agent`'s timer `token` at `time` under the reserved
    /// number `seq` ([`EventQueue::reserve`]).
    pub(crate) fn push_reserved(&mut self, time: SimTime, seq: u64, agent: AgentId, token: u64) {
        self.claim(agent, seq);
        let event = Event::Timer { agent, token };
        self.insert(Entry { time, seq, event });
    }

    /// Marks the reserved number `seq` as scheduled by `owner`, checking
    /// (in debug builds) that `owner` reserved it, that it is the next
    /// unscheduled number of its block, and so that each number is
    /// scheduled at most once, in order. The fluid window claims a lane's
    /// re-armed timer here when it keeps the timer as a virtual event.
    #[inline]
    pub(crate) fn claim(&mut self, owner: AgentId, seq: u64) {
        #[cfg(debug_assertions)]
        {
            let k = self
                .reserved
                .iter()
                .position(|&(_, next, end)| (next..end).contains(&seq))
                // lint: allow(panic_free) -- a debug-build check of the reservation contract
                .expect("a reserved number was scheduled twice or never reserved");
            // lint: allow(panic_free) -- `position` returned an index into the blocks
            let block = &mut self.reserved[k];
            assert!(
                block.0 == owner,
                "a reserved number scheduled by another agent"
            );
            assert!(block.1 == seq, "reserved numbers scheduled out of order");
            block.1 += 1;
            if block.1 == block.2 {
                self.reserved.swap_remove(k);
            }
        }
        let _ = (owner, seq);
    }

    #[inline]
    fn insert(&mut self, entry: Entry) {
        self.len += 1;
        let day = day_of(entry.time);
        let loc = if day < self.cursor_day + BUCKETS as u64 {
            let idx = (day & BUCKET_MASK) as usize;
            // lint: allow(panic_free) -- idx is masked to BUCKETS-1 by construction
            let bucket = &mut self.buckets[idx];
            debug_assert!(
                bucket.iter().all(|e| day_of(e.time) == day),
                "calendar bucket mixes days"
            );
            let pos = bucket.len();
            bucket.push(entry);
            // lint: allow(panic_free) -- idx < BUCKETS, so idx/64 < WORDS
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.ring_len += 1;
            MinLoc::Ring { idx, pos }
        } else {
            self.overflow.push(entry);
            MinLoc::Overflow
        };
        if let Some(m) = self.cached_min {
            // A new entry either beats the cached minimum and replaces it,
            // or cannot be the minimum; ring positions stay valid because
            // pushes only append and removal invalidates the cache.
            if (entry.time, entry.seq) < (m.time, m.seq) {
                self.cached_min = Some(CachedMin {
                    time: entry.time,
                    seq: entry.seq,
                    loc,
                });
            }
        }
    }

    /// Finds (and caches) the earliest entry without removing it.
    fn find_min(&mut self) -> Option<CachedMin> {
        if let Some(m) = self.cached_min {
            return Some(m);
        }
        if self.len == 0 {
            return None;
        }
        let ring = if self.ring_len > 0 {
            let idx = self.first_occupied_from((self.cursor_day & BUCKET_MASK) as usize);
            // lint: allow(panic_free) -- first_occupied_from returns a bucket index < BUCKETS
            let bucket = &self.buckets[idx];
            debug_assert!(!bucket.is_empty(), "occupancy bit set on empty bucket");
            let mut pos = 0;
            // lint: allow(panic_free) -- the occupancy bit guarantees a non-empty bucket
            let mut best = (bucket[0].time, bucket[0].seq);
            for (i, e) in bucket.iter().enumerate().skip(1) {
                if (e.time, e.seq) < best {
                    best = (e.time, e.seq);
                    pos = i;
                }
            }
            Some(CachedMin {
                time: best.0,
                seq: best.1,
                loc: MinLoc::Ring { idx, pos },
            })
        } else {
            None
        };
        let over = self.overflow.peek().map(|e| CachedMin {
            time: e.time,
            seq: e.seq,
            loc: MinLoc::Overflow,
        });
        let min = match (ring, over) {
            (Some(r), Some(o)) => {
                if (r.time, r.seq) <= (o.time, o.seq) {
                    Some(r)
                } else {
                    Some(o)
                }
            }
            (r, o) => r.or(o),
        };
        self.cached_min = min;
        min
    }

    /// First occupied bucket index at or after `start`, scanning the
    /// ring circularly a 64-bucket word at a time. Caller guarantees
    /// `ring_len > 0`.
    fn first_occupied_from(&self, start: usize) -> usize {
        let mut word = start / 64;
        // mask off bits below `start` in the first word
        // lint: allow(panic_free) -- start < BUCKETS, so start/64 < WORDS
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word = (word + 1) % WORDS;
            // lint: allow(panic_free) -- word is taken mod WORDS on the line above
            bits = self.occupied[word];
        }
        // lint: allow(panic_free) -- caller guarantees ring_len > 0; some occupancy bit is set
        unreachable!("ring_len > 0 but no occupied bucket");
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let m = self.find_min()?;
        Some(self.remove_min(m))
    }

    /// Removes and returns the earliest event only when it is scheduled
    /// at or before `deadline`; otherwise leaves the queue (and the
    /// cached minimum) untouched. This fuses the event loop's
    /// peek-then-pop pair into one bucket scan.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, Event)> {
        let m = self.find_min()?;
        if m.time > deadline {
            return None;
        }
        Some(self.remove_min(m))
    }

    fn remove_min(&mut self, m: CachedMin) -> (SimTime, Event) {
        let entry = match m.loc {
            MinLoc::Ring { idx, pos } => {
                // lint: allow(panic_free) -- the cached min location was produced by find_min this pop
                let bucket = &mut self.buckets[idx];
                let entry = bucket.swap_remove(pos);
                if bucket.is_empty() {
                    // lint: allow(panic_free) -- idx < BUCKETS, so idx/64 < WORDS
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                self.ring_len -= 1;
                entry
            }
            // lint: allow(panic_free) -- the cached min said the overflow heap is non-empty
            MinLoc::Overflow => self.overflow.pop().expect("cached overflow top vanished"),
        };
        debug_assert!((entry.time, entry.seq) == (m.time, m.seq), "cache drift");
        self.len -= 1;
        let day = day_of(entry.time);
        if day > self.cursor_day + 1 {
            // jumped a provably-eventless window of more than one bucket
            prof::count(Cost::FfSkips);
        }
        self.cursor_day = day;
        self.cached_min = None;
        (entry.time, entry.event)
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.find_min().map(|m| m.time)
    }

    /// The earliest entry — `(time, seq, event)` — without removing it.
    /// The fluid burst path inspects the event kind to decide whether to
    /// absorb it into the window or close the window around it.
    #[inline]
    pub(crate) fn peek_entry(&mut self) -> Option<(SimTime, u64, Event)> {
        let m = self.find_min()?;
        let e = match m.loc {
            // lint: allow(panic_free) -- the cached min location was produced by find_min just above
            MinLoc::Ring { idx, pos } => self.buckets[idx][pos],
            // lint: allow(panic_free) -- the cached min said the overflow heap is non-empty
            MinLoc::Overflow => *self.overflow.peek().expect("cached overflow top vanished"),
        };
        Some((e.time, e.seq, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The original `BinaryHeap` queue, kept as the ordering oracle for the
/// calendar-queue equivalence property test.
#[cfg(test)]
pub(crate) mod baseline {
    use super::*;

    /// A time-ordered event queue with deterministic tie-breaking,
    /// backed by a binary heap — the pre-calendar implementation.
    #[derive(Debug, Default)]
    pub struct BaselineQueue {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    impl BaselineQueue {
        pub fn new() -> Self {
            BaselineQueue::default()
        }

        pub fn push(&mut self, time: SimTime, event: Event) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub fn reserve(&mut self, n: u64) -> u64 {
            let first = self.seq;
            self.seq += n;
            first
        }

        pub fn push_reserved(&mut self, time: SimTime, seq: u64, agent: AgentId, token: u64) {
            assert!(seq < self.seq, "sequence number was never reserved");
            let event = Event::Timer { agent, token };
            self.heap.push(Entry { time, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::baseline::BaselineQueue;
    use super::*;

    #[test]
    fn time_order() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_nanos(30),
            Event::Timer {
                agent: AgentId(0),
                token: 3,
            },
        );
        q.push(
            SimTime::from_nanos(10),
            Event::Timer {
                agent: AgentId(0),
                token: 1,
            },
        );
        q.push(
            SimTime::from_nanos(20),
            Event::Timer {
                agent: AgentId(0),
                token: 2,
            },
        );
        let mut tokens = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::Timer { token, .. } = ev {
                tokens.push(token);
            }
        }
        assert_eq!(tokens, vec![1, 2, 3]);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for token in 0..100 {
            q.push(
                t,
                Event::Timer {
                    agent: AgentId(0),
                    token,
                },
            );
        }
        let mut tokens = Vec::new();
        while let Some((_, Event::Timer { token, .. })) = q.pop() {
            tokens.push(token);
        }
        assert_eq!(tokens, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_nanos(7), Event::TxDone { link: LinkId(0) });
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(7));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), Event::TxDone { link: LinkId(0) });
        q.push(SimTime::from_nanos(10), Event::TxDone { link: LinkId(1) });
        let (t, _) = q.pop_at_or_before(SimTime::from_nanos(30)).unwrap();
        assert_eq!(t, SimTime::from_nanos(10));
        assert!(q.pop_at_or_before(SimTime::from_nanos(30)).is_none());
        assert_eq!(q.len(), 1, "event past the deadline must stay queued");
        let (t, _) = q.pop_at_or_before(SimTime::from_nanos(50)).unwrap();
        assert_eq!(t, SimTime::from_nanos(50));
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // far beyond the ring horizon (~67 ms)
        let far = SimTime::from_nanos(10_000_000_000);
        let near = SimTime::from_nanos(1_000);
        q.push(
            far,
            Event::Timer {
                agent: AgentId(0),
                token: 2,
            },
        );
        q.push(
            near,
            Event::Timer {
                agent: AgentId(0),
                token: 1,
            },
        );
        let (t1, Event::Timer { token: k1, .. }) = q.pop().unwrap() else {
            panic!()
        };
        assert_eq!((t1, k1), (near, 1));
        // after the cursor advances, a same-day push lands in the ring
        // while the earlier push stays in overflow; order must hold
        q.push(
            far,
            Event::Timer {
                agent: AgentId(0),
                token: 3,
            },
        );
        let (_, Event::Timer { token: k2, .. }) = q.pop().unwrap() else {
            panic!()
        };
        let (_, Event::Timer { token: k3, .. }) = q.pop().unwrap() else {
            panic!()
        };
        assert_eq!((k2, k3), (2, 3), "overflow/ring ties resolve by seq");
        assert!(q.is_empty());
    }

    #[test]
    fn consume_seq_then_push_with_seq_round_trips() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_nanos(5),
            Event::Timer {
                agent: AgentId(0),
                token: 0,
            },
        );
        let held = q.consume_seq(); // a virtual event's seq
        q.push(
            SimTime::from_nanos(5),
            Event::Timer {
                agent: AgentId(0),
                token: 2,
            },
        );
        // materialise the virtual event at the same time: it must pop
        // between the two real pushes, exactly as if it was never elided
        q.push_with_seq(
            SimTime::from_nanos(5),
            held,
            Event::Timer {
                agent: AgentId(0),
                token: 1,
            },
        );
        let mut tokens = Vec::new();
        while let Some((_, Event::Timer { token, .. })) = q.pop() {
            tokens.push(token);
        }
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    /// Seeded pseudo-random stream generator (SplitMix64) — no external
    /// RNG dependency in this crate.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    /// A reserved block in the oracle script: its first number, the
    /// times of its members, and the next member to push.
    struct Block {
        first: u64,
        times: Vec<u64>,
        next: usize,
        /// Token of the block's first member; member `k` carries `base + k`.
        base: u64,
    }

    /// Owner of the oracle script's reserved blocks.
    const OWNER: AgentId = AgentId(1);

    /// After the reserved member `token` popped, pushes its block's next
    /// member into both queues, as its owner's timer would.
    fn push_successor(
        blocks: &mut [Block],
        token: u64,
        cal: &mut EventQueue,
        base: &mut BaselineQueue,
    ) {
        let member = |b: &&mut Block| (b.base..b.base + b.times.len() as u64).contains(&token);
        let Some(b) = blocks.iter_mut().find(member) else {
            return;
        };
        assert_eq!(token - b.base + 1, b.next as u64, "members pop in order");
        if let Some(&t) = b.times.get(b.next) {
            let (seq, k) = (b.first + b.next as u64, b.base + b.next as u64);
            b.next += 1;
            cal.push_reserved(SimTime::from_nanos(t), seq, OWNER, k);
            base.push_reserved(SimTime::from_nanos(t), seq, OWNER, k);
        }
    }

    /// The property test: the same seeded stream of pushes and pops
    /// through the old `BinaryHeap` and the calendar queue must pop in
    /// identical order, including same-time ties. Pushes respect the
    /// simulator's contract (never earlier than the last popped time)
    /// and are biased to create tie clusters, bucket-boundary times, and
    /// overflow-horizon jumps. Interleaved with them, reserved blocks
    /// push their members one at a time, each as its predecessor pops,
    /// under numbers older than every ordinary push since: a third queue
    /// that got every member at reservation must pop the same order.
    #[test]
    fn calendar_queue_matches_binary_heap_oracle() {
        for seed in 0..25u64 {
            let mut rng = Mix(seed.wrapping_mul(0xA076_1D64_78BD_642F) + 1);
            let mut cal = EventQueue::new();
            let mut base = BaselineQueue::new();
            // every reserved member pushed at reservation
            let mut eager = BaselineQueue::new();
            let mut blocks: Vec<Block> = Vec::new();
            let mut floor = 0u64; // last popped time, in ns
            let mut recent: Vec<u64> = Vec::new();
            let mut token = 0u64;
            for step in 0..4_000 {
                let r = rng.next();
                if r % 100 < 8 {
                    // reserve a block of 1-6 members whose times never
                    // fall, with zero gaps, ties with recent times, and
                    // gaps across buckets and the overflow horizon
                    let n = 1 + rng.next() % 6;
                    let mut t = floor;
                    let times: Vec<u64> = (0..n)
                        .map(|_| {
                            t += match rng.next() % 6 {
                                0 => 0,
                                1 => rng.next() % 64,
                                2 => rng.next() % (1 << BUCKET_SHIFT),
                                3 => rng.next() % 400_000_000,
                                _ => rng.next() % 3_000_000,
                            };
                            if rng.next().is_multiple_of(4) {
                                if let Some(&old) = recent.last() {
                                    t = t.max(old);
                                }
                            }
                            t
                        })
                        .collect();
                    let first = cal.reserve(OWNER, n);
                    assert_eq!(base.reserve(n), first, "seed {seed} step {step}");
                    assert_eq!(eager.reserve(n), first, "seed {seed} step {step}");
                    for (k, &t) in times.iter().enumerate() {
                        let t = SimTime::from_nanos(t);
                        eager.push_reserved(t, first + k as u64, OWNER, token + k as u64);
                    }
                    let at = SimTime::from_nanos(times[0]);
                    cal.push_reserved(at, first, OWNER, token);
                    base.push_reserved(at, first, OWNER, token);
                    blocks.push(Block {
                        first,
                        times,
                        next: 1,
                        base: token,
                    });
                    token += n;
                } else if r % 100 < 60 || cal.is_empty() {
                    // push: mixture of offsets exercising ring + overflow
                    let t = match r % 10 {
                        // exact tie with a recently used time (clamped to
                        // the simulator contract: never before the last pop)
                        0..=2 if !recent.is_empty() => {
                            recent[(rng.next() as usize) % recent.len()].max(floor)
                        }
                        // same-bucket short hop
                        3..=5 => floor + rng.next() % (1 << BUCKET_SHIFT),
                        // bucket-boundary multiples
                        6..=7 => floor + (rng.next() % 512) * (1 << BUCKET_SHIFT),
                        // far future: overflow horizon and beyond
                        8 => floor + rng.next() % 400_000_000,
                        _ => floor + rng.next() % 3_000_000,
                    };
                    recent.push(t);
                    if recent.len() > 8 {
                        recent.remove(0);
                    }
                    let ev = Event::Timer {
                        agent: AgentId(0),
                        token,
                    };
                    token += 1;
                    cal.push(SimTime::from_nanos(t), ev);
                    base.push(SimTime::from_nanos(t), ev);
                    eager.push(SimTime::from_nanos(t), ev);
                    assert_eq!(cal.peek_time(), base.peek_time(), "seed {seed} step {step}");
                    assert_eq!(
                        cal.peek_time(),
                        eager.peek_time(),
                        "seed {seed} step {step}"
                    );
                } else {
                    let got = cal.pop();
                    let want = base.pop();
                    let (gt, Some(Event::Timer { token: gk, .. })) =
                        (got.map(|g| g.0), got.map(|g| g.1))
                    else {
                        panic!()
                    };
                    let (wt, Some(Event::Timer { token: wk, .. })) =
                        (want.map(|w| w.0), want.map(|w| w.1))
                    else {
                        panic!()
                    };
                    assert_eq!((gt, gk), (wt, wk), "seed {seed} step {step}");
                    let Some((et, Event::Timer { token: ek, .. })) = eager.pop() else {
                        panic!("seed {seed} step {step}: the eager queue ran dry")
                    };
                    assert_eq!((gt, gk), (Some(et), ek), "seed {seed} step {step}");
                    floor = gt.unwrap().as_nanos();
                    push_successor(&mut blocks, gk, &mut cal, &mut base);
                }
                assert_eq!(cal.len(), base.len(), "seed {seed} step {step}");
            }
            // drain the queues completely, pushing the blocks' members
            loop {
                let got = cal.pop();
                let want = base.pop();
                match (got, want) {
                    (None, None) => break,
                    (
                        Some((gt, Event::Timer { token: gk, .. })),
                        Some((wt, Event::Timer { token: wk, .. })),
                    ) => {
                        assert_eq!((gt, gk), (wt, wk), "seed {seed} drain");
                        let Some((et, Event::Timer { token: ek, .. })) = eager.pop() else {
                            panic!("seed {seed} drain: the eager queue ran dry")
                        };
                        assert_eq!((gt, gk), (et, ek), "seed {seed} drain");
                        push_successor(&mut blocks, gk, &mut cal, &mut base);
                    }
                    other => panic!("queues disagree on emptiness: {other:?}"),
                }
            }
            assert!(
                eager.pop().is_none(),
                "seed {seed}: the eager queue kept events"
            );
            assert!(
                blocks.iter().any(|b| b.times.len() > 1),
                "seed {seed}: no block of several members"
            );
        }
    }
}
