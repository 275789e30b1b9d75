//! Slab allocation for in-flight packets.
//!
//! Packets used to travel *inside* event-queue entries by value
//! (~88 bytes each), so every push, pop and heap sift moved a whole
//! packet. The arena gives each in-flight packet a stable slot and the
//! event queue carries a copyable 8-byte [`PacketRef`] instead. Slots
//! are recycled through a free list, so the steady-state hot path
//! performs no heap allocation per packet at all — the slab grows to
//! the peak number of simultaneously in-flight packets and then stays
//! there (`perfbench --trace 1` reports what allocation remains per
//! operation as `alloc.count`).
//!
//! Slots carry a generation counter that is bumped on every free. A
//! [`PacketRef`] whose generation disagrees with its slot is stale —
//! using one is a simulator bug (an event referencing a packet that was
//! already delivered or dropped) and panics immediately rather than
//! silently aliasing a recycled slot.

use crate::packet::Packet;

/// A generational handle to a packet stored in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// A handle that matches no slot — a placeholder for "no packet"
    /// fields whose validity is tracked out of band (the arena panics
    /// if it is ever dereferenced).
    pub(crate) const DANGLING: PacketRef = PacketRef {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

struct Slot {
    gen: u32,
    packet: Option<Packet>,
}

/// A slab of in-flight packets with generational handles.
#[derive(Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Stores `packet`, reusing a freed slot when one is available.
    #[inline]
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        if let Some(idx) = self.free.pop() {
            // lint: allow(panic_free) -- free-list entries are indices of existing slots
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.packet.is_none(), "free-list slot still occupied");
            slot.packet = Some(packet);
            PacketRef { idx, gen: slot.gen }
        } else {
            // lint: allow(panic_free) -- u32::MAX live packets would exhaust memory first
            let idx = u32::try_from(self.slots.len()).expect("packet arena overflow");
            self.slots.push(Slot {
                gen: 0,
                packet: Some(packet),
            });
            PacketRef { idx, gen: 0 }
        }
    }

    /// Read access to a live packet.
    ///
    /// Panics on a stale or vacant reference — always a simulator bug.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        // lint: allow(panic_free) -- refs are arena-issued; a bad index is a stale ref, which the generation assert exists to catch
        let slot = &self.slots[r.idx as usize];
        assert!(slot.gen == r.gen, "stale packet reference");
        // lint: allow(panic_free) -- generation matched, so the slot holds the referenced packet
        slot.packet.as_ref().expect("vacant packet slot")
    }

    /// Mutable access to a live packet (see [`PacketArena::get`]).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        // lint: allow(panic_free) -- refs are arena-issued; a bad index is a stale ref, which the generation assert exists to catch
        let slot = &mut self.slots[r.idx as usize];
        assert!(slot.gen == r.gen, "stale packet reference");
        // lint: allow(panic_free) -- generation matched, so the slot holds the referenced packet
        slot.packet.as_mut().expect("vacant packet slot")
    }

    /// Removes and returns a packet, recycling its slot.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        // lint: allow(panic_free) -- refs are arena-issued; a bad index is a stale ref, which the generation assert exists to catch
        let slot = &mut self.slots[r.idx as usize];
        assert!(slot.gen == r.gen, "stale packet reference");
        // lint: allow(panic_free) -- generation matched, so the slot holds the referenced packet
        let packet = slot.packet.take().expect("vacant packet slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        packet
    }

    /// Number of packets currently stored (in flight).
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated — the peak of simultaneously in-flight
    /// packets over the arena's lifetime.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AgentId, FlowId, PacketKind, PathId, DEFAULT_TTL};
    use crate::time::SimTime;

    fn pkt(seq: u64) -> Packet {
        Packet {
            id: seq,
            flow: FlowId(0),
            src: AgentId(0),
            dst: AgentId(1),
            path: PathId(0),
            hop: 0,
            size: 1500,
            seq,
            sent_at: SimTime::ZERO,
            ttl: DEFAULT_TTL,
            kind: PacketKind::Data,
        }
    }

    #[test]
    fn alloc_take_roundtrip() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(pkt(1));
        let r2 = a.alloc(pkt(2));
        assert_eq!(a.in_flight(), 2);
        assert_eq!(a.get(r1).seq, 1);
        assert_eq!(a.get(r2).seq, 2);
        a.get_mut(r2).hop = 3;
        let p2 = a.take(r2);
        assert_eq!((p2.seq, p2.hop), (2, 3));
        assert_eq!(a.in_flight(), 1);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut a = PacketArena::new();
        for i in 0..1_000u64 {
            let r = a.alloc(pkt(i));
            assert_eq!(a.take(r).seq, i);
        }
        assert_eq!(a.capacity(), 1, "steady state must not grow the slab");
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "stale packet reference")]
    fn stale_reference_panics() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(1));
        a.take(r);
        a.alloc(pkt(2)); // recycles the slot with a new generation
        a.get(r);
    }
}
