//! Integration tests for what a traced simulator observes: drops and
//! queue depth are counted by the links, and the event loop adds no
//! trace events of its own.

use std::sync::{Arc, Mutex};

use abw_netsim::{
    packet_to, Agent, CountingSink, Ctx, FlowId, LinkConfig, PacketKind, PathId, SimDuration,
    Simulator,
};
use abw_obs::MemoryRecorder;

/// Sends `n` packets with a fixed gap starting at t=0.
struct Burst {
    path: PathId,
    dst: abw_netsim::AgentId,
    n: u32,
    gap: SimDuration,
    sent: u32,
}

impl Agent for Burst {
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
            FlowId(7),
            1500,
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

/// Builds a single-hop 12 Mb/s simulator with `n` packets at `gap_us`.
fn traced_run(
    n: u32,
    gap_us: u64,
    queue_bytes: Option<u64>,
) -> (Simulator, Arc<Mutex<MemoryRecorder>>) {
    let mut sim = Simulator::new();
    let mem = Arc::new(Mutex::new(MemoryRecorder::new()));
    sim.set_recorder(Box::new(mem.clone()));
    let mut cfg = LinkConfig::new(12e6, SimDuration::from_millis(1));
    if let Some(b) = queue_bytes {
        cfg = cfg.with_queue_bytes(b);
    }
    let link = sim.add_link(cfg);
    let path = sim.add_path(vec![link]);
    let sink = sim.add_agent(Box::new(CountingSink::new()));
    sim.add_agent(Box::new(Burst {
        path,
        dst: sink,
        n,
        gap: SimDuration::from_micros(gap_us),
        sent: 0,
    }));
    sim.run_to_quiescence();
    (sim, mem)
}

#[test]
fn drops_are_counted() {
    // 3000-byte queue bound, 10 packets at line-rate-doubling gap
    let (sim, _) = traced_run(10, 500, Some(3000));
    let drops = sim.total_drops();
    assert!(drops > 0, "overload against a tiny queue must drop");
    let c = sim.counters();
    assert_eq!(c.injected, c.delivered + drops + c.ttl_expired);
}

#[test]
fn queue_depth_tracks_buildup() {
    let (sim, mem) = traced_run(5, 500, None);
    // rate ratio 2:1 over 5 packets: depth reaches 3 (2 waiting + 1 in
    // service) at the fifth enqueue
    assert_eq!(sim.link(abw_netsim::LinkId(0)).peak_queue_pkts(), 3);
    // the event loop emits nothing of its own: packets are counted,
    // not traced
    assert!(mem.lock().unwrap().is_empty());
}
