//! Integration tests for the simulator's observability hooks: event
//! emission, the queue depth a trace carries, and the
//! byte-identical-trace guarantee.

use std::sync::{Arc, Mutex};

use abw_netsim::{
    packet_to, Agent, CountingSink, Ctx, FlowId, LinkConfig, PacketKind, PathId, SimDuration,
    Simulator,
};
use abw_obs::{JsonlRecorder, MemoryRecorder};

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
fn events_cover_the_packet_lifecycle() {
    let (_, mem) = traced_run(5, 500, None);
    let mem = mem.lock().unwrap();
    assert_eq!(mem.of_kind("link.enqueue").count(), 5);
    assert_eq!(mem.of_kind("link.dequeue").count(), 5);
    assert_eq!(mem.of_kind("pkt.deliver").count(), 5);
    // 24 Mb/s into 12 Mb/s: one long busy period once the queue forms
    let busy_begins = mem
        .of_kind("link.busy")
        .filter(|e| e.phase == abw_obs::Phase::Begin)
        .count();
    let busy_ends = mem
        .of_kind("link.busy")
        .filter(|e| e.phase == abw_obs::Phase::End)
        .count();
    assert_eq!(busy_begins, busy_ends, "busy spans must balance");
    assert!(busy_begins >= 1);
    // timestamps are non-decreasing (events are a replayable log)
    let ts: Vec<u64> = mem.events().iter().map(|e| e.t_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    // every delivery carries a positive one-way delay
    for ev in mem.of_kind("pkt.deliver") {
        let owd = ev.field("owd_ns").and_then(|v| v.as_u64()).unwrap();
        assert!(owd >= 2_000_000, "1 ms serialisation + 1 ms propagation");
    }
}

#[test]
fn drops_are_traced_and_counted() {
    // 3000-byte queue bound, 10 packets at line-rate-doubling gap
    let (sim, mem) = traced_run(10, 500, Some(3000));
    let mem = mem.lock().unwrap();
    let drops = mem.of_kind("link.drop").count() as u64;
    assert!(drops > 0, "overload against a tiny queue must drop");
    assert_eq!(drops, sim.total_drops());
    let c = sim.counters();
    assert_eq!(c.injected, c.delivered + drops + c.ttl_expired);
}

#[test]
fn queue_depth_tracks_buildup() {
    let (sim, mem) = traced_run(5, 500, None);
    let mem = mem.lock().unwrap();
    let depths: Vec<u64> = mem
        .of_kind("link.enqueue")
        .map(|e| e.field("q").and_then(|v| v.as_u64()).unwrap())
        .collect();
    assert_eq!(depths.len(), 5, "the trace has the depth at every enqueue");
    // rate ratio 2:1 over 5 packets: depth reaches 3 (2 waiting + 1 in
    // service) at the fifth enqueue
    assert_eq!(sim.link(abw_netsim::LinkId(0)).peak_queue_pkts(), 3);
    assert_eq!(depths.iter().max(), Some(&3));
}

#[test]
fn traces_are_byte_identical_across_runs() {
    let run = || {
        let mut sim = Simulator::new();
        let sink_buf = Arc::new(Mutex::new(JsonlRecorder::new(Vec::<u8>::new())));
        sim.set_recorder(Box::new(sink_buf.clone()));
        let link =
            sim.add_link(LinkConfig::new(12e6, SimDuration::from_millis(1)).with_queue_bytes(4500));
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(Burst {
            path,
            dst: sink,
            n: 20,
            gap: SimDuration::from_micros(333),
            sent: 0,
        }));
        sim.run_to_quiescence();
        drop(sim);
        let mut guard = sink_buf.lock().unwrap();
        abw_obs::Recorder::flush(&mut *guard);
        guard.writer().clone()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same topology + same seeds must yield the same bytes");
    let text = String::from_utf8(a).unwrap();
    for line in text.lines() {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'));
    }
}
