//! TCP Reno sender.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use abw_netsim::{Agent, AgentId, Ctx, FlowId, Packet, PacketKind, PathId, SimDuration, SimTime};

/// Static parameters of a TCP connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Path from sender to receiver.
    pub path: PathId,
    /// The receiving [`crate::TcpSink`] agent.
    pub dst: AgentId,
    /// Flow id for accounting.
    pub flow: FlowId,
    /// Segment size on the wire, in bytes.
    pub mss: u32,
    /// Receiver advertised window in segments — the `Wr` axis of Figure 7.
    pub rwnd: u64,
    /// Total segments to transfer; `None` means a bulk (unbounded) source.
    pub limit_segments: Option<u64>,
    /// Initial retransmission timeout; also the RTO used throughout when
    /// `adaptive_rto` is off.
    pub rto: SimDuration,
    /// Estimate the RTO from measured RTTs (RFC 6298 smoothing with
    /// Karn's rule); the initial value is `rto` until the first sample.
    pub adaptive_rto: bool,
    /// Lower bound on the adaptive RTO.
    pub min_rto: SimDuration,
    /// Delay before the connection starts sending.
    pub start_after: SimDuration,
}

impl TcpConfig {
    /// A bulk transfer with 1500 B segments, a 64-segment window and a
    /// 1 s RTO, starting immediately.
    pub fn bulk(path: PathId, dst: AgentId, flow: FlowId) -> Self {
        TcpConfig {
            path,
            dst,
            flow,
            mss: 1500,
            rwnd: 64,
            limit_segments: None,
            rto: SimDuration::from_millis(1000),
            adaptive_rto: true,
            min_rto: SimDuration::from_millis(200),
            start_after: SimDuration::ZERO,
        }
    }

    /// Sets the receiver advertised window (segments).
    pub fn with_rwnd(mut self, rwnd: u64) -> Self {
        assert!(rwnd >= 1, "rwnd must be at least one segment");
        self.rwnd = rwnd;
        self
    }

    /// Limits the transfer to `segments` segments.
    pub fn with_limit(mut self, segments: u64) -> Self {
        self.limit_segments = Some(segments);
        self
    }

    /// Sets a fixed retransmission timeout (disables RTT adaptation).
    pub fn with_rto(mut self, rto: SimDuration) -> Self {
        self.rto = rto;
        self.adaptive_rto = false;
        self
    }

    /// Delays the start of the transfer.
    pub fn with_start_after(mut self, d: SimDuration) -> Self {
        self.start_after = d;
        self
    }
}

/// Congestion-control phase, exposed for tests and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// Linear window growth above `ssthresh`.
    CongestionAvoidance,
    /// NewReno-less fast recovery after a triple duplicate ACK.
    FastRecovery,
}

impl Phase {
    /// Lower-case label, as used in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::SlowStart => "slow_start",
            Phase::CongestionAvoidance => "congestion_avoidance",
            Phase::FastRecovery => "fast_recovery",
        }
    }
}

const TIMER_SEND: u64 = 1;
const TIMER_RTO_BASE: u64 = 1000;

/// A TCP Reno sender agent.
///
/// Implements slow start, congestion avoidance (one MSS per RTT), fast
/// retransmit on the third duplicate ACK, fast recovery, and a
/// retransmission timeout that adapts to the measured RTT (RFC 6298
/// smoothing, Karn's rule, exponential backoff). The window is
/// `min(cwnd, rwnd)`, so a small `rwnd` yields the *window-limited*
/// flows used as responsive cross traffic in Figure 7.
pub struct TcpSender {
    config: TcpConfig,
    /// Lowest unacknowledged segment.
    una: u64,
    /// Next segment to send.
    next_seq: u64,
    // lint: allow(units) -- canonical TCP name; unit is segments
    cwnd: f64,
    // lint: allow(units) -- canonical TCP name; unit is segments
    ssthresh: f64,
    dup_acks: u32,
    /// End of the current fast-recovery episode (`next_seq` at entry).
    recover: u64,
    phase: Phase,
    /// Invalidates stale RTO timers: only the timer carrying the current
    /// epoch fires.
    rto_epoch: u64,
    rto_backoff: u32,
    /// First-transmission times of in-flight segments (absent once
    /// retransmitted — Karn's rule excludes them from RTT sampling).
    /// SipHash with fixed keys, not `RandomState`: with per-process
    /// keys, where removals leave tombstones, and so whether an insert
    /// rehashes in place or grows the table, changes from process to
    /// process, and allocation counts would not repeat.
    send_times: HashMap<u64, SimTime, BuildHasherDefault<DefaultHasher>>,
    /// Smoothed RTT (seconds); `None` before the first sample.
    srtt: Option<f64>,
    /// RTT variation (seconds).
    // lint: allow(units) -- canonical RFC 6298 name; seconds
    rttvar: f64,
    started_at: Option<SimTime>,
    /// Completion time (size-limited transfers only).
    pub finished_at: Option<SimTime>,
    /// Segments acknowledged.
    pub acked_segments: u64,
    /// Total segments put on the wire, including retransmissions.
    pub transmitted_segments: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
}

impl TcpSender {
    /// Creates an idle sender; transmission starts `start_after` into the
    /// simulation.
    pub fn new(config: TcpConfig) -> Self {
        assert!(config.mss > 0, "zero MSS");
        TcpSender {
            una: 0,
            next_seq: 0,
            cwnd: 1.0,
            ssthresh: config.rwnd.max(2) as f64,
            dup_acks: 0,
            recover: 0,
            phase: Phase::SlowStart,
            rto_epoch: 0,
            rto_backoff: 0,
            send_times: HashMap::default(),
            srtt: None,
            rttvar: 0.0,
            started_at: None,
            finished_at: None,
            acked_segments: 0,
            transmitted_segments: 0,
            retransmits: 0,
            config,
        }
    }

    /// Current congestion-control phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Starts a new size-limited transfer on the same sequence space:
    /// extends the segment limit by `additional` and resets the
    /// congestion state to a fresh connection's (slow start, cwnd 1).
    ///
    /// Used by looping short-flow sources: keeping the sequence space
    /// continuous means ACKs still in flight from the previous transfer
    /// cannot be mistaken for acknowledgements of new data.
    ///
    /// Panics on a bulk (unlimited) sender.
    pub fn restart_transfer(&mut self, additional: u64, ctx: &mut Ctx<'_>) {
        let limit = self
            .config
            .limit_segments
            .expect("restart_transfer on a bulk sender");
        self.config.limit_segments = Some(limit + additional);
        self.cwnd = 1.0;
        self.ssthresh = self.config.rwnd.max(2) as f64;
        self.phase = Phase::SlowStart;
        self.dup_acks = 0;
        self.rto_backoff = 0;
        self.finished_at = None;
        self.pump(ctx);
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT estimate in seconds (`None` before the first
    /// un-retransmitted segment is acknowledged).
    pub fn srtt_secs(&self) -> Option<f64> {
        self.srtt
    }

    /// The retransmission timeout currently in force (before backoff).
    pub fn current_rto(&self) -> SimDuration {
        if !self.config.adaptive_rto {
            return self.config.rto;
        }
        match self.srtt {
            None => self.config.rto,
            Some(srtt) => {
                let rto = SimDuration::from_secs_f64(srtt + 4.0 * self.rttvar);
                rto.max(self.config.min_rto)
            }
        }
    }

    /// RFC 6298 smoothing of one RTT sample.
    fn record_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
    }

    /// Mean goodput in bits/s between the first transmission and `now`
    /// (or completion for size-limited transfers).
    pub fn goodput_bps(&self, now: SimTime) -> f64 {
        let Some(start) = self.started_at else {
            return 0.0;
        };
        let end = self.finished_at.unwrap_or(now);
        let secs = end.saturating_since(start).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.acked_segments as f64 * self.config.mss as f64 * 8.0 / secs
    }

    fn effective_window(&self) -> u64 {
        (self.cwnd.floor() as u64).clamp(1, self.config.rwnd)
    }

    fn done_sending(&self) -> bool {
        matches!(self.config.limit_segments, Some(limit) if self.next_seq >= limit)
    }

    fn all_acked(&self) -> bool {
        matches!(self.config.limit_segments, Some(limit) if self.una >= limit)
    }

    fn segment(&self, seq: u64) -> Packet {
        Packet {
            id: 0,
            flow: self.config.flow,
            src: AgentId(usize::MAX), // filled by Ctx::send
            dst: self.config.dst,
            path: self.config.path,
            hop: 0,
            size: self.config.mss,
            seq,
            sent_at: SimTime::ZERO, // filled by Ctx::send
            ttl: abw_netsim::DEFAULT_TTL,
            kind: PacketKind::TcpData,
        }
    }

    /// Sends as much new data as the window allows.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let window_end = self.una + self.effective_window();
        while self.next_seq < window_end && !self.done_sending() {
            if self.started_at.is_none() {
                self.started_at = Some(ctx.now());
            }
            let p = self.segment(self.next_seq);
            ctx.send(p);
            self.send_times.insert(self.next_seq, ctx.now());
            self.next_seq += 1;
            self.transmitted_segments += 1;
        }
        self.arm_rto(ctx);
    }

    fn retransmit_una(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.segment(self.una);
        ctx.send(p);
        // Karn's rule: a retransmitted segment's ACK is ambiguous, so it
        // must not produce an RTT sample
        self.send_times.remove(&self.una);
        self.transmitted_segments += 1;
        self.retransmits += 1;
        self.arm_rto(ctx);
    }

    /// (Re)arms the retransmission timer by bumping the epoch; stale
    /// timers are ignored in `on_timer`.
    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.una == self.next_seq {
            // nothing in flight
            return;
        }
        self.rto_epoch += 1;
        let backoff = self.current_rto().mul(1u64 << self.rto_backoff.min(6));
        ctx.schedule_in(backoff, TIMER_RTO_BASE + self.rto_epoch);
    }

    fn on_new_ack(&mut self, ctx: &mut Ctx<'_>, ack: u64) {
        let newly = ack - self.una;
        // RTT from the newest acknowledged, never-retransmitted segment
        if self.config.adaptive_rto {
            if let Some(sent) = self.send_times.get(&(ack - 1)).copied() {
                self.record_rtt(ctx.now().since(sent).as_secs_f64());
            }
        }
        for seq in self.una..ack {
            self.send_times.remove(&seq);
        }
        self.acked_segments += newly;
        self.una = ack;
        self.dup_acks = 0;
        self.rto_backoff = 0;

        let before = self.phase;
        match self.phase {
            Phase::FastRecovery => {
                if ack >= self.recover {
                    // recovery complete: deflate
                    self.cwnd = self.ssthresh;
                    self.phase = if self.cwnd < self.ssthresh {
                        Phase::SlowStart
                    } else {
                        Phase::CongestionAvoidance
                    };
                } else {
                    // partial ACK (NewReno-style): retransmit next hole
                    self.retransmit_una(ctx);
                    self.cwnd = (self.cwnd - newly as f64 + 1.0).max(1.0);
                }
            }
            Phase::SlowStart => {
                self.cwnd += newly as f64;
                if self.cwnd >= self.ssthresh {
                    self.phase = Phase::CongestionAvoidance;
                }
            }
            Phase::CongestionAvoidance => {
                self.cwnd += newly as f64 / self.cwnd;
            }
        }

        // one line per phase change an ACK makes (slow start ends, or
        // recovery exits); the changes into recovery and back to slow
        // start come with a `tcp.loss` line
        if self.phase != before && ctx.recorder_active() {
            ctx.emit(
                "tcp.cwnd",
                &[
                    ("flow", self.config.flow.0.into()),
                    ("cwnd", self.cwnd.into()),
                    ("ssthresh", self.ssthresh.into()),
                    ("phase", self.phase.as_str().into()),
                ],
            );
        }
        if self.all_acked() {
            if self.finished_at.is_none() {
                self.finished_at = Some(ctx.now());
            }
            return;
        }
        self.pump(ctx);
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase == Phase::FastRecovery {
            // window inflation: one more segment may leave per dup ACK
            self.cwnd += 1.0;
            self.pump(ctx);
            return;
        }
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            // fast retransmit
            let flight = (self.next_seq - self.una) as f64;
            self.ssthresh = (flight / 2.0).max(2.0);
            self.recover = self.next_seq;
            self.phase = Phase::FastRecovery;
            self.cwnd = self.ssthresh + 3.0;
            ctx.emit(
                "tcp.loss",
                &[
                    ("flow", self.config.flow.0.into()),
                    ("kind", "fast_retransmit".into()),
                    ("cwnd", self.cwnd.into()),
                    ("ssthresh", self.ssthresh.into()),
                ],
            );
            self.retransmit_una(ctx);
        }
    }
}

impl Agent for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_in(self.config.start_after, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_SEND {
            self.pump(ctx);
            return;
        }
        // RTO timer: only the latest epoch counts
        if token != TIMER_RTO_BASE + self.rto_epoch {
            return;
        }
        if self.una == self.next_seq {
            return; // everything acked in the meantime
        }
        // timeout: collapse to slow start and retransmit the hole
        let flight = (self.next_seq - self.una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.phase = Phase::SlowStart;
        self.rto_backoff += 1;
        ctx.emit(
            "tcp.loss",
            &[
                ("flow", self.config.flow.0.into()),
                ("kind", "timeout".into()),
                ("cwnd", self.cwnd.into()),
                ("ssthresh", self.ssthresh.into()),
            ],
        );
        self.retransmit_una(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let PacketKind::TcpAck { ack } = packet.kind else {
            return;
        };
        if ack > self.una {
            self.on_new_ack(ctx, ack);
        } else if ack == self.una && self.una < self.next_seq {
            self.on_dup_ack(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TcpSink;
    use abw_netsim::{LinkConfig, Simulator};

    /// Bottleneck topology: one link, given capacity/propagation/buffer.
    fn topo(
        capacity_bps: f64,
        prop: SimDuration,
        buffer_pkts: u64,
    ) -> (Simulator, PathId, AgentId) {
        let mut sim = Simulator::new();
        let cfg = LinkConfig::new(capacity_bps, prop).with_queue_packets(buffer_pkts, 1500);
        let link = sim.add_link(cfg);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(TcpSink::new(prop)));
        (sim, path, sink)
    }

    #[test]
    fn size_limited_transfer_completes() {
        let (mut sim, path, sink) = topo(10e6, SimDuration::from_millis(10), 100);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1)).with_limit(200);
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let s: &TcpSender = sim.agent(sender);
        assert!(s.finished_at.is_some(), "transfer did not complete");
        assert_eq!(s.acked_segments, 200);
        let k: &TcpSink = sim.agent(sink);
        assert_eq!(k.cumulative_ack(), 200);
    }

    #[test]
    fn bulk_saturates_an_idle_link() {
        // 10 Mb/s, 10 ms one-way: BDP ≈ 17 segments < rwnd 64
        let (mut sim, path, sink) = topo(10e6, SimDuration::from_millis(10), 100);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1));
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        let horizon = SimTime::ZERO + SimDuration::from_secs(20);
        sim.run_until(horizon);
        let s: &TcpSender = sim.agent(sender);
        let rate = s.goodput_bps(horizon);
        assert!(
            rate > 0.9 * 10e6,
            "bulk TCP reached only {:.1} Mb/s",
            rate / 1e6
        );
    }

    #[test]
    fn window_limited_throughput_is_wr_over_rtt() {
        // tiny window on a fat link: throughput = Wr * MSS * 8 / RTT
        let (mut sim, path, sink) = topo(100e6, SimDuration::from_millis(20), 200);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1)).with_rwnd(4);
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        let horizon = SimTime::ZERO + SimDuration::from_secs(30);
        sim.run_until(horizon);
        let s: &TcpSender = sim.agent(sender);
        let rate = s.goodput_bps(horizon);
        // RTT = 40 ms + serialisation; expected ≈ 4 * 1500 * 8 / 0.04 = 1.2 Mb/s
        let expected = 4.0 * 1500.0 * 8.0 / 0.040;
        assert!(
            (rate - expected).abs() / expected < 0.1,
            "rate {:.0} vs expected {:.0}",
            rate,
            expected
        );
    }

    #[test]
    fn recovers_from_drops_in_a_small_buffer() {
        // buffer of 8 packets forces periodic loss; TCP must keep making
        // progress through fast retransmit and RTO
        let (mut sim, path, sink) = topo(5e6, SimDuration::from_millis(10), 8);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1));
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        let horizon = SimTime::ZERO + SimDuration::from_secs(30);
        sim.run_until(horizon);
        let s: &TcpSender = sim.agent(sender);
        assert!(s.retransmits > 0, "expected losses with an 8-packet buffer");
        let rate = s.goodput_bps(horizon);
        assert!(
            rate > 0.5 * 5e6,
            "goodput collapsed to {:.2} Mb/s",
            rate / 1e6
        );
        // no spurious over-delivery: goodput cannot exceed capacity
        assert!(rate <= 5e6 * 1.01);
    }

    #[test]
    fn cwnd_lines_mark_phase_changes() {
        use abw_obs::{MemoryRecorder, OwnedValue};
        use std::sync::{Arc, Mutex};

        // the small buffer forces fast retransmits and timeouts, so the
        // flow changes phase many times
        let (mut sim, path, sink) = topo(5e6, SimDuration::from_millis(10), 8);
        let trace = Arc::new(Mutex::new(MemoryRecorder::new()));
        sim.set_recorder(Box::new(trace.clone()));
        let cfg = TcpConfig::bulk(path, sink, FlowId(1));
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let events = trace.lock().expect("recorder lock").take_events();
        let text = |e: &abw_obs::OwnedEvent, name: &str| match e.field(name) {
            Some(OwnedValue::Str(s)) => s.clone(),
            other => panic!("{}: field `{name}` is {other:?}", e.kind),
        };
        // every `tcp.cwnd` line reports a phase the flow was not in: the
        // phase of its previous `tcp.cwnd` line, or the one a `tcp.loss`
        // line starts
        let mut phase = Phase::SlowStart.as_str().to_string();
        let mut changes = 0;
        for e in &events {
            match e.kind.as_str() {
                "tcp.cwnd" => {
                    let next = text(e, "phase");
                    assert_ne!(next, phase, "a `tcp.cwnd` line at {} ns", e.t_ns);
                    phase = next;
                    changes += 1;
                }
                "tcp.loss" => {
                    phase = match text(e, "kind").as_str() {
                        "fast_retransmit" => Phase::FastRecovery,
                        _ => Phase::SlowStart,
                    }
                    .as_str()
                    .to_string();
                }
                _ => {}
            }
        }
        let s: &TcpSender = sim.agent(sender);
        assert!(s.retransmits > 0, "the flow must lose packets");
        assert!(changes > 1, "only {changes} phase changes traced");
    }

    #[test]
    fn two_flows_share_a_bottleneck() {
        let (mut sim, path, sink1) = topo(10e6, SimDuration::from_millis(10), 30);
        let sink2 = sim.add_agent(Box::new(TcpSink::new(SimDuration::from_millis(10))));
        let s1 = sim.add_agent(Box::new(TcpSender::new(TcpConfig::bulk(
            path,
            sink1,
            FlowId(1),
        ))));
        let s2 = sim.add_agent(Box::new(TcpSender::new(
            TcpConfig::bulk(path, sink2, FlowId(2)).with_start_after(SimDuration::from_millis(250)),
        )));
        let horizon = SimTime::ZERO + SimDuration::from_secs(60);
        sim.run_until(horizon);
        let r1 = sim.agent::<TcpSender>(s1).goodput_bps(horizon);
        let r2 = sim.agent::<TcpSender>(s2).goodput_bps(horizon);
        let total = r1 + r2;
        assert!(
            total > 0.85 * 10e6,
            "flows under-utilise the link: {:.1} Mb/s",
            total / 1e6
        );
        // rough fairness: neither flow starves
        assert!(
            r1 > 0.15 * total,
            "flow 1 starved: {:.1}%",
            100.0 * r1 / total
        );
        assert!(
            r2 > 0.15 * total,
            "flow 2 starved: {:.1}%",
            100.0 * r2 / total
        );
    }

    #[test]
    fn srtt_converges_to_the_path_rtt() {
        // idle 100 Mb/s link, 20 ms each way: RTT ≈ 40 ms + serialisation
        let (mut sim, path, sink) = topo(100e6, SimDuration::from_millis(20), 200);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1)).with_rwnd(8);
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let s: &TcpSender = sim.agent(sender);
        let srtt = s.srtt_secs().expect("samples collected");
        assert!(
            (srtt - 0.040).abs() < 0.005,
            "srtt {:.1} ms, path RTT ~40 ms",
            srtt * 1e3
        );
        // the adaptive RTO sits at or above the floor and well below the
        // 1 s initial value
        let rto = s.current_rto().as_secs_f64();
        assert!((0.04..0.5).contains(&rto), "RTO {:.0} ms", rto * 1e3);
    }

    #[test]
    fn fixed_rto_stays_fixed() {
        let (mut sim, path, sink) = topo(100e6, SimDuration::from_millis(10), 200);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1)).with_rto(SimDuration::from_millis(700));
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let s: &TcpSender = sim.agent(sender);
        assert_eq!(s.current_rto(), SimDuration::from_millis(700));
    }

    #[test]
    fn slow_start_grows_exponentially_initially() {
        let (mut sim, path, sink) = topo(100e6, SimDuration::from_millis(50), 500);
        let cfg = TcpConfig::bulk(path, sink, FlowId(1)).with_rwnd(256);
        let sender = sim.add_agent(Box::new(TcpSender::new(cfg)));
        // after ~3 RTTs (300 ms) cwnd should have grown well beyond 1
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(350));
        let s: &TcpSender = sim.agent(sender);
        assert!(s.cwnd() >= 8.0, "cwnd = {}", s.cwnd());
        assert_eq!(s.phase(), Phase::SlowStart);
    }
}
