//! # abw-netsim
//!
//! A deterministic, discrete-event, packet-level network simulator — the
//! substrate under every experiment in *"Ten Fallacies and Pitfalls on
//! End-to-End Available Bandwidth Estimation"* (Jain & Dovrolis, IMC 2004).
//! The paper's figures come from ns-2 simulations of single-hop and
//! multi-hop paths; this crate provides the same abstraction level:
//!
//! * store-and-forward [`link::Link`]s with FIFO drop-tail queues,
//! * multi-hop paths with per-hop TTL handling and ICMP time-exceeded
//!   replies (needed by BFind),
//! * an [`agent::Agent`] trait for traffic sources, sinks, probing
//!   endpoints and TCP,
//! * exact busy-period recording per link, from which `abw-trace` computes
//!   the ground-truth available bandwidth process `A_tau(t)`,
//! * per-link fault injection ([`impair::Impairment`]): i.i.d. and
//!   Gilbert–Elliott loss, bounded reordering, jitter, and scheduled
//!   capacity flaps — each driven by its own seeded RNG stream.
//!
//! Determinism: time is integer nanoseconds, event ties break in insertion
//! order, and all randomness lives in agents that own seeded RNGs; a run is
//! a pure function of its seeds.
//!
//! ## Example
//!
//! ```
//! use abw_netsim::{Simulator, LinkConfig, SimDuration, SimTime, CountingSink};
//!
//! let mut sim = Simulator::new();
//! let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_millis(5)));
//! let path = sim.add_path(vec![link]);
//! let sink = sim.add_agent(Box::new(CountingSink::new()));
//! sim.run_until(SimTime::from_nanos(1_000_000));
//! assert_eq!(sim.agent::<CountingSink>(sink).packets, 0);
//! let _ = path;
//! ```

pub mod agent;
pub mod arena;
pub mod event;
pub mod impair;
pub mod invariants;
pub mod link;
pub mod packet;
pub mod sim;
pub mod time;

pub use agent::{packet_to, Agent, CountingSink, Ctx, FluidRoute, FluidStep, SinkRole};
pub use arena::{PacketArena, PacketRef};
pub use impair::{Impairment, ImpairmentConfig, LossModel, ReorderSpec};
pub use link::{BusyLog, Link, LinkConfig, LinkCounters};
pub use packet::{AgentId, FlowId, LinkId, Packet, PacketKind, PathId, DEFAULT_TTL};
pub use sim::{SimCounters, Simulator};
pub use time::{gap_for_rate, transmission_time, SimDuration, SimTime};
