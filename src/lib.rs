//! # abwe — end-to-end available bandwidth estimation
//!
//! A full reproduction of *"Ten Fallacies and Pitfalls on End-to-End
//! Available Bandwidth Estimation"* (Jain & Dovrolis, IMC 2004): the
//! probing tools the paper classifies, the packet-level simulator its
//! experiments run on, and the code behind every figure and table.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`netsim`] — deterministic discrete-event packet simulator;
//! * [`traffic`] — CBR / Poisson / Pareto ON-OFF / heavy-tail cross
//!   traffic generators and packet-size mixes;
//! * [`stats`] — running moments, ECDFs, OWD trend tests (PCT/PDT),
//!   variance-timescale analysis, Hurst estimation, Poisson sampling;
//! * [`trace`] — the exact avail-bw process `A_tau(t)` from link busy
//!   records, plus the synthetic NLANR-substitute trace;
//! * [`tcp`] — a TCP Reno model (for Figure 7 and responsive cross
//!   traffic);
//! * [`core`] — the estimation framework: the fluid model (Equations
//!   6–10), probing streams, and Delphi-style direct probing, Spruce,
//!   TOPP, Pathload, pathChirp, IGI/PTR, BFind and a bprobe-style
//!   capacity prober; plus one experiment module per fallacy/pitfall.
//!
//! ## Quick start
//!
//! ```
//! use abwe::core::scenario::{Scenario, SingleHopConfig, CrossKind};
//! use abwe::core::tools::pathload::{Pathload, PathloadConfig};
//! use abwe::netsim::SimDuration;
//!
//! // a 50 Mb/s link carrying 25 Mb/s of Poisson cross traffic
//! let mut scenario = Scenario::single_hop(&SingleHopConfig {
//!     cross: CrossKind::Poisson,
//!     ..SingleHopConfig::default()
//! });
//! scenario.warm_up(SimDuration::from_millis(300));
//!
//! // Pathload reports a variation range (R_L, R_H), not a point
//! let mut tool = Pathload::new(PathloadConfig::quick());
//! let verdict = scenario.session().drive(&mut scenario.sim, &mut tool);
//! let (lo, hi) = verdict.range_bps().expect("Pathload reports a range");
//! assert!(lo < hi);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate each of the paper's figures and tables.

// Compiles and runs the README's Rust blocks as doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use abw_core as core;
pub use abw_netsim as netsim;
pub use abw_stats as stats;
pub use abw_tcp as tcp;
pub use abw_trace as trace;
pub use abw_traffic as traffic;
