//! # abw-core
//!
//! End-to-end available bandwidth estimation — the subject of *"Ten
//! Fallacies and Pitfalls on End-to-End Available Bandwidth Estimation"*
//! (Jain & Dovrolis, IMC 2004).
//!
//! The crate provides, on top of the `abw-netsim` simulator:
//!
//! * [`fluid`] — the single-link fluid model every probing technique is
//!   built on (Equations 6–10 of the paper), including the direct-probing
//!   inversion and the iterative-probing predicate;
//! * [`stream`] / [`probe`] — probing stream construction (periodic
//!   trains, Poisson-spaced packet pairs, exponentially spaced chirps) and
//!   the sender/receiver agents that measure one-way delays and rates;
//! * [`scenario`] — the canonical simulation topologies of the paper's
//!   experiments (single-hop 50 Mb/s with 25 Mb/s avail-bw, multi-hop
//!   paths with one-hop persistent cross traffic, tight≠narrow paths);
//! * [`tools`] — implementations of the estimation techniques the paper
//!   classifies: direct probing (Delphi-style trains, Spruce) and
//!   iterative probing (TOPP, Pathload, pathChirp, IGI/PTR, BFind), plus
//!   a bprobe-style end-to-end *capacity* estimator (Pitfall 5);
//! * [`experiments`] — one module per fallacy/pitfall, reproducing every
//!   figure and table in the paper's §3 (see DESIGN.md for the index).
//!
//! ## Quick start
//!
//! ```
//! use abw_core::scenario::{Scenario, SingleHopConfig, CrossKind};
//! use abw_core::tools::pathload::{Pathload, PathloadConfig};
//!
//! // 50 Mb/s link carrying 25 Mb/s of Poisson cross traffic
//! let mut scenario = Scenario::single_hop(&SingleHopConfig {
//!     cross: CrossKind::Poisson,
//!     ..SingleHopConfig::default()
//! });
//! // a session drives the estimator over the scenario's endpoints
//! let mut tool = Pathload::new(PathloadConfig::quick());
//! let verdict = scenario.session().drive(&mut scenario.sim, &mut tool);
//! let (lo, hi) = verdict.range_bps().expect("Pathload reports a range");
//! assert!(lo < hi);
//! ```

pub mod experiments;
pub mod fluid;
pub mod probe;
pub mod scenario;
pub mod stream;
pub mod tools;

pub use probe::{ProbeReceiver, ProbeRunner, ProbeSender, StreamResult};
pub use scenario::{CrossKind, Scenario, SingleHopConfig};
pub use stream::StreamSpec;
