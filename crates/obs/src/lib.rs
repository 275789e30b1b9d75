//! # abw-obs
//!
//! Zero-external-dependency observability layer for the `abwe`
//! workspace. Every figure in Jain & Dovrolis (IMC 2004) is an argument
//! about *internal* dynamics — queue build-up during a probing stream,
//! OWD trends inside a train, convergence of an iterative search — and
//! this crate is how those dynamics become observable without a
//! debugger:
//!
//! * [`Recorder`] — event sink trait. The zero-cost default is no
//!   recorder at all (the simulator holds none unless one is installed,
//!   so the off path is a single branch per emission site). Events are
//!   decisions, not packets: the estimators' convergence events, one
//!   `probe.stream` line per probing stream and TCP's `tcp.cwnd` /
//!   `tcp.loss`; the simulator's event loop emits nothing, so a traced
//!   run executes exactly what an untraced one does.
//!   [`JsonlRecorder`] streams one JSON object per event;
//!   [`MemoryRecorder`] buffers events for in-process analysis;
//!   [`SharedRecorder`] fans multiple simulators into one sink.
//! * [`manifest::RunManifest`] — seeds, scenario parameters, a
//!   git-describe-style version, wall-clock time and the run's counter
//!   totals, serialized as JSON so any run is reproducible from its
//!   artifact alone.
//! * [`global`] — an opt-in process-wide default recorder, the hook the
//!   `ABW_TRACE` environment plumbing in `abw-bench` uses, plus the
//!   per-thread capture the parallel executor (`abw-exec`) wraps around
//!   every job so traces stay byte-identical across worker counts.
//! * [`prof`] — wall-clock-free cost counters (legal everywhere under
//!   lint rule D1), the one count model: `ABW_PROF=1` prints them and a
//!   run manifest reports them; plus hierarchical span timers whose
//!   clock is injected by the harness, so real-time reads stay confined
//!   to `exec`/`bench`.
//!
//! The environment this workspace builds in is offline, so everything
//! here is hand-rolled on `std` only (no `tracing`, no `metrics`, no
//! `serde`), matching the repo's dependency policy.

pub mod event;
pub mod global;
pub mod json;
pub mod manifest;
pub mod prof;
pub mod record;

pub use event::{Event, Field, OwnedEvent, OwnedValue, Value};
pub use manifest::RunManifest;
pub use prof::{Cost, Profile, SpanGuard};
pub use record::{JsonlRecorder, MemoryRecorder, Recorder, SharedRecorder};
