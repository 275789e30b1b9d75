//! The tool registry: every estimation technique constructible by its
//! kebab-case name.
//!
//! Consumers (the shootout, the tracking experiment, bench binaries, the
//! golden equivalence pin) instantiate tools through [`find`]/[`all`]
//! instead of hard-coding each tool's config type, so adding a tool is
//! one entry here plus its module. The *quick* settings are the
//! scaled-down configurations the test suite and golden files use; the
//! full settings are the shootout defaults.

use abw_netsim::SimDuration;
use abw_obs::prof::{self, Cost};

use crate::tools::bfind::{Bfind, BfindConfig};
use crate::tools::capacity::{CapacityConfig, CapacityProber};
use crate::tools::delphi::{Delphi, DelphiConfig};
use crate::tools::direct::{DirectConfig, DirectProber};
use crate::tools::igi::{Igi, IgiConfig};
use crate::tools::pathchirp::{Pathchirp, PathchirpConfig};
use crate::tools::pathload::{Pathload, PathloadConfig};
use crate::tools::schirp::{Schirp, SchirpConfig};
use crate::tools::spruce::{Spruce, SpruceConfig};
use crate::tools::topp::{Topp, ToppConfig};
use crate::tools::Estimator;

/// Knobs shared by every registry constructor.
#[derive(Debug, Clone)]
pub struct ToolConfig {
    /// Tight-link capacity `Ct` handed to the tools that assume it is
    /// known (direct probing, Delphi, Spruce, IGI/PTR).
    pub tight_capacity_bps: f64,
    /// Scaled-down settings for tests and golden pins.
    pub quick: bool,
}

impl Default for ToolConfig {
    fn default() -> Self {
        ToolConfig {
            tight_capacity_bps: 50e6,
            quick: false,
        }
    }
}

impl ToolConfig {
    /// Quick settings against the canonical 50 Mb/s tight link.
    pub fn quick() -> Self {
        ToolConfig {
            quick: true,
            ..ToolConfig::default()
        }
    }
}

/// One registered tool.
pub struct ToolEntry {
    /// Kebab-case registry name (unique).
    pub name: &'static str,
    /// The module under `tools/` implementing it.
    pub module: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where the paper discusses the technique.
    pub paper_section: &'static str,
    constructor: fn(&ToolConfig) -> Box<dyn Estimator>,
}

impl ToolEntry {
    /// Builds a fresh single-shot estimator for one measurement round.
    ///
    /// The estimator comes wrapped in a transparent profiling shim:
    /// every `next()` call is tallied as a [`Cost::ToolSteps`] unit and
    /// timed under a span named after the registry entry — so a span
    /// report attributes decision time to `pathload`, `spruce`, … with
    /// no per-tool instrumentation. The shim forwards verbatim and
    /// never perturbs tool behavior.
    pub fn build(&self, config: &ToolConfig) -> Box<dyn Estimator> {
        Box::new(Instrumented {
            name: self.name,
            inner: (self.constructor)(config),
        })
    }
}

/// Transparent per-tool profiling wrapper (see [`ToolEntry::build`]).
struct Instrumented {
    name: &'static str,
    inner: Box<dyn Estimator>,
}

impl Estimator for Instrumented {
    fn next(&mut self, last: Option<&crate::tools::Observation>) -> crate::tools::Action {
        prof::count(Cost::ToolSteps);
        let _span = prof::span(self.name);
        self.inner.next(last)
    }

    fn take_events(&mut self) -> Vec<crate::tools::ToolEvent> {
        self.inner.take_events()
    }
}

impl std::fmt::Debug for ToolEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolEntry")
            .field("name", &self.name)
            .field("module", &self.module)
            .finish_non_exhaustive()
    }
}

static TOOLS: [ToolEntry; 11] = [
    ToolEntry {
        name: "direct",
        module: "direct",
        summary: "periodic trains inverted with Equation 9",
        paper_section: "§2.2 (direct probing)",
        constructor: |c| {
            Box::new(DirectProber::new(DirectConfig {
                tight_capacity_bps: c.tight_capacity_bps,
                streams: if c.quick { 20 } else { 100 },
                ..DirectConfig::canonical()
            }))
        },
    },
    ToolEntry {
        name: "delphi",
        module: "delphi",
        summary: "adaptive trains whose input rate tracks the estimate",
        paper_section: "§2.2 (direct probing)",
        constructor: |c| {
            Box::new(Delphi::new(DelphiConfig {
                trains: if c.quick { 15 } else { 40 },
                ..DelphiConfig::new(c.tight_capacity_bps)
            }))
        },
    },
    ToolEntry {
        name: "spruce",
        module: "spruce",
        summary: "Poisson-spaced packet pairs at the tight-link rate",
        paper_section: "§2.2 (direct probing)",
        constructor: |c| {
            Box::new(Spruce::new(SpruceConfig {
                pairs: if c.quick { 50 } else { 100 },
                ..SpruceConfig::new(c.tight_capacity_bps)
            }))
        },
    },
    ToolEntry {
        name: "topp",
        module: "topp",
        summary: "linear rate sweep with regression on Ri/Ro",
        paper_section: "§2.3 (iterative probing)",
        constructor: |c| {
            Box::new(Topp::new(ToppConfig {
                step_bps: if c.quick { 3e6 } else { 1e6 },
                streams_per_rate: if c.quick { 3 } else { 6 },
                stream_gap: Some(SimDuration::from_millis(5)),
                ..ToppConfig::default()
            }))
        },
    },
    ToolEntry {
        name: "pathload",
        module: "pathload",
        summary: "binary rate search with PCT/PDT trend tests",
        paper_section: "§2.3 (iterative probing), §3.9 (variation range)",
        constructor: |c| {
            Box::new(Pathload::new(if c.quick {
                PathloadConfig::quick()
            } else {
                PathloadConfig::default()
            }))
        },
    },
    ToolEntry {
        name: "pathchirp",
        module: "pathchirp",
        summary: "exponentially spaced chirps with excursion analysis",
        paper_section: "§2.3 (iterative probing)",
        constructor: |c| {
            Box::new(Pathchirp::new(PathchirpConfig {
                chirps: if c.quick { 15 } else { 30 },
                ..PathchirpConfig::default()
            }))
        },
    },
    // Sends pathChirp's exact chirp stream (same start rate, gamma,
    // packets per chirp) and differs only in receiver-side smoothing,
    // so its perf-harness cost rows are byte-identical to
    // `pathchirp`'s by construction. Pinned by
    // `shared_engine_tool_pairs_have_identical_probe_cost`.
    ToolEntry {
        name: "schirp",
        module: "schirp",
        summary: "smoothed chirps (Pásztor's S-chirp)",
        paper_section: "§2.3 (iterative probing)",
        constructor: |c| {
            Box::new(Schirp::new(SchirpConfig {
                chirps: if c.quick { 15 } else { 30 },
                ..SchirpConfig::default()
            }))
        },
    },
    ToolEntry {
        name: "igi",
        module: "igi",
        summary: "gap-increase trains, IGI formula at the turning point",
        paper_section: "§2.3 (the tool the paper calls hard to classify)",
        constructor: |c| {
            Box::new(Igi::new(IgiConfig {
                tight_capacity_bps: c.tight_capacity_bps,
                ..IgiConfig::default()
            }))
        },
    },
    // Runs the same Igi state machine as the entry above — only the
    // verdict variant differs, so its perf-harness cost rows (probe
    // packets, events) are byte-identical to `igi`'s by construction. Pinned by
    // `shared_engine_tool_pairs_have_identical_probe_cost`.
    ToolEntry {
        name: "ptr",
        module: "igi",
        summary: "gap-increase trains, turning-point train rate",
        paper_section: "§2.3 (iterative probing)",
        constructor: |c| {
            Box::new(Igi::ptr(IgiConfig {
                tight_capacity_bps: c.tight_capacity_bps,
                ..IgiConfig::default()
            }))
        },
    },
    ToolEntry {
        name: "bfind",
        module: "bfind",
        summary: "sender-only load ramp with per-hop RTT monitoring",
        paper_section: "§2.3 (iterative probing, no receiver needed)",
        constructor: |_| Box::new(Bfind::new(BfindConfig::default())),
    },
    ToolEntry {
        name: "capacity",
        module: "capacity",
        summary: "bprobe-style pair dispersion (measures Cn, Pitfall 5)",
        paper_section: "§3.5 (Pitfall 5: narrow vs tight link)",
        constructor: |_| Box::new(CapacityProber::new(CapacityConfig::default())),
    },
];

/// Every registered tool, in the canonical (golden CSV) order.
pub fn all() -> &'static [ToolEntry] {
    &TOOLS
}

/// Looks a tool up by its registry name.
pub fn find(name: &str) -> Option<&'static ToolEntry> {
    TOOLS.iter().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_is_consistent_with_all() {
        for entry in all() {
            assert!(std::ptr::eq(find(entry.name).unwrap(), entry));
        }
        assert!(find("no-such-tool").is_none());
    }

    #[test]
    fn every_entry_builds() {
        for config in [ToolConfig::default(), ToolConfig::quick()] {
            for entry in all() {
                // first decision of a fresh estimator must be a Send
                let mut tool = entry.build(&config);
                assert!(
                    matches!(tool.next(None), crate::tools::Action::Send(_)),
                    "{} must start by probing",
                    entry.name
                );
            }
        }
    }
}
