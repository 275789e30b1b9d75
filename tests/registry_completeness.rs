//! Registry hygiene that needs a running binary: name uniqueness and
//! the find() round trip. Registry *exhaustiveness* — every module in
//! `tools/` has an entry and every entry points at a real module — is
//! checked statically by abw-lint's D9 rule (`abw-lint --list-rules`),
//! which replaced the filesystem scan that used to live here.

use std::collections::BTreeSet;

use abwe::core::tools::registry::{self, ToolConfig};
use abwe::core::tools::Action;

#[test]
fn names_are_unique_and_kebab_case() {
    let mut seen = BTreeSet::new();
    for entry in registry::all() {
        assert!(
            seen.insert(entry.name),
            "duplicate registry name `{}`",
            entry.name
        );
        assert!(
            !entry.name.is_empty()
                && entry
                    .name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                && !entry.name.starts_with('-')
                && !entry.name.ends_with('-'),
            "registry name `{}` is not kebab-case",
            entry.name
        );
        assert!(!entry.summary.is_empty(), "`{}` has no summary", entry.name);
        assert!(
            !entry.paper_section.is_empty(),
            "`{}` has no paper section",
            entry.name
        );
    }
}

#[test]
fn find_round_trips_every_name_into_a_working_estimator() {
    for entry in registry::all() {
        let found = registry::find(entry.name)
            .unwrap_or_else(|| panic!("find(`{}`) returned None", entry.name));
        assert!(std::ptr::eq(found, entry));
        let mut tool = found.build(&ToolConfig::quick());
        assert!(
            matches!(tool.next(None), Action::Send(_)),
            "`{}` must start by probing",
            entry.name
        );
    }
}

/// Two tool pairs cost the same probe packets and events, bit for bit:
/// `igi`/`ptr` and
/// `pathchirp`/`schirp`. That is genuine, not a registry bug: each
/// pair shares one probing engine (`ptr` is the `Igi` gap-increase
/// train with the turning-point *rate* estimator instead of the IGI
/// formula; `schirp` sends pathChirp's exact chirp stream and only
/// smooths the receiver-side delay series). Identical probe streams
/// must cost identical packets and events; this pins the equality so
/// an accidental config divergence (or a registry entry built from
/// the wrong constructor) shows up as a test failure, not as a silent
/// shift in the benchmark's per-tool rows.
#[test]
fn shared_engine_tool_pairs_have_identical_probe_cost() {
    use abwe::core::scenario::{Scenario, SingleHopConfig};
    use abwe::netsim::SimDuration;

    let probe_cost = |name: &str| -> (u64, u64) {
        let entry = registry::find(name).unwrap();
        let mut s = Scenario::single_hop(&SingleHopConfig {
            seed: 11,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = entry.build(&ToolConfig::quick());
        let mut session = s.session();
        let events_before = s.sim.counters().injected;
        let verdict = session.drive(&mut s.sim, tool.as_mut());
        (
            verdict.probe_packets(),
            s.sim.counters().injected - events_before,
        )
    };
    for (a, b) in [("igi", "ptr"), ("pathchirp", "schirp")] {
        assert_eq!(
            probe_cost(a),
            probe_cost(b),
            "`{a}` and `{b}` share a probing engine; their probe cost must match"
        );
    }
}
