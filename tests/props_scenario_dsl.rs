//! Scenario DSL round-trip properties and deny-fixtures.
//!
//! The round-trip property leans on the fuzzer's own generator: every
//! spec `gen_spec` can produce must render with `to_spec` and reparse
//! to an identical `ScenarioSpec`, and the canonical form must be a
//! fixpoint. The deny-fixtures pin exact `file:line:col` diagnostics
//! for committed malformed specs, so error positions cannot drift
//! silently. The hostile-input properties mutate committed valid text
//! (the golden `.scn` specs, a full impairment spec) and require the
//! `.scn` and impairment parsers to return a value or an error, never
//! to panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use abwe::core::scenario::dsl::ScenarioSpec;
use abwe::core::scenario::fuzz;
use abwe::netsim::ImpairmentConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(to_spec(s)) == s for every generated spec.
    #[test]
    fn round_trip_is_exact(seed in 0u64..1 << 48, index in 0u32..64) {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let spec = fuzz::gen_spec(&mut rng, seed, index);
        let rendered = spec.to_spec();
        let reparsed = ScenarioSpec::parse(&rendered, "round-trip.scn")
            .expect("generated spec must reparse");
        prop_assert_eq!(&spec, &reparsed, "canonical form:\n{}", rendered);
        // canonical form is a fixpoint
        prop_assert_eq!(rendered, reparsed.to_spec());
    }
}

fn parse_fixture(
    name: &str,
) -> (
    String,
    Result<ScenarioSpec, abwe::core::scenario::dsl::ParseError>,
) {
    let path = format!("tests/fixtures/scn/{name}");
    let src = std::fs::read_to_string(&path).expect("fixture must exist");
    let result = ScenarioSpec::parse(&src, &path);
    (path, result)
}

#[test]
fn deny_fixture_unknown_key() {
    let (path, result) = parse_fixture("unknown_key.scn");
    let e = result.expect_err("unknown key must be rejected");
    assert_eq!(
        e.to_string(),
        format!(
            "{path}:4:1: unknown key `wat` (expected seeds, warmup, rounds, quick, tools, \
             or a `hop` line)"
        ),
    );
}

#[test]
fn deny_fixture_loss_out_of_range() {
    let (path, result) = parse_fixture("loss_out_of_range.scn");
    let e = result.expect_err("loss above 1 must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 30), "{e}");
    assert!(e.message.contains("out of [0, 1]"), "{e}");
}

#[test]
fn deny_fixture_latency_overflow() {
    // past 2^53 ns a duration would saturate and overflow simulated time
    let (path, result) = parse_fixture("latency_overflow.scn");
    let e = result.expect_err("a latency past 2^53 ns must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 31), "{e}");
    assert!(e.message.contains("exceeds 2^53 ns"), "{e}");
}

#[test]
fn deny_fixture_duplicate_hop_key() {
    let (path, result) = parse_fixture("dup_hop_key.scn");
    let e = result.expect_err("duplicate hop key must be rejected");
    assert_eq!(e.file, path);
    assert_eq!((e.line, e.col), (4, 35), "{e}");
    assert_eq!(
        e.message,
        "duplicate hop key `capacity` (each key may appear once)"
    );
}

/// Committed valid `.scn` text for the hostile-input properties.
const SPECS: [&str; 3] = [
    include_str!("golden/scenarios/loss_sweep.scn"),
    include_str!("golden/scenarios/shootout.scn"),
    include_str!("golden/scenarios/tracking.scn"),
];

/// Valid impairment specs using every key.
const IMPAIRMENTS: [&str; 2] = [
    "loss=0.01, reorder=0.05:2ms, jitter=500us, flap=2s:25e6;4s:50e6",
    "ge-loss=0.05:0.4:0.5:0.01, reorder=0.05:2ms, jitter=500us, flap=2s:25e6",
];

/// Text the insert edit splices in: both grammars' separators and keys,
/// and numbers at the edges of what they accept.
const TOKENS: &[&str] = &[
    "=",
    "\"",
    ",",
    ":",
    ";",
    "\n",
    "#",
    " ",
    "\t",
    "\r",
    "hop ",
    "impair=\"",
    "loss=",
    "ge-loss=",
    "reorder=",
    "jitter=",
    "flap=",
    "seeds = ",
    "tools = ",
    "0",
    "-1",
    "-0",
    "1e308",
    "1e-320",
    "NaN",
    "inf",
    "0x",
    "0xffffffffffffffff",
    "18446744073709551616",
    "9007199254740993",
    "ns",
    "us",
    "ms",
    "s",
    "é",
    "\u{0}",
    "\u{feff}",
];

/// Hostile-input edits: `(operation, position, length, pick)`.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize, u32)>> {
    prop::collection::vec((0u8..5, 0usize..1 << 12, 0usize..24, 0u32..0x11_0000), 1..8)
}

/// Applies `edits` to `text`: delete a range, insert a token, duplicate
/// a range, replace one character with an arbitrary one, or truncate.
fn mutate(text: &str, edits: &[(u8, usize, usize, u32)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(op, pos, len, pick) in edits {
        let at = pos % (chars.len() + 1);
        let end = (at + len).min(chars.len());
        match op {
            0 => {
                chars.drain(at..end);
            }
            1 => {
                chars.splice(at..at, TOKENS[pick as usize % TOKENS.len()].chars());
            }
            2 => {
                let copy = chars[at..end].to_vec();
                chars.splice(at..at, copy);
            }
            3 => {
                chars.splice(at..(at + 1).min(chars.len()), char::from_u32(pick));
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A mutated `.scn` spec parses or fails with a `ParseError`.
    #[test]
    fn mutated_specs_never_panic(which in 0usize..SPECS.len(), edits in edits()) {
        let input = mutate(SPECS[which], &edits);
        let outcome = std::panic::catch_unwind(|| ScenarioSpec::parse(&input, "hostile.scn"));
        prop_assert!(outcome.is_ok(), "ScenarioSpec::parse panicked on\n{}", input);
    }

    /// A mutated impairment spec parses or fails with a message.
    #[test]
    fn mutated_impairments_never_panic(which in 0usize..IMPAIRMENTS.len(), edits in edits()) {
        let input = mutate(IMPAIRMENTS[which], &edits);
        let outcome = std::panic::catch_unwind(|| ImpairmentConfig::parse(&input));
        prop_assert!(outcome.is_ok(), "ImpairmentConfig::parse panicked on {:?}", input);
    }
}
