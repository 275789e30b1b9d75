//! Deterministic link impairments: loss, reordering, jitter, rate flaps.
//!
//! The paper's pitfalls hinge on what happens when probes are
//! *disturbed*: direct probing silently assumes no loss, Pathload reads
//! loss as congestion, BFind deliberately induces it. The base
//! simulator can only lose packets through queue overflow, so this
//! module adds a per-link fault-injection pipeline:
//!
//! * i.i.d. random loss ([`LossModel::Iid`]),
//! * Gilbert–Elliott two-state bursty loss ([`LossModel::GilbertElliott`]),
//! * bounded packet reordering ([`ReorderSpec`]: a packet is held back
//!   by a fixed extra delay with some probability, letting later
//!   packets overtake it),
//! * delay jitter (uniform extra egress delay in `[0, max]`),
//! * scheduled capacity flaps (the link's effective rate steps through
//!   a fixed `(time, rate)` schedule).
//!
//! Every random decision is drawn from the impairment's **own seeded
//! RNG stream**, advanced only by packets crossing its link, so a run
//! is a pure function of its seeds: bit-reproducible and invariant
//! under `ABW_JOBS` (each simulation owns its links, and the executor
//! never shares state between jobs).
//!
//! Loss is applied at link *ingress* (before the queue — the packet
//! never occupies buffer space, modelling corruption on the upstream
//! wire); reordering and jitter are applied at link *egress* (extra
//! delay on top of propagation, the `netem`-style model). Capacity
//! flaps take effect at the next transmission start, so an in-flight
//! packet always finishes at the rate it started with.

use abw_obs::prof::{self, Cost};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// Packet-loss process of an impaired link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No impairment loss.
    None,
    /// Independent loss: every packet is dropped with probability `p`.
    Iid {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott bursty loss: a two-state Markov chain where each
    /// state has its own loss probability. The chain starts in the good
    /// state and transitions once per packet *after* the loss decision.
    GilbertElliott {
        /// Probability of moving good → bad, per packet.
        p_good_to_bad: f64,
        /// Probability of moving bad → good, per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
        /// Loss probability while in the good state (usually 0).
        loss_good: f64,
    },
}

impl LossModel {
    fn validate(&self) {
        let check = |p: f64, what: &str| {
            assert!(
                (0.0..=1.0).contains(&p),
                "{what} must be a probability in [0, 1], got {p}"
            );
        };
        match *self {
            LossModel::None => {}
            LossModel::Iid { p } => check(p, "iid loss probability"),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_bad,
                loss_good,
            } => {
                check(p_good_to_bad, "good->bad transition probability");
                check(p_bad_to_good, "bad->good transition probability");
                check(loss_bad, "bad-state loss probability");
                check(loss_good, "good-state loss probability");
            }
        }
    }

    fn is_noop(&self) -> bool {
        match *self {
            LossModel::None => true,
            LossModel::Iid { p } => p <= 0.0,
            LossModel::GilbertElliott {
                loss_bad,
                loss_good,
                ..
            } => loss_bad <= 0.0 && loss_good <= 0.0,
        }
    }
}

/// Bounded reordering: with probability `prob`, a departing packet is
/// held for `extra` beyond its normal egress time. Packets serialised
/// while it is held overtake it, so the reordering depth is bounded by
/// `extra / serialisation_time` — never unbounded shuffling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Probability a packet is held back.
    pub prob: f64,
    /// How long a held packet is delayed.
    pub extra: SimDuration,
}

/// Declarative impairment configuration of one link.
///
/// Build with the `with_*` methods or parse from a kebab-case spec
/// string ([`ImpairmentConfig::parse`]); attach to a link with
/// [`crate::sim::Simulator::impair_link`] or through a scenario's
/// `HopSpec`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentConfig {
    /// Packet-loss process.
    pub loss: LossModel,
    /// Bounded reordering, if any.
    pub reorder: Option<ReorderSpec>,
    /// Uniform egress jitter in `[0, max]`, if any.
    pub jitter: Option<SimDuration>,
    /// Scheduled capacity flaps: at each `(time, rate_bps)` the link's
    /// effective capacity becomes `rate_bps` (until the next entry).
    /// Entries must be in strictly increasing time order.
    pub flaps: Vec<(SimTime, f64)>,
}

impl Default for ImpairmentConfig {
    fn default() -> Self {
        ImpairmentConfig {
            loss: LossModel::None,
            reorder: None,
            jitter: None,
            flaps: Vec::new(),
        }
    }
}

impl ImpairmentConfig {
    /// A configuration with no impairments (attachable but inert).
    pub fn none() -> Self {
        ImpairmentConfig::default()
    }

    /// Independent per-packet loss with probability `p`.
    pub fn iid_loss(p: f64) -> Self {
        ImpairmentConfig {
            loss: LossModel::Iid { p },
            ..ImpairmentConfig::default()
        }
    }

    /// Sets the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Adds bounded reordering.
    pub fn with_reorder(mut self, prob: f64, extra: SimDuration) -> Self {
        self.reorder = Some(ReorderSpec { prob, extra });
        self
    }

    /// Adds uniform egress jitter in `[0, max]`.
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter = Some(max);
        self
    }

    /// Appends a capacity flap: effective rate becomes `rate_bps` at `at`.
    pub fn with_flap(mut self, at: SimTime, rate_bps: f64) -> Self {
        self.flaps.push((at, rate_bps));
        self
    }

    /// True when attaching this configuration would change nothing.
    pub fn is_noop(&self) -> bool {
        self.loss.is_noop()
            && self.reorder.is_none_or(|r| r.prob <= 0.0)
            && self.jitter.is_none_or(|j| j == SimDuration::ZERO)
            && self.flaps.is_empty()
    }

    /// Parses a kebab-case impairment spec: comma-separated
    /// `key=value` items.
    ///
    /// | key | value | example |
    /// |-----|-------|---------|
    /// | `loss` | i.i.d. loss probability | `loss=0.01` |
    /// | `ge-loss` | `p_gb:p_bg:loss_bad[:loss_good]` | `ge-loss=0.05:0.4:0.5` |
    /// | `reorder` | `prob:extra` | `reorder=0.05:2ms` |
    /// | `jitter` | max extra delay | `jitter=500us` |
    /// | `flap` | `time:rate[;time:rate…]` | `flap=2s:25e6;4s:50e6` |
    ///
    /// Durations take `ns`/`us`/`ms`/`s` suffixes. An empty string
    /// parses to [`ImpairmentConfig::none`]. A repeated key or an empty
    /// item (a trailing or doubled comma) is a parse error — near-miss
    /// specs must fail loudly rather than silently last-wins, since
    /// generated specs (the scenario fuzzer) exercise exactly those
    /// corners.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = ImpairmentConfig::none();
        if spec.trim().is_empty() {
            return Ok(config);
        }
        let mut seen: Vec<String> = Vec::new();
        for item in spec.split(',').map(str::trim) {
            if item.is_empty() {
                return Err("empty impairment item (trailing or doubled comma?)".to_string());
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("impairment item `{item}` is not key=value"))?;
            let key_name = key.trim().to_string();
            if seen.contains(&key_name) {
                return Err(format!(
                    "repeated impairment key `{key_name}` (each key may appear once)"
                ));
            }
            seen.push(key_name);
            match key.trim() {
                "loss" => {
                    config.loss = LossModel::Iid {
                        p: parse_prob(value)?,
                    };
                }
                "ge-loss" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if !(3..=4).contains(&parts.len()) {
                        return Err(format!(
                            "ge-loss wants p_gb:p_bg:loss_bad[:loss_good], got `{value}`"
                        ));
                    }
                    config.loss = LossModel::GilbertElliott {
                        p_good_to_bad: parse_prob(parts[0])?,
                        p_bad_to_good: parse_prob(parts[1])?,
                        loss_bad: parse_prob(parts[2])?,
                        loss_good: parts.get(3).map_or(Ok(0.0), |p| parse_prob(p))?,
                    };
                }
                "reorder" => {
                    let (prob, extra) = value
                        .split_once(':')
                        .ok_or_else(|| format!("reorder wants prob:extra, got `{value}`"))?;
                    config.reorder = Some(ReorderSpec {
                        prob: parse_prob(prob)?,
                        extra: parse_duration(extra)?,
                    });
                }
                "jitter" => config.jitter = Some(parse_duration(value)?),
                "flap" => {
                    for step in value.split(';') {
                        let (at, rate) = step
                            .split_once(':')
                            .ok_or_else(|| format!("flap wants time:rate, got `{step}`"))?;
                        let at = parse_duration(at)?;
                        let rate: f64 = rate
                            .trim()
                            .parse()
                            .map_err(|_| format!("flap rate `{rate}` is not a number"))?;
                        if !(rate.is_finite() && rate > 0.0) {
                            return Err(format!("flap rate must be positive, got {rate}"));
                        }
                        config.flaps.push((SimTime::ZERO + at, rate));
                    }
                }
                other => return Err(format!("unknown impairment key `{other}`")),
            }
        }
        config.validated()
    }

    /// Renders the configuration back to its canonical kebab-case spec
    /// string — the exact inverse of [`ImpairmentConfig::parse`]:
    /// `parse(&cfg.to_spec())` reproduces `cfg` bit-for-bit (floats are
    /// printed with their shortest round-trip representation, durations
    /// as an integer count of the largest exact unit). A no-op
    /// configuration renders as the empty string.
    pub fn to_spec(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        match self.loss {
            LossModel::None => {}
            LossModel::Iid { p } => items.push(format!("loss={p}")),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_bad,
                loss_good,
            } => {
                let mut s = format!("ge-loss={p_good_to_bad}:{p_bad_to_good}:{loss_bad}");
                if loss_good > 0.0 {
                    s.push_str(&format!(":{loss_good}"));
                }
                items.push(s);
            }
        }
        if let Some(r) = self.reorder {
            items.push(format!("reorder={}:{}", r.prob, fmt_duration(r.extra)));
        }
        if let Some(j) = self.jitter {
            items.push(format!("jitter={}", fmt_duration(j)));
        }
        if !self.flaps.is_empty() {
            let steps: Vec<String> = self
                .flaps
                .iter()
                .map(|&(at, rate)| {
                    format!(
                        "{}:{rate}",
                        fmt_duration(at.saturating_since(SimTime::ZERO))
                    )
                })
                .collect();
            items.push(format!("flap={}", steps.join(";")));
        }
        items.join(", ")
    }

    fn validated(self) -> Result<Self, String> {
        self.loss.validate();
        if let Some(r) = self.reorder {
            if !(0.0..=1.0).contains(&r.prob) {
                return Err(format!("reorder probability out of [0,1]: {}", r.prob));
            }
        }
        for w in self.flaps.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "flap schedule must be strictly increasing in time ({} then {})",
                    w[0].0, w[1].0
                ));
            }
        }
        Ok(self)
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("`{s}` is not a number"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability `{s}` out of [0, 1]"))
    }
}

/// Renders a duration as an integer count of the largest unit that
/// divides it exactly (`500ms`, `250us`, `1536ns`) — the canonical
/// inverse of [`parse_duration`]. An integer count keeps the round trip
/// exact: `parse_duration` multiplies in `f64` and rounds to the
/// nearest nanosecond, which reproduces `n * unit_nanos` exactly for
/// every integer `n` below 2^52.
pub fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        return "0s".to_string();
    }
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Parses a duration with an `ns`/`us`/`ms`/`s` suffix (e.g. `500us`,
/// `2.5ms`). Durations above 2^53 ns (about 104 days) are rejected.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (number, scale) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1e-9)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        return Err(format!("duration `{s}` needs an ns/us/ms/s suffix"));
    };
    let value: f64 = number
        .trim()
        .parse()
        .map_err(|_| format!("duration `{s}` is not a number"))?;
    if !(value.is_finite() && value >= 0.0) {
        return Err(format!("duration `{s}` must be non-negative and finite"));
    }
    // simulated time is a u64 of nanoseconds: spans up to 2^53 ns stay
    // exact in f64 and far from overflowing any instant they extend
    if value * scale * 1e9 > (1u64 << 53) as f64 {
        return Err(format!("duration `{s}` exceeds 2^53 ns (about 104 days)"));
    }
    Ok(SimDuration::from_secs_f64(value * scale))
}

/// What the ingress pipeline decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressDecision {
    /// The packet proceeds into the queue.
    Pass,
    /// The packet is lost before entering the queue.
    Lose,
}

/// The live impairment state of one link: configuration plus the seeded
/// RNG stream and the Gilbert–Elliott channel state.
#[derive(Debug)]
pub struct Impairment {
    config: ImpairmentConfig,
    rng: StdRng,
    /// Gilbert–Elliott channel state: true while in the bad state.
    ge_bad: bool,
}

impl Impairment {
    /// Creates the live state for `config`, drawing every decision from
    /// a fresh RNG stream seeded with `seed`.
    ///
    /// Panics when a probability is outside `[0, 1]` or the flap
    /// schedule is not strictly increasing — configuration errors.
    pub fn new(config: ImpairmentConfig, seed: u64) -> Self {
        let config = config
            .validated()
            .unwrap_or_else(|e| panic!("invalid impairment configuration: {e}"));
        Impairment {
            config,
            rng: StdRng::seed_from_u64(seed),
            ge_bad: false,
        }
    }

    /// The configuration this impairment was built from.
    pub fn config(&self) -> &ImpairmentConfig {
        &self.config
    }

    /// One uniform draw in `[0, 1)`, tallied as [`Cost::RngDraws`] —
    /// every random decision below goes through here so the profiler
    /// sees exactly how much entropy the impairment pipeline consumes.
    fn draw(&mut self) -> f64 {
        prof::count(Cost::RngDraws);
        self.rng.random::<f64>()
    }

    /// Ingress decision for the next packet offered to the link. Each
    /// call advances the loss process by exactly one packet.
    pub fn ingress(&mut self) -> IngressDecision {
        let lose = match self.config.loss {
            LossModel::None => false,
            LossModel::Iid { p } => p > 0.0 && self.draw() < p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_bad,
                loss_good,
            } => {
                let p = if self.ge_bad { loss_bad } else { loss_good };
                let lose = p > 0.0 && self.draw() < p;
                // transition after the loss decision, one step per packet
                let p_flip = if self.ge_bad {
                    p_bad_to_good
                } else {
                    p_good_to_bad
                };
                if p_flip > 0.0 && self.draw() < p_flip {
                    self.ge_bad = !self.ge_bad;
                }
                lose
            }
        };
        if lose {
            IngressDecision::Lose
        } else {
            IngressDecision::Pass
        }
    }

    /// Extra egress delay for the next departing packet: reorder hold
    /// plus jitter. Returns [`SimDuration::ZERO`] when neither applies.
    pub fn egress_extra(&mut self) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        if let Some(r) = self.config.reorder {
            if r.prob > 0.0 && self.draw() < r.prob {
                extra += r.extra;
            }
        }
        if let Some(max) = self.config.jitter {
            if max > SimDuration::ZERO {
                prof::count(Cost::RngDraws);
                extra += SimDuration::from_nanos(self.rng.random_range(0..=max.as_nanos()));
            }
        }
        extra
    }

    /// The link's effective capacity at `now`: the last flap at or
    /// before `now`, else `base_bps`.
    pub fn capacity_at(&self, now: SimTime, base_bps: f64) -> f64 {
        self.config
            .flaps
            .iter()
            .take_while(|&&(at, _)| at <= now)
            .last()
            .map_or(base_bps, |&(_, rate)| rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(imp: &mut Impairment, n: usize) -> Vec<bool> {
        (0..n)
            .map(|_| imp.ingress() == IngressDecision::Lose)
            .collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = ImpairmentConfig::iid_loss(0.2)
            .with_reorder(0.1, SimDuration::from_millis(2))
            .with_jitter(SimDuration::from_micros(500));
        let mut a = Impairment::new(cfg.clone(), 42);
        let mut b = Impairment::new(cfg, 42);
        for _ in 0..1000 {
            assert_eq!(a.ingress(), b.ingress());
            assert_eq!(a.egress_extra(), b.egress_extra());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = ImpairmentConfig::iid_loss(0.5);
        let mut a = Impairment::new(cfg.clone(), 1);
        let mut b = Impairment::new(cfg, 2);
        let da = decisions(&mut a, 256);
        let db = decisions(&mut b, 256);
        assert_ne!(da, db);
    }

    #[test]
    fn iid_loss_rate_converges() {
        let mut imp = Impairment::new(ImpairmentConfig::iid_loss(0.1), 7);
        let lost = decisions(&mut imp, 20_000).iter().filter(|&&l| l).count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "empirical loss rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // equal mean loss rate as iid, but losses must clump: the number
        // of loss runs is much smaller than the number of losses
        let cfg = ImpairmentConfig::none().with_loss(LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.2,
            loss_bad: 0.8,
            loss_good: 0.0,
        });
        let mut imp = Impairment::new(cfg, 11);
        let d = decisions(&mut imp, 50_000);
        let losses = d.iter().filter(|&&l| l).count();
        let runs = d.windows(2).filter(|w| !w[0] && w[1]).count().max(1);
        assert!(losses > 1000, "GE chain produced too few losses: {losses}");
        let mean_burst = losses as f64 / runs as f64;
        assert!(
            mean_burst > 1.5,
            "losses should arrive in bursts (mean burst length {mean_burst:.2})"
        );
    }

    #[test]
    fn jitter_is_bounded() {
        let max = SimDuration::from_micros(300);
        let mut imp = Impairment::new(ImpairmentConfig::none().with_jitter(max), 3);
        for _ in 0..5000 {
            assert!(imp.egress_extra() <= max);
        }
    }

    #[test]
    fn reorder_hold_is_all_or_nothing() {
        let extra = SimDuration::from_millis(1);
        let mut imp = Impairment::new(ImpairmentConfig::none().with_reorder(0.3, extra), 9);
        let mut held = 0;
        for _ in 0..5000 {
            let e = imp.egress_extra();
            assert!(e == SimDuration::ZERO || e == extra);
            if e == extra {
                held += 1;
            }
        }
        let rate = held as f64 / 5000.0;
        assert!((rate - 0.3).abs() < 0.05, "hold rate {rate}");
    }

    #[test]
    fn capacity_flap_schedule() {
        let cfg = ImpairmentConfig::none()
            .with_flap(SimTime::from_nanos(1_000), 20e6)
            .with_flap(SimTime::from_nanos(5_000), 80e6);
        let imp = Impairment::new(cfg, 0);
        assert_eq!(imp.capacity_at(SimTime::ZERO, 50e6), 50e6);
        assert_eq!(imp.capacity_at(SimTime::from_nanos(999), 50e6), 50e6);
        assert_eq!(imp.capacity_at(SimTime::from_nanos(1_000), 50e6), 20e6);
        assert_eq!(imp.capacity_at(SimTime::from_nanos(4_999), 50e6), 20e6);
        assert_eq!(imp.capacity_at(SimTime::from_nanos(5_000), 50e6), 80e6);
    }

    #[test]
    fn parse_full_spec() {
        let cfg = ImpairmentConfig::parse(
            "loss=0.01, reorder=0.05:2ms, jitter=500us, flap=2s:25e6;4s:50e6",
        )
        .unwrap();
        assert_eq!(cfg.loss, LossModel::Iid { p: 0.01 });
        assert_eq!(
            cfg.reorder,
            Some(ReorderSpec {
                prob: 0.05,
                extra: SimDuration::from_millis(2)
            })
        );
        assert_eq!(cfg.jitter, Some(SimDuration::from_micros(500)));
        assert_eq!(
            cfg.flaps,
            vec![
                (SimTime::ZERO + SimDuration::from_secs(2), 25e6),
                (SimTime::ZERO + SimDuration::from_secs(4), 50e6),
            ]
        );
    }

    #[test]
    fn parse_gilbert_elliott() {
        let cfg = ImpairmentConfig::parse("ge-loss=0.05:0.4:0.5").unwrap();
        assert_eq!(
            cfg.loss,
            LossModel::GilbertElliott {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.4,
                loss_bad: 0.5,
                loss_good: 0.0,
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ImpairmentConfig::parse("loss=1.5").is_err());
        assert!(ImpairmentConfig::parse("loss").is_err());
        assert!(ImpairmentConfig::parse("jitter=5").is_err(), "no suffix");
        assert!(ImpairmentConfig::parse("warp=0.1").is_err());
        assert!(ImpairmentConfig::parse("flap=2s:0").is_err());
        assert!(ImpairmentConfig::parse("flap=4s:1e6;2s:2e6").is_err());
        assert!(ImpairmentConfig::parse("reorder=0.1").is_err());
    }

    #[test]
    fn parse_rejects_repeated_keys() {
        // last-wins would silently drop the first value — generated
        // near-miss specs must fail loudly instead
        let err = ImpairmentConfig::parse("loss=0.01, loss=0.02").unwrap_err();
        assert!(err.contains("repeated impairment key `loss`"), "{err}");
        let err = ImpairmentConfig::parse("jitter=1ms, loss=0.1, jitter=2ms").unwrap_err();
        assert!(err.contains("repeated impairment key `jitter`"), "{err}");
        // ...including a repeat that would have parsed identically
        assert!(ImpairmentConfig::parse("loss=0.01,loss=0.01").is_err());
    }

    #[test]
    fn parse_rejects_trailing_and_doubled_commas() {
        for bad in ["loss=0.01,", "loss=0.01,,jitter=1ms", ",loss=0.01"] {
            let err = ImpairmentConfig::parse(bad).unwrap_err();
            assert!(err.contains("empty impairment item"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn to_spec_round_trips() {
        let specs = [
            "",
            "loss=0.01",
            "ge-loss=0.05:0.4:0.5",
            "ge-loss=0.05:0.4:0.5:0.001",
            "loss=0.013, reorder=0.05:2ms, jitter=500us, flap=2s:25000000;4s:51300000.5",
            "jitter=1536ns",
        ];
        for spec in specs {
            let cfg = ImpairmentConfig::parse(spec).unwrap();
            let rendered = cfg.to_spec();
            let reparsed = ImpairmentConfig::parse(&rendered)
                .unwrap_or_else(|e| panic!("`{rendered}` does not re-parse: {e}"));
            assert_eq!(cfg, reparsed, "spec `{spec}` -> `{rendered}`");
        }
        // the canonical rendering is itself a fixpoint
        let cfg = ImpairmentConfig::parse("loss=0.25,   jitter=250us").unwrap();
        assert_eq!(cfg.to_spec(), "loss=0.25, jitter=250us");
        assert_eq!(ImpairmentConfig::none().to_spec(), "");
    }

    #[test]
    fn fmt_duration_picks_largest_exact_unit() {
        assert_eq!(fmt_duration(SimDuration::ZERO), "0s");
        assert_eq!(fmt_duration(SimDuration::from_secs(2)), "2s");
        assert_eq!(fmt_duration(SimDuration::from_millis(500)), "500ms");
        assert_eq!(fmt_duration(SimDuration::from_micros(1500)), "1500us");
        assert_eq!(fmt_duration(SimDuration::from_nanos(1536)), "1536ns");
        for ns in [1u64, 999, 1_000, 123_456, 7_000_000, 86_400_000_000_000] {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(parse_duration(&fmt_duration(d)).unwrap(), d, "{ns}ns");
        }
    }

    #[test]
    fn durations_past_2_pow_53_ns_are_rejected_not_saturated() {
        let ns = parse_duration("9000000s").unwrap().as_nanos();
        assert_eq!(ns, 9_000_000_000_000_000);
        for spec in ["jitter=1e300s", "reorder=0.1:9010000s", "flap=1e300s:1e6"] {
            let err = ImpairmentConfig::parse(spec).unwrap_err();
            assert!(err.contains("exceeds 2^53 ns"), "`{spec}`: {err}");
        }
    }

    #[test]
    fn empty_spec_is_noop() {
        let cfg = ImpairmentConfig::parse("").unwrap();
        assert!(cfg.is_noop());
        assert!(ImpairmentConfig::iid_loss(0.0).is_noop());
        assert!(!ImpairmentConfig::iid_loss(0.1).is_noop());
    }
}
