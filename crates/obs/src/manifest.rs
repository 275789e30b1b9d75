//! Run manifests: the reproducibility record of one experiment run.
//!
//! A manifest answers "what exactly produced this output?" — seeds,
//! scenario parameters, code version, how long the run took in both
//! wall-clock and simulated time, and what every link saw. It is plain
//! JSON so plotting scripts and humans read it without this crate.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::{array_of_raw, ObjectWriter};

/// Per-link counter snapshot as embedded in a [`RunManifest`].
///
/// This is the *observability-side* shape; `abw-netsim` converts its
/// internal `LinkCounters` into this, keeping the dependency direction
/// netsim → obs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Link identifier (index or name).
    pub link: String,
    /// Configured capacity in bits per second.
    pub capacity_bps: u64,
    /// Packets forwarded onto the wire.
    pub forwarded_pkts: u64,
    /// Bytes forwarded onto the wire.
    pub forwarded_bytes: u64,
    /// Packets dropped at the tail of a full queue.
    pub dropped_pkts: u64,
    /// Bytes dropped at the tail of a full queue.
    pub dropped_bytes: u64,
    /// Packets lost to injected impairments (fault injection, not
    /// queue overflow).
    pub impaired_pkts: u64,
    /// Bytes lost to injected impairments.
    pub impaired_bytes: u64,
    /// Peak observed queue depth in packets.
    pub peak_queue_pkts: u64,
    /// Optional pre-serialized JSON summary of the queue-depth
    /// histogram (see `LogLinearHistogram::summary_json`).
    pub queue_depth_summary: Option<String>,
}

impl LinkSnapshot {
    /// Accumulates `other` into this snapshot: counters sum, the peak
    /// depth is the max, capacity keeps the larger value, and the
    /// queue-depth summary is kept only when this snapshot lacks one
    /// (histogram summaries cannot be merged after serialization).
    pub fn merge_from(&mut self, other: &LinkSnapshot) {
        self.capacity_bps = self.capacity_bps.max(other.capacity_bps);
        self.forwarded_pkts = self.forwarded_pkts.saturating_add(other.forwarded_pkts);
        self.forwarded_bytes = self.forwarded_bytes.saturating_add(other.forwarded_bytes);
        self.dropped_pkts = self.dropped_pkts.saturating_add(other.dropped_pkts);
        self.dropped_bytes = self.dropped_bytes.saturating_add(other.dropped_bytes);
        self.impaired_pkts = self.impaired_pkts.saturating_add(other.impaired_pkts);
        self.impaired_bytes = self.impaired_bytes.saturating_add(other.impaired_bytes);
        self.peak_queue_pkts = self.peak_queue_pkts.max(other.peak_queue_pkts);
        if self.queue_depth_summary.is_none() {
            self.queue_depth_summary = other.queue_depth_summary.clone();
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.str("link", &self.link)
            .u64("capacity_bps", self.capacity_bps)
            .u64("forwarded_pkts", self.forwarded_pkts)
            .u64("forwarded_bytes", self.forwarded_bytes)
            .u64("dropped_pkts", self.dropped_pkts)
            .u64("dropped_bytes", self.dropped_bytes)
            .u64("impaired_pkts", self.impaired_pkts)
            .u64("impaired_bytes", self.impaired_bytes)
            .u64("peak_queue_pkts", self.peak_queue_pkts);
        if let Some(ref summary) = self.queue_depth_summary {
            w.raw("queue_depth", summary);
        }
        w.finish();
        out
    }
}

/// The manifest of one run: everything needed to reproduce it plus the
/// headline outcome counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Run name (usually the binary name, e.g. `fig1`).
    pub name: String,
    /// Code version (`git describe`-style when available).
    pub version: String,
    /// RNG seeds used, in the order they were consumed.
    pub seeds: Vec<u64>,
    /// Scenario parameters, as `(key, value-as-JSON)` pairs. Values are
    /// pre-serialized so callers control their formatting.
    pub params: Vec<(String, String)>,
    /// Total simulated time across all simulations in the run.
    pub sim_time_ns: u64,
    /// Wall-clock duration of the run in seconds. (Excluded from any
    /// byte-identity guarantees — it varies run to run by nature.)
    pub wall_time_secs: f64,
    /// Simulator-global counters, as `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Per-link snapshots.
    pub links: Vec<LinkSnapshot>,
    /// Free-form extra entries, `(key, value-as-JSON)`.
    pub extra: Vec<(String, String)>,
}

impl RunManifest {
    /// A manifest for `name` with the version auto-detected.
    pub fn new(name: impl Into<String>) -> Self {
        RunManifest {
            name: name.into(),
            version: detect_version(),
            ..RunManifest::default()
        }
    }

    /// Records a seed (order matters; call in consumption order).
    pub fn push_seed(&mut self, seed: u64) -> &mut Self {
        self.seeds.push(seed);
        self
    }

    /// Records a scenario parameter with a string value.
    pub fn param_str(&mut self, key: &str, value: &str) -> &mut Self {
        let mut json = String::new();
        crate::json::push_str_escaped(&mut json, value);
        self.params.push((key.to_string(), json));
        self
    }

    /// Records a scenario parameter with a numeric value.
    pub fn param_f64(&mut self, key: &str, value: f64) -> &mut Self {
        let mut json = String::new();
        crate::json::push_f64(&mut json, value);
        self.params.push((key.to_string(), json));
        self
    }

    /// Records a scenario parameter with an integer value.
    pub fn param_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Records a scenario parameter with a boolean value (JSON
    /// `true`/`false` — the fuzz harness records whether the
    /// `ABW_CHECK` invariants were live this way, so a manifest can
    /// never pass a check-free run off as a checked one).
    pub fn param_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.params.push((
            key.to_string(),
            if value { "true" } else { "false" }.to_string(),
        ));
        self
    }

    /// Records a named counter value.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.counters.push((name.to_string(), value));
        self
    }

    /// Adds `value` into the named counter, merging with an existing
    /// entry — the accumulation path for runs spanning several
    /// simulations.
    pub fn add_counter(&mut self, name: &str, value: u64) -> &mut Self {
        match self.counters.iter_mut().find(|(k, _)| k == name) {
            Some(entry) => entry.1 = entry.1.saturating_add(value),
            None => self.counters.push((name.to_string(), value)),
        }
        self
    }

    /// Folds a per-link snapshot in, merging with an existing entry of
    /// the same name — so a run spanning many simulators reports totals
    /// per link index instead of an unbounded snapshot list.
    pub fn fold_link(&mut self, snap: LinkSnapshot) -> &mut Self {
        match self.links.iter_mut().find(|l| l.link == snap.link) {
            Some(existing) => existing.merge_from(&snap),
            None => self.links.push(snap),
        }
        self
    }

    /// Absorbs another manifest's accumulated simulation state: seeds
    /// append, simulated time and counters add, links fold. Name,
    /// version, params and wall-clock time of `self` are untouched.
    pub fn absorb(&mut self, other: RunManifest) -> &mut Self {
        self.seeds.extend(other.seeds);
        self.sim_time_ns = self.sim_time_ns.saturating_add(other.sim_time_ns);
        for (name, value) in other.counters {
            self.add_counter(&name, value);
        }
        for snap in other.links {
            self.fold_link(snap);
        }
        self.extra.extend(other.extra);
        self
    }

    /// Serializes the manifest as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.str("name", &self.name).str("version", &self.version);
        w.raw(
            "seeds",
            &array_of_raw(self.seeds.iter().map(|s| s.to_string())),
        );
        {
            let mut params = String::new();
            let mut pw = ObjectWriter::new(&mut params);
            for (k, v) in &self.params {
                pw.raw(k, v);
            }
            pw.finish();
            w.raw("params", &params);
        }
        w.u64("sim_time_ns", self.sim_time_ns)
            .f64("wall_time_secs", self.wall_time_secs);
        {
            let mut counters = String::new();
            let mut cw = ObjectWriter::new(&mut counters);
            for (k, v) in &self.counters {
                cw.u64(k, *v);
            }
            cw.finish();
            w.raw("counters", &counters);
        }
        w.raw(
            "links",
            &array_of_raw(self.links.iter().map(|l| l.to_json())),
        );
        for (k, v) in &self.extra {
            w.raw(k, v);
        }
        w.finish();
        out
    }

    /// Writes `<dir>/<name>.manifest.json`, creating `dir` as needed.
    /// Returns the path written.
    pub fn write_to<P: AsRef<Path>>(&self, dir: P) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.manifest.json", self.name));
        let mut json = self.to_json();
        json.push('\n');
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Best-effort code version: `git describe --always --dirty` when a git
/// checkout and binary are available, else this crate's package
/// version.
pub fn detect_version() -> String {
    let described = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    described.unwrap_or_else(|| format!("abw-obs-{}", env!("CARGO_PKG_VERSION")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_expected_shape() {
        let mut m = RunManifest {
            name: "fig1".into(),
            version: "v1-test".into(),
            ..RunManifest::default()
        };
        m.push_seed(7)
            .push_seed(8)
            .param_u64("hops", 3)
            .param_f64("capacity_mbps", 100.0)
            .param_str("tool", "pathload")
            .param_bool("checked", true)
            .counter("injected", 10)
            .counter("delivered", 9);
        m.sim_time_ns = 1_000_000_000;
        m.wall_time_secs = 0.25;
        m.links.push(LinkSnapshot {
            link: "0".into(),
            capacity_bps: 100_000_000,
            forwarded_pkts: 9,
            forwarded_bytes: 9000,
            dropped_pkts: 1,
            dropped_bytes: 1000,
            impaired_pkts: 2,
            impaired_bytes: 2000,
            peak_queue_pkts: 4,
            queue_depth_summary: None,
        });
        let json = m.to_json();
        assert!(json.starts_with("{\"name\":\"fig1\",\"version\":\"v1-test\""));
        assert!(json.contains("\"seeds\":[7,8]"));
        assert!(json.contains("\"hops\":3"));
        assert!(json.contains("\"capacity_mbps\":100"));
        assert!(json.contains("\"tool\":\"pathload\""));
        assert!(json.contains("\"checked\":true"));
        assert!(json.contains("\"counters\":{\"injected\":10,\"delivered\":9}"));
        assert!(json.contains("\"forwarded_pkts\":9"));
        assert!(json.contains("\"impaired_pkts\":2"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn link_snapshot_embeds_histogram_summary() {
        let snap = LinkSnapshot {
            link: "tight".into(),
            queue_depth_summary: Some("{\"count\":3}".into()),
            ..LinkSnapshot::default()
        };
        assert!(snap.to_json().contains("\"queue_depth\":{\"count\":3}"));
    }

    #[test]
    fn manifests_fold_counters_and_links() {
        let mut base = RunManifest::default();
        base.add_counter("injected", 5);
        let mut frag = RunManifest::default();
        frag.add_counter("injected", 7);
        frag.fold_link(LinkSnapshot {
            link: "0".into(),
            forwarded_pkts: 3,
            ..LinkSnapshot::default()
        });
        base.absorb(frag);
        assert_eq!(base.counters, vec![("injected".to_string(), 12)]);
        assert_eq!(base.links.len(), 1);
        assert_eq!(base.links[0].forwarded_pkts, 3);
    }

    #[test]
    fn detect_version_is_nonempty() {
        assert!(!detect_version().is_empty());
    }

    #[test]
    fn write_to_creates_dir_and_file() {
        let dir = std::env::temp_dir().join("abw-obs-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        let m = RunManifest {
            name: "t".into(),
            version: "v".into(),
            ..RunManifest::default()
        };
        let path = m.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
