//! Run manifests: the reproducibility record of one experiment run.
//!
//! A manifest answers "what exactly produced this output?" — seeds,
//! scenario parameters, code version, how long the run took, and the
//! run's counter totals: the binary's own counts, then the
//! [`crate::prof`] cost counters, simulated time among them. It is
//! plain JSON so plotting scripts and humans read it without this
//! crate.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::{array_of_raw, ObjectWriter};

/// The manifest of one run: everything needed to reproduce it plus the
/// run's counter totals.
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
    /// Wall-clock duration of the run in seconds. (Excluded from any
    /// byte-identity guarantees — it varies run to run by nature.)
    pub wall_time_secs: f64,
    /// Counters, as `(name, value)` pairs in the order recorded.
    pub counters: Vec<(String, u64)>,
}

impl RunManifest {
    /// A manifest for `name`. The version stays empty: its writer
    /// fills it in with [`detect_version`].
    pub fn new(name: impl Into<String>) -> Self {
        RunManifest {
            name: name.into(),
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
        w.f64("wall_time_secs", self.wall_time_secs);
        {
            let mut counters = String::new();
            let mut cw = ObjectWriter::new(&mut counters);
            for (k, v) in &self.counters {
                cw.u64(k, *v);
            }
            cw.finish();
            w.raw("counters", &counters);
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

/// Best-effort code version: `git describe --always --dirty` of the
/// source tree this crate was built from, when that checkout and a git
/// binary are available, else this crate's package version. Git runs
/// in the source tree, not the working directory, so the version does
/// not depend on where the binary is started.
pub fn detect_version() -> String {
    let described = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
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
        m.wall_time_secs = 0.25;
        let json = m.to_json();
        assert!(json.starts_with("{\"name\":\"fig1\",\"version\":\"v1-test\""));
        assert!(json.contains("\"seeds\":[7,8]"));
        assert!(json.contains("\"hops\":3"));
        assert!(json.contains("\"capacity_mbps\":100"));
        assert!(json.contains("\"tool\":\"pathload\""));
        assert!(json.contains("\"checked\":true"));
        assert!(json
            .ends_with("\"wall_time_secs\":0.25,\"counters\":{\"injected\":10,\"delivered\":9}}"));
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
