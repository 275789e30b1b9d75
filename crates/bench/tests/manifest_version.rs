//! A manifest's `version` describes the source tree the binary was
//! built from, not the directory it happens to be started in.
//!
//! Each run is a child process of its own, because the manifest is
//! written as the session finishes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `fig5 --quick --csv` from `cwd` with `ABW_MANIFEST=out` and
/// returns the manifest's `version` value.
fn manifest_version(cwd: &Path, out: &Path) -> String {
    let status = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--quick", "--csv"])
        .current_dir(cwd)
        .env("ABW_MANIFEST", out)
        .env_remove("ABW_TRACE")
        .env_remove("ABW_PROF")
        .output()
        .expect("spawn fig5")
        .status;
    assert!(status.success(), "fig5 exits 0");
    let json = std::fs::read_to_string(out.join("fig5.manifest.json")).expect("manifest written");
    let (_, rest) = json
        .split_once("\"version\":\"")
        .expect("manifest has a version");
    let (version, _) = rest.split_once('"').expect("version is a string");
    version.to_string()
}

#[test]
fn version_is_the_same_from_any_working_directory() {
    let scratch = std::env::temp_dir().join(format!("abw-manifest-version-{}", std::process::id()));
    let elsewhere = scratch.join("cwd");
    std::fs::create_dir_all(&elsewhere).expect("create a working directory outside the tree");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let from_root = manifest_version(&root, &scratch.join("root"));
    let from_elsewhere = manifest_version(&elsewhere, &scratch.join("elsewhere"));
    std::fs::remove_dir_all(&scratch).ok();
    assert!(!from_root.is_empty());
    assert_eq!(from_root, from_elsewhere);
}
