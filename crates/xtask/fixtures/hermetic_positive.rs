// deepcheck fixture — scanned as crates/fixture/tests/journal.rs (test
// code is in scope for this lint). Seeded true positives: scratch paths
// keyed by the pid alone, built through `.join`, `PathBuf::from` and
// `Path::new`.

fn wal_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dnc_wal_{}_{label}.wal", std::process::id()))
}

fn scratch_root() -> PathBuf {
    PathBuf::from(format!("/tmp/dnc_root_{}", process::id()))
}

fn snapshot_dir() -> &'static Path {
    Path::new(format!("/tmp/dnc_snap_{}", std::process::id()).leak())
}
