// deepcheck fixture — scanned as crates/fixture/tests/journal.rs. Shapes
// that must stay clean: the pid in a log line, a path without the pid,
// the shared helper, and a named allow with its reason.

fn log_start() {
    eprintln!("{}", format!("worker pid {}", std::process::id()));
}

fn fixed_name(dir: &Path) -> PathBuf {
    dir.join(format!("seq{}.wal", 3))
}

fn helper() -> ScratchDir {
    dnc_service::scratch_dir("journal").unwrap()
}

fn owned_by_one_process() -> PathBuf {
    // audit: allow(hermetic-temp-path, a lock file that must name the process that holds it)
    std::env::temp_dir().join(format!("dnc_{}.lock", std::process::id()))
}
