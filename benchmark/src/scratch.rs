//! Per-run scratch directories: unique names (pid, clock and a
//! process-wide counter, created exclusively), removed on drop, so runs
//! beside each other or beside `cargo test` never share a journal.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static NEXT: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// A fresh directory `<parent>/<label>-<pid>-<nanos>-<k>`.
    pub fn new(parent: &Path, label: &str) -> std::io::Result<ScratchDir> {
        std::fs::create_dir_all(parent)?;
        loop {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos());
            let k = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = parent.join(format!("{label}-{}-{nanos}-{k}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(ScratchDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// A fresh, empty subdirectory (its own journal namespace).
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        std::fs::create_dir(&p)?;
        Ok(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cleaned_up() {
        let parent = std::env::temp_dir().join("dnc-benchmark-tests");
        let a = ScratchDir::new(&parent, "t").unwrap();
        let b = ScratchDir::new(&parent, "t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("x.wal"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
        drop(b);
    }
}
