//! Hermetic scratch directories for journals, snapshots and harness
//! output.
//!
//! Many tests and harness runs journal to the file system at once: the
//! test threads of one process, and several processes of one
//! `cargo test`. A path keyed by the process id alone is shared by every
//! thread of the process, so one run's cleanup deletes another's
//! journal. [`scratch_dir`] adds a process-wide counter and creates the
//! directory exclusively, so no two live [`ScratchDir`]s ever share a
//! path, and the guard removes the directory when it drops. It is the
//! one place allowed to build a pid-keyed temp path (the deepcheck lint
//! `hermetic-temp-path` flags any other).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed with everything in it on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Create a fresh, empty directory `<temp>/dnc_<label>_<pid>_<k>`, where
/// `k` counts every scratch directory this process has asked for.
///
/// # Errors
/// Any error creating the directory other than finding the name taken
/// (a leftover of an earlier process with the same pid, skipped over).
pub fn scratch_dir(label: &str) -> io::Result<ScratchDir> {
    let root = std::env::temp_dir();
    loop {
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("dnc_{label}_{}_{k}", std::process::id()));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(ScratchDir { path }),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let a = scratch_dir("scratch_test").unwrap();
        let b = scratch_dir("scratch_test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("x.wal"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(
            !kept.exists(),
            "drop must remove the directory and its files"
        );
        assert!(
            b.path().is_dir(),
            "dropping one guard leaves the others alone"
        );
    }

    #[test]
    fn parallel_callers_never_share_a_directory() {
        let dirs: Vec<ScratchDir> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| scratch_dir("scratch_par").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut paths: Vec<_> = dirs.iter().map(|d| d.path().to_path_buf()).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), dirs.len());
    }
}
