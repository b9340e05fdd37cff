//! Storage backend abstraction for the durability layer.
//!
//! Every syscall the journal and snapshot machinery relies on for
//! crash safety — data writes, fsync, directory fsync, atomic rename,
//! truncation, unlink — is routed through the [`StorageFs`] trait.
//! Production uses [`RealFs`] (a thin passthrough to `std::fs`); the
//! torture falsifier substitutes [`FaultFs`], which injects one fault
//! (EIO, ENOSPC, a short write, or a crash before/after the call) at an
//! enumerated call site and then fails every subsequent call, modeling
//! a machine that died at that exact syscall.
//!
//! Only the durability-critical operations are mediated. Plain opens
//! and reads stay direct: a fault there is indistinguishable from the
//! file not existing, which recovery already handles, whereas a fault
//! on a *write-side* call is exactly the window where an undetected
//! failure could acknowledge an undurable operation.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The write-side filesystem operations the durability layer performs.
/// Each method is one enumerated failpoint site under [`FaultFs`].
pub trait StorageFs: fmt::Debug + Send + Sync {
    /// Write `buf` in full at the file's current position.
    fn write(&self, file: &mut File, buf: &[u8]) -> io::Result<()>;
    /// Flush file data (and the metadata needed to read it) to disk.
    fn sync_data(&self, file: &File) -> io::Result<()>;
    /// Flush the directory entry table at `dir` to disk.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncate (or extend) `file` to `len` bytes.
    fn set_len(&self, file: &File, len: u64) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// Shared handle to a storage backend; cloned into every journal and
/// snapshot writer so one injected fault poisons the whole service.
pub type StorageHandle = Arc<dyn StorageFs>;

/// The production backend.
pub fn real() -> StorageHandle {
    Arc::new(RealFs)
}

/// Passthrough to `std::fs` — the backend every deployment runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StorageFs for RealFs {
    fn write(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        // audit: allow(dur-fsync, backend primitive: the caller sequences write → sync through the StorageFs trait)
        file.write_all(buf)
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        // audit: allow(dur-fsync, backend primitive: the caller sequences truncate → sync through the StorageFs trait)
        file.set_len(len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// What an injected fault does at its target site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The call fails with EIO; nothing was performed.
    Eio,
    /// The call fails with ENOSPC; nothing was performed.
    Enospc,
    /// A `write` persists only the first half of the buffer, then
    /// fails — the torn-record case. Non-write sites degrade to EIO.
    ShortWrite,
    /// The process "dies" just before the call: the call is not
    /// performed and every subsequent call fails.
    CrashBefore,
    /// The process "dies" just after the call: the call is performed
    /// in full, then every subsequent call fails.
    CrashAfter,
}

/// All injectable fault kinds, in enumeration order.
pub const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Eio,
    FaultKind::Enospc,
    FaultKind::ShortWrite,
    FaultKind::CrashBefore,
    FaultKind::CrashAfter,
];

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Eio => write!(f, "eio"),
            FaultKind::Enospc => write!(f, "enospc"),
            FaultKind::ShortWrite => write!(f, "short-write"),
            FaultKind::CrashBefore => write!(f, "crash-before"),
            FaultKind::CrashAfter => write!(f, "crash-after"),
        }
    }
}

/// A backend that counts every mediated call as a *site* and injects
/// one fault at site `target`, after which every further call fails
/// (fail-stop: the process is considered dead past its first fault).
///
/// With `target` beyond the run's site count, no fault fires and the
/// instance doubles as a probe that measures how many sites a workload
/// visits — the enumeration bound for a torture sweep.
#[derive(Debug)]
pub struct FaultFs {
    inner: RealFs,
    target: u64,
    kind: FaultKind,
    next_site: AtomicU64,
    tripped: AtomicBool,
}

impl FaultFs {
    /// A backend injecting `kind` at the `target`-th mediated call
    /// (0-based), counting across all operations in program order.
    pub fn new(target: u64, kind: FaultKind) -> FaultFs {
        FaultFs {
            inner: RealFs,
            target,
            kind,
            next_site: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// A probe that never faults: run a workload against it and read
    /// [`FaultFs::sites_visited`] to learn the failpoint count.
    pub fn probe() -> FaultFs {
        FaultFs::new(u64::MAX, FaultKind::Eio)
    }

    /// Mediated calls made so far.
    pub fn sites_visited(&self) -> u64 {
        self.next_site.load(Ordering::SeqCst)
    }

    /// True once the fault has fired (every later call fails).
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Advance the site counter; `Some(kind)` when this call is the
    /// target. Fails immediately when the backend is already dead.
    fn gate(&self, op: &str) -> io::Result<Option<FaultKind>> {
        if self.tripped.load(Ordering::SeqCst) {
            return Err(io::Error::other(format!(
                "injected crash: storage dead since site {} ({}), refusing {op}",
                self.target, self.kind
            )));
        }
        let site = self.next_site.fetch_add(1, Ordering::SeqCst);
        if site == self.target {
            self.tripped.store(true, Ordering::SeqCst);
            Ok(Some(self.kind))
        } else {
            Ok(None)
        }
    }

    fn fault_err(&self, op: &str, what: &str) -> io::Error {
        io::Error::other(format!(
            "injected {what} at site {} during {op}",
            self.target
        ))
    }

    /// Run a non-write operation through the gate: `ShortWrite`
    /// degrades to a performed-nothing failure, `CrashAfter` performs
    /// the operation before failing.
    fn run<T>(&self, op: &str, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        match self.gate(op)? {
            None => f(),
            Some(FaultKind::CrashAfter) => {
                let _ = f()?;
                Err(self.fault_err(op, "crash-after"))
            }
            Some(kind) => Err(self.fault_err(op, &kind.to_string())),
        }
    }
}

impl StorageFs for FaultFs {
    fn write(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        match self.gate("write")? {
            None => self.inner.write(file, buf),
            Some(FaultKind::ShortWrite) => {
                let torn = buf.get(..buf.len() / 2).unwrap_or(&[]);
                self.inner.write(file, torn)?;
                Err(self.fault_err("write", "short write"))
            }
            Some(FaultKind::CrashAfter) => {
                self.inner.write(file, buf)?;
                Err(self.fault_err("write", "crash-after"))
            }
            Some(kind) => Err(self.fault_err("write", &kind.to_string())),
        }
    }

    fn sync_data(&self, file: &File) -> io::Result<()> {
        self.run("sync_data", || self.inner.sync_data(file))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.run("sync_dir", || self.inner.sync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run("rename", || self.inner.rename(from, to))
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        // audit: allow(dur-fsync, fault-injection passthrough: the caller sequences truncate → sync through the StorageFs trait)
        self.run("set_len", || self.inner.set_len(file, len))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.run("remove_file", || self.inner.remove_file(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::path::PathBuf;

    fn tmp(name: &str) -> (crate::ScratchDir, PathBuf) {
        let dir = crate::scratch_dir("fs").unwrap();
        let path = dir.join(name);
        (dir, path)
    }

    fn open_rw(path: &Path) -> File {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .unwrap()
    }

    #[test]
    fn probe_counts_sites_without_faulting() {
        let fs = FaultFs::probe();
        let (_dir, path) = tmp("probe.bin");
        let mut f = open_rw(&path);
        fs.write(&mut f, b"hello").unwrap();
        fs.sync_data(&f).unwrap();
        fs.set_len(&f, 2).unwrap();
        fs.sync_dir(path.parent().unwrap()).unwrap();
        assert_eq!(fs.sites_visited(), 4);
        assert!(!fs.tripped());
    }

    #[test]
    fn short_write_persists_half_then_fails_stop() {
        let fs = FaultFs::new(0, FaultKind::ShortWrite);
        let (_dir, path) = tmp("short.bin");
        let mut f = open_rw(&path);
        assert!(fs.write(&mut f, b"abcdef").is_err());
        let mut got = String::new();
        File::open(&path).unwrap().read_to_string(&mut got).unwrap();
        assert_eq!(got, "abc", "exactly half the buffer must land");
        // Fail-stop: the backend is dead now.
        assert!(fs.tripped());
        assert!(fs.sync_data(&f).is_err());
        assert!(fs.write(&mut f, b"x").is_err());
    }

    #[test]
    fn crash_before_performs_nothing_crash_after_performs_all() {
        for (kind, want) in [(FaultKind::CrashBefore, ""), (FaultKind::CrashAfter, "xy")] {
            let fs = FaultFs::new(0, kind);
            let (_dir, path) = tmp("crash.bin");
            let mut f = open_rw(&path);
            assert!(fs.write(&mut f, b"xy").is_err(), "{kind}");
            let mut got = String::new();
            File::open(&path).unwrap().read_to_string(&mut got).unwrap();
            assert_eq!(got, want, "{kind}");
        }
    }

    #[test]
    fn fault_at_later_site_spares_earlier_calls() {
        let fs = FaultFs::new(2, FaultKind::Eio);
        let (_dir, path) = tmp("later.bin");
        let mut f = open_rw(&path);
        fs.write(&mut f, b"a").unwrap();
        fs.sync_data(&f).unwrap();
        assert!(fs.write(&mut f, b"b").is_err(), "site 2 must fault");
        assert!(fs.sync_data(&f).is_err(), "dead after the fault");
    }

    #[test]
    fn rename_and_remove_are_mediated() {
        let fs = FaultFs::new(u64::MAX, FaultKind::Eio);
        let (_dir, a) = tmp("move_a.bin");
        let (_dir, b) = tmp("move_b.bin");
        std::fs::write(&a, b"payload").unwrap();
        fs.rename(&a, &b).unwrap();
        assert!(!a.exists() && b.exists());
        fs.remove_file(&b).unwrap();
        assert!(!b.exists());
        assert_eq!(fs.sites_visited(), 2);
    }
}
