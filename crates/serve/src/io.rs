//! Injectable filesystem backend for the session store.
//!
//! Every byte the persistence layer moves goes through the [`StoreIo`]
//! trait: the production backend ([`StdIo`]) forwards to `std::fs`, and the
//! deterministic fault backend ([`FaultIo`]) replays a scripted
//! [`FaultPlan`] against a real directory — so the durability claims of
//! [`crate::SessionStore`] and [`crate::ShardedStore`] can be *proved*
//! against ENOSPC, transient EIO, torn writes, dropped renames, and lost
//! fsyncs instead of merely asserted.
//!
//! # The fault model
//!
//! A [`FaultPlan`] is a list of scripted faults, each firing on the first
//! I/O operation whose class matches at or after a scripted operation
//! index (operations are counted per backend instance, in call order):
//!
//! | fault                        | class      | effect |
//! |------------------------------|------------|--------|
//! | [`FaultKind::TransientEio`]  | any op     | the op fails once with `EIO`; a retry of the same logical op succeeds |
//! | [`FaultKind::Enospc`]        | any op     | the op fails once with `ENOSPC` (space freed elsewhere lets a retry through) |
//! | [`FaultKind::TornWrite`]     | `write`    | only a prefix of the bytes reaches the file, then the **process dies** |
//! | [`FaultKind::DropRename`]    | `rename`   | the rename never reaches the platter, then the **process dies** |
//! | [`FaultKind::LostFsync`]     | `sync_file`| the file's unsynced writes are rolled back to the pre-write bytes, then the **process dies** |
//!
//! "The process dies" means the backend enters a crashed state in which
//! every further operation fails: the bytes left in the directory are
//! exactly the surviving byte state a real crash at that instant could
//! leave behind.  Tests then reopen the *same directory* with [`StdIo`]
//! (the restarted process) and assert recovery converges — see
//! `tests/store_faults.rs`.
//!
//! Lost fsyncs are modeled with pre-images: [`FaultIo`] snapshots a file's
//! bytes before every `write` and discards the snapshot when `sync_file`
//! succeeds; a `LostFsync` fault restores the pre-image instead, which is
//! what the disk would hold had the write never become durable.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Abstraction over every filesystem touch the persistence layer makes.
///
/// Implementations must be deterministic given the same call sequence (the
/// fault backend's whole purpose) and safe to share across threads.
pub trait StoreIo: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Creates (or truncates) `path` with exactly `bytes` as content.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s data and metadata to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` onto `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Makes preceding renames in `dir` durable where the platform can.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads `path` in full.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// File names (not paths) of `dir`'s entries.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Removes `path`; removing a missing file is an `Ok` no-op.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` currently exists; an error when that cannot be told,
    /// e.g. because a component of `path` is not a directory.
    fn exists(&self, path: &Path) -> io::Result<bool>;
}

/// The production backend: direct `std::fs` calls.
#[derive(Debug, Clone, Default)]
pub struct StdIo;

impl StoreIo for StdIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories can be opened read-only for fsync on POSIX; platforms
        // where that fails only lose the rename durability *barrier*, never
        // file integrity — but the failure is surfaced, not swallowed.
        fs::File::open(dir)?.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        path.try_exists()
    }
}

/// The disk faults [`FaultIo`] can inject (see the module docs for the
/// exact semantics of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One transient `EIO` on the next operation of any class.
    TransientEio,
    /// One `ENOSPC` on the next operation of any class.
    Enospc,
    /// The next `write` stores only a prefix, then the process dies.
    TornWrite,
    /// The next `rename` is silently lost, then the process dies.
    DropRename,
    /// The next `sync_file` rolls its file back to the pre-write bytes,
    /// then the process dies.
    LostFsync,
}

impl FaultKind {
    /// All injectable kinds, in a fixed order (the seeded plan generator
    /// and the exhaustive matrix tests index into this).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TransientEio,
        FaultKind::Enospc,
        FaultKind::TornWrite,
        FaultKind::DropRename,
        FaultKind::LostFsync,
    ];

    /// Whether the fault leaves the simulated process dead afterwards.
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            FaultKind::TornWrite | FaultKind::DropRename | FaultKind::LostFsync
        )
    }

    /// Whether an operation of the given class can host this fault.
    fn matches(self, class: OpClass) -> bool {
        match self {
            FaultKind::TransientEio | FaultKind::Enospc => true,
            FaultKind::TornWrite => class == OpClass::Write,
            FaultKind::DropRename => class == OpClass::Rename,
            FaultKind::LostFsync => class == OpClass::SyncFile,
        }
    }
}

/// One scheduled fault: fires on the first operation of a matching class
/// whose index (0-based, per backend) is `>= at_op`, at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Earliest operation index the fault may fire at.
    pub at_op: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of disk faults for one [`FaultIo`] backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults (order is irrelevant; each fires at most once).
    pub faults: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// A plan with no faults (every operation succeeds).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A hand-scripted plan.
    pub fn scripted(faults: Vec<ScriptedFault>) -> Self {
        FaultPlan { faults }
    }

    /// A plan with a single fault (the common test case).
    pub fn one(at_op: usize, kind: FaultKind) -> Self {
        FaultPlan {
            faults: vec![ScriptedFault { at_op, kind }],
        }
    }

    /// A seeded random plan: up to `max_faults` faults with operation
    /// indices below `op_horizon`.  The same seed always yields the same
    /// plan, so a failing case reproduces from its seed alone.
    pub fn seeded(seed: u64, op_horizon: usize, max_faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if max_faults == 0 {
            0
        } else {
            rng.gen_range(0..(max_faults + 1))
        };
        let faults = (0..n)
            .map(|_| ScriptedFault {
                at_op: rng.gen_range(0..op_horizon.max(1)),
                kind: FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())],
            })
            .collect();
        FaultPlan { faults }
    }
}

/// What a [`FaultIo`] backend has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultIoStats {
    /// Operations observed (counted whether or not they were faulted).
    pub ops: usize,
    /// Faults injected, by any kind.
    pub injected: usize,
    /// Transient faults injected (`EIO` / `ENOSPC`).
    pub transient_injected: usize,
    /// Crash faults injected (torn write / dropped rename / lost fsync).
    pub crash_injected: usize,
    /// Operations refused because the simulated process had already died.
    pub post_crash_rejections: usize,
}

/// Operation classes the fault matcher distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    SyncFile,
    Rename,
    Other,
}

/// Mutable scripting state behind one mutex (op counter, pending faults,
/// crash flag, pre-images).
struct FaultState {
    pending: Vec<ScriptedFault>,
    next_op: usize,
    crashed: bool,
    /// `path → bytes before the most recent unsynced write` (`None` when
    /// the file did not exist).  Entries drop when `sync_file` succeeds.
    pre_images: HashMap<PathBuf, Option<Vec<u8>>>,
    stats: FaultIoStats,
}

/// A [`StoreIo`] backend over a real directory that deterministically
/// injects the faults of a [`FaultPlan`].  See the module docs for the
/// fault model and the crash-state semantics.
pub struct FaultIo {
    inner: StdIo,
    state: Mutex<FaultState>,
    /// Copy of `stats.injected` readable without the state lock (tests
    /// poll it while the store is mid-operation).
    injected: AtomicUsize,
}

impl fmt::Debug for FaultIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultIo")
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultIo {
    /// A backend that will replay `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultIo {
            inner: StdIo,
            state: Mutex::new(FaultState {
                pending: plan.faults,
                next_op: 0,
                crashed: false,
                pre_images: HashMap::new(),
                stats: FaultIoStats::default(),
            }),
            injected: AtomicUsize::new(0),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultIoStats {
        self.lock().stats
    }

    /// Whether a crash fault has fired (the simulated process is dead; all
    /// further operations fail).
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Counts one operation and returns the fault scheduled for it, if any.
    fn admit(&self, class: OpClass) -> Result<Option<FaultKind>, io::Error> {
        let mut st = self.lock();
        if st.crashed {
            st.stats.post_crash_rejections += 1;
            return Err(io::Error::other(
                "simulated process death: I/O after a crash fault",
            ));
        }
        let op = st.next_op;
        st.next_op += 1;
        st.stats.ops += 1;
        let hit = st
            .pending
            .iter()
            .position(|f| f.at_op <= op && f.kind.matches(class));
        let Some(i) = hit else { return Ok(None) };
        let fault = st.pending.remove(i);
        st.stats.injected += 1;
        if fault.kind.is_crash() {
            st.stats.crash_injected += 1;
            st.crashed = true;
        } else {
            st.stats.transient_injected += 1;
        }
        self.injected.store(st.stats.injected, Ordering::Relaxed);
        Ok(Some(fault.kind))
    }

    fn transient(kind: FaultKind) -> io::Error {
        match kind {
            // EIO / ENOSPC by OS error code, so the error text and kind are
            // exactly what the real syscall would produce.
            FaultKind::TransientEio => io::Error::from_raw_os_error(5),
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            _ => unreachable!("crash faults never build a transient error"),
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation happens once at open and is not a scripted
        // op; a crashed backend still refuses it.
        if self.lock().crashed {
            return Err(io::Error::other("simulated process death"));
        }
        self.inner.create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let fault = self.admit(OpClass::Write)?;
        match fault {
            None => {
                // Record the pre-image before the bytes change, so a later
                // LostFsync can roll this write back.
                let prior = self.inner.read(path).ok();
                self.lock().pre_images.insert(path.to_path_buf(), prior);
                self.inner.write(path, bytes)
            }
            Some(k @ (FaultKind::TransientEio | FaultKind::Enospc)) => Err(Self::transient(k)),
            Some(FaultKind::TornWrite) => {
                // Half the frame reaches the platter, then the process dies.
                let keep = bytes.len() / 2;
                let _ = self.inner.write(path, &bytes[..keep]);
                Err(io::Error::other(
                    "simulated crash: torn write (prefix persisted)",
                ))
            }
            Some(k) => unreachable!("{k:?} does not match the write class"),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let fault = self.admit(OpClass::SyncFile)?;
        match fault {
            None => {
                // The write below this sync is durable now.
                self.lock().pre_images.remove(path);
                self.inner.sync_file(path)
            }
            Some(k @ (FaultKind::TransientEio | FaultKind::Enospc)) => Err(Self::transient(k)),
            Some(FaultKind::LostFsync) => {
                // The unsynced write never reaches the platter: restore the
                // pre-write bytes, then die.
                let pre = self.lock().pre_images.remove(path);
                match pre {
                    Some(Some(bytes)) => {
                        let _ = self.inner.write(path, &bytes);
                    }
                    Some(None) => {
                        let _ = self.inner.remove_file(path);
                    }
                    None => {}
                }
                Err(io::Error::other(
                    "simulated crash: fsync lost (write rolled back)",
                ))
            }
            Some(k) => unreachable!("{k:?} does not match the sync class"),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let fault = self.admit(OpClass::Rename)?;
        match fault {
            None => {
                // The rename moves `from`'s unsynced pre-image with it.
                let mut st = self.lock();
                if let Some(pre) = st.pre_images.remove(from) {
                    st.pre_images.insert(to.to_path_buf(), pre);
                }
                drop(st);
                self.inner.rename(from, to)
            }
            Some(k @ (FaultKind::TransientEio | FaultKind::Enospc)) => Err(Self::transient(k)),
            Some(FaultKind::DropRename) => Err(io::Error::other(
                "simulated crash: rename never reached the platter",
            )),
            Some(k) => unreachable!("{k:?} does not match the rename class"),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.admit(OpClass::Other)? {
            None => self.inner.sync_dir(dir),
            Some(k) => Err(Self::transient(k)),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.admit(OpClass::Other)? {
            None => self.inner.read(path),
            Some(k) => Err(Self::transient(k)),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        match self.admit(OpClass::Other)? {
            None => self.inner.list(dir),
            Some(k) => Err(Self::transient(k)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.admit(OpClass::Other)? {
            None => self.inner.remove_file(path),
            Some(k) => Err(Self::transient(k)),
        }
    }

    fn exists(&self, path: &Path) -> io::Result<bool> {
        // Metadata probes are not scripted ops, but a dead process cannot
        // perform them either.
        if self.lock().crashed {
            return Err(io::Error::other("simulated process death"));
        }
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static UNIQ: AtomicUsize = AtomicUsize::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nnbo-io-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_io_round_trips_and_tolerates_missing_removals() {
        let dir = scratch("std");
        let io = StdIo;
        let p = dir.join("f");
        io.write(&p, b"abc").unwrap();
        io.sync_file(&p).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"abc");
        assert!(io.exists(&p).unwrap());
        let q = dir.join("g");
        io.rename(&p, &q).unwrap();
        io.sync_dir(&dir).unwrap();
        assert_eq!(io.list(&dir).unwrap(), vec!["g".to_string()]);
        io.remove_file(&q).unwrap();
        io.remove_file(&q).unwrap(); // missing is fine
        assert!(!io.exists(&q).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn std_io_exists_reports_a_failed_stat_instead_of_absence() {
        let dir = scratch("exists");
        let file = dir.join("file");
        StdIo.write(&file, b"x").unwrap();
        let err = StdIo
            .exists(&file.join("below"))
            .expect_err("a path below a regular file cannot be stat'ed");
        assert_eq!(err.kind(), io::ErrorKind::NotADirectory);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_fail_once_then_clear() {
        let dir = scratch("transient");
        let io = FaultIo::new(FaultPlan::scripted(vec![
            ScriptedFault {
                at_op: 0,
                kind: FaultKind::TransientEio,
            },
            ScriptedFault {
                at_op: 1,
                kind: FaultKind::Enospc,
            },
        ]));
        let p = dir.join("f");
        let e = io.write(&p, b"x").unwrap_err();
        assert_eq!(e.raw_os_error(), Some(5));
        let e = io.write(&p, b"x").unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28));
        io.write(&p, b"x").unwrap();
        assert_eq!(io.stats().transient_injected, 2);
        assert!(!io.crashed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_kills_the_process() {
        let dir = scratch("torn");
        let io = FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 0,
            kind: FaultKind::TornWrite,
        }]));
        let p = dir.join("f");
        assert!(io.write(&p, b"0123456789").is_err());
        assert!(io.crashed());
        assert!(io.read(&p).is_err(), "post-crash I/O must fail");
        // The surviving byte state shows the tear.
        assert_eq!(fs::read(&p).unwrap(), b"01234");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_fsync_rolls_the_write_back() {
        let dir = scratch("fsync");
        let p = dir.join("f");
        fs::write(&p, b"old").unwrap();
        let io = FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 0,
            kind: FaultKind::LostFsync,
        }]));
        io.write(&p, b"new-bytes").unwrap();
        assert!(io.sync_file(&p).is_err());
        assert!(io.crashed());
        assert_eq!(fs::read(&p).unwrap(), b"old", "pre-image restored");

        // A brand-new file rolls back to nonexistence.
        let dir2 = scratch("fsync-new");
        let q = dir2.join("g");
        let io = FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 0,
            kind: FaultKind::LostFsync,
        }]));
        io.write(&q, b"never-durable").unwrap();
        assert!(io.sync_file(&q).is_err());
        assert!(!q.exists());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn dropped_rename_leaves_the_old_name() {
        let dir = scratch("rename");
        let p = dir.join("a");
        fs::write(&p, b"payload").unwrap();
        let io = FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 0,
            kind: FaultKind::DropRename,
        }]));
        assert!(io.rename(&p, &dir.join("b")).is_err());
        assert!(io.crashed());
        assert!(p.exists(), "the rename never happened");
        assert!(!dir.join("b").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_wait_for_a_matching_op_class() {
        let dir = scratch("class");
        // A DropRename scheduled at op 0 must not fire on writes/syncs; it
        // fires on the first rename, whatever its index.
        let io = FaultIo::new(FaultPlan::scripted(vec![ScriptedFault {
            at_op: 0,
            kind: FaultKind::DropRename,
        }]));
        let p = dir.join("f");
        io.write(&p, b"x").unwrap();
        io.sync_file(&p).unwrap();
        assert!(io.rename(&p, &dir.join("g")).is_err());
        assert_eq!(io.stats().crash_injected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 64, 4);
        let b = FaultPlan::seeded(42, 64, 4);
        assert_eq!(a, b);
        assert!(a.faults.len() <= 4);
        for f in &a.faults {
            assert!(f.at_op < 64);
        }
        let c = FaultPlan::seeded(43, 64, 4);
        // Different seeds almost surely differ; this seed pair does.
        assert_ne!(a, c);
        assert!(FaultPlan::seeded(7, 64, 0).faults.is_empty());
    }
}
