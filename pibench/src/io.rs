//! Timing decorators at the storage boundary: a `DiskManager` around
//! `FileDisk` and a `LogStore` around `FileLogStore`. Each forwards every
//! call unchanged and records count, bytes, and nanoseconds (plus a span
//! under the current op when tracing). The store is assembled over them
//! through the public `Store::assemble`.

use crate::report::Samples;
use crate::trace::{self, Layer};
use pitree::Store;
use pitree_pagestore::disk::{DiskManager, FileDisk};
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{Lsn, Page, PageId, StoreResult, PAGE_SIZE};
use pitree_wal::{FileLogStore, LogStore};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Count, bytes, and busy time of one kind of I/O call.
#[derive(Debug, Default)]
pub struct IoCounter {
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
    samples: Mutex<Samples>,
}

impl IoCounter {
    fn record(&self, bytes: u64, ns: u64, keep_sample: bool) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        if keep_sample {
            self.samples.lock().push(ns);
        }
    }

    pub fn snapshot(&self) -> IoSnap {
        IoSnap {
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }

    /// Per-call latencies recorded since the last take.
    pub fn take_samples(&self) -> Samples {
        std::mem::take(&mut *self.samples.lock())
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnap {
    pub calls: u64,
    pub bytes: u64,
    pub ns: u64,
}

impl IoSnap {
    pub fn since(self, base: IoSnap) -> IoSnap {
        IoSnap {
            calls: self.calls - base.calls,
            bytes: self.bytes - base.bytes,
            ns: self.ns - base.ns,
        }
    }
}

/// I/O ledger shared by the decorators of one store.
#[derive(Debug, Default)]
pub struct IoStats {
    pub disk_read: IoCounter,
    pub disk_write: IoCounter,
    pub disk_sync: IoCounter,
    pub log_append: IoCounter,
    /// Keep per-call latency samples (per-layer runs only).
    pub keep_samples: AtomicBool,
}

impl IoStats {
    fn timed<T>(
        &self,
        counter: &IoCounter,
        layer: Layer,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = trace::now_ns();
        let out = f();
        let t1 = trace::now_ns();
        counter.record(bytes, t1 - t0, self.keep_samples.load(Relaxed));
        trace::leaf(layer, name, t0, t1);
        out
    }
}

pub struct TimedDisk {
    inner: FileDisk,
    stats: Arc<IoStats>,
}

impl DiskManager for TimedDisk {
    fn read_page(&self, pid: PageId) -> StoreResult<Page> {
        let s = &self.stats;
        s.timed(
            &s.disk_read,
            Layer::Disk,
            "disk.read",
            PAGE_SIZE as u64,
            || self.inner.read_page(pid),
        )
    }

    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        let s = &self.stats;
        s.timed(
            &s.disk_write,
            Layer::Disk,
            "disk.write",
            PAGE_SIZE as u64,
            || self.inner.write_page(pid, page),
        )
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> StoreResult<()> {
        let s = &self.stats;
        s.timed(&s.disk_sync, Layer::Disk, "disk.sync", 0, || {
            self.inner.sync()
        })
    }
}

pub struct TimedLog {
    inner: FileLogStore,
    stats: Arc<IoStats>,
}

impl LogStore for TimedLog {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        let s = &self.stats;
        s.timed(
            &s.log_append,
            Layer::Log,
            "log.append",
            bytes.len() as u64,
            || self.inner.append(bytes),
        )
    }

    fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
        self.inner.durable_bytes()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn set_master(&self, lsn: Lsn) {
        self.inner.set_master(lsn)
    }

    fn master(&self) -> Lsn {
        self.inner.master()
    }

    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        self.inner.read_range(offset, len)
    }
}

/// Open (or create) a file-backed store in `dir` — the same files as
/// `Store::open_file` — with both storage boundaries decorated.
pub fn open_store(dir: &Path, pool_frames: usize, stats: &Arc<IoStats>) -> StoreResult<Arc<Store>> {
    std::fs::create_dir_all(dir)
        .map_err(|e| pitree_pagestore::StoreError::Corrupt(format!("mkdir {dir:?}: {e}")))?;
    let db = dir.join("store.db");
    let fresh = !db.exists();
    let disk = TimedDisk {
        inner: FileDisk::open(&db)?,
        stats: Arc::clone(stats),
    };
    let log = TimedLog {
        inner: FileLogStore::open(&dir.join("store.log"))?,
        stats: Arc::clone(stats),
    };
    Store::assemble(Arc::new(disk), Arc::new(log), pool_frames, 1 << 22, fresh)
}

/// Copy a store's durable files (`store.db`, `store.log`, `store.master`)
/// into a fresh directory: one crash image, several recoveries.
pub fn copy_image(src: &Path, dst: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst)?;
    for f in ["store.db", "store.log", "store.master"] {
        let s = src.join(f);
        if s.exists() {
            std::fs::copy(&s, dst.join(f))?;
        }
    }
    Ok(())
}

/// Make a store directory's files durable, so the kernel's write-back of
/// what setup wrote does not run during the measured phase.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_dir(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Data pages in a store directory.
pub fn data_pages(dir: &Path) -> u64 {
    file_len(&dir.join("store.db")) / PAGE_SIZE as u64
}
