//! Host calibration, measured in the benchmark's work directory at start:
//! 4 KB write + fdatasync latency, 4 KB random pread latency (through the
//! OS cache, as every pool miss of the workloads is), and memcpy
//! bandwidth. Timings of two hosts are comparable only after normalising
//! by these.

use crate::report::{self, Metrics};
use pitree_obs::Stopwatch;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

#[derive(Debug, Clone, Copy)]
pub struct Host {
    fsync_4k_us: f64,
    pread_4k_us: f64,
    memcpy_gbps: f64,
}

const FSYNCS: usize = 32;
const PREAD_FILE: u64 = 16 << 20;
const PREADS: usize = 4000;
const COPY_BYTES: usize = 32 << 20;

pub fn calibrate(work: &Path) -> std::io::Result<Host> {
    let dir = work.join("host");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("calibrate.dat");
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let page = vec![0xA5u8; 4096];

    let mut fsync = Vec::with_capacity(FSYNCS);
    for i in 0..FSYNCS {
        let t0 = Stopwatch::start();
        f.seek(SeekFrom::Start(i as u64 * 4096))?;
        f.write_all(&page)?;
        f.sync_data()?;
        fsync.push(t0.elapsed_ns() as f64 / 1e3);
    }

    let chunk = vec![0x5Au8; 1 << 20];
    f.seek(SeekFrom::Start(0))?;
    for _ in 0..PREAD_FILE / chunk.len() as u64 {
        f.write_all(&chunk)?;
    }
    let mut buf = vec![0u8; 4096];
    let mut s = 0x1234_5678u64;
    let mut pread = Vec::with_capacity(PREADS);
    for _ in 0..PREADS {
        let off = crate::gen::splitmix64(&mut s) % (PREAD_FILE / 4096) * 4096;
        let t0 = Stopwatch::start();
        f.read_exact_at(&mut buf, off)?;
        pread.push(t0.elapsed_ns() as f64 / 1e3);
    }
    drop(f);
    std::fs::remove_file(&path)?;

    let src = vec![7u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut gbps = Vec::new();
    for _ in 0..5 {
        let t0 = Stopwatch::start();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        // Bytes per nanosecond is GB/s.
        gbps.push(COPY_BYTES as f64 / t0.elapsed_ns().max(1) as f64);
    }
    Ok(Host {
        fsync_4k_us: report::median(fsync),
        pread_4k_us: report::median(pread),
        memcpy_gbps: report::median(gbps),
    })
}

impl Host {
    pub fn report(&self, m: &mut Metrics) {
        m.set("host.fsync_4k_us", self.fsync_4k_us, "us");
        m.set("host.pread_4k_us", self.pread_4k_us, "us");
        m.set("host.memcpy_gbps", self.memcpy_gbps, "GB/s");
    }
}
