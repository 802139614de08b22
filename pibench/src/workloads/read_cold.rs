//! `read-cold`: 90% point get / 10% scan(50) over a dense preloaded
//! population with Zipf(0.99) keys, through a pool of `POOL_PERCENT`% of
//! the data pages. Only the read path runs — descent and in-node search,
//! pool misses, clean evictions, disk reads. The WAL and `txnlock` do no
//! work, which the run asserts: a log or commit change must read "no
//! change" here.

use super::*;
use crate::gen::{key_bytes, value, Permutation, Rng, Zipf, VALUE_LEN};
use crate::io::{self, open_store};
use pitree::PiTreeConfig;
use std::path::Path;

/// Keys of the dense population shared with `update-cold`.
pub const KEYS: u64 = 120_000;
/// Pool size, in percent of the image's pages (shared with `update-cold`).
/// At 1% the index pages alone overfill the pool and the median get sits
/// on the boundary between one and two misses, so it flips between the
/// two from run to run; at 2% the index mostly stays and a get misses on
/// its leaf.
pub const POOL_PERCENT: u64 = 2;
/// Keys per scan.
pub const SCAN_LEN: u64 = 50;
pub const TREE_ID: u32 = 1;
const TAG: u64 = 0x7265_6164; // "read"

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Scan(u64),
}

/// Client `client`'s op stream under `seed`.
pub struct Stream {
    rng: Rng,
    zipf: Zipf,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, TAG, client as u64),
            zipf: Zipf::new(KEYS, 0.99),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let k = self.zipf.key(&mut self.rng);
        if self.rng.below(10) == 0 {
            Op::Scan(k)
        } else {
            Op::Get(k)
        }
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut s = Stream::new(seed, client);
    (0..n).map(|_| s.next_op()).collect()
}

/// Build the dense image: keys `0..KEYS`, each with stamp 0, inserted in
/// a fixed scattered order (so nodes fill as under random inserts, not
/// half-full as under appends) through the public transaction path, then
/// flushed and checkpointed. Returns the flush + checkpoint time.
pub fn build_dense_image(dir: &Path) -> StoreResult<f64> {
    let store = open_store(dir, LOAD_POOL_FRAMES, &Arc::new(IoStats::default()))?;
    let tree = PiTree::create(Arc::clone(&store), TREE_ID, PiTreeConfig::default())?;
    let order = Permutation::new(KEYS, 0x2545_F491);
    preload(&store, KEYS, |txn, i| {
        let key = key_bytes(order.at(i));
        tree.insert(txn, &key, &value(&key, 0)).map(|_| ())
    })?;
    flush_and_checkpoint(&store)
}

/// Reopen an image with `frames` pool frames (recovery finds a clean,
/// checkpointed store).
pub fn open_pi(
    dir: &Path,
    frames: usize,
    stats: &Arc<IoStats>,
) -> StoreResult<(Arc<Store>, PiTree)> {
    let store = open_store(dir, frames, stats)?;
    let (tree, _) = PiTree::recover(Arc::clone(&store), TREE_ID, PiTreeConfig::default())?;
    Ok((store, tree))
}

/// One point read of a preloaded key whose stamp is `want` (`None`: any
/// well-formed value of the key).
pub fn get(c: &mut Client, tree: &PiTree, k: u64, want: Option<u64>) {
    c.attempted += 1;
    let start = trace::now_ns();
    let key = key_bytes(k);
    match c.call(Layer::Core, Lat::CoreGet, "core.get_unlocked", || {
        tree.get_unlocked(&key)
    }) {
        Ok(v) => {
            expect_value(c, "get", &key, v.as_deref(), want);
            c.complete(Class::Get, start);
        }
        Err(e) => c.fail(format!("get {k}: {e}")),
    }
}

fn scan(c: &mut Client, tree: &PiTree, k: u64) {
    c.attempted += 1;
    let start = trace::now_ns();
    let end = (k + SCAN_LEN).min(KEYS);
    let r = c.call(Layer::Core, Lat::CoreScan, "core.scan", || {
        tree.scan(&key_bytes(k), &key_bytes(end))
    });
    match r {
        Ok(rows) => {
            // Dense population, no writes: exactly keys k..end, in order.
            if rows.len() as u64 != end - k {
                c.fail(format!("scan {k}..{end}: {} rows", rows.len()));
            } else {
                for (i, (rk, rv)) in rows.iter().enumerate() {
                    let want = key_bytes(k + i as u64);
                    if rk.as_slice() != want {
                        c.fail(format!("scan {k}..{end}: row {i} has key {rk:?}"));
                        break;
                    }
                    if crate::gen::stamp_of(&want, rv) != Some(0) {
                        c.fail(format!("scan {k}..{end}: row {i} has a wrong value"));
                        break;
                    }
                }
            }
            c.complete(Class::Scan, start);
        }
        Err(e) => c.fail(format!("scan {k}: {e}")),
    }
}

pub fn run(ctx: &Ctx) -> StoreResult<Outcome> {
    let (dir, setup_s, flush_s) = setup_reps(ctx, "read-cold", SETUP_REPS, build_dense_image)?;
    let frames = pool_for(io::data_pages(&dir), POOL_PERCENT);
    let stats = Arc::new(IoStats::default());
    let (store, tree) = open_pi(&dir, frames, &stats)?;

    let c0 = counters(&store);
    let io0 = begin_io(&stats, ctx.trace);
    let run = run_phase(
        ctx,
        Budget::Time(Duration::from_secs(ctx.seconds)),
        |c, phase| {
            let mut s = Stream::new(ctx.seed, c.id);
            while phase.go() {
                trace::op("op", || match s.next_op() {
                    Op::Get(k) => get(c, &tree, k, Some(0)),
                    Op::Scan(k) => scan(c, &tree, k),
                });
            }
        },
    );
    let d = delta(&counters(&store), &c0);
    let io_d = io_delta(io_snap(&stats), io0);

    let mut out = Outcome::default();
    let db_bytes = io::file_len(&dir.join("store.db"));
    common_metrics(
        Common {
            workload: "read-cold",
            run: &run,
            counters: &d,
            io: io_d,
            io_stats: &[&*stats],
            setup_s,
            flush_ckpt_s: flush_s,
            db_bytes,
            live_user_bytes: KEYS * (8 + VALUE_LEN as u64),
        },
        &mut out,
    );
    // The design: reads only. No force and no lock wait may happen.
    if d["wal.forces"] != 0 {
        out.violations.push(format!(
            "read-cold forced the log {} times",
            d["wal.forces"]
        ));
    }
    if d["lock.waits"] != 0 {
        out.violations.push(format!(
            "read-cold waited for locks {} times",
            d["lock.waits"]
        ));
    }
    if d["buf.misses"] == 0 {
        out.violations
            .push("read-cold never missed the pool".into());
    }
    out.metrics.set("pool_frames", frames as f64, "count");
    drop(tree);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
