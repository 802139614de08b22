//! `storm-hot`: 45% insert of fresh keys / 45% delete / 10% get, all in
//! one sparse hot key band whose pages fit in the pool, with pipelined
//! commits. This is the paper's mechanism under contention: splits,
//! postings, consolidations, latch waits, No-Wait restarts, side
//! traversals, lock waits.
//!
//! The band is a queue that slides through the key space: each client
//! inserts fresh keys at the band's head and deletes its oldest keys at
//! the tail, so leaves at the head fill and split while leaves at the
//! tail drain and are consolidated, all run long. The two clients' keys
//! interleave (client `c` owns the keys at odd or even slots of a sparse
//! grid), so they share every hot leaf, yet each knows exactly which of
//! its own keys are live — every answer has one right value. Ops come in
//! blocks of 20 (9 insert, 9 delete, 2 get) shuffled by the seed, so the
//! band's size stays within a block of its preload size.
//!
//! After warm-up there are no disk reads, and there is no restart; the
//! run asserts splits, consolidations, and (almost) no disk reads.

use super::*;
use crate::gen::{key_bytes, splitmix64, stamp_of, value, Rng, VALUE_LEN};
use crate::io::{self, open_store};
use pitree::PiTreeConfig;
use std::path::Path;

/// Live keys per client (the band holds twice this).
pub const LIVE_PER_CLIENT: u64 = 3_000;
/// Key-space slots per key: the band is sparse.
const GAP: u64 = 16;
/// Where the band starts in the key space.
const BASE: u64 = 1 << 40;
/// Pool frames: several times the band's pages.
pub const POOL_FRAMES: usize = 1024;
const TREE_ID: u32 = 1;
const TAG: u64 = 0x7374_6f72; // "stor"
/// Commits a storm client keeps in flight (deep, so the storm is bound by
/// the tree, not by each force).
const STORM_PIPELINE: usize = 64;
/// Disk reads per op tolerated after warm-up.
const MAX_READS_PER_OP: f64 = 0.001;

/// Client `client`'s `i`-th key: slot `2i + client` of the sparse grid,
/// jittered within its slot by the seed.
pub fn band_key(seed: u64, client: usize, i: u64) -> u64 {
    let slot = 2 * i + client as u64;
    let mut s = seed ^ slot.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    BASE + slot * GAP + splitmix64(&mut s) % GAP
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert the client's `i`-th key (fresh).
    Insert(u64),
    /// Delete the client's `i`-th key (its oldest live one).
    Delete(u64),
    /// Read the client's `i`-th key (live).
    Get(u64),
}

/// A client's op stream; `head`/`tail` bound its live keys `tail..head`.
pub struct Stream {
    rng: Rng,
    block: Vec<u8>,
    head: u64,
    tail: u64,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, TAG, client as u64),
            block: Vec::new(),
            head: LIVE_PER_CLIENT,
            tail: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.block = [[0u8; 9].as_slice(), &[1; 9], &[2; 2]].concat();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        match self.block.pop().expect("refilled") {
            0 => {
                self.head += 1;
                Op::Insert(self.head - 1)
            }
            1 => {
                self.tail += 1;
                Op::Delete(self.tail - 1)
            }
            _ => Op::Get(self.tail + self.rng.below(self.head - self.tail)),
        }
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut s = Stream::new(seed, client);
    (0..n).map(|_| s.next_op()).collect()
}

fn build(dir: &Path, seed: u64) -> StoreResult<f64> {
    let store = open_store(dir, LOAD_POOL_FRAMES, &Arc::new(IoStats::default()))?;
    let tree = PiTree::create(Arc::clone(&store), TREE_ID, PiTreeConfig::default())?;
    preload(&store, LIVE_PER_CLIENT * CLIENTS as u64, |txn, n| {
        let (i, c) = (n / CLIENTS as u64, (n % CLIENTS as u64) as usize);
        let key = key_bytes(band_key(seed, c, i));
        tree.insert(txn, &key, &value(&key, i)).map(|_| ())
    })?;
    flush_and_checkpoint(&store)
}

/// Scan the whole band and compare it with each client's live keys
/// `tail..head`. Returns what is wrong (nothing, when the band is right).
fn check_band(tree: &PiTree, seed: u64, live: &[(u64, u64)]) -> StoreResult<Vec<String>> {
    let mut want: Vec<(u64, u64)> = Vec::new();
    for (c, &(tail, head)) in live.iter().enumerate() {
        want.extend((tail..head).map(|i| (band_key(seed, c, i), i)));
    }
    want.sort_unstable();
    let rows = tree.scan(&key_bytes(BASE), &key_bytes(u64::MAX))?;
    let mut bad = Vec::new();
    if rows.len() != want.len() {
        bad.push(format!(
            "band holds {} keys, want {}",
            rows.len(),
            want.len()
        ));
    }
    for ((rk, rv), (k, i)) in rows.iter().zip(&want) {
        if rk.as_slice() != key_bytes(*k) || stamp_of(rk, rv) != Some(*i) {
            bad.push(format!("band row {rk:?}: want key {k} stamp {i}"));
            break;
        }
    }
    Ok(bad)
}

pub fn run(ctx: &Ctx) -> StoreResult<Outcome> {
    let (dir, setup_s, flush_s) =
        setup_reps(ctx, "storm-hot", 3 * SETUP_REPS, |d| build(d, ctx.seed))?;
    let stats = Arc::new(IoStats::default());
    let store = open_store(&dir, POOL_FRAMES, &stats)?;
    let (tree, _) = PiTree::recover(Arc::clone(&store), TREE_ID, PiTreeConfig::default())?;

    // Warm-up: one pass over the band pulls its pages into the pool, and
    // checks the preload.
    let mut out = Outcome::default();
    let initial = [(0, LIVE_PER_CLIENT); CLIENTS];
    let bad = check_band(&tree, ctx.seed, &initial)?;
    out.failed += bad.len() as u64;
    bad.iter().for_each(|b| eprintln!("storm-hot preload: {b}"));

    let c0 = counters(&store);
    let io0 = begin_io(&stats, ctx.trace);
    let live: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    let run = run_phase(
        ctx,
        Budget::Time(Duration::from_secs(ctx.seconds)),
        |c, phase| {
            let mut s = Stream::new(ctx.seed, c.id);
            let mut pipe = Pipe::default();
            while phase.go() {
                trace::op("op", || {
                    c.settle(&mut pipe, STORM_PIPELINE - 1);
                    let op = s.next_op();
                    c.attempted += 1;
                    let start = trace::now_ns();
                    match op {
                        Op::Get(i) => {
                            let key = key_bytes(band_key(ctx.seed, c.id, i));
                            match c.call(Layer::Core, Lat::CoreGet, "core.get_unlocked", || {
                                tree.get_unlocked(&key)
                            }) {
                                Ok(v) => {
                                    expect_value(c, "get", &key, v.as_deref(), Some(i));
                                    c.complete(Class::Get, start);
                                }
                                Err(e) => c.fail(format!("get {key:?}: {e}")),
                            }
                        }
                        Op::Insert(i) | Op::Delete(i) => {
                            let insert = matches!(op, Op::Insert(_));
                            let key = key_bytes(band_key(ctx.seed, c.id, i));
                            let val = value(&key, i);
                            let r = c.write_txn(
                                &store,
                                |c, txn| {
                                    if insert {
                                        c.call(Layer::Core, Lat::CoreInsert, "core.insert", || {
                                            tree.insert(txn, &key, &val)
                                        })
                                    } else {
                                        c.call(Layer::Core, Lat::CoreDelete, "core.delete", || {
                                            tree.delete(txn, &key)
                                        })
                                    }
                                },
                                pi_abort(&tree),
                            );
                            match r {
                                // An insert must create its fresh key and a
                                // delete must find its live one.
                                Ok((txn, true)) => {
                                    let bytes = if insert { (8 + VALUE_LEN) as u64 } else { 8 };
                                    c.publish(&mut pipe, txn, start, None, bytes);
                                }
                                Ok((txn, false)) => {
                                    let _ = txn.abort(Some(&tree.undo_handler()));
                                    c.fail(format!(
                                        "{op:?}: key {key:?} was {}",
                                        if insert { "present" } else { "absent" }
                                    ));
                                }
                                Err(e) => c.fail(format!("{op:?}: {e}")),
                            }
                        }
                    }
                });
            }
            trace::op("op.drain", || c.settle(&mut pipe, 0));
            live.lock().push((c.id, s.tail, s.head));
        },
    );
    let d = delta(&counters(&store), &c0);
    let io_d = io_delta(io_snap(&stats), io0);

    // Every op is acknowledged: the band must hold exactly the live keys.
    let mut ends = [(0, 0); CLIENTS];
    for (id, tail, head) in live.into_inner() {
        ends[id] = (tail, head);
    }
    let bad = check_band(&tree, ctx.seed, &ends)?;
    bad.iter()
        .for_each(|b| eprintln!("storm-hot final band: {b}"));
    let live_keys: u64 = ends.iter().map(|(t, h)| h - t).sum();

    let db_bytes = io::file_len(&dir.join("store.db"));
    common_metrics(
        Common {
            workload: "storm-hot",
            run: &run,
            counters: &d,
            io: io_d,
            io_stats: &[&*stats],
            setup_s,
            flush_ckpt_s: flush_s,
            db_bytes,
            live_user_bytes: live_keys * (8 + VALUE_LEN as u64),
        },
        &mut out,
    );
    // The two band checks (after warm-up and at the end) count as ops.
    out.attempted += 2;
    out.failed += bad.len() as u64;
    let ops: u64 = run.clients.iter().map(|c| c.ops).sum();
    if d["tree.splits"] == 0 || d["tree.consolidations"] == 0 {
        out.violations.push(format!(
            "storm-hot ran {} splits and {} consolidations; both must recur",
            d["tree.splits"], d["tree.consolidations"]
        ));
    }
    if io_d[0].calls as f64 > MAX_READS_PER_OP * ops as f64 {
        out.violations.push(format!(
            "storm-hot read {} pages from disk after warm-up",
            io_d[0].calls
        ));
    }
    drop(tree);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
