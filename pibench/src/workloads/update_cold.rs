//! `update-cold`: the `read-cold` image and pool under 50% get / 50%
//! upsert of existing keys (Zipf 0.99), each client keeping up to
//! `PIPELINE` published-but-unacknowledged commits. Group commit, fsync,
//! and dirty eviction write-back with its WAL-hook force sit on the
//! critical path. Upserts of existing keys cause no structure changes,
//! which the run asserts.
//!
//! The measured phase is a fixed op count (`OPS_PER_SECOND` × seconds),
//! not a wall-clock span, so the log a restart replays does not grow with
//! throughput. It ends in a crash — the store is dropped unflushed — and
//! both restarts run on copies of that one crash image: instant restart
//! (`recover_instant`, then the first verified get, then `drive`) and
//! stop-the-world `PiTree::recover`. After each, every acknowledged write
//! must read back as itself or a later write to its key. Restarts run on
//! a warm OS page cache: the benchmark does not drop caches, which on a
//! shared host would disturb other tenants and add variance.

use super::read_cold::{build_dense_image, get, open_pi, KEYS, POOL_PERCENT, TREE_ID};
use super::*;
use crate::gen::{key_bytes, stamp_of, value, Rng, Zipf, VALUE_LEN};
use crate::io::{self, copy_image, open_store};
use pitree::PiTreeConfig;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

/// Measured ops per second of `--seconds`: the phase's fixed size.
pub const OPS_PER_SECOND: u64 = 20_000;
/// Restarts of each kind in a traced run (medians reported).
const RESTART_REPS: usize = 3;
const TAG: u64 = 0x7570_6474; // "updt"

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Upsert(u64),
}

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
        if self.rng.below(2) == 0 {
            Op::Get(k)
        } else {
            Op::Upsert(k)
        }
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut s = Stream::new(seed, client);
    (0..n).map(|_| s.next_op()).collect()
}

/// The stamp of client `client`'s `seq`-th write. Preloaded values carry
/// stamp 0.
fn write_id(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 48) | seq
}

/// One published write: its key, write id, and commit-order ticket. The
/// ticket is drawn while the write holds its key's X lock (after the
/// upsert, before the publish that releases it), so per key, ticket order
/// is commit order.
#[derive(Debug, Clone, Copy)]
struct Write {
    key: u64,
    wid: u64,
    ticket: u64,
}

/// Per client: every write it published, and the indexes of those acked.
type ClientWrites = (Vec<Write>, Vec<u64>);

pub fn run(ctx: &Ctx) -> StoreResult<Outcome> {
    let (dir, setup_s, flush_s) = setup_reps(ctx, "update-cold", SETUP_REPS, build_dense_image)?;
    let frames = pool_for(io::data_pages(&dir), POOL_PERCENT);
    let stats = Arc::new(IoStats::default());
    let (store, tree) = open_pi(&dir, frames, &stats)?;
    let per_client = OPS_PER_SECOND * ctx.seconds / CLIENTS as u64;
    let tickets = AtomicU64::new(1);
    let writes: Mutex<Vec<ClientWrites>> = Mutex::new(Vec::new());

    let c0 = counters(&store);
    let io0 = begin_io(&stats, ctx.trace);
    let run = run_phase(ctx, Budget::Ops, |c, _| {
        let mut s = Stream::new(ctx.seed, c.id);
        let mut pipe = Pipe::default();
        let mut mine: Vec<Write> = Vec::new();
        for _ in 0..per_client {
            trace::op("op", || {
                c.settle(&mut pipe, PIPELINE - 1);
                match s.next_op() {
                    Op::Get(k) => get(c, &tree, k, None),
                    Op::Upsert(k) => {
                        c.attempted += 1;
                        let start = trace::now_ns();
                        let key = key_bytes(k);
                        let wid = write_id(c.id, mine.len() as u64 + 1);
                        let val = value(&key, wid);
                        let r = c.write_txn(
                            &store,
                            |c, txn| {
                                c.call(Layer::Core, Lat::CoreInsert, "core.insert", || {
                                    tree.insert(txn, &key, &val)
                                })
                            },
                            pi_abort(&tree),
                        );
                        match r {
                            Ok((txn, _)) => {
                                let ticket = tickets.fetch_add(1, Ordering::SeqCst);
                                mine.push(Write {
                                    key: k,
                                    wid,
                                    ticket,
                                });
                                let tag = mine.len() as u64 - 1;
                                c.publish(&mut pipe, txn, start, Some(tag), (8 + VALUE_LEN) as u64);
                            }
                            Err(e) => c.fail(format!("upsert {k}: {e}")),
                        }
                    }
                }
            });
        }
        trace::op("op.drain", || c.settle(&mut pipe, 0));
        let acked = std::mem::take(&mut pipe.acked);
        writes.lock().push((mine, acked));
    });
    let d = delta(&counters(&store), &c0);
    let io_d = io_delta(io_snap(&stats), io0);
    let log_since_ckpt = store.log.bytes_since_checkpoint();
    let db_bytes = io::file_len(&dir.join("store.db"));
    // Crash: every commit is acknowledged; drop the tree and store without
    // flushing. Dirty pool pages are lost; the forced log survives.
    drop(tree);
    drop(store);

    let mut out = Outcome::default();
    common_metrics(
        Common {
            workload: "update-cold",
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
    if d["tree.splits"] != 0 {
        out.violations
            .push(format!("update-cold split {} nodes", d["tree.splits"]));
    }
    if d["wal.forces"] == 0 || d["buf.writebacks"] == 0 {
        out.violations
            .push("update-cold never forced the log or wrote back a page".into());
    }

    // What a restart must show: per key, the acked write with the highest
    // ticket or a later one.
    let mut ticket_of: HashMap<u64, u64> = HashMap::new();
    let mut required: HashMap<u64, u64> = HashMap::new();
    for (mine, acked) in writes.into_inner() {
        for w in &mine {
            ticket_of.insert(w.wid, w.ticket);
        }
        for &i in &acked {
            let w = mine[i as usize];
            let r = required.entry(w.key).or_insert(0);
            *r = (*r).max(w.ticket);
        }
    }
    let mut keys: Vec<u64> = required.keys().copied().collect();
    keys.sort_unstable();
    let probe = *keys.first().unwrap_or(&0);
    // Whether key `k` reads back as its last acknowledged write or later.
    let holds = |k: u64, got: &StoreResult<Option<Vec<u8>>>| match got {
        Ok(Some(v)) => stamp_of(&key_bytes(k), v)
            .and_then(|wid| ticket_of.get(&wid))
            .is_some_and(|t| *t >= required[&k]),
        _ => false,
    };
    let check = |tree: &PiTree| -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        for &k in &keys {
            let key = key_bytes(k);
            let got = tree.get_unlocked(&key);
            if !holds(k, &got) {
                bad.push(format!(
                    "key {k} after restart: {:?}",
                    got.map(|v| v.map(|v| stamp_of(&key, &v)))
                ));
            }
        }
        (keys.len() as u64, bad)
    };

    let reps = if ctx.trace { RESTART_REPS } else { 1 };
    let (mut first_op, mut full, mut open_ms, mut drive_ms) = (vec![], vec![], vec![], vec![]);
    let (mut redo_pages, mut on_demand) = (vec![], vec![]);
    for r in 0..reps {
        // Instant-restart recovery: analysis + undo, first verified get, then the
        // background redo drains.
        let img = ctx.work.join(format!("update-cold-instant{r}"));
        copy_image(&dir, &img).map_err(|e| StoreError::Corrupt(format!("copy image: {e}")))?;
        let rstats = Arc::new(IoStats::default());
        let t0 = Stopwatch::start();
        let store = open_store(&img, frames, &rstats)?;
        let (tree, plan, _) =
            PiTree::recover_instant(Arc::clone(&store), TREE_ID, PiTreeConfig::default())?;
        open_ms.push(secs(&t0) * 1e3);
        let got = tree.get_unlocked(&key_bytes(probe));
        first_op.push(secs(&t0) * 1e3);
        out.attempted += 1;
        if !keys.is_empty() && !holds(probe, &got) {
            out.failed += 1;
            eprintln!("update-cold: first get after instant restart: {got:?}");
        }
        let t1 = Stopwatch::start();
        plan.drive(&store.pool, CLIENTS)?;
        drive_ms.push(secs(&t1) * 1e3);
        redo_pages.push(store.recorder().counter("recovery.redo_pages").get() as f64);
        on_demand.push(store.recorder().counter("recovery.on_demand_redos").get() as f64);
        let (n, bad) = check(&tree);
        out.attempted += n;
        out.failed += bad.len() as u64;
        for b in bad.iter().take(5) {
            eprintln!("update-cold instant restart: {b}");
        }
        drop(tree);
        drop(store);
        let _ = std::fs::remove_dir_all(&img);

        // Stop-the-world restart of a copy of the same crash image.
        let img = ctx.work.join(format!("update-cold-full{r}"));
        copy_image(&dir, &img).map_err(|e| StoreError::Corrupt(format!("copy image: {e}")))?;
        let t0 = Stopwatch::start();
        let (store, tree) = open_pi(&img, frames, &rstats)?;
        full.push(secs(&t0) * 1e3);
        let (n, bad) = check(&tree);
        out.attempted += n;
        out.failed += bad.len() as u64;
        for b in bad.iter().take(5) {
            eprintln!("update-cold full restart: {b}");
        }
        drop(tree);
        drop(store);
        let _ = std::fs::remove_dir_all(&img);
    }
    let m = &mut out.metrics;
    m.set("restart_first_op_ms", report::median(first_op), "ms");
    m.set("restart_full_ms", report::median(full), "ms");
    m.set("recovery.instant_open_ms", report::median(open_ms), "ms");
    m.set("recovery.drive_ms", report::median(drive_ms), "ms");
    m.set("recovery.redo_pages", report::median(redo_pages), "count");
    m.set(
        "recovery.on_demand_redos",
        report::median(on_demand),
        "count",
    );
    m.set("recovery.log_bytes_since_ckpt", log_since_ckpt as f64, "B");
    m.set("acked_keys", keys.len() as f64, "count");
    // Restarts read the crash image through a warm OS page cache.
    m.set("restart_os_cache_warm", 1.0, "bool");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
