//! `family`: the paper's other two access methods, each over its own store
//! with a pool of ≈ 1% of its data pages. 35% TSB as-of get (half at a
//! historical time fence, half at now) / 5% TSB as-of scan(50) / 10% TSB
//! put / 35% hB window query / 15% hB point insert.
//!
//! The only workload where `pitree-tsb` and `pitree-hb` run. Answers are
//! checked against what the workload knows: at the fence every TSB key
//! holds exactly its preloaded version; at now every key still exists
//! with a well-formed value; a window query returns only points inside
//! its window, each with its own value, and every preloaded point inside.

use super::*;
use crate::gen::{key_bytes, stamp_of, value, Rng, Zipf, VALUE_LEN};
use crate::io::{self, open_store};
use pitree_hb::{point_key, HbConfig, HbTree, Point, Rect};
use pitree_tsb::{Time, TsbConfig, TsbTree};
use std::path::Path;

/// Keys of the TSB population.
pub const TSB_KEYS: u64 = 40_000;
/// Points of the hB population: distinct cells of an even-coordinate
/// grid `GRID × GRID` (attribute values `0..2 GRID`).
pub const HB_POINTS: u64 = 50_000;
const GRID: u64 = 512;
/// Window edge, in attribute units.
const WINDOW: u64 = 16;
const SCAN_LEN: u64 = 50;
const TREE_ID: u32 = 1;
const TAG: u64 = 0x6661_6d69; // "fami"
/// Preload point `i` sits at grid cell `i * CELL_STRIDE mod GRID²`
/// (`CELL_STRIDE` is odd, so the map is a bijection of the cells).
const CELL_STRIDE: u64 = 0x9E37_79B1;

fn cell_point(cell: u64) -> Point {
    [2 * (cell % GRID), 2 * (cell / GRID)]
}

pub fn preload_point(i: u64) -> Point {
    cell_point(i.wrapping_mul(CELL_STRIDE) % (GRID * GRID))
}

/// Whether the even-coordinate point `p` is a preloaded one.
fn is_preloaded(p: &Point) -> bool {
    let cell = p[0] / 2 + GRID * (p[1] / 2);
    // Invert the stride modulo GRID² (a power of two) by Newton's method.
    let m = GRID * GRID;
    let mut inv: u64 = 1;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(CELL_STRIDE.wrapping_mul(inv)));
    }
    (cell.wrapping_mul(inv) % m) < HB_POINTS
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// As-of get of a key; `true` at the fence, `false` at now.
    TsbGet(u64, bool),
    TsbScan(u64, bool),
    TsbPut(u64),
    /// Window query with this lower corner.
    Window(Point),
    /// Insert a fresh (odd-x) point.
    HbInsert(Point),
}

pub struct Stream {
    rng: Rng,
    zipf: Zipf,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed, TAG, client as u64),
            zipf: Zipf::new(TSB_KEYS, 0.99),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        let side = 2 * GRID;
        match roll {
            0..=34 => Op::TsbGet(self.zipf.key(&mut self.rng), self.rng.below(2) == 0),
            35..=39 => Op::TsbScan(self.zipf.key(&mut self.rng), self.rng.below(2) == 0),
            40..=49 => Op::TsbPut(self.zipf.key(&mut self.rng)),
            50..=84 => Op::Window([self.rng.below(side - WINDOW), self.rng.below(side - WINDOW)]),
            _ => Op::HbInsert([2 * self.rng.below(GRID) + 1, self.rng.below(side)]),
        }
    }
}

#[cfg(test)]
pub fn op_stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut s = Stream::new(seed, client);
    (0..n).map(|_| s.next_op()).collect()
}

/// Build both images; returns the flush + checkpoint time and the fence.
fn build(dir: &Path) -> StoreResult<(f64, Time)> {
    let io = Arc::new(IoStats::default());
    let tstore = open_store(&dir.join("tsb"), LOAD_POOL_FRAMES, &io)?;
    let tsb = TsbTree::create(Arc::clone(&tstore), TREE_ID, TsbConfig::default())?;
    preload(&tstore, TSB_KEYS, |txn, k| {
        let key = key_bytes(k);
        tsb.put(txn, &key, &value(&key, 0)).map(|_| ())
    })?;
    let fence = tsb.now();
    let hstore = open_store(&dir.join("hb"), LOAD_POOL_FRAMES, &io)?;
    let hb = HbTree::create(Arc::clone(&hstore), TREE_ID, HbConfig::default())?;
    preload(&hstore, HB_POINTS, |txn, i| {
        let p = preload_point(i);
        hb.insert(txn, &p, &value(&point_key(&p), 0)).map(|_| ())
    })?;
    Ok((
        flush_and_checkpoint(&tstore)? + flush_and_checkpoint(&hstore)?,
        fence,
    ))
}

pub fn run(ctx: &Ctx) -> StoreResult<Outcome> {
    let fence = Mutex::new(0);
    let (dir, setup_s, flush_s) = setup_reps(ctx, "family", SETUP_REPS, |d| {
        let (f, t) = build(d)?;
        *fence.lock() = t;
        Ok(f)
    })?;
    let fence = fence.into_inner();
    let (tdir, hdir) = (dir.join("tsb"), dir.join("hb"));
    let (tstats, hstats) = (Arc::new(IoStats::default()), Arc::new(IoStats::default()));
    let tstore = open_store(&tdir, pool_for(io::data_pages(&tdir), 1), &tstats)?;
    let (tsb, _) = TsbTree::recover(Arc::clone(&tstore), TREE_ID, TsbConfig::default())?;
    let hstore = open_store(&hdir, pool_for(io::data_pages(&hdir), 1), &hstats)?;
    let (hb, _) = HbTree::recover(Arc::clone(&hstore), TREE_ID, HbConfig::default())?;
    if tsb.now() < fence {
        return Err(StoreError::Corrupt(format!(
            "TSB clock {} behind fence {fence}",
            tsb.now()
        )));
    }

    let (t0, h0) = (counters(&tstore), counters(&hstore));
    let (tio0, hio0) = (begin_io(&tstats, ctx.trace), begin_io(&hstats, ctx.trace));
    let inserted = std::sync::atomic::AtomicU64::new(0);
    let run = run_phase(
        ctx,
        Budget::Time(Duration::from_secs(ctx.seconds)),
        |c, phase| {
            let mut s = Stream::new(ctx.seed, c.id);
            let mut tpipe = Pipe::default();
            let mut hpipe = Pipe::default();
            let mut seq = 0u64;
            while phase.go() {
                trace::op("op", || {
                    c.settle(&mut tpipe, PIPELINE - 1);
                    c.settle(&mut hpipe, PIPELINE - 1);
                    let op = s.next_op();
                    c.attempted += 1;
                    let start = trace::now_ns();
                    match op {
                        Op::TsbGet(k, at_fence) => {
                            let key = key_bytes(k);
                            let t = if at_fence { fence } else { tsb.now() };
                            match c.call(Layer::Tsb, Lat::TsbGet, "tsb.get_as_of", || {
                                tsb.get_as_of(&key, t)
                            }) {
                                Ok(v) => {
                                    expect_value(
                                        c,
                                        "as-of get",
                                        &key,
                                        v.as_deref(),
                                        at_fence.then_some(0),
                                    );
                                    c.complete(Class::Get, start);
                                }
                                Err(e) => c.fail(format!("as-of get {k}: {e}")),
                            }
                        }
                        Op::TsbScan(k, at_fence) => {
                            let end = (k + SCAN_LEN).min(TSB_KEYS);
                            let t = if at_fence { fence } else { tsb.now() };
                            let r = c.call(Layer::Tsb, Lat::TsbScan, "tsb.scan_as_of", || {
                                tsb.scan_as_of(&key_bytes(k), &key_bytes(end), t)
                            });
                            match r {
                                Ok(rows) => {
                                    let keys_ok = rows.len() as u64 == end - k
                                        && rows
                                            .iter()
                                            .enumerate()
                                            .all(|(i, (rk, _))| *rk == key_bytes(k + i as u64));
                                    let vals_ok =
                                        rows.iter().all(|(rk, rv)| match stamp_of(rk, rv) {
                                            Some(st) => !at_fence || st == 0,
                                            None => false,
                                        });
                                    if !(keys_ok && vals_ok) {
                                        c.fail(format!(
                                            "as-of scan {k}..{end} at {t}: {} rows, wrong",
                                            rows.len()
                                        ));
                                    }
                                    c.complete(Class::Scan, start);
                                }
                                Err(e) => c.fail(format!("as-of scan {k}: {e}")),
                            }
                        }
                        Op::TsbPut(k) => {
                            seq += 1;
                            let key = key_bytes(k);
                            let val = value(&key, ((c.id as u64 + 1) << 48) | seq);
                            let r = c.write_txn(
                                &tstore,
                                |c, txn| {
                                    c.call(Layer::Tsb, Lat::TsbPut, "tsb.put", || {
                                        tsb.put(txn, &key, &val)
                                    })
                                },
                                |txn| txn.abort(Some(&tsb.undo_handler())),
                            );
                            match r {
                                Ok((txn, _)) => {
                                    c.publish(&mut tpipe, txn, start, None, (8 + VALUE_LEN) as u64)
                                }
                                Err(e) => c.fail(format!("tsb put {k}: {e}")),
                            }
                        }
                        Op::Window(lo) => {
                            let w = Rect {
                                lo,
                                hi: [lo[0] + WINDOW, lo[1] + WINDOW],
                            };
                            match c.call(Layer::Hb, Lat::HbWindow, "hb.window_query", || {
                                hb.window_query(&w)
                            }) {
                                Ok(rows) => {
                                    c.points += rows.len() as u64;
                                    check_window(c, &w, &rows);
                                    c.complete(Class::Scan, start);
                                }
                                Err(e) => c.fail(format!("window {w:?}: {e}")),
                            }
                        }
                        Op::HbInsert(p) => {
                            seq += 1;
                            let val = value(&point_key(&p), ((c.id as u64 + 1) << 48) | seq);
                            let r = c.write_txn(
                                &hstore,
                                |c, txn| {
                                    c.call(Layer::Hb, Lat::HbInsert, "hb.insert", || {
                                        hb.insert(txn, &p, &val)
                                    })
                                },
                                |txn| txn.abort(Some(&hb.undo_handler())),
                            );
                            match r {
                                Ok((txn, _)) => {
                                    inserted.fetch_add(1, Ordering::Relaxed);
                                    c.publish(
                                        &mut hpipe,
                                        txn,
                                        start,
                                        None,
                                        (16 + VALUE_LEN) as u64,
                                    );
                                }
                                Err(e) => c.fail(format!("hb insert {p:?}: {e}")),
                            }
                        }
                    }
                });
            }
            trace::op("op.drain", || {
                c.settle(&mut tpipe, 0);
                c.settle(&mut hpipe, 0);
            });
        },
    );
    let (td, hd) = (
        delta(&counters(&tstore), &t0),
        delta(&counters(&hstore), &h0),
    );
    let io_d = {
        let (t, h) = (
            io_delta(io_snap(&tstats), tio0),
            io_delta(io_snap(&hstats), hio0),
        );
        [0, 1, 2, 3].map(|i| io::IoSnap {
            calls: t[i].calls + h[i].calls,
            bytes: t[i].bytes + h[i].bytes,
            ns: t[i].ns + h[i].ns,
        })
    };
    let db_bytes = io::file_len(&tdir.join("store.db")) + io::file_len(&hdir.join("store.db"));
    let live = TSB_KEYS * (8 + VALUE_LEN as u64)
        + (HB_POINTS + inserted.load(Ordering::Relaxed)) * (16 + VALUE_LEN as u64);
    let mut out = Outcome::default();
    let all = sum(&td, &hd);
    common_metrics(
        Common {
            workload: "family",
            run: &run,
            counters: &all,
            io: io_d,
            io_stats: &[&*tstats, &*hstats],
            setup_s,
            flush_ckpt_s: flush_s,
            db_bytes,
            live_user_bytes: live,
        },
        &mut out,
    );
    let points: u64 = run.clients.iter().map(|c| c.points).sum();
    let m = &mut out.metrics;
    m.set("tsb.splits", td["tree.splits"] as f64, "count");
    m.set("hb.splits", hd["tree.splits"] as f64, "count");
    let fetches = (hd["buf.hits"] + hd["buf.misses"]) as f64;
    m.set(
        "hb.fetches_per_result",
        fetches / points.max(1) as f64,
        "ratio",
    );
    if td["buf.misses"] == 0 || hd["buf.misses"] == 0 {
        out.violations
            .push("family: a tree never missed its pool".into());
    }
    drop((tsb, hb, tstore, hstore));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// A window's answer: only points inside, each with its own value, and
/// every preloaded point inside present.
fn check_window(c: &mut Client, w: &Rect, rows: &[(Point, Vec<u8>)]) {
    for (p, v) in rows {
        if !w.contains(p) || stamp_of(&point_key(p), v).is_none() {
            c.fail(format!(
                "window {w:?} returned {p:?} with a wrong value or outside"
            ));
            return;
        }
    }
    let x0 = w.lo[0].div_ceil(2) * 2;
    let y0 = w.lo[1].div_ceil(2) * 2;
    for x in (x0..w.hi[0]).step_by(2) {
        for y in (y0..w.hi[1]).step_by(2) {
            let p = [x, y];
            if is_preloaded(&p) && rows.binary_search_by(|(q, _)| q.cmp(&p)).is_err() {
                c.fail(format!("window {w:?} is missing preloaded point {p:?}"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_points_are_distinct_and_recognised() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..HB_POINTS {
            let p = preload_point(i);
            assert!(seen.insert(p), "point {i} repeats");
            assert!(is_preloaded(&p));
        }
        let absent = (0..GRID * GRID)
            .map(cell_point)
            .filter(|p| !seen.contains(p));
        assert!(absent.take(1000).all(|p| !is_preloaded(&p)));
    }
}
