//! Instant-restart integration oracles.
//!
//! The heart of this file is the **determinism oracle**: recovery must be
//! a pure function of the durable crash image, no matter which engine
//! replays it. One seeded workload is crashed once, and the same image is
//! recovered three ways — stop-the-world serial REDO, instant restart
//! with parallel background REDO, and instant restart where foreground
//! traffic triggers on-demand REDO before the background workers drain
//! the rest. All three must produce byte-identical pages ("repeating
//! history" has exactly one answer — §4.3.1's invariant restated as an
//! executable test).
//!
//! The same oracle runs for the TSB- and hB-trees through the generic
//! [`pitree::lifecycle`] restart pair: each family's crash image, with a
//! forced-but-uncommitted loser, must come back byte-identical through
//! stop-the-world and instant restart.
//!
//! The last part exercises the **fuzzy-checkpoint trigger**: armed via
//! [`pitree_txnlock::TxnManager::set_checkpoint_every_bytes`], commits
//! under load must advance the master LSN without quiescing writers, and
//! a crash that lands after several checkpoints must still recover the
//! committed state exactly (analysis now starts at the checkpoint, not
//! the log head).

use pitree::lifecycle::{self, Instantiation};
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_hb::{HbConfig, HbTree, Point, Rect};
use pitree_pagestore::PageId;
use pitree_tsb::{Time, TsbConfig, TsbTree};
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<u64, Vec<u8>>;

fn key(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn val(k: u64, tag: &str) -> Vec<u8> {
    format!("{tag}-{k}").into_bytes()
}

/// Forced-commit upsert; the model records it only when the commit
/// returns (a commit that returns is durable).
fn insert(tree: &PiTree, model: &mut Model, k: u64, tag: &str) {
    let mut t = tree.begin();
    tree.insert(&mut t, &key(k), &val(k, tag)).expect("insert");
    t.commit().expect("commit");
    model.insert(k, val(k, tag));
}

fn delete(tree: &PiTree, model: &mut Model, k: u64) {
    let mut t = tree.begin();
    tree.delete(&mut t, &key(k)).expect("delete");
    t.commit().expect("commit");
    model.remove(&k);
}

/// Read every allocated page's logical image through the pool.
fn page_images(cs: &CrashableStore, max_pages: u64) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    for pid in 0..max_pages {
        let id = PageId(pid);
        if cs
            .store
            .space
            .is_allocated(&cs.store.pool, id)
            .expect("space map")
        {
            let page = cs.store.pool.fetch(id).expect("fetch");
            let g = page.s();
            out.push((pid, g.as_bytes().to_vec()));
        }
    }
    out
}

fn check_model(tree: &PiTree, model: &Model, ctx: &str) {
    for (k, v) in model {
        let got = tree
            .get_unlocked(&key(*k))
            .unwrap_or_else(|e| panic!("{ctx}: get {k}: {e}"));
        assert_eq!(got.as_ref(), Some(v), "{ctx}: key {k} wrong");
    }
    let report = tree.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(
        report.is_well_formed(),
        "{ctx}: ill-formed: {:?}",
        report.violations
    );
    assert_eq!(report.records, model.len(), "{ctx}: record count");
}

/// Build a crash image with committed SMOs (splits + a consolidation), a
/// loser transaction for undo, and dirty pages beyond what eviction
/// happened to write back — then return the pre-crash store + model.
fn crashed_workload() -> (CrashableStore, Model) {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    // A tiny pool: eviction flushes *some* pages, so REDO has real work
    // and pages differ in how far their disk image lags the log.
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let mut model = Model::new();
    for k in 0..40 {
        insert(&tree, &mut model, k, "base");
    }
    for k in (0..40).step_by(3) {
        insert(&tree, &mut model, k, "updated");
    }
    for k in (1..40).step_by(7) {
        delete(&tree, &mut model, k);
    }
    // A loser: logged updates with no commit. The dead machine never
    // cleans it up (forget, not drop — drop would roll back politely).
    let mut loser = tree.begin();
    tree.insert(&mut loser, &key(500), b"loser-uncommitted")
        .expect("loser insert");
    // Force the loser's updates into the durable log (no commit record):
    // recovery must see it and undo it, not lose it with the tail.
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    drop(tree);
    (cs, model)
}

/// Same crash image, three replay engines, one answer: the page images
/// after serial REDO, parallel background REDO, and traffic-first
/// on-demand REDO must be byte-identical.
#[test]
fn serial_parallel_and_on_demand_redo_agree_byte_for_byte() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let (cs, model) = crashed_workload();

    // (a) stop-the-world serial recovery.
    let serial = cs.crash().expect("snapshot a");
    let (tree_a, stats_a) =
        PiTree::recover(Arc::clone(&serial.store), 1, cfg).expect("serial recover");
    assert!(stats_a.redone > 0, "workload left nothing to redo");
    assert!(
        !stats_a.losers.is_empty(),
        "the forced-but-uncommitted loser must be found and undone"
    );
    check_model(&tree_a, &model, "serial");
    drop(tree_a);

    // (b) instant restart, background REDO on 4 workers, no traffic.
    let parallel = cs.crash().expect("snapshot b");
    let (tree_b, plan_b, _) =
        PiTree::recover_instant(Arc::clone(&parallel.store), 1, cfg).expect("instant recover b");
    plan_b
        .drive(&parallel.store.pool, 4)
        .expect("parallel drive");
    assert!(plan_b.is_complete());
    check_model(&tree_b, &model, "parallel");
    drop(tree_b);

    // (c) instant restart, traffic triggers on-demand REDO first, then
    // background workers drain the remainder.
    let on_demand = cs.crash().expect("snapshot c");
    let (tree_c, plan_c, _) =
        PiTree::recover_instant(Arc::clone(&on_demand.store), 1, cfg).expect("instant recover c");
    for (k, v) in &model {
        let got = tree_c.get_unlocked(&key(*k)).expect("get mid-recovery");
        assert_eq!(
            got.as_ref(),
            Some(v),
            "key {k} served wrong value from a half-recovered store"
        );
    }
    plan_c
        .drive(&on_demand.store.pool, 2)
        .expect("drain after traffic");
    assert!(plan_c.is_complete());
    check_model(&tree_c, &model, "on-demand");
    drop(tree_c);

    assert_same_pages(&serial, &parallel, "parallel");
    assert_same_pages(&serial, &on_demand, "on-demand");
}

/// Assert that every allocated page of `a` and `b` is byte-identical.
fn assert_same_pages(a: &CrashableStore, b: &CrashableStore, ctx: &str) {
    let (img_a, img_b) = (page_images(a, 10_000), page_images(b, 10_000));
    assert_eq!(
        img_a.len(),
        img_b.len(),
        "{ctx}: allocated page sets diverge"
    );
    for ((pa, ba), (pb, bb)) in img_a.iter().zip(img_b.iter()) {
        assert_eq!(pa, pb, "{ctx}: allocated page sets diverge");
        assert_eq!(
            ba, bb,
            "{ctx}: page {pa}: serial and instant-restart REDO disagree"
        );
    }
}

/// Recover one crash image of tree 1 twice through the generic lifecycle
/// — stop-the-world, and instant restart drained by `drive` — check each
/// result against the model with `check`, and demand byte-identical pages.
fn serial_and_instant_agree<T: Instantiation>(
    cs: &CrashableStore,
    cfg: T::Config,
    check: impl Fn(&T, &str),
) {
    let serial = cs.crash().expect("snapshot serial");
    let (tree, stats) =
        lifecycle::recover::<T>(Arc::clone(&serial.store), 1, cfg).expect("serial recover");
    assert!(stats.redone > 0, "workload left nothing to redo");
    assert!(
        !stats.losers.is_empty(),
        "the forced-but-uncommitted loser must be found and undone"
    );
    check(&tree, "serial");
    drop(tree);

    let instant = cs.crash().expect("snapshot instant");
    let (tree, plan, stats) = lifecycle::recover_instant::<T>(Arc::clone(&instant.store), 1, cfg)
        .expect("instant recover");
    assert!(!stats.losers.is_empty(), "instant restart missed the loser");
    plan.drive(&instant.store.pool, 2).expect("drive");
    assert!(plan.is_complete());
    check(&tree, "instant");
    drop(tree);

    assert_same_pages(&serial, &instant, "generic restart");
}

/// TSB crash image: versioned puts and deletes across time and key splits,
/// plus a loser that writes a new key and a new version of an old one.
#[test]
fn tsb_restarts_identically_through_the_generic_instant_path() {
    let cfg = TsbConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = TsbTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let mut now: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let write = |k: u64, v: Option<Vec<u8>>| {
        let mut t = tree.begin();
        match &v {
            Some(v) => tree.put(&mut t, &key(k), v).expect("put"),
            None => tree.delete(&mut t, &key(k)).expect("delete"),
        };
        t.commit().expect("commit");
    };
    for k in 0..30 {
        write(k, Some(val(k, "v1")));
        now.insert(k, val(k, "v1"));
    }
    let fence: Time = tree.now();
    let at_fence = now.clone();
    for round in ["v2", "v3"] {
        for k in 0..30 {
            write(k, Some(val(k, round)));
            now.insert(k, val(k, round));
        }
    }
    for k in (1..30).step_by(5) {
        write(k, None);
        now.remove(&k);
    }
    let mut loser = tree.begin();
    tree.put(&mut loser, &key(500), b"loser")
        .expect("loser put");
    tree.put(&mut loser, &key(4), b"loser").expect("loser put");
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    drop(tree);

    serial_and_instant_agree::<TsbTree>(&cs, cfg, |tree, ctx| {
        for k in 0..30 {
            let got = tree.get_current(&key(k)).expect("get_current");
            assert_eq!(got.as_ref(), now.get(&k), "{ctx}: key {k} now");
            let got = tree.get_as_of(&key(k), fence).expect("get_as_of");
            assert_eq!(got.as_ref(), at_fence.get(&k), "{ctx}: key {k} as of fence");
        }
        assert_eq!(tree.get_current(&key(500)).expect("get"), None, "{ctx}");
        let report = tree.validate().expect("validate");
        assert!(report.is_well_formed(), "{ctx}: {:?}", report.violations);
        assert!(
            report.current_nodes > 1 && report.history_nodes > 0,
            "{ctx}: workload must key-split and time-split: {report:?}"
        );
    });
}

/// hB crash image: a point grid with hyperplane splits, updates and
/// deletes, plus a loser that inserts a new point and updates an old one.
#[test]
fn hb_restarts_identically_through_the_generic_instant_path() {
    let cfg = HbConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = HbTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let mut model: BTreeMap<Point, Vec<u8>> = BTreeMap::new();
    let grid = |i: u64| [i % 7 * 10, i / 7 * 10];
    for i in 0..42 {
        let mut t = tree.begin();
        tree.insert(&mut t, &grid(i), &val(i, "p1"))
            .expect("insert");
        t.commit().expect("commit");
        model.insert(grid(i), val(i, "p1"));
    }
    for i in (0..42).step_by(4) {
        let mut t = tree.begin();
        tree.insert(&mut t, &grid(i), &val(i, "p2"))
            .expect("update");
        t.commit().expect("commit");
        model.insert(grid(i), val(i, "p2"));
    }
    for i in (1..42).step_by(6) {
        let mut t = tree.begin();
        tree.delete(&mut t, &grid(i)).expect("delete");
        t.commit().expect("commit");
        model.remove(&grid(i));
    }
    let mut loser = tree.begin();
    tree.insert(&mut loser, &[5, 5], b"loser")
        .expect("loser insert");
    tree.insert(&mut loser, &grid(8), b"loser")
        .expect("loser update");
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    drop(tree);

    serial_and_instant_agree::<HbTree>(&cs, cfg, |tree, ctx| {
        for (p, v) in &model {
            let got = tree.get(p).expect("get");
            assert_eq!(got.as_ref(), Some(v), "{ctx}: point {p:?}");
        }
        let all: BTreeMap<Point, Vec<u8>> = tree
            .window_query(&Rect::all())
            .expect("window")
            .into_iter()
            .collect();
        assert_eq!(all, model, "{ctx}: window query over the whole space");
        let report = tree.validate().expect("validate");
        assert!(report.is_well_formed(), "{ctx}: {:?}", report.violations);
        assert!(
            report.nodes_per_level.len() > 1,
            "{ctx}: workload must split"
        );
    });
}

/// The log-bytes trigger takes fuzzy checkpoints inline with commits:
/// the master LSN advances under load with no quiesce, the trigger
/// re-arms (several checkpoints over enough log), and a crash landing
/// after all of that recovers exactly the committed state with analysis
/// seeded from the last checkpoint.
#[test]
fn auto_checkpoint_trigger_advances_master_under_load() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(32, 10_000).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let rec = cs.store.recorder().clone();

    cs.store.txns.set_checkpoint_every_bytes(2048);
    let mut model = Model::new();
    for k in 0..120 {
        insert(&tree, &mut model, k % 50, "ckpt");
    }

    let taken = rec.counter("wal.ckpt_taken").get();
    assert!(taken >= 2, "trigger must re-arm (took {taken} checkpoints)");
    assert_eq!(rec.counter("wal.ckpt_failed").get(), 0);
    let master = cs.store.log.store().master();
    assert!(master.0 > 0, "master LSN never advanced");
    assert!(
        cs.store.log.bytes_since_checkpoint() < cs.durable_log_len(),
        "last checkpoint should bound the analysis scan below the full log"
    );

    drop(tree);
    let crashed = cs.crash().expect("snapshot");
    let (tree, stats) = PiTree::recover(Arc::clone(&crashed.store), 1, cfg).expect("recover");
    assert!(
        stats.analysis_start >= master,
        "analysis started at {} but the master checkpoint is {}",
        stats.analysis_start,
        master
    );
    check_model(&tree, &model, "post-checkpoint crash");

    // And the instant path honours the same checkpoint.
    let crashed2 = cs.crash().expect("snapshot 2");
    let (tree2, plan, stats2) =
        PiTree::recover_instant(Arc::clone(&crashed2.store), 1, cfg).expect("instant recover");
    assert!(stats2.analysis_start >= master);
    plan.drive(&crashed2.store.pool, 2).expect("drive");
    check_model(&tree2, &model, "post-checkpoint instant");
}
