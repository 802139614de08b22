//! Cross-crate integration tests: the full stack (page store → WAL → locks
//! → trees) driven together, including all three Π-tree members sharing one
//! store, one log, and one recovery pass.

use pitree::lifecycle::{self, Instantiation};
use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_hb::{HbConfig, HbTree};
use pitree_pagestore::StoreError;
use pitree_tsb::{TsbConfig, TsbTree};
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

#[test]
fn three_tree_kinds_share_one_store_and_log() {
    let cs = CrashableStore::create(2048, 300_000).unwrap();
    let blink = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(8, 8)).unwrap();
    let tsb = TsbTree::create(Arc::clone(&cs.store), 2, TsbConfig::small_nodes(8, 8)).unwrap();
    let hb = HbTree::create(Arc::clone(&cs.store), 3, HbConfig::small_nodes(8, 16)).unwrap();

    for i in 0..100u64 {
        let mut t = blink.begin();
        blink.insert(&mut t, &key(i), b"blink").unwrap();
        t.commit().unwrap();

        let mut t = tsb.begin();
        tsb.put(&mut t, &key(i % 10), format!("v{i}").as_bytes())
            .unwrap();
        t.commit().unwrap();

        let mut t = hb.begin();
        hb.insert(&mut t, &[i * 37 % 1000, i * 91 % 1000], b"hb")
            .unwrap();
        t.commit().unwrap();
    }
    blink.run_completions().unwrap();
    tsb.run_completions().unwrap();
    hb.run_completions().unwrap();

    assert!(blink.validate().unwrap().is_well_formed());
    assert!(tsb.validate().unwrap().is_well_formed());
    assert!(hb.validate().unwrap().is_well_formed());

    assert_eq!(
        blink.get_unlocked(&key(42)).unwrap(),
        Some(b"blink".to_vec())
    );
    assert_eq!(tsb.get_current(&key(2)).unwrap(), Some(b"v92".to_vec()));
    assert_eq!(
        hb.get(&[42 * 37 % 1000, 42 * 91 % 1000]).unwrap(),
        Some(b"hb".to_vec())
    );
}

/// Whether tree `id` opens as family `T`; a miss must be `Corrupt`.
fn opens_as<T: Instantiation>(store: &Arc<Store>, id: u32) -> bool
where
    T::Config: Default,
{
    match lifecycle::open::<T>(Arc::clone(store), id, T::Config::default()) {
        Ok(_) => true,
        Err(StoreError::Corrupt(_)) => false,
        Err(e) => panic!("open of tree {id} failed with {e}, not Corrupt"),
    }
}

/// The meta-page magic keeps the families apart: a tree id registered by
/// one family does not open as another, before or after a crash.
#[test]
fn tree_id_of_another_family_does_not_open() {
    let cs = CrashableStore::create(64, 10_000).unwrap();
    PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::default()).unwrap();
    TsbTree::create(Arc::clone(&cs.store), 2, TsbConfig::default()).unwrap();
    HbTree::create(Arc::clone(&cs.store), 3, HbConfig::default()).unwrap();
    let crashed = cs.crash().unwrap().store;
    PiTree::recover(Arc::clone(&crashed), 1, PiTreeConfig::default()).unwrap();
    for store in [Arc::clone(&cs.store), crashed] {
        for id in 1..=3 {
            assert_eq!(
                opens_as::<PiTree>(&store, id),
                id == 1,
                "tree {id} as B-link"
            );
            assert_eq!(opens_as::<TsbTree>(&store, id), id == 2, "tree {id} as TSB");
            assert_eq!(opens_as::<HbTree>(&store, id), id == 3, "tree {id} as hB");
        }
    }
}

#[test]
fn shared_store_crash_recovers_all_trees() {
    let blink_cfg = PiTreeConfig::small_nodes(8, 8);
    let tsb_cfg = TsbConfig::small_nodes(8, 8);
    let cs = CrashableStore::create(2048, 300_000).unwrap();
    {
        let blink = PiTree::create(Arc::clone(&cs.store), 1, blink_cfg).unwrap();
        let tsb = TsbTree::create(Arc::clone(&cs.store), 2, tsb_cfg).unwrap();
        for i in 0..80u64 {
            let mut t = blink.begin();
            blink.insert(&mut t, &key(i), b"b").unwrap();
            t.commit().unwrap();
            let mut t = tsb.begin();
            tsb.put(&mut t, &key(i % 8), b"t").unwrap();
            t.commit().unwrap();
        }
    }
    let cs2 = cs.crash().unwrap();
    // One recovery pass serves every tree (the log is shared and the
    // physiological records are tree-agnostic). The B-link handler suffices
    // because only B-link logical-undo records can be in flight here.
    let (blink2, _) = PiTree::recover(Arc::clone(&cs2.store), 1, blink_cfg).unwrap();
    let tsb2 = TsbTree::open(Arc::clone(&cs2.store), 2, tsb_cfg).unwrap();
    assert!(blink2.validate().unwrap().is_well_formed());
    assert!(tsb2.validate().unwrap().is_well_formed());
    assert_eq!(blink2.validate().unwrap().records, 80);
    for i in 0..8u64 {
        assert_eq!(tsb2.get_current(&key(i)).unwrap(), Some(b"t".to_vec()));
    }
}

#[test]
fn checkpointed_mixed_workload_recovers() {
    let cfg = PiTreeConfig::small_nodes(8, 8);
    let cs = CrashableStore::create(1024, 100_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    for i in 0..60u64 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), &key(i)).unwrap();
        t.commit().unwrap();
    }
    cs.store.pool.flush_all().unwrap();
    cs.store.txns.checkpoint().unwrap();
    for i in 60..90u64 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), &key(i)).unwrap();
        t.commit().unwrap();
    }
    for i in 0..30u64 {
        let mut t = tree.begin();
        tree.delete(&mut t, &key(i)).unwrap();
        t.commit().unwrap();
    }
    drop(tree);
    let cs2 = cs.crash().unwrap();
    let (tree2, stats) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
    assert!(stats.analysis_start.0 > 1);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 60);
}

#[test]
fn concurrent_mixed_trees_under_threads() {
    let cs = CrashableStore::create(4096, 500_000).unwrap();
    let blink = Arc::new(
        PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(8, 8)).unwrap(),
    );
    let tsb =
        Arc::new(TsbTree::create(Arc::clone(&cs.store), 2, TsbConfig::small_nodes(8, 8)).unwrap());
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let blink = Arc::clone(&blink);
            s.spawn(move || {
                for i in 0..100 {
                    let mut t = blink.begin();
                    blink.insert(&mut t, &key(i * 4 + tid), b"b").unwrap();
                    t.commit().unwrap();
                }
            });
        }
        for tid in 0..2u64 {
            let tsb = Arc::clone(&tsb);
            s.spawn(move || {
                for i in 0..100 {
                    let mut t = tsb.begin();
                    tsb.put(&mut t, &key(i % 16 + tid * 100), b"t").unwrap();
                    t.commit().unwrap();
                }
            });
        }
    });
    blink.run_completions().unwrap();
    tsb.run_completions().unwrap();
    assert!(blink.validate().unwrap().is_well_formed());
    assert!(tsb.validate().unwrap().is_well_formed());
    assert_eq!(blink.validate().unwrap().records, 400);
}
