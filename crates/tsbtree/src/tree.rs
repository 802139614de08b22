//! The TSB-tree engine: versioned puts, as-of reads, and the Π-tree
//! protocol (decomposed atomic actions, lazy posting) over (key × time)
//! space.
//!
//! The TSB-tree runs under the CNS invariant — nodes are never consolidated,
//! and "historical nodes never split again" (§2.2.2) — so traversal holds
//! one latch at a time and saved state needs no verification. Record undo is
//! logical (a version is removed wherever structure changes have taken it),
//! which per §6 lets every split run as an independent atomic action.

use crate::node::{
    find_version_probe, split_version_key, version_entry, version_key, version_value, Time,
    TsbHeader, TsbHeaderRef,
};
use pitree::completion::{Completion, CompletionQueue};
use pitree::lifecycle::{self, lock_err, Instantiation};
use pitree::node::{BoundRef, Guarded, IndexTerm};
use pitree::stats::TreeStats;
use pitree::store::Store;
use pitree::traverse::{PathEntry, SavedPath};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, LockName, Txn};
use pitree_wal::ActionIdentity;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// TSB-tree tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TsbConfig {
    /// Cap on version entries per data node.
    pub max_leaf_entries: usize,
    /// Cap on index terms per index node.
    pub max_index_entries: usize,
    /// Run completions inline after operations.
    pub auto_complete: bool,
    /// Recovery identity of SMO atomic actions.
    pub smo_identity: ActionIdentity,
}

impl Default for TsbConfig {
    fn default() -> Self {
        TsbConfig {
            max_leaf_entries: usize::MAX,
            max_index_entries: usize::MAX,
            auto_complete: true,
            smo_identity: ActionIdentity::SystemTransaction,
        }
    }
}

impl TsbConfig {
    /// Small nodes for deep test trees.
    pub fn small_nodes(leaf: usize, index: usize) -> TsbConfig {
        TsbConfig {
            max_leaf_entries: leaf,
            max_index_entries: index,
            ..Default::default()
        }
    }
}

/// A Time-Split B-tree over a shared [`Store`].
pub struct TsbTree {
    store: Arc<Store>,
    cfg: TsbConfig,
    tree_id: u32,
    root: PageId,
    pub(crate) completions: Arc<CompletionQueue>,
    pub(crate) stats: Arc<TreeStats>,
    clock: AtomicU64,
}

impl Instantiation for TsbTree {
    type Config = TsbConfig;
    const META_MAGIC: u32 = 0x5453_4254; // "TSBT"

    fn root_leaf_header() -> Vec<u8> {
        TsbHeader::new_root_leaf().encode()
    }

    fn attach(store: Arc<Store>, tree_id: u32, root: PageId, cfg: TsbConfig) -> StoreResult<Self> {
        let stats = Arc::new(TreeStats::new(store.recorder()));
        let tree = TsbTree {
            store,
            cfg,
            tree_id,
            root,
            completions: Arc::new(CompletionQueue::default()),
            stats,
            clock: AtomicU64::new(0),
        };
        tree.clock.store(tree.max_time_on_disk()?, Ordering::SeqCst);
        Ok(tree)
    }

    fn compensate(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        crate::undo::compensate(self, tag, payload)
    }
}

impl std::fmt::Debug for TsbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsbTree").finish_non_exhaustive()
    }
}

/// Outcome of a descent to a data node. The header is not materialized —
/// consumers derive a [`TsbHeaderRef`] view (or decode [`TsbHeader`] on
/// write paths) from the guard.
pub(crate) struct TsbDescent<'a> {
    pub page: PinnedPage<'a>,
    pub guard: Guarded<'a>,
    pub path: SavedPath,
}

impl TsbTree {
    /// Create a new TSB-tree with a fixed root, registered on the meta page.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: TsbConfig) -> StoreResult<TsbTree> {
        lifecycle::create(store, tree_id, cfg)
    }

    /// Open an existing TSB-tree, restoring the logical clock from the
    /// newest version reachable on the current data chain.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: TsbConfig) -> StoreResult<TsbTree> {
        lifecycle::open(store, tree_id, cfg)
    }

    /// Open + run full crash recovery (redo, then logical undo through this
    /// tree's handler).
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: TsbConfig,
    ) -> StoreResult<(TsbTree, pitree_wal::RecoveryStats)> {
        lifecycle::recover(store, tree_id, cfg)
    }

    fn max_time_on_disk(&self) -> StoreResult<Time> {
        // Walk the level-0 current chain and take the newest version start.
        let mut max_t = 0;
        let mut cur = self.leftmost_leaf()?;
        loop {
            let pin = self.store.pool.fetch(cur)?;
            let g = pin.s();
            let hdr = TsbHeader::read(&g)?;
            for slot in 1..g.slot_count() {
                let (_, t) = split_version_key(Page::entry_key(g.get(slot)?));
                max_t = max_t.max(t);
            }
            max_t = max_t.max(hdr.t_lo);
            if !hdr.key_side.is_valid() {
                break;
            }
            cur = hdr.key_side;
        }
        Ok(max_t)
    }

    fn leftmost_leaf(&self) -> StoreResult<PageId> {
        let mut cur = self.root;
        loop {
            let pin = self.store.pool.fetch(cur)?;
            let g = pin.s();
            let hdr = TsbHeader::read(&g)?;
            if hdr.level == 0 {
                return Ok(cur);
            }
            cur = IndexTerm::read(&g, 1)?.child;
        }
    }

    // ---- accessors -----------------------------------------------------------

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The configuration.
    pub fn config(&self) -> &TsbConfig {
        &self.cfg
    }

    /// The fixed root page.
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// Operation counters (shared with the Π-tree stats type).
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Pending completions.
    pub fn completions(&self) -> &CompletionQueue {
        &self.completions
    }

    /// The logical clock's current value (last issued timestamp).
    pub fn now(&self) -> Time {
        self.clock.load(Ordering::SeqCst)
    }

    /// Begin a user transaction.
    pub fn begin(&self) -> Txn<'_> {
        self.store.txns.begin(ActionIdentity::Transaction)
    }

    /// Lock name of a record key.
    pub fn key_lock(&self, key: &[u8]) -> LockName {
        let mut name = Vec::with_capacity(4 + key.len());
        name.extend_from_slice(&self.tree_id.to_le_bytes());
        name.extend_from_slice(key);
        LockName::Key(name)
    }

    // ---- traversal -------------------------------------------------------------

    /// Descend by `key` to the node at `target_level` directly containing
    /// it, following key side pointers (and scheduling postings for the
    /// splits they reveal, §5.1). CNS: one latch at a time.
    pub(crate) fn descend(
        &self,
        key: &[u8],
        target_level: u8,
        update_at_target: bool,
        schedule: bool,
    ) -> StoreResult<TsbDescent<'_>> {
        // Every per-hop decision reads the header through a borrowed
        // TsbHeaderRef under a scoped borrow of the latch guard — the
        // descent itself never allocates (DESIGN.md §11).
        enum Step {
            Arrived,
            Side(PageId),
            Child {
                child: PageId,
                lsn: pitree_pagestore::Lsn,
            },
        }
        let pool = &self.store.pool;
        let mut path = SavedPath::default();
        let mut cur = pool.fetch(self.root)?;
        let mut g = if update_at_target {
            // The root might itself be the target.
            let peek = Guarded::S(cur.s());
            let lvl = TsbHeaderRef::read(peek.page())?.level();
            if lvl == target_level {
                drop(peek);
                Guarded::U(cur.u())
            } else {
                peek
            }
        } else {
            Guarded::S(cur.s())
        };
        let mut level = TsbHeaderRef::read(g.page())?.level();
        if level < target_level {
            return Err(StoreError::Corrupt(format!(
                "TSB descend target {target_level} above root level {level}"
            )));
        }
        loop {
            let step = {
                let h = TsbHeaderRef::read(g.page())?;
                level = h.level();
                if !h.contains_key(key) {
                    if !h.key_high_gt(key) {
                        let side = h.key_side();
                        if !side.is_valid() {
                            return Err(StoreError::Corrupt(format!(
                                "TSB node {} lacks key side pointer for {key:02x?}",
                                cur.id()
                            )));
                        }
                        Step::Side(side)
                    } else {
                        return Err(StoreError::Corrupt(format!(
                            "TSB routing went past key {key:02x?} (low {:?})",
                            h.key_low()
                        )));
                    }
                } else if level == target_level {
                    Step::Arrived
                } else {
                    let slot = g.page().keyed_floor(key)?.ok_or_else(|| {
                        StoreError::Corrupt(format!("TSB index node {} unroutable", cur.id()))
                    })?;
                    Step::Child {
                        child: IndexTerm::child_at(g.page(), slot)?,
                        lsn: g.page().lsn(),
                    }
                }
            };
            match step {
                Step::Arrived => {
                    return Ok(TsbDescent {
                        page: cur,
                        guard: g,
                        path,
                    });
                }
                Step::Side(side) => {
                    drop(g); // CNS: one latch at a time
                    let sib = pool.fetch(side)?;
                    let want_u = update_at_target && level == target_level;
                    let sg = if want_u {
                        Guarded::U(sib.u())
                    } else {
                        Guarded::S(sib.s())
                    };
                    TreeStats::bump(&self.stats.side_traversals);
                    if schedule {
                        let sh = TsbHeaderRef::read(sg.page())?;
                        let k = sh.low_entry_key().to_vec();
                        if self.completions.push(Completion::Post {
                            level: sh.level() + 1,
                            key: k,
                            node: side,
                            path: Box::new(path.clone()),
                        }) {
                            TreeStats::bump(&self.stats.postings_scheduled);
                        }
                    }
                    cur = sib;
                    g = sg;
                }
                Step::Child { child, lsn } => {
                    path.push(PathEntry {
                        pid: cur.id(),
                        lsn,
                        level,
                    });
                    drop(g); // CNS
                    let cp = pool.fetch(child)?;
                    let want_u = update_at_target && level - 1 == target_level;
                    let cg = if want_u {
                        Guarded::U(cp.u())
                    } else {
                        Guarded::S(cp.s())
                    };
                    cur = cp;
                    g = cg;
                }
            }
        }
    }

    // ---- reads -----------------------------------------------------------------

    /// Current value of `key`, if any (tombstones read as absent).
    pub fn get_current(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        self.get_as_of(key, Time::MAX - 1)
    }

    /// Value of `key` as of time `t`: follows history side pointers back
    /// through time (Figure 1). A node covering `t` that holds no version of
    /// `key` defers further back — the key may predate the node's interval
    /// (or a rolled-back alive-at-split copy may have been compensated
    /// away), in which case its governing version lives down the chain.
    pub fn get_as_of(&self, key: &[u8], t: Time) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(key, 0, false, true)?;
        let pool = &self.store.pool;
        let mut pin = d.page;
        let mut g = d.guard;
        let out = loop {
            // One borrowed header view per chain hop; the winning version's
            // payload is borrowed straight from the frame, so the only
            // allocation is the returned value.
            let hist = {
                let page = g.page();
                let h = TsbHeaderRef::read(page)?;
                if t >= h.t_lo() {
                    if let Some((_, payload)) = find_version_probe(page, key, t) {
                        break version_value(payload).map(|v| v.to_vec());
                    }
                }
                h.hist_side()
            };
            if !hist.is_valid() {
                break None; // before recorded history
            }
            drop(g); // history nodes are immortal; no coupling needed
            let hpin = pool.fetch(hist)?;
            let hg = Guarded::S(hpin.s());
            pin = hpin;
            g = hg;
        };
        drop(g);
        drop(pin);
        self.maybe_autocomplete()?;
        Ok(out)
    }

    /// All versions of `key`, oldest first, as `(start time, value)` with
    /// `None` for tombstones. Alive-at-split copies are deduplicated.
    pub fn history(&self, key: &[u8]) -> StoreResult<Vec<(Time, Option<Vec<u8>>)>> {
        let d = self.descend(key, 0, false, true)?;
        let pool = &self.store.pool;
        let mut versions = std::collections::BTreeMap::new();
        let mut pin = d.page;
        let mut g = d.guard;
        loop {
            let page = g.page();
            for slot in 1..page.slot_count() {
                let e = page.get(slot)?;
                let (k, t) = split_version_key(Page::entry_key(e));
                if k == key {
                    versions.entry(t).or_insert_with(|| {
                        version_value(Page::entry_payload(e)).map(|v| v.to_vec())
                    });
                }
            }
            let hist = TsbHeaderRef::read(page)?.hist_side();
            if !hist.is_valid() {
                break;
            }
            drop(g);
            let hpin = pool.fetch(hist)?;
            g = Guarded::S(hpin.s());
            pin = hpin;
        }
        drop(g);
        drop(pin);
        self.maybe_autocomplete()?;
        Ok(versions.into_iter().collect())
    }

    /// Latch-only snapshot scan: all keys alive at time `t` in `[from, to)`.
    pub fn scan_as_of(
        &self,
        from: &[u8],
        to: &[u8],
        t: Time,
    ) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut cur_key = from.to_vec();
        loop {
            let d = self.descend(&cur_key, 0, false, false)?;
            // Collect alive keys in this current node's key range.
            let keys: Vec<Vec<u8>> = {
                let page = d.guard.page();
                let mut ks = Vec::new();
                for slot in 1..page.slot_count() {
                    let (k, _) = split_version_key(Page::entry_key(page.get(slot)?));
                    if k >= cur_key.as_slice()
                        && k < to
                        && ks.last().map(|l: &Vec<u8>| l.as_slice()) != Some(k)
                    {
                        ks.push(k.to_vec());
                    }
                }
                ks
            };
            let next_low = {
                let h = TsbHeaderRef::read(d.guard.page())?;
                match h.key_high() {
                    BoundRef::Key(hk) if hk < to => Some(hk.to_vec()),
                    _ => None,
                }
            };
            drop(d);
            for k in keys {
                if let Some(v) = self.get_as_of(&k, t)? {
                    out.push((k, v));
                }
            }
            match next_low {
                Some(h) => cur_key = h,
                None => break,
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    // ---- writes ----------------------------------------------------------------

    /// Write a new version of `key`. Returns its timestamp.
    pub fn put(&self, txn: &mut Txn<'_>, key: &[u8], value: &[u8]) -> StoreResult<Time> {
        self.write_version(txn, key, Some(value))
    }

    /// Logically delete `key` by writing a tombstone version. Returns its
    /// timestamp.
    pub fn delete(&self, txn: &mut Txn<'_>, key: &[u8]) -> StoreResult<Time> {
        self.write_version(txn, key, None)
    }

    fn write_version(
        &self,
        txn: &mut Txn<'_>,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> StoreResult<Time> {
        let name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            match txn.try_lock(&name, LockMode::X) {
                Ok(()) => {}
                Err(LockError::WouldBlock) => {
                    drop(d);
                    TreeStats::bump(&self.stats.no_wait_restarts);
                    txn.lock(&name, LockMode::X).map_err(lock_err)?;
                    continue;
                }
                Err(e) => return Err(lock_err(e)),
            }
            let t = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
            let entry = version_entry(key, t, value);
            if d.guard.page().entry_count() as usize >= self.cfg.max_leaf_entries
                || d.guard.page().free_space() < entry.len() + 4
            {
                crate::split::split_data_node(self, d)?;
                continue;
            }
            let mut g = d.guard.promote().into_x();
            txn.apply_logical(
                &d.page,
                &mut g,
                PageOp::KeyedInsert { bytes: entry },
                crate::undo::TAG_TSB_REMOVE_VERSION,
                version_key(key, t),
            )?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(t);
        }
    }

    // ---- maintenance -------------------------------------------------------------

    /// Drain one batch of pending completions (index-term postings).
    pub fn run_completions(&self) -> StoreResult<usize> {
        let mut done = 0;
        let batch = self.completions.len();
        for _ in 0..batch {
            let Some(c) = self.completions.pop() else {
                break;
            };
            match c {
                Completion::Post {
                    level,
                    key,
                    node,
                    path,
                } => {
                    crate::split::post_index_term(self, level, &key, node, &path)?;
                }
                Completion::Consolidate { .. } => {} // TSB never consolidates
            }
            done += 1;
        }
        Ok(done)
    }

    pub(crate) fn maybe_autocomplete(&self) -> StoreResult<()> {
        if self.cfg.auto_complete && !self.completions.is_empty() {
            self.run_completions()?;
        }
        Ok(())
    }

    /// Structural validation; see [`crate::wellformed`].
    pub fn validate(&self) -> StoreResult<crate::wellformed::TsbReport> {
        crate::wellformed::check(self)
    }
}
