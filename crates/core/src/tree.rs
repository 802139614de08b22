//! The Π-tree public API: a B-link-tree instantiation of the paper's
//! protocol.
//!
//! All structure changes are decomposed into atomic actions (§5): record
//! updates happen in the caller's transaction; node splits happen in an
//! independent atomic action (or inside the transaction when page-oriented
//! UNDO forces it, §4.2.1); index-term postings and node consolidations are
//! always independent actions scheduled through the completion queue (§5.1).
//!
//! Database locking follows §4.1.2/§4.2.2: record updates take an IX page
//! lock plus an X key lock, readers take an S key lock only (readers are
//! compatible with move locks), and all lock acquisition under a latch uses
//! `try_lock` — on conflict the latch is released before blocking, then the
//! operation restarts (the **No-Wait Rule**).

use crate::completion::{Completion, CompletionQueue};
use crate::config::{ConsolidationPolicy, PiTreeConfig, UndoPolicy};
use crate::lifecycle::{self, lock_err, Instantiation};
use crate::node::{node_full, utilization, Guarded, HeaderRef, NodeHeader};
use crate::stats::TreeStats;
use crate::store::Store;
use crate::undo::{TAG_UNDO_DELETE, TAG_UNDO_INSERT, TAG_UNDO_UPDATE};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreResult};
use pitree_txnlock::{LockError, LockMode, LockName, Txn};
use pitree_wal::ActionIdentity;
use std::sync::Arc;

/// A Π-tree (B-link instantiation) over a [`Store`].
pub struct PiTree {
    store: Arc<Store>,
    cfg: PiTreeConfig,
    tree_id: u32,
    root: PageId,
    completions: Arc<CompletionQueue>,
    stats: Arc<TreeStats>,
}

impl Instantiation for PiTree {
    type Config = PiTreeConfig;
    const META_MAGIC: u32 = 0x5049_5452; // "PITR"

    fn root_leaf_header() -> Vec<u8> {
        NodeHeader::new_root_leaf().encode()
    }

    fn attach(
        store: Arc<Store>,
        tree_id: u32,
        root: PageId,
        cfg: PiTreeConfig,
    ) -> StoreResult<Self> {
        let stats = Arc::new(TreeStats::new(store.recorder()));
        Ok(PiTree {
            store,
            cfg,
            tree_id,
            root,
            completions: Arc::new(CompletionQueue::default()),
            stats,
        })
    }

    fn compensate(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        crate::undo::compensate(self, tag, payload)
    }
}

impl std::fmt::Debug for PiTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiTree").finish_non_exhaustive()
    }
}

impl PiTree {
    // ---- construction --------------------------------------------------------

    /// Create a new tree with id `tree_id`: allocate its (fixed, immortal)
    /// root page and register it on the meta page. Forces the log so the
    /// tree's existence survives any crash.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: PiTreeConfig) -> StoreResult<PiTree> {
        lifecycle::create(store, tree_id, cfg)
    }

    /// Open an existing tree by id, reading its root from the meta page.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: PiTreeConfig) -> StoreResult<PiTree> {
        lifecycle::open(store, tree_id, cfg)
    }

    /// Open the tree and run full crash recovery (redo + undo, with this
    /// tree's logical-undo handler registered). The usual restart sequence.
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: PiTreeConfig,
    ) -> StoreResult<(PiTree, pitree_wal::RecoveryStats)> {
        lifecycle::recover(store, tree_id, cfg)
    }

    /// Open the tree with **instant restart** (see
    /// [`lifecycle::recover_instant`]): serve traffic right after analysis
    /// and undo, with redo running per page at first pin. Call
    /// [`pitree_wal::InstantRecovery::drive`] on the returned plan to
    /// finish redo in the background.
    pub fn recover_instant(
        store: Arc<Store>,
        tree_id: u32,
        cfg: PiTreeConfig,
    ) -> StoreResult<(
        PiTree,
        Arc<pitree_wal::InstantRecovery>,
        pitree_wal::RecoveryStats,
    )> {
        lifecycle::recover_instant(store, tree_id, cfg)
    }

    // ---- accessors ------------------------------------------------------------

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The tree's configuration.
    pub fn config(&self) -> &PiTreeConfig {
        &self.cfg
    }

    /// This tree's id (namespaces its lock names).
    pub fn tree_id(&self) -> u32 {
        self.tree_id
    }

    /// The fixed root page ("we ensure that the root does not move and is
    /// never de-allocated", §5.2.2).
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// Operation counters.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// The store's observability recorder (for `op.*` latency histograms,
    /// SMO events, and `Registry::report`).
    pub fn recorder(&self) -> &pitree_obs::Recorder {
        self.store.recorder()
    }

    /// Shared handle to the counters (for commit hooks).
    pub(crate) fn stats_arc(&self) -> Arc<TreeStats> {
        Arc::clone(&self.stats)
    }

    /// Shared handle to the completion queue (for commit hooks).
    pub(crate) fn completions_arc(&self) -> Arc<CompletionQueue> {
        Arc::clone(&self.completions)
    }

    /// The completion queue (§5.1).
    pub fn completions(&self) -> &CompletionQueue {
        &self.completions
    }

    /// Tree height (levels), read from the root.
    pub fn height(&self) -> StoreResult<u8> {
        let page = self.store.pool.fetch(self.root)?;
        let g = page.s();
        Ok(HeaderRef::read(&g)?.level() + 1)
    }

    /// Begin a user database transaction on this tree's store.
    pub fn begin(&self) -> Txn<'_> {
        self.store.txns.begin(ActionIdentity::Transaction)
    }

    /// The lock name used for page-scope locking (updater intent and move
    /// locks): per-page, or the whole relation, per
    /// [`crate::config::MoveGranule`].
    pub fn page_lock(&self, pid: PageId) -> LockName {
        match self.cfg.move_granule {
            crate::config::MoveGranule::Page => LockName::Page(pid),
            crate::config::MoveGranule::Relation => LockName::Tree(self.tree_id),
        }
    }

    /// The lock name of a record key.
    pub fn key_lock(&self, key: &[u8]) -> LockName {
        let mut name = Vec::with_capacity(4 + key.len());
        name.extend_from_slice(&self.tree_id.to_le_bytes());
        name.extend_from_slice(key);
        LockName::Key(name)
    }

    // ---- reads ----------------------------------------------------------------

    /// Transactional point read: S record lock (held to end of transaction)
    /// plus latches. Readers take no page lock — share-mode access is
    /// compatible with move locks (§4.2.2).
    pub fn get(&self, txn: &Txn<'_>, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, false, true)?;
            match txn.try_lock(&name, LockMode::S) {
                Ok(()) => {
                    // Single in-place probe; the only allocation is the
                    // returned value.
                    let out = d
                        .guard
                        .page()
                        .keyed_lookup(key)
                        .map(|(_, e)| Page::entry_payload(e).to_vec());
                    drop(d);
                    self.maybe_autocomplete()?;
                    return Ok(out);
                }
                Err(LockError::WouldBlock) => {
                    drop(d); // No-Wait Rule: release the latch, then wait.
                    TreeStats::bump(&self.stats.no_wait_restarts);
                    txn.lock(&name, LockMode::S).map_err(lock_err)?;
                    continue;
                }
                Err(e) => return Err(lock_err(e)),
            }
        }
    }

    /// Latch-only point read (no database locks). Used by benchmarks and
    /// internal verification.
    pub fn get_unlocked(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(key, 0, false, true)?;
        let out = d
            .guard
            .page()
            .keyed_lookup(key)
            .map(|(_, e)| Page::entry_payload(e).to_vec());
        drop(d);
        self.maybe_autocomplete()?;
        Ok(out)
    }

    /// Latch-only range scan of `[from, to)`, walking the leaf side chain.
    /// Allocation amortizes to the emitted pairs: the output is pre-reserved
    /// from each node's entry count, keys are compared in place, and the
    /// high-bound test never re-encodes `to`.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let coupling = self.cfg.consolidation.couples_latches();
        let pool = &self.store.pool;
        let d = self.descend(from, 0, false, true)?;
        let mut cur = d.page;
        let mut g = d.guard;
        loop {
            // Emit this node's entries and read the continuation decision
            // under one scoped borrow of the guard.
            let next = {
                let page = g.page();
                out.reserve(page.entry_count() as usize);
                for slot in 1..page.slot_count() {
                    let k = page.entry_key_at(slot);
                    if k >= from && k < to {
                        out.push((k.to_vec(), page.entry_payload_at(slot).to_vec()));
                    }
                }
                let h = HeaderRef::read(page)?;
                // Continue while the next node's space can still intersect
                // [from, to): i.e. while high < to.
                if h.high_ge(to) || !h.side().is_valid() {
                    None
                } else {
                    Some(h.side())
                }
            };
            let Some(side) = next else { break };
            let sib = pool.fetch(side)?;
            let sg = if coupling {
                let t = Guarded::S(sib.s());
                drop(g);
                t
            } else {
                drop(g);
                Guarded::S(sib.s())
            };
            cur = sib;
            g = sg;
        }
        drop(g);
        drop(cur);
        Ok(out)
    }

    /// Transactional range scan of `[from, to)`: S record locks on every
    /// returned key (held to end of transaction — repeatable reads of the
    /// result set; phantom protection would need key-range locks, which the
    /// paper only mentions in passing).
    pub fn scan_locked(
        &self,
        txn: &Txn<'_>,
        from: &[u8],
        to: &[u8],
    ) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        loop {
            let out = self.scan(from, to)?;
            // Lock the result set with the No-Wait discipline: the latch-free
            // scan above re-runs if any lock needs a blocking wait (the set
            // may have changed while waiting).
            let mut must_retry = false;
            for (k, _) in &out {
                match txn.try_lock(&self.key_lock(k), LockMode::S) {
                    Ok(()) => {}
                    Err(LockError::WouldBlock) => {
                        TreeStats::bump(&self.stats.no_wait_restarts);
                        txn.lock(&self.key_lock(k), LockMode::S).map_err(lock_err)?;
                        must_retry = true;
                        break;
                    }
                    Err(e) => return Err(lock_err(e)),
                }
            }
            if !must_retry {
                // Re-validate under the locks: values cannot have changed
                // (X requires our S to drain), but keys may have appeared.
                return Ok(out);
            }
        }
    }

    // ---- writes ---------------------------------------------------------------

    /// Transactional upsert. Returns `true` if the key was new, `false` if
    /// an existing record was replaced.
    ///
    /// Locking: IX on the leaf page (so move locks conflict, §4.2.2) + X on
    /// the key, both to end of transaction. Splitting follows §4.2.1: under
    /// logical UNDO (and under page-oriented UNDO when this transaction has
    /// not updated this leaf) the split is an independent atomic action;
    /// otherwise it runs inside the transaction under a move lock, with the
    /// index-term posting deferred to commit.
    pub fn insert(&self, txn: &mut Txn<'_>, key: &[u8], value: &[u8]) -> StoreResult<bool> {
        let entry = Page::make_entry(key, value);
        let key_name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            let leaf_pid = d.page.id();
            let page_name = self.page_lock(leaf_pid);

            // Split first if needed, before taking record locks, so an
            // independent split's move lock cannot collide with our own page
            // lock (§4.2.1: the split happens "independent of and before T").
            let exists = d.guard.page().keyed_probe(key).is_ok();
            if !exists && node_full(d.guard.page(), entry.len(), self.cfg.max_leaf_entries) {
                self.split_for_insert(txn, d, key)?;
                continue;
            }

            // No-Wait record locking.
            let locked = txn
                .try_lock(&page_name, LockMode::IX)
                .and_then(|_| txn.try_lock(&key_name, LockMode::X));
            match locked {
                Ok(()) => {}
                Err(LockError::WouldBlock) => {
                    drop(d);
                    TreeStats::bump(&self.stats.no_wait_restarts);
                    txn.lock(&page_name, LockMode::IX).map_err(lock_err)?;
                    txn.lock(&key_name, LockMode::X).map_err(lock_err)?;
                    continue;
                }
                Err(e) => return Err(lock_err(e)),
            }

            // Re-check under the locks we now hold (state can only have
            // changed if we just latched a different incarnation — the
            // guard was held across the checks above, so `exists` and the
            // space check are still valid).
            let mut g = d.guard.promote().into_x();
            let created = if exists {
                let old = g.keyed_lookup(key).unwrap().1.to_vec();
                match self.cfg.undo {
                    UndoPolicy::PageOriented => txn.apply(
                        &d.page,
                        &mut g,
                        PageOp::KeyedUpdate {
                            bytes: entry.clone(),
                        },
                    )?,
                    UndoPolicy::Logical => txn.apply_logical(
                        &d.page,
                        &mut g,
                        PageOp::KeyedUpdate {
                            bytes: entry.clone(),
                        },
                        TAG_UNDO_UPDATE,
                        old,
                    )?,
                };
                false
            } else {
                match self.cfg.undo {
                    UndoPolicy::PageOriented => txn.apply(
                        &d.page,
                        &mut g,
                        PageOp::KeyedInsert {
                            bytes: entry.clone(),
                        },
                    )?,
                    UndoPolicy::Logical => txn.apply_logical(
                        &d.page,
                        &mut g,
                        PageOp::KeyedInsert {
                            bytes: entry.clone(),
                        },
                        TAG_UNDO_INSERT,
                        key.to_vec(),
                    )?,
                };
                true
            };
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(created);
        }
    }

    /// Transactional delete. Returns `true` if the key existed.
    pub fn delete(&self, txn: &mut Txn<'_>, key: &[u8]) -> StoreResult<bool> {
        let key_name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            let leaf_pid = d.page.id();
            let page_name = self.page_lock(leaf_pid);
            let locked = txn
                .try_lock(&page_name, LockMode::IX)
                .and_then(|_| txn.try_lock(&key_name, LockMode::X));
            match locked {
                Ok(()) => {}
                Err(LockError::WouldBlock) => {
                    drop(d);
                    TreeStats::bump(&self.stats.no_wait_restarts);
                    txn.lock(&page_name, LockMode::IX).map_err(lock_err)?;
                    txn.lock(&key_name, LockMode::X).map_err(lock_err)?;
                    continue;
                }
                Err(e) => return Err(lock_err(e)),
            }

            if d.guard.page().keyed_probe(key).is_err() {
                drop(d);
                self.maybe_autocomplete()?;
                return Ok(false);
            }
            let mut g = d.guard.promote().into_x();
            let old = g.keyed_lookup(key).unwrap().1.to_vec();
            match self.cfg.undo {
                UndoPolicy::PageOriented => {
                    txn.apply(&d.page, &mut g, PageOp::KeyedRemove { key: key.to_vec() })?
                }
                UndoPolicy::Logical => txn.apply_logical(
                    &d.page,
                    &mut g,
                    PageOp::KeyedRemove { key: key.to_vec() },
                    TAG_UNDO_DELETE,
                    old,
                )?,
            };
            // Consolidation trigger (§3.3): schedule when under-utilized.
            let low_key = HeaderRef::read(&g)?.low_entry_key().to_vec();
            let underutilized =
                utilization(&g, self.cfg.max_leaf_entries) < self.cfg.min_utilization;
            drop(g);
            drop(d.page);
            if underutilized
                && matches!(self.cfg.consolidation, ConsolidationPolicy::Enabled { .. })
            {
                self.completions.push(Completion::Consolidate {
                    level: 0,
                    key: low_key,
                });
            }
            self.maybe_autocomplete()?;
            return Ok(true);
        }
    }

    /// Split the leaf in `d` on behalf of `txn`'s blocked insert; see
    /// [`crate::split`] for the policy split (independent action vs inside
    /// the transaction).
    fn split_for_insert(
        &self,
        txn: &mut Txn<'_>,
        d: crate::traverse::DescentTarget<'_>,
        key: &[u8],
    ) -> StoreResult<()> {
        crate::split::split_leaf_for_insert(self, txn, d, key)
    }

    // ---- maintenance ------------------------------------------------------------

    /// Drain the completion queue, executing each completing atomic action
    /// (index-term postings, consolidations). Returns how many completions
    /// were executed. New completions scheduled by the executed ones are
    /// processed too, up to a budget.
    pub fn run_completions(&self) -> StoreResult<usize> {
        let mut done = 0;
        // Drain only what was queued at entry: completions that defer (e.g.
        // on a move lock) re-queue themselves and must not spin within this
        // call — they run on a later pass, after the blocker resolves.
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
                    crate::post::post_index_term(self, level, &key, node, &path)?;
                }
                Completion::Consolidate { level, key } => {
                    crate::consolidate::consolidate(self, level, &key)?;
                }
            }
            done += 1;
        }
        Ok(done)
    }

    fn maybe_autocomplete(&self) -> StoreResult<()> {
        if self.cfg.auto_complete && !self.completions.is_empty() {
            self.run_completions()?;
        }
        Ok(())
    }

    /// Check the well-formedness invariants of §2.1.3. See
    /// [`crate::wellformed`].
    pub fn validate(&self) -> StoreResult<crate::wellformed::WellFormedReport> {
        crate::wellformed::check(self)
    }
}
