//! The hB-tree engine (§2.2.3): point records over a multiattribute space,
//! with kd-fragment nodes, hyperplane splits, clipping, and the Π-tree
//! protocol — splits and index postings as separate, testable atomic
//! actions, sibling pointers searchable in between.
//!
//! Scope (per DESIGN.md): node consolidation is omitted — the paper itself
//! defers hB consolidation to its reference \[3\] "(in preparation)" — so the
//! hB-tree runs under the CNS invariant: nodes are immortal, one latch at a
//! time, remembered parents need no verification.

use crate::geometry::{key_point, point_key, Frag, Point, PtrKind, Rect};
use crate::node::HbHeader;
use pitree::lifecycle::{self, lock_err, Instantiation};
use pitree::node::Guarded;
use pitree::stats::TreeStats;
use pitree::store::Store;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::page::Page;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, LockName, Txn};
use pitree_wal::ActionIdentity;
use std::collections::VecDeque;
use std::sync::Arc;

/// hB-tree tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct HbConfig {
    /// Cap on point records per data node.
    pub max_records: usize,
    /// Cap on kd-fragment nodes per index node.
    pub max_frag_nodes: usize,
    /// Run completions inline after operations.
    pub auto_complete: bool,
    /// Recovery identity for SMO atomic actions.
    pub smo_identity: ActionIdentity,
}

impl Default for HbConfig {
    fn default() -> Self {
        HbConfig {
            max_records: 64,
            max_frag_nodes: 48,
            auto_complete: true,
            smo_identity: ActionIdentity::SystemTransaction,
        }
    }
}

impl HbConfig {
    /// Small nodes for deep test trees.
    pub fn small_nodes(records: usize, frag: usize) -> HbConfig {
        HbConfig {
            max_records: records,
            max_frag_nodes: frag,
            ..Default::default()
        }
    }
}

/// A pending hB index-term posting: `new` took over `rect` (previously part
/// of `old`'s space) and a parent fragment at `level` must learn it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbPost {
    /// Parent hint — the index node on the detecting search path (§3.2.2:
    /// "we post only to the parent that is on the current search path"), or
    /// the root when unknown.
    pub parent: PageId,
    /// Level of the parent to update.
    pub level: u8,
    /// The delegating node.
    pub old: PageId,
    /// The new sibling.
    pub new: PageId,
    /// The region the new node took over.
    pub rect: Rect,
}

/// The hB-tree.
pub struct HbTree {
    store: Arc<Store>,
    cfg: HbConfig,
    tree_id: u32,
    root: PageId,
    queue: Mutex<VecDeque<HbPost>>,
    pub(crate) stats: Arc<TreeStats>,
}

impl Instantiation for HbTree {
    type Config = HbConfig;
    const META_MAGIC: u32 = 0x4842_5452; // "HBTR"

    fn root_leaf_header() -> Vec<u8> {
        HbHeader::new_root_leaf().encode()
    }

    fn attach(store: Arc<Store>, tree_id: u32, root: PageId, cfg: HbConfig) -> StoreResult<Self> {
        let stats = Arc::new(TreeStats::new(store.recorder()));
        Ok(HbTree {
            store,
            cfg,
            tree_id,
            root,
            queue: Mutex::new(VecDeque::new()),
            stats,
        })
    }

    fn compensate(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        crate::undo::compensate(self, tag, payload)
    }
}

impl std::fmt::Debug for HbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HbTree").finish_non_exhaustive()
    }
}

/// A descent's outcome: the data node owning the point.
pub(crate) struct HbDescent<'a> {
    pub page: PinnedPage<'a>,
    pub guard: Guarded<'a>,
    pub hdr: HbHeader,
    /// The last index node on the path (posting hint), or the root.
    pub parent: PageId,
}

impl HbTree {
    /// Create a new hB-tree with a fixed root.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: HbConfig) -> StoreResult<HbTree> {
        lifecycle::create(store, tree_id, cfg)
    }

    /// Open an existing hB-tree by id.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: HbConfig) -> StoreResult<HbTree> {
        lifecycle::open(store, tree_id, cfg)
    }

    /// Open + run crash recovery with this tree's logical-undo handler.
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: HbConfig,
    ) -> StoreResult<(HbTree, pitree_wal::RecoveryStats)> {
        lifecycle::recover(store, tree_id, cfg)
    }

    // ---- accessors -------------------------------------------------------------

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The configuration.
    pub fn config(&self) -> &HbConfig {
        &self.cfg
    }

    /// The fixed root page.
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// Operation counters.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Pending postings.
    pub fn pending_posts(&self) -> usize {
        self.queue.lock().len()
    }

    /// Begin a user transaction.
    pub fn begin(&self) -> Txn<'_> {
        self.store.txns.begin(ActionIdentity::Transaction)
    }

    /// The lock name of a point record.
    pub fn point_lock(&self, p: &Point) -> LockName {
        let mut name = Vec::with_capacity(20);
        name.extend_from_slice(&self.tree_id.to_le_bytes());
        name.extend_from_slice(&point_key(p));
        LockName::Key(name)
    }

    pub(crate) fn schedule_post(&self, post: HbPost) {
        let mut q = self.queue.lock();
        if !q.iter().any(|e| e.old == post.old && e.new == post.new) {
            q.push_back(post);
            TreeStats::bump(&self.stats.postings_scheduled);
        }
    }

    // ---- traversal ---------------------------------------------------------------

    /// Descend to the data node directly containing `p`, following child and
    /// sibling terms through the kd fragments. One latch at a time (CNS).
    pub(crate) fn descend(
        &self,
        p: &Point,
        update_at_target: bool,
        schedule: bool,
    ) -> StoreResult<HbDescent<'_>> {
        let pool = &self.store.pool;
        let mut parent = self.root;
        let mut cur = pool.fetch(self.root)?;
        let mut g = {
            let peek = Guarded::S(cur.s());
            let hdr = HbHeader::read(peek.page())?;
            if hdr.level == 0 && update_at_target {
                drop(peek);
                Guarded::U(cur.u())
            } else {
                peek
            }
        };
        let mut hdr = HbHeader::read(g.page())?;
        loop {
            let (leaf, region) = hdr.frag.locate(&hdr.rect, p);
            match leaf {
                Frag::Local => {
                    if hdr.level != 0 {
                        return Err(StoreError::Corrupt(format!(
                            "index node {} has Local space at {region:?}",
                            cur.id()
                        )));
                    }
                    return Ok(HbDescent {
                        page: cur,
                        guard: g,
                        hdr,
                        parent,
                    });
                }
                Frag::Ptr {
                    kind: PtrKind::Sibling,
                    pid,
                    ..
                } => {
                    let side = *pid;
                    let from = cur.id();
                    let level = hdr.level;
                    drop(g); // CNS
                    let sib = pool.fetch(side)?;
                    let want_u = update_at_target && level == 0;
                    let sg = if want_u {
                        Guarded::U(sib.u())
                    } else {
                        Guarded::S(sib.s())
                    };
                    let sib_hdr = HbHeader::read(sg.page())?;
                    TreeStats::bump(&self.stats.side_traversals);
                    if schedule {
                        self.schedule_post(HbPost {
                            parent,
                            level: level + 1,
                            old: from,
                            new: side,
                            rect: sib_hdr.rect.clone(),
                        });
                    }
                    cur = sib;
                    g = sg;
                    hdr = sib_hdr;
                }
                Frag::Split { .. } => unreachable!("locate returns leaves"),
                Frag::Ptr {
                    kind: PtrKind::Child,
                    pid,
                    ..
                } => {
                    let child = *pid;
                    parent = cur.id();
                    let next_level = hdr.level - 1;
                    drop(g); // CNS
                    let cpin = pool.fetch(child)?;
                    let want_u = update_at_target && next_level == 0;
                    let cg = if want_u {
                        Guarded::U(cpin.u())
                    } else {
                        Guarded::S(cpin.s())
                    };
                    let child_hdr = HbHeader::read(cg.page())?;
                    cur = cpin;
                    g = cg;
                    hdr = child_hdr;
                }
            }
        }
    }

    // ---- reads ----------------------------------------------------------------

    /// Latch-only point lookup.
    pub fn get(&self, p: &Point) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(p, false, true)?;
        let key = point_key(p);
        let out = d
            .guard
            .page()
            .keyed_lookup(&key)
            .map(|(_, e)| Page::entry_payload(e).to_vec());
        drop(d);
        self.maybe_autocomplete()?;
        Ok(out)
    }

    /// Transactional point lookup (S record lock).
    pub fn get_locked(&self, txn: &Txn<'_>, p: &Point) -> StoreResult<Option<Vec<u8>>> {
        let name = self.point_lock(p);
        loop {
            let d = self.descend(p, false, true)?;
            match txn.try_lock(&name, LockMode::S) {
                Ok(()) => {
                    let key = point_key(p);
                    let out = d
                        .guard
                        .page()
                        .keyed_lookup(&key)
                        .map(|(_, e)| Page::entry_payload(e).to_vec());
                    drop(d);
                    self.maybe_autocomplete()?;
                    return Ok(out);
                }
                Err(LockError::WouldBlock) => {
                    drop(d);
                    TreeStats::bump(&self.stats.no_wait_restarts);
                    txn.lock(&name, LockMode::S).map_err(lock_err)?;
                }
                Err(e) => return Err(lock_err(e)),
            }
        }
    }

    /// All records whose points fall in `window` (latch-only region query).
    /// Walks every data node whose directly-contained space intersects the
    /// window, via the fragment graph.
    pub fn window_query(&self, window: &Rect) -> StoreResult<Vec<(Point, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        let mut seen = std::collections::HashSet::new();
        while let Some(pid) = stack.pop() {
            if !seen.insert(pid) {
                continue;
            }
            let pin = self.store.pool.fetch(pid)?;
            let g = pin.s();
            let hdr = HbHeader::read(&g)?;
            let mut leaves = Vec::new();
            hdr.frag.leaves(&hdr.rect, &mut leaves);
            for (leaf, region) in leaves {
                if !region.intersects(window) {
                    continue;
                }
                match leaf {
                    Frag::Local => {
                        if hdr.level == 0 {
                            for slot in 1..g.slot_count() {
                                let e = g.get(slot)?;
                                let p = key_point(Page::entry_key(e));
                                if window.contains(&p) && region.contains(&p) {
                                    out.push((p, Page::entry_payload(e).to_vec()));
                                }
                            }
                        }
                    }
                    Frag::Ptr { pid, .. } => stack.push(*pid),
                    Frag::Split { .. } => unreachable!("leaves() yields leaves"),
                }
            }
        }
        out.sort();
        out.dedup_by(|a, b| a.0 == b.0);
        Ok(out)
    }

    // ---- writes ---------------------------------------------------------------

    /// Insert or replace the record at `p`. Returns `true` when new.
    pub fn insert(&self, txn: &mut Txn<'_>, p: &Point, value: &[u8]) -> StoreResult<bool> {
        let key = point_key(p);
        let entry = Page::make_entry(&key, value);
        let name = self.point_lock(p);
        loop {
            let d = self.descend(p, true, true)?;
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
            let exists = d.guard.page().keyed_find(&key)?.is_ok();
            if !exists
                && (d.guard.page().entry_count() as usize >= self.cfg.max_records
                    || d.guard.page().free_space() < entry.len() + 4)
            {
                crate::split::split_data_node(self, d)?;
                continue;
            }
            let mut g = d.guard.promote().into_x();
            let created = if exists {
                let old = g.get(g.keyed_find(&key)?.unwrap())?.to_vec();
                txn.apply_logical(
                    &d.page,
                    &mut g,
                    PageOp::KeyedUpdate {
                        bytes: entry.clone(),
                    },
                    crate::undo::TAG_HB_RESTORE,
                    old,
                )?;
                false
            } else {
                txn.apply_logical(
                    &d.page,
                    &mut g,
                    PageOp::KeyedInsert {
                        bytes: entry.clone(),
                    },
                    crate::undo::TAG_HB_REMOVE,
                    key.clone(),
                )?;
                true
            };
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(created);
        }
    }

    /// Delete the record at `p`. Returns whether it existed. (No
    /// consolidation — out of scope per the paper's own deferral.)
    pub fn delete(&self, txn: &mut Txn<'_>, p: &Point) -> StoreResult<bool> {
        let key = point_key(p);
        let name = self.point_lock(p);
        loop {
            let d = self.descend(p, true, true)?;
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
            if d.guard.page().keyed_find(&key)?.is_err() {
                drop(d);
                return Ok(false);
            }
            let mut g = d.guard.promote().into_x();
            let old = g.get(g.keyed_find(&key)?.unwrap())?.to_vec();
            txn.apply_logical(
                &d.page,
                &mut g,
                PageOp::KeyedRemove { key: key.clone() },
                crate::undo::TAG_HB_RESTORE,
                old,
            )?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(true);
        }
    }

    // ---- maintenance -------------------------------------------------------------

    /// Drain one batch of pending index-term postings.
    pub fn run_completions(&self) -> StoreResult<usize> {
        let mut done = 0;
        let batch = self.queue.lock().len();
        for _ in 0..batch {
            let Some(post) = self.queue.lock().pop_front() else {
                break;
            };
            crate::split::run_post(self, post)?;
            done += 1;
        }
        Ok(done)
    }

    pub(crate) fn maybe_autocomplete(&self) -> StoreResult<()> {
        if self.cfg.auto_complete && !self.queue.lock().is_empty() {
            self.run_completions()?;
        }
        Ok(())
    }

    /// Structural validation; see [`crate::wellformed`].
    pub fn validate(&self) -> StoreResult<crate::wellformed::HbReport> {
        crate::wellformed::check(self)
    }
}
