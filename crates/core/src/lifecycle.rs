//! One lifecycle for every Π-tree instantiation (§2.2).
//!
//! The B-link, TSB and hB trees differ in node layout, descent, split,
//! posting and well-formedness. They do not differ in how a tree comes to
//! exist on a store, finds its root again, allocates pages, maps lock
//! failures, or restarts after a crash — that plumbing is written once
//! here, over the small [`Instantiation`] trait that names what does
//! differ: the configuration type, the meta-page magic, the empty root's
//! header, how to build the in-memory tree over its root, and the logical
//! compensation dispatch (§4.2, §6).
//!
//! Registry records on the meta page (page 0, slots 1..) are 16 bytes:
//! `magic u32 ⧺ tree id u32 ⧺ root pid u64`, little-endian. The magic
//! keeps the families apart: opening a B-link id as a TSB-tree finds no
//! record and fails with [`StoreError::Corrupt`].

use crate::store::Store;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::page::PageType;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, Txn};
use pitree_wal::recovery::LogicalUndoHandler;
use pitree_wal::{ActionIdentity, InstantRecovery, RecoveryStats};
use std::sync::Arc;

/// What distinguishes one Π-tree family from another at create, open,
/// restart and rollback time.
pub trait Instantiation: Sized + Send + Sync {
    /// Tuning knobs handed to [`Instantiation::attach`].
    type Config: Copy + Send + Sync;
    /// Tags this family's registry records on the meta page.
    const META_MAGIC: u32;
    /// Slot-0 header bytes of a fresh root: an empty data node directly
    /// containing the whole space.
    fn root_leaf_header() -> Vec<u8>;
    /// Build the in-memory tree over its registered (immortal) root.
    fn attach(
        store: Arc<Store>,
        tree_id: u32,
        root: PageId,
        cfg: Self::Config,
    ) -> StoreResult<Self>;
    /// Execute one logged logical compensation `(tag, payload)`. Must be
    /// testable and idempotent: recovery re-runs it after a crash between
    /// the compensation and its CLR.
    fn compensate(&self, tag: u8, payload: &[u8]) -> StoreResult<()>;
}

/// Create tree `tree_id`: allocate and format its root, register it on
/// the meta page, and commit (a forced commit, so the tree's existence
/// survives any crash).
pub fn create<T: Instantiation>(store: Arc<Store>, tree_id: u32, cfg: T::Config) -> StoreResult<T> {
    let mut act = store.txns.begin(ActionIdentity::Transaction);
    let root = {
        let page = alloc_page(&store, &mut act)?;
        let mut g = page.x();
        act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })?;
        let bytes = T::root_leaf_header();
        act.apply(&page, &mut g, PageOp::InsertSlot { slot: 0, bytes })?;
        page.id()
    };
    {
        let meta = store.pool.fetch(PageId(0))?;
        let mut g = meta.x();
        let slot = g.slot_count();
        let rec = u128::from(T::META_MAGIC) | u128::from(tree_id) << 32 | u128::from(root.0) << 64;
        let bytes = rec.to_le_bytes().to_vec();
        act.apply(&meta, &mut g, PageOp::InsertSlot { slot, bytes })?;
    }
    act.commit()?;
    T::attach(store, tree_id, root, cfg)
}

/// Open tree `tree_id`, reading its root from the meta page.
pub fn open<T: Instantiation>(store: Arc<Store>, tree_id: u32, cfg: T::Config) -> StoreResult<T> {
    let root = registered_root(&store, T::META_MAGIC, tree_id)?;
    T::attach(store, tree_id, root, cfg)
}

/// The root registered for `(magic, tree_id)`.
fn registered_root(store: &Store, magic: u32, tree_id: u32) -> StoreResult<PageId> {
    let meta = store.pool.fetch(PageId(0))?;
    let g = meta.s();
    for slot in 1..g.slot_count() {
        let Ok(bytes) = <[u8; 16]>::try_from(g.get(slot)?) else {
            continue;
        };
        let rec = u128::from_le_bytes(bytes);
        if rec as u32 == magic && (rec >> 32) as u32 == tree_id {
            return Ok(PageId((rec >> 64) as u64));
        }
    }
    Err(StoreError::Corrupt(format!(
        "tree {tree_id} not registered under magic {magic:#010x}"
    )))
}

/// Open the tree and run stop-the-world crash recovery (redo, then undo
/// with this tree's logical-undo handler). The usual restart sequence.
pub fn recover<T: Instantiation>(
    store: Arc<Store>,
    tree_id: u32,
    cfg: T::Config,
) -> StoreResult<(T, RecoveryStats)> {
    // The meta page may itself need redo, so the undo pass opens the tree
    // lazily, after redo has repeated history.
    let handler = DeferredHandler::<T>::new(Arc::clone(&store), tree_id, cfg);
    let stats = pitree_wal::recover(&store.pool, &store.log, Some(&handler))?;
    Ok((open(store, tree_id, cfg)?, stats))
}

/// Open the tree with **instant restart**: analysis + undo only, then
/// serve, with redo running per page at first pin. Call
/// [`InstantRecovery::drive`] on the returned plan to finish redo in the
/// background (or let traffic drain it).
///
/// Sound for every Π-tree by §4.3.2: an interrupted structure change leaves
/// the tree well-formed but intermediate, and traffic completes it lazily,
/// so a not-yet-redone page is an older well-formed state. See
/// `RECOVERY.md`.
pub fn recover_instant<T: Instantiation>(
    store: Arc<Store>,
    tree_id: u32,
    cfg: T::Config,
) -> StoreResult<(T, Arc<InstantRecovery>, RecoveryStats)> {
    let handler = DeferredHandler::<T>::new(Arc::clone(&store), tree_id, cfg);
    let (plan, stats) = pitree_wal::start_instant(&store.pool, &store.log, Some(&handler))?;
    // `open` reads the meta page, which redoes it on demand if needed.
    Ok((open(store, tree_id, cfg)?, plan, stats))
}

/// Allocate a fresh page through `chain`, logging the space-map bit. The
/// allocation latch is ordered last (§4.1.1) and is held only across the
/// find + logged set.
pub fn alloc_page<'a>(store: &'a Store, chain: &mut Txn<'_>) -> StoreResult<PinnedPage<'a>> {
    let pid = {
        // pitree-lint: allow(no-wait) allocation latch ranks last in the §4.1.1 order (the flow graph proves no inverse alloc->page edge), so blocking here cannot deadlock a completion path
        let mut alloc = store.space.lock_alloc();
        let (pid, bm_pid, bit) = alloc.find_free(&store.pool)?;
        let bm = store.pool.fetch(bm_pid)?;
        let mut bmg = bm.x();
        chain.apply(&bm, &mut bmg, PageOp::SetBit { bit })?;
        pid
    };
    store.pool.fetch_or_create(pid, PageType::Free)
}

/// Convert a lock failure into a store error at the API boundary. The
/// requester is the deadlock victim; callers abort the transaction and
/// retry.
pub fn lock_err(e: LockError) -> StoreError {
    match e {
        LockError::Deadlock => StoreError::LockFailed { deadlock: true },
        LockError::Timeout => StoreError::LockFailed { deadlock: false },
        LockError::WouldBlock => {
            StoreError::Corrupt("WouldBlock escaped the No-Wait retry loop".into())
        }
    }
}

/// [`LogicalUndoHandler`] borrowing a live tree, for rolling back live
/// transactions (`Txn::abort`).
#[derive(Debug)]
pub struct UndoHandler<'a, T>(pub &'a T);

impl<T: Instantiation> LogicalUndoHandler for UndoHandler<'_, T> {
    fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        self.0.compensate(tag, payload)
    }
}

/// A handler that opens the tree lazily — needed at restart, where redo
/// must run before the tree (whose meta record may itself need redo) can
/// be opened, yet the undo pass needs a working tree.
struct DeferredHandler<T: Instantiation> {
    store: Arc<Store>,
    tree_id: u32,
    cfg: T::Config,
    tree: Mutex<Option<T>>,
}

impl<T: Instantiation> DeferredHandler<T> {
    fn new(store: Arc<Store>, tree_id: u32, cfg: T::Config) -> DeferredHandler<T> {
        DeferredHandler {
            store,
            tree_id,
            cfg,
            tree: Mutex::new(None),
        }
    }
}

impl<T: Instantiation> LogicalUndoHandler for DeferredHandler<T> {
    fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        let mut guard = self.tree.lock();
        let tree = match &mut *guard {
            Some(t) => t,
            slot => slot.insert(open(Arc::clone(&self.store), self.tree_id, self.cfg)?),
        };
        tree.compensate(tag, payload)
    }
}
