//! Non-page-oriented (logical) UNDO support (§4.2, §6).
//!
//! When the recovery method supports logical undo, record updates log a
//! `(tag, payload)` and undo compensates through the tree's own operations:
//! the record is re-located by key, wherever structure changes have moved it
//! since. Compensations are **idempotent, testable** operations (delete if
//! present / insert if absent), so a crash between a compensation and its
//! CLR marker is harmless — recovery simply re-runs it.

use crate::lifecycle::UndoHandler;
use crate::node::node_full;
use crate::tree::PiTree;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageOp, StoreError, StoreResult};

/// Undo of an insert: payload is the key; compensation deletes it if
/// present.
pub const TAG_UNDO_INSERT: u8 = 1;
/// Undo of a delete: payload is the full entry; compensation re-inserts it
/// if absent.
pub const TAG_UNDO_DELETE: u8 = 2;
/// Undo of an update: payload is the previous entry; compensation restores
/// it if the key is still present.
pub const TAG_UNDO_UPDATE: u8 = 3;

impl PiTree {
    /// A logical-undo handler borrowing this tree, for rolling back live
    /// transactions (`Txn::abort`).
    pub fn undo_handler(&self) -> UndoHandler<'_, PiTree> {
        UndoHandler(self)
    }
}

/// Execute one logical compensation. Runs as an independent system atomic
/// action per attempt; splits (for a re-insert into a full leaf) are
/// ordinary independent split actions.
pub(crate) fn compensate(tree: &PiTree, tag: u8, payload: &[u8]) -> StoreResult<()> {
    loop {
        let key = match tag {
            TAG_UNDO_INSERT => payload,
            TAG_UNDO_DELETE | TAG_UNDO_UPDATE => Page::entry_key(payload),
            t => return Err(StoreError::Corrupt(format!("unknown logical undo tag {t}"))),
        };
        let d = tree.descend(key, 0, true, false)?;
        let present = d.guard.page().keyed_find(key)?.is_ok();
        let op = match tag {
            TAG_UNDO_INSERT if present => Some(PageOp::KeyedRemove { key: key.to_vec() }),
            TAG_UNDO_DELETE if !present => {
                let bytes = payload.to_vec();
                if node_full(d.guard.page(), bytes.len(), tree.config().max_leaf_entries) {
                    crate::split::independent_split(tree, d)?;
                    continue; // re-descend and retry
                }
                Some(PageOp::KeyedInsert { bytes })
            }
            TAG_UNDO_UPDATE if present => {
                let bytes = payload.to_vec();
                let Ok(slot) = d.guard.page().keyed_find(key)? else {
                    // `present` came from the same latched page, so the
                    // key cannot have moved; a miss here is corruption.
                    return Err(StoreError::Corrupt(
                        "entry vanished under latch during undo-update".to_string(),
                    ));
                };
                let old_len = d.guard.page().get(slot)?.len();
                if bytes.len() > old_len && bytes.len() - old_len > d.guard.page().free_space() {
                    crate::split::independent_split(tree, d)?;
                    continue;
                }
                Some(PageOp::KeyedUpdate { bytes })
            }
            _ => None, // testable state: nothing to compensate
        };
        let Some(op) = op else {
            drop(d);
            return Ok(());
        };
        let mut act = tree
            .store()
            .txns
            .begin(pitree_wal::ActionIdentity::SystemTransaction);
        let mut g = d.guard.promote().into_x();
        act.apply(&d.page, &mut g, op)?;
        drop(g);
        drop(d.page);
        act.commit()?;
        return Ok(());
    }
}
