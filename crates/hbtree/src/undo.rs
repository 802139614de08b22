//! Logical undo for hB-tree record writes: compensations re-locate the
//! point through the fragment graph, so records moved by splits are found
//! wherever they now live.

use crate::geometry::key_point;
use crate::node::HbHeader;
use crate::tree::HbTree;
use pitree::lifecycle::UndoHandler;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_wal::ActionIdentity;

/// Undo of an insert: payload is the point key; remove if present.
pub const TAG_HB_REMOVE: u8 = 32;
/// Undo of an update/delete: payload is the previous entry; restore it.
pub const TAG_HB_RESTORE: u8 = 33;

impl HbTree {
    /// A handler borrowing this tree, for live-transaction rollback.
    pub fn undo_handler(&self) -> UndoHandler<'_, HbTree> {
        UndoHandler(self)
    }
}

/// Execute one logged hB compensation, re-locating the point by descent.
pub(crate) fn compensate(tree: &HbTree, tag: u8, payload: &[u8]) -> StoreResult<()> {
    let key = match tag {
        TAG_HB_REMOVE => payload,
        TAG_HB_RESTORE => Page::entry_key(payload),
        t => return Err(StoreError::Corrupt(format!("unknown hB undo tag {t}"))),
    };
    let p = key_point(key);
    loop {
        let d = tree.descend(&p, true, false)?;
        let present = d.guard.page().keyed_find(key)?.is_ok();
        let op = match tag {
            TAG_HB_REMOVE if present => Some(PageOp::KeyedRemove { key: key.to_vec() }),
            TAG_HB_RESTORE => {
                let bytes = payload.to_vec();
                if present {
                    Some(PageOp::KeyedUpdate { bytes })
                } else {
                    // Re-insert; splitting if the node is packed.
                    if d.guard.page().entry_count() as usize >= tree.config().max_records
                        || d.guard.page().free_space() < bytes.len() + 4
                    {
                        crate::split::split_data_node(tree, d)?;
                        continue;
                    }
                    Some(PageOp::KeyedInsert { bytes })
                }
            }
            _ => None, // testable: nothing to compensate
        };
        let Some(op) = op else {
            drop(d);
            return Ok(());
        };
        let mut act = tree.store().txns.begin(ActionIdentity::SystemTransaction);
        let mut g = d.guard.promote().into_x();
        act.apply(&d.page, &mut g, op)?;
        // Sanity: the record belongs to this node's space.
        debug_assert!(HbHeader::read(&g)?.rect.contains(&p));
        drop(g);
        drop(d.page);
        act.commit()?;
        return Ok(());
    }
}
