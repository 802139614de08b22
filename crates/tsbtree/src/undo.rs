//! Logical undo for TSB version writes.
//!
//! Undo of `put`/`delete` removes the version `(key, t)` wherever structure
//! changes have taken it — the current node, or (after a time split) the
//! history chain, or (after a key split) a sibling. Time splits duplicate
//! alive-at-T versions, so undo removes **every** copy. The compensation is
//! testable and idempotent: absent copies are skipped.

use crate::node::{split_version_key, TsbHeaderRef};
use crate::tree::TsbTree;
use pitree::lifecycle::UndoHandler;
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_wal::ActionIdentity;

/// Logical-undo tag: payload is the composite version key `key ⧺ t`.
pub const TAG_TSB_REMOVE_VERSION: u8 = 16;

impl TsbTree {
    /// A handler borrowing this tree, for live-transaction rollback.
    pub fn undo_handler(&self) -> UndoHandler<'_, TsbTree> {
        UndoHandler(self)
    }
}

/// Dispatch one logged TSB compensation.
pub(crate) fn compensate(tree: &TsbTree, tag: u8, payload: &[u8]) -> StoreResult<()> {
    match tag {
        TAG_TSB_REMOVE_VERSION => remove_version(tree, payload),
        t => Err(StoreError::Corrupt(format!("unknown TSB undo tag {t}"))),
    }
}

/// Remove every copy of the version with composite key `vkey`: from the
/// current node if present, then from each node down its history chain.
fn remove_version(tree: &TsbTree, vkey: &[u8]) -> StoreResult<()> {
    let (key, _t) = split_version_key(vkey);
    let d = tree.descend(key, 0, true, false)?;
    let mut hist = if d.guard.page().keyed_find(vkey)?.is_ok() {
        let mut act = tree.store().txns.begin(ActionIdentity::SystemTransaction);
        let mut g = d.guard.promote().into_x();
        act.apply(&d.page, &mut g, PageOp::KeyedRemove { key: vkey.to_vec() })?;
        let hist = TsbHeaderRef::read(&g)?.hist_side();
        drop(g);
        drop(d.page);
        act.commit()?;
        hist
    } else {
        let hist = TsbHeaderRef::read(d.guard.page())?.hist_side();
        drop(d);
        hist
    };
    // A time split may have left copies anywhere down the history chain.
    while hist.is_valid() {
        let pin = tree.store().pool.fetch(hist)?;
        let mut g = pin.x();
        hist = TsbHeaderRef::read(&g)?.hist_side();
        if g.keyed_find(vkey)?.is_ok() {
            let mut act = tree.store().txns.begin(ActionIdentity::SystemTransaction);
            act.apply(&pin, &mut g, PageOp::KeyedRemove { key: vkey.to_vec() })?;
            drop(g);
            drop(pin);
            act.commit()?;
        }
    }
    Ok(())
}
