//! TSB-tree structure changes: time splits, key splits, index posting —
//! each an independent atomic action, per the Π-tree protocol.
//!
//! Figure 1's rules, implemented literally:
//! * **time split** — a new *historic* node receives every version that
//!   started before the split time `T`, *including copies* of the versions
//!   alive at `T` (which also stay in the current node) and a copy of the
//!   old history pointer. The current node keeps only versions alive at `T`
//!   and points its history sibling at the new node.
//! * **key split** — a new *current* node receives the upper key range with
//!   all its versions, a copy of the key side pointer, **and a copy of the
//!   history sibling pointer**, making it "responsible for not merely its
//!   current key space, but for the entire history of this key space".
//!   Only key splits post index terms.

use crate::node::{split_version_key, version_key, Time, TsbHeader, TsbKind};
use crate::tree::{TsbDescent, TsbTree};
use pitree::bound::KeyBound;
use pitree::completion::Completion;
use pitree::lifecycle::alloc_page;
use pitree::node::{Guarded, IndexTerm};
use pitree::stats::TreeStats;
use pitree::traverse::SavedPath;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::Txn;

/// Split a full *current data node*, choosing between a time split and a key
/// split (TSB heuristic: mostly-historical content → time split). One
/// independent atomic action; the caller retries its insert afterwards.
pub(crate) fn split_data_node(tree: &TsbTree, d: TsbDescent<'_>) -> StoreResult<()> {
    let hdr = TsbHeader::read(d.guard.page())?;
    debug_assert_eq!(hdr.kind, TsbKind::Current);
    let path = d.path.clone();
    let mut g = d.guard.promote().into_x();

    // Count distinct keys vs versions to pick the split dimension.
    let n = g.entry_count() as usize;
    let mut distinct = 0usize;
    let mut prev: Option<Vec<u8>> = None;
    for slot in 1..g.slot_count() {
        let (k, _) = split_version_key(Page::entry_key(g.get(slot)?));
        if prev.as_deref() != Some(k) {
            distinct += 1;
            prev = Some(k.to_vec());
        }
    }

    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    if distinct * 2 <= n && distinct < n {
        // Mostly historical versions: time split.
        time_split(tree, &mut act, &d.page, &mut g, &hdr)?;
        drop(g);
        drop(d.page);
        act.commit()?;
        TreeStats::bump(&tree.stats().splits_independent);
        return Ok(());
    }
    // Key split. Needs at least two distinct keys; a node full of versions
    // of one key falls back to a time split.
    if distinct < 2 {
        time_split(tree, &mut act, &d.page, &mut g, &hdr)?;
        drop(g);
        drop(d.page);
        act.commit()?;
        TreeStats::bump(&tree.stats().splits_independent);
        return Ok(());
    }
    let out = key_split(tree, &mut act, &d.page, &mut g, &hdr)?;
    drop(g);
    drop(d.page);
    act.commit()?;
    TreeStats::bump(&tree.stats().splits_independent);
    if let Some((split_key, new_pid)) = out {
        if tree.completions().push(Completion::Post {
            level: 1,
            key: split_key,
            node: new_pid,
            path: Box::new(path.above(0)),
        }) {
            TreeStats::bump(&tree.stats().postings_scheduled);
        }
    }
    Ok(())
}

/// Time split at `T = now + 1`: all existing versions started before `T`.
fn time_split(
    tree: &TsbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
) -> StoreResult<()> {
    let t_split: Time = tree.now() + 1;
    let hist_pin = alloc_page(tree.store(), act)?;
    let hist_pid = hist_pin.id();
    let mut hg = hist_pin.x();
    act.apply(&hist_pin, &mut hg, PageOp::Format { ty: PageType::Node })?;
    let hist_hdr = TsbHeader {
        kind: TsbKind::History,
        level: 0,
        key_low: hdr.key_low.clone(),
        key_high: hdr.key_high.clone(),
        key_side: PageId::INVALID,
        // The new historic node contains a copy of the prior history
        // sibling pointer (Figure 1).
        hist_side: hdr.hist_side,
        t_lo: hdr.t_lo,
        t_hi: t_split,
    };
    act.apply(
        &hist_pin,
        &mut hg,
        PageOp::InsertSlot {
            slot: 0,
            bytes: hist_hdr.encode(),
        },
    )?;

    // Copy everything (all versions started before T).
    let all: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &all {
        act.apply(&hist_pin, &mut hg, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    // Remove from the current node every version that is dead at T (has a
    // successor version of the same key). The alive-at-T versions remain —
    // they now exist in both nodes, which is what makes as-of queries in
    // either rectangle self-contained.
    let mut dead: Vec<Vec<u8>> = Vec::new();
    for w in all.windows(2) {
        let (k0, _) = split_version_key(Page::entry_key(&w[0]));
        let (k1, _) = split_version_key(Page::entry_key(&w[1]));
        if k0 == k1 {
            dead.push(Page::entry_key(&w[0]).to_vec());
        }
    }
    for k in &dead {
        act.apply(page, g, PageOp::KeyedRemove { key: k.clone() })?;
    }
    let new_hdr = TsbHeader {
        hist_side: hist_pid,
        t_lo: t_split,
        ..hdr.clone()
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: new_hdr.encode(),
        },
    )?;
    TreeStats::bump(&tree.stats().splits);
    Ok(())
}

/// Key split at a user-key boundary near the middle. Returns the split key
/// and new node for index posting, or `None` when the node was the root and
/// the posting happened inline via root growth.
fn key_split(
    tree: &TsbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
) -> StoreResult<Option<(Vec<u8>, PageId)>> {
    if page.id() == tree.root_pid() {
        grow_root(tree, act, page, g)?;
        return Ok(None);
    }
    let n = g.entry_count();
    // Find the start of the middle entry's key group; when the middle entry
    // belongs to the first key group (one key dominating the node), fall
    // forward to the next group so both halves stay non-empty.
    let mut mid_key = {
        let (k, _) = split_version_key(Page::entry_key(g.get(1 + n / 2)?));
        k.to_vec()
    };
    let mut first_slot = match g.keyed_find(&version_key(&mid_key, 0))? {
        Ok(s) => s,
        Err(s) => s,
    };
    if first_slot <= 1 {
        let mut s = 2;
        loop {
            let (k, _) = split_version_key(Page::entry_key(g.get(s)?));
            if k != mid_key.as_slice() {
                mid_key = k.to_vec();
                first_slot = s;
                break;
            }
            s += 1;
            if s > n {
                return Err(StoreError::Corrupt("key split with one key group".into()));
            }
        }
    }

    let new_pin = alloc_page(tree.store(), act)?;
    let new_pid = new_pin.id();
    let mut ng = new_pin.x();
    act.apply(&new_pin, &mut ng, PageOp::Format { ty: PageType::Node })?;
    let new_hdr = TsbHeader {
        kind: TsbKind::Current,
        level: 0,
        key_low: KeyBound::Key(mid_key.clone()),
        key_high: hdr.key_high.clone(),
        // Copies of the key side pointer and the history sibling pointer
        // (Figure 1): the new current node answers for the entire history of
        // its key space.
        key_side: hdr.key_side,
        hist_side: hdr.hist_side,
        t_lo: hdr.t_lo,
        t_hi: Time::MAX,
    };
    act.apply(
        &new_pin,
        &mut ng,
        PageOp::InsertSlot {
            slot: 0,
            bytes: new_hdr.encode(),
        },
    )?;
    let moved: Vec<Vec<u8>> = (first_slot..=n)
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &moved {
        act.apply(&new_pin, &mut ng, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    for e in &moved {
        act.apply(
            page,
            g,
            PageOp::KeyedRemove {
                key: Page::entry_key(e).to_vec(),
            },
        )?;
    }
    let old_hdr = TsbHeader {
        key_high: KeyBound::Key(mid_key.clone()),
        key_side: new_pid,
        ..hdr.clone()
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: old_hdr.encode(),
        },
    )?;
    TreeStats::bump(&tree.stats().splits);
    Ok(Some((mid_key, new_pid)))
}

/// Split a full *index node* at its middle term (plain B-link key split).
fn index_split(
    tree: &TsbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
) -> StoreResult<(Vec<u8>, PageId)> {
    let hdr = TsbHeader::read(g)?;
    let n = g.entry_count();
    let mid = 1 + n / 2;
    let split_key = Page::entry_key(g.get(mid)?).to_vec();
    let new_pin = alloc_page(tree.store(), act)?;
    let new_pid = new_pin.id();
    let mut ng = new_pin.x();
    act.apply(&new_pin, &mut ng, PageOp::Format { ty: PageType::Node })?;
    let new_hdr = TsbHeader {
        kind: TsbKind::Index,
        level: hdr.level,
        key_low: KeyBound::Key(split_key.clone()),
        key_high: hdr.key_high.clone(),
        key_side: hdr.key_side,
        hist_side: PageId::INVALID,
        t_lo: 0,
        t_hi: Time::MAX,
    };
    act.apply(
        &new_pin,
        &mut ng,
        PageOp::InsertSlot {
            slot: 0,
            bytes: new_hdr.encode(),
        },
    )?;
    let moved: Vec<Vec<u8>> = (mid..=n)
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &moved {
        act.apply(&new_pin, &mut ng, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    for e in &moved {
        act.apply(
            page,
            g,
            PageOp::KeyedRemove {
                key: Page::entry_key(e).to_vec(),
            },
        )?;
    }
    let old_hdr = TsbHeader {
        key_high: KeyBound::Key(split_key.clone()),
        key_side: new_pid,
        ..hdr
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: old_hdr.encode(),
        },
    )?;
    TreeStats::bump(&tree.stats().splits);
    Ok((split_key, new_pid))
}

/// Grow the tree at the fixed root: contents move to n1, n1 splits into
/// n1/n2 (by key — for a data root, at a user-key boundary), and both index
/// terms are posted to the root inline.
fn grow_root(
    tree: &TsbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
) -> StoreResult<()> {
    let hdr = TsbHeader::read(g)?;
    let n1_pin = alloc_page(tree.store(), act)?;
    let n1_pid = n1_pin.id();
    let mut n1g = n1_pin.x();
    act.apply(&n1_pin, &mut n1g, PageOp::Format { ty: PageType::Node })?;
    let n1_hdr = TsbHeader {
        key_low: KeyBound::NegInf,
        key_high: KeyBound::PosInf,
        key_side: PageId::INVALID,
        ..hdr.clone()
    };
    act.apply(
        &n1_pin,
        &mut n1g,
        PageOp::InsertSlot {
            slot: 0,
            bytes: n1_hdr.encode(),
        },
    )?;
    let all: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &all {
        act.apply(&n1_pin, &mut n1g, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    for e in &all {
        act.apply(
            page,
            g,
            PageOp::KeyedRemove {
                key: Page::entry_key(e).to_vec(),
            },
        )?;
    }
    let root_hdr = TsbHeader {
        kind: TsbKind::Index,
        level: hdr.level + 1,
        key_low: KeyBound::NegInf,
        key_high: KeyBound::PosInf,
        key_side: PageId::INVALID,
        hist_side: PageId::INVALID,
        t_lo: 0,
        t_hi: Time::MAX,
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: root_hdr.encode(),
        },
    )?;
    act.apply(
        page,
        g,
        PageOp::KeyedInsert {
            bytes: IndexTerm {
                key: Vec::new(),
                child: n1_pid,
                multi_parent: false,
            }
            .to_entry(),
        },
    )?;
    // Split n1 and post the pair (§5.3).
    let (split_key, n2_pid) = if n1_hdr.kind == TsbKind::Current {
        match key_split_non_root(tree, act, &n1_pin, &mut n1g)? {
            Some(pair) => pair,
            None => {
                // Could not key-split (single key group): time split instead;
                // the root keeps a single child, which is fine.
                TreeStats::bump(&tree.stats().root_grows);
                return Ok(());
            }
        }
    } else {
        index_split(tree, act, &n1_pin, &mut n1g)?
    };
    act.apply(
        page,
        g,
        PageOp::KeyedInsert {
            bytes: IndexTerm {
                key: split_key,
                child: n2_pid,
                multi_parent: false,
            }
            .to_entry(),
        },
    )?;
    TreeStats::bump(&tree.stats().root_grows);
    Ok(())
}

/// Key split for a (non-root) data node inside root growth; falls back to a
/// time split when there is a single key group.
fn key_split_non_root(
    tree: &TsbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
) -> StoreResult<Option<(Vec<u8>, PageId)>> {
    let hdr = TsbHeader::read(g)?;
    let mut distinct = 0usize;
    let mut prev: Option<Vec<u8>> = None;
    for slot in 1..g.slot_count() {
        let (k, _) = split_version_key(Page::entry_key(g.get(slot)?));
        if prev.as_deref() != Some(k) {
            distinct += 1;
            prev = Some(k.to_vec());
        }
    }
    if distinct < 2 {
        time_split(tree, act, page, g, &hdr)?;
        return Ok(None);
    }
    key_split(tree, act, page, g, &hdr)
}

/// The completing index-term posting action for TSB key splits — the §5.3
/// steps under the CNS invariant (remembered parents need no verification,
/// but the posting is still testable and idempotent).
pub(crate) fn post_index_term(
    tree: &TsbTree,
    level: u8,
    key: &[u8],
    node: PageId,
    _path: &SavedPath,
) -> StoreResult<()> {
    let stats = tree.stats();
    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    let d = tree.descend(key, level, true, false)?;
    // Verify: already posted?
    if d.guard.page().keyed_find(key)?.is_ok() {
        TreeStats::bump(&stats.postings_noop);
        act.commit()?;
        return Ok(());
    }
    let mut cur_pin = d.page;
    let mut cur_guard = match d.guard {
        Guarded::U(u) => u.promote(),
        Guarded::X(x) => x,
        Guarded::S(_) => unreachable!(),
    };
    let term = IndexTerm {
        key: key.to_vec(),
        child: node,
        multi_parent: false,
    }
    .to_entry();
    loop {
        let full = cur_guard.entry_count() as usize >= tree.config().max_index_entries
            || cur_guard.free_space() < term.len() + 4;
        if !full {
            act.apply(
                &cur_pin,
                &mut cur_guard,
                PageOp::KeyedInsert {
                    bytes: term.clone(),
                },
            )?;
            break;
        }
        if cur_pin.id() == tree.root_pid() {
            grow_root(tree, &mut act, &cur_pin, &mut cur_guard)?;
            // Re-descend within the grown root: route to the child covering
            // `key` and continue the space test there.
            let child = {
                let slot = cur_guard.keyed_floor(key)?.expect("root routes everything");
                IndexTerm::read(&cur_guard, slot)?.child
            };
            let pin = tree.store().pool.fetch(child)?;
            let g = pin.x();
            cur_pin = pin;
            cur_guard = g;
            continue;
        }
        let cur_level = TsbHeader::read(&cur_guard)?.level;
        let (split_key, new_pid) = index_split(tree, &mut act, &cur_pin, &mut cur_guard)?;
        if tree.completions().push(Completion::Post {
            level: cur_level + 1,
            key: split_key.clone(),
            node: new_pid,
            path: Box::new(SavedPath::default()),
        }) {
            TreeStats::bump(&stats.postings_scheduled);
        }
        if key >= split_key.as_slice() {
            let pin = tree.store().pool.fetch(new_pid)?;
            let g = pin.x();
            cur_pin = pin;
            cur_guard = g;
        }
    }
    drop(cur_guard);
    drop(cur_pin);
    act.commit()?;
    TreeStats::bump(&stats.postings_done);
    Ok(())
}
