//! hB-tree structure changes: hyperplane splits of data and index nodes
//! (with clipping), root growth, and the fragment-posting action.

use crate::geometry::{key_point, Frag, Point, Rect, DIMS};
use crate::node::HbHeader;
use crate::tree::{HbDescent, HbPost, HbTree};
use pitree::lifecycle::alloc_page;
use pitree::stats::TreeStats;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::Txn;

/// Choose a hyperplane for a data node: the dimension and median coordinate
/// giving the most balanced record partition with both sides non-empty.
fn choose_data_cut(points: &[Point]) -> StoreResult<(usize, u64)> {
    let mut best: Option<(usize, u64, usize)> = None; // (dim, val, min-side)
    for dim in 0..DIMS {
        let mut coords: Vec<u64> = points.iter().map(|p| p[dim]).collect();
        coords.sort_unstable();
        coords.dedup();
        if coords.len() < 2 {
            continue;
        }
        let val = coords[coords.len() / 2].max(coords[1]);
        let lo = points.iter().filter(|p| p[dim] < val).count();
        let hi = points.len() - lo;
        let score = lo.min(hi);
        if best.map(|(_, _, s)| score > s).unwrap_or(true) {
            best = Some((dim, val, score));
        }
    }
    best.map(|(d, v, _)| (d, v))
        .ok_or_else(|| StoreError::Corrupt("cannot cut: all points identical".into()))
}

/// Choose a hyperplane for an index node from its fragment-leaf boundaries,
/// preferring cuts that balance leaf counts and minimize clipping.
fn choose_index_cut(leaves: &[(Rect, bool)]) -> StoreResult<(usize, u64)> {
    // (region, is_child) pairs; candidate cuts are region boundaries.
    let mut best: Option<(usize, u64, i64)> = None;
    for dim in 0..DIMS {
        let mut cands: Vec<u64> = leaves
            .iter()
            .flat_map(|(r, _)| [r.lo[dim], r.hi[dim]])
            .filter(|&v| v != 0 && v != u64::MAX)
            .collect();
        cands.sort_unstable();
        cands.dedup();
        for &val in &cands {
            let lo = leaves.iter().filter(|(r, _)| r.hi[dim] <= val).count() as i64;
            let hi = leaves.iter().filter(|(r, _)| r.lo[dim] >= val).count() as i64;
            let straddle = leaves.len() as i64 - lo - hi;
            // Each side must get at least one whole leaf, or the split may
            // fail to shrink the fragment (a clipped sliver is not progress).
            // The fragment's own root split always satisfies this, so a
            // viable cut always exists for fragments with ≥ 2 leaves.
            if lo == 0 || hi == 0 {
                continue;
            }
            // Prefer balance, penalize clipping.
            let score = lo.min(hi) - 2 * straddle;
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((dim, val, score));
            }
        }
    }
    best.map(|(d, v, _)| (d, v))
        .ok_or_else(|| StoreError::Corrupt("no viable index cut".into()))
}

/// Split the full data node in `d` as an independent atomic action; the
/// caller retries its insert.
pub(crate) fn split_data_node(tree: &HbTree, d: HbDescent<'_>) -> StoreResult<()> {
    let parent_hint = d.parent;
    let hdr = d.hdr.clone();
    let mut g = d.guard.promote().into_x();
    let mut act = tree.store().txns.begin(tree.config().smo_identity);

    if d.page.id() == tree.root_pid() {
        grow_data_root(tree, &mut act, &d.page, &mut g)?;
        drop(g);
        drop(d.page);
        act.commit()?;
        TreeStats::bump(&tree.stats().root_grows);
        TreeStats::bump(&tree.stats().splits_independent);
        return Ok(());
    }

    let old = d.page.id();
    let (new_pid, new_rect) = raw_data_split(tree, &mut act, &d.page, &mut g, &hdr)?;
    drop(g);
    drop(d.page);
    act.commit()?;
    TreeStats::bump(&tree.stats().splits_independent);
    tree.schedule_post(HbPost {
        parent: parent_hint,
        level: 1,
        old,
        new: new_pid,
        rect: new_rect,
    });
    Ok(())
}

/// §3.2.1 for hB data nodes: hyperplane-split the records and fragment.
/// Returns the new node and its rectangle.
fn raw_data_split<'a>(
    tree: &'a HbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'a>,
    g: &mut XGuard<'a, Page>,
    hdr: &HbHeader,
) -> StoreResult<(PageId, Rect)> {
    let entries: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    let points: Vec<Point> = entries
        .iter()
        .map(|e| key_point(Page::entry_key(e)))
        .collect();
    let (dim, val) = choose_data_cut(&points)?;

    let mut clipped = Vec::new();
    let new_frag = hdr.frag.clip(&hdr.rect, dim, val, true, &mut clipped);
    let old_lo = hdr.frag.clip(&hdr.rect, dim, val, false, &mut clipped);
    debug_assert!(
        clipped.is_empty(),
        "data fragments have no child terms to clip"
    );

    let new_pin = alloc_page(tree.store(), act)?;
    let new_pid = new_pin.id();
    let new_rect = hdr.rect.half(dim, val, true);
    let mut ng = new_pin.x();
    act.apply(&new_pin, &mut ng, PageOp::Format { ty: PageType::Node })?;
    let new_hdr = HbHeader {
        level: 0,
        rect: new_rect.clone(),
        frag: new_frag,
    };
    act.apply(
        &new_pin,
        &mut ng,
        PageOp::InsertSlot {
            slot: 0,
            bytes: new_hdr.encode(),
        },
    )?;

    // Move the records on the high side.
    for (e, p) in entries.iter().zip(&points) {
        if p[dim] >= val {
            act.apply(&new_pin, &mut ng, PageOp::KeyedInsert { bytes: e.clone() })?;
        }
    }
    for (e, p) in entries.iter().zip(&points) {
        if p[dim] >= val {
            act.apply(
                page,
                g,
                PageOp::KeyedRemove {
                    key: Page::entry_key(e).to_vec(),
                },
            )?;
        }
    }
    // The old node's fragment gains a split whose high side is the sibling
    // term — Figure 2's hyperplane-split treatment ("one child of the root
    // points to the new sibling").
    let old_hdr = HbHeader {
        level: 0,
        rect: hdr.rect.clone(),
        frag: Frag::Split {
            dim: dim as u8,
            val,
            lo: Box::new(old_lo),
            hi: Box::new(Frag::sibling(new_pid)),
        },
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
    Ok((new_pid, new_rect))
}

/// Split a full index node by hyperplane, clipping straddling child terms
/// (§3.2.2). Returns the new node and its rectangle.
fn raw_index_split<'a>(
    tree: &'a HbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'a>,
    g: &mut XGuard<'a, Page>,
    hdr: &HbHeader,
) -> StoreResult<(PageId, Rect)> {
    let mut leaves = Vec::new();
    hdr.frag.leaves(&hdr.rect, &mut leaves);
    let leaf_info: Vec<(Rect, bool)> = leaves
        .iter()
        .map(|(l, r)| {
            (
                r.clone(),
                matches!(
                    l,
                    Frag::Ptr {
                        kind: crate::geometry::PtrKind::Child,
                        ..
                    }
                ),
            )
        })
        .collect();
    let (dim, val) = choose_index_cut(&leaf_info)?;

    let mut clipped = Vec::new();
    let new_frag = hdr.frag.clip(&hdr.rect, dim, val, true, &mut clipped);
    let old_lo = hdr.frag.clip(&hdr.rect, dim, val, false, &mut clipped);
    // §3.3: clipped index terms mark multi-parent nodes; `clip` set the
    // markers inside both output fragments.
    let _ = &clipped;

    let new_pin = alloc_page(tree.store(), act)?;
    let new_pid = new_pin.id();
    let new_rect = hdr.rect.half(dim, val, true);
    let mut ng = new_pin.x();
    act.apply(&new_pin, &mut ng, PageOp::Format { ty: PageType::Node })?;
    let new_hdr = HbHeader {
        level: hdr.level,
        rect: new_rect.clone(),
        frag: new_frag,
    };
    act.apply(
        &new_pin,
        &mut ng,
        PageOp::InsertSlot {
            slot: 0,
            bytes: new_hdr.encode(),
        },
    )?;
    let old_hdr = HbHeader {
        level: hdr.level,
        rect: hdr.rect.clone(),
        frag: Frag::Split {
            dim: dim as u8,
            val,
            lo: Box::new(old_lo),
            hi: Box::new(Frag::sibling(new_pid)),
        },
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
    Ok((new_pid, new_rect))
}

/// Grow at the fixed root (data-node case): contents move to n1, n1 splits,
/// and both fragment references are installed in the root inline.
fn grow_data_root(
    tree: &HbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
) -> StoreResult<()> {
    let hdr = HbHeader::read(g)?;
    let n1_pin = alloc_page(tree.store(), act)?;
    let n1_pid = n1_pin.id();
    let mut n1g = n1_pin.x();
    act.apply(&n1_pin, &mut n1g, PageOp::Format { ty: PageType::Node })?;
    let n1_hdr = HbHeader {
        level: hdr.level,
        rect: hdr.rect.clone(),
        frag: hdr.frag.clone(),
    };
    act.apply(
        &n1_pin,
        &mut n1g,
        PageOp::InsertSlot {
            slot: 0,
            bytes: n1_hdr.encode(),
        },
    )?;
    let entries: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &entries {
        act.apply(&n1_pin, &mut n1g, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    for e in &entries {
        act.apply(
            page,
            g,
            PageOp::KeyedRemove {
                key: Page::entry_key(e).to_vec(),
            },
        )?;
    }
    let mut root_hdr = HbHeader {
        level: hdr.level + 1,
        rect: hdr.rect.clone(),
        frag: Frag::child(n1_pid),
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: root_hdr.encode(),
        },
    )?;
    // Split n1 and post the pair inline.
    let (n2_pid, n2_rect) = raw_data_split(tree, act, &n1_pin, &mut n1g, &n1_hdr)?;
    root_hdr
        .frag
        .post(&root_hdr.rect.clone(), n1_pid, n2_pid, &n2_rect);
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: root_hdr.encode(),
        },
    )?;
    Ok(())
}

/// The completing posting action: teach a parent fragment that `new` took
/// over `rect` from `old` (§5.3 adapted to fragments). Testable — a parent
/// that already routes `rect` to `new`, or that holds no term for `old`
/// there, makes this a no-op. Splits the parent (or grows the root) within
/// the action when the refined fragment no longer fits.
pub(crate) fn run_post(tree: &HbTree, post: HbPost) -> StoreResult<()> {
    let HbPost {
        parent,
        level,
        old,
        new,
        rect,
    } = post;
    let stats = tree.stats();
    let pool = &tree.store().pool;
    let mut act = tree.store().txns.begin(tree.config().smo_identity);

    // Locate the parent at `level` whose fragment routes rect.lo — starting
    // from the hint (immortal under CNS), descending/hopping as needed.
    let probe: Point = rect.lo;
    let mut pin = pool.fetch(parent)?;
    let mut g = pin.u();
    let mut hdr = HbHeader::read(&g)?;
    if hdr.level < level {
        // Stale hint below the target level: restart from the root.
        drop(g);
        pin = pool.fetch(tree.root_pid())?;
        g = pin.u();
        hdr = HbHeader::read(&g)?;
    }
    loop {
        if hdr.level == level {
            let (leaf, _) = hdr.frag.locate(&hdr.rect, &probe);
            match leaf {
                Frag::Ptr {
                    kind: crate::geometry::PtrKind::Sibling,
                    pid,
                    ..
                } => {
                    let side = *pid;
                    drop(g);
                    pin = pool.fetch(side)?;
                    g = pin.u();
                    hdr = HbHeader::read(&g)?;
                    continue;
                }
                _ => break,
            }
        }
        if hdr.level < level {
            act.commit()?;
            return Ok(()); // degenerate: tree reshaped; traversals will re-detect
        }
        let (leaf, _) = hdr.frag.locate(&hdr.rect, &probe);
        match leaf {
            Frag::Ptr { pid, .. } => {
                let next = *pid;
                drop(g);
                pin = pool.fetch(next)?;
                g = pin.u();
                hdr = HbHeader::read(&g)?;
            }
            Frag::Local => {
                act.commit()?;
                return Ok(());
            }
            Frag::Split { .. } => unreachable!("locate returns leaves"),
        }
    }

    let mut xg = g.promote();
    loop {
        let hdr = HbHeader::read(&xg)?;
        let mut frag = hdr.frag.clone();
        if !frag.post(&hdr.rect, old, new, &rect) {
            TreeStats::bump(&stats.postings_noop);
            break;
        }
        let new_hdr = HbHeader {
            level: hdr.level,
            rect: hdr.rect.clone(),
            frag,
        };
        let bytes = new_hdr.encode();
        let fits_page = bytes.len() <= xg.free_space() + xg.get(0)?.len();
        if fits_page {
            // Apply the posting whenever physically possible; the fragment
            // cap is enforced by an opportunistic split *afterwards*, so a
            // posting can never starve behind restructuring.
            act.apply(&pin, &mut xg, PageOp::UpdateSlot { slot: 0, bytes })?;
            TreeStats::bump(&stats.postings_done);
            if new_hdr.frag.size() > tree.config().max_frag_nodes && pin.id() != tree.root_pid() {
                let (new_sib, new_sib_rect) =
                    raw_index_split(tree, &mut act, &pin, &mut xg, &new_hdr)?;
                tree.schedule_post(HbPost {
                    parent: tree.root_pid(),
                    level: new_hdr.level + 1,
                    old: pin.id(),
                    new: new_sib,
                    rect: new_sib_rect,
                });
            } else if new_hdr.frag.size() > tree.config().max_frag_nodes {
                grow_index_root(tree, &mut act, &pin, &mut xg, &new_hdr)?;
            }
            break;
        }
        // The posted header does not physically fit: restructure, then retry.
        if pin.id() == tree.root_pid() {
            grow_index_root(tree, &mut act, &pin, &mut xg, &hdr)?;
            // The root now holds a single child term; the target level node
            // is that child.
            let child = match &HbHeader::read(&xg)?.frag {
                Frag::Ptr { pid, .. } => *pid,
                _ => unreachable!("grown root has a single child term"),
            };
            drop(xg);
            let np = pool.fetch(child)?;
            let ng = np.x();
            pin = np;
            xg = ng;
            continue;
        }
        let (new_sib, new_sib_rect) = raw_index_split(tree, &mut act, &pin, &mut xg, &hdr)?;
        tree.schedule_post(HbPost {
            parent: tree.root_pid(),
            level: hdr.level + 1,
            old: pin.id(),
            new: new_sib,
            rect: new_sib_rect.clone(),
        });
        // Continue on whichever half routes the probe.
        if new_sib_rect.contains(&probe) {
            drop(xg);
            let np = pool.fetch(new_sib)?;
            let ng = np.x();
            pin = np;
            xg = ng;
        }
    }
    drop(xg);
    drop(pin);
    act.commit()?;
    Ok(())
}

/// Grow the tree at the fixed root (index case): the root's fragment moves
/// wholesale to a fresh child; the root keeps a single child term one level
/// higher.
fn grow_index_root(
    tree: &HbTree,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &HbHeader,
) -> StoreResult<()> {
    let n1_pin = alloc_page(tree.store(), act)?;
    let n1_pid = n1_pin.id();
    let mut n1g = n1_pin.x();
    act.apply(&n1_pin, &mut n1g, PageOp::Format { ty: PageType::Node })?;
    let n1_hdr = HbHeader {
        level: hdr.level,
        rect: hdr.rect.clone(),
        frag: hdr.frag.clone(),
    };
    act.apply(
        &n1_pin,
        &mut n1g,
        PageOp::InsertSlot {
            slot: 0,
            bytes: n1_hdr.encode(),
        },
    )?;
    let mut root_hdr = HbHeader {
        level: hdr.level + 1,
        rect: hdr.rect.clone(),
        frag: Frag::child(n1_pid),
    };
    act.apply(
        page,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: root_hdr.encode(),
        },
    )?;
    // Split n1 and post the pair inline (§5.3's "pair of index terms"),
    // keeping the new root from degenerating into a single-child chain.
    if n1_hdr.frag.size() >= 3 {
        let (n2_pid, n2_rect) = raw_index_split(tree, act, &n1_pin, &mut n1g, &n1_hdr)?;
        root_hdr
            .frag
            .post(&root_hdr.rect.clone(), n1_pid, n2_pid, &n2_rect);
        act.apply(
            page,
            g,
            PageOp::UpdateSlot {
                slot: 0,
                bytes: root_hdr.encode(),
            },
        )?;
    }
    TreeStats::bump(&tree.stats().root_grows);
    Ok(())
}
