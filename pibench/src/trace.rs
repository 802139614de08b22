//! Spans around every call the benchmark makes into a layer.
//!
//! A client thread opens one *op span* per iteration of its closed loop;
//! calls into the tree, the transaction layer, and (through the timing
//! decorators) the disk and the log open child spans under whatever span
//! is current on the thread. So an eviction write-back inside a get, or a
//! group-commit leader's force inside a `wait_durable`, lands under the op
//! that paid for it. Spans stay in per-thread memory while the workload
//! runs; [`collect`] gathers them at the end, and [`self_times`] turns
//! them into per-layer self time (span time minus child-span time).
//!
//! An op is traced when [`set_tracing`] is on as it starts; a thread with
//! no open op records nothing, so background threads stay out of the
//! ledger.

use pitree_obs::Stopwatch;
use pitree_pagestore::sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The layers spans are attributed to: the repository's crates, plus the
/// benchmark's own loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own work: op choice, answer checks, bookkeeping.
    Bench,
    /// `pitree` (core B-link Π-tree calls).
    Core,
    /// `pitree-txnlock` (commit publish, durable-ack wait).
    Txn,
    /// `pitree-pagestore` disk I/O, through the `DiskManager` decorator.
    Disk,
    /// `pitree-wal` log-store I/O, through the `LogStore` decorator.
    Log,
    /// `pitree-tsb` calls.
    Tsb,
    /// `pitree-hb` calls.
    Hb,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Core,
        Layer::Txn,
        Layer::Disk,
        Layer::Log,
        Layer::Tsb,
        Layer::Hb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Txn => "txn",
            Layer::Disk => "disk",
            Layer::Log => "log",
            Layer::Tsb => "tsb",
            Layer::Hb => "hb",
        }
    }
}

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub parent: Option<u32>,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

#[derive(Default)]
struct ThreadTrace {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static LOCAL: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

fn epoch() -> Stopwatch {
    static EPOCH: OnceLock<Stopwatch> = OnceLock::new();
    *EPOCH.get_or_init(Stopwatch::start)
}

/// Nanoseconds on the benchmark's clock.
pub fn now_ns() -> u64 {
    epoch().elapsed_ns()
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Open a span under the thread's current span. Returns its index, or
/// `None` when nothing is being traced on this thread.
fn open(layer: Layer, name: &'static str, root: bool) -> Option<u32> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if root {
            l.op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
        } else if l.open.is_empty() {
            return None;
        }
        let idx = l.spans.len() as u32;
        let parent = l.open.last().copied();
        let op = l.op;
        l.spans.push(Span {
            op,
            parent,
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        l.open.push(idx);
        Some(idx)
    })
}

fn close(idx: Option<u32>) {
    if let Some(idx) = idx {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let popped = l.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
            l.spans[idx as usize].end_ns = now_ns();
        });
    }
}

/// Run one closed-loop iteration as an op span (when tracing).
pub fn op<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = tracing().then(|| open(Layer::Bench, name, true)).flatten();
    let out = f();
    close(idx);
    out
}

/// Run a call into `layer` as a child span of the current span (if the
/// thread is inside a traced op: an op traced at its start is traced to
/// its end, whatever the flag does meanwhile).
pub fn span<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = open(layer, name, false);
    let out = f();
    close(idx);
    out
}

/// Record an already-timed leaf span (the I/O decorators time their inner
/// call themselves) under the thread's current span, if any.
pub fn leaf(layer: Layer, name: &'static str, start_ns: u64, end_ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Some(&parent) = l.open.last() else {
            return;
        };
        let op = l.op;
        l.spans.push(Span {
            op,
            parent: Some(parent),
            layer,
            name,
            start_ns,
            end_ns,
        });
    });
}

/// Hand this thread's spans to the collector (call at client-thread end).
pub fn finish_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        FINISHED.lock().push(spans);
    }
}

/// All spans handed in so far, one list per thread.
pub fn collect() -> Vec<Vec<Span>> {
    std::mem::take(&mut *FINISHED.lock())
}

/// Per-layer self time plus total op time, over every op span.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    pub ops: u64,
    pub op_ns: u64,
    pub self_ns: [u64; 7],
}

pub fn self_times(threads: &[Vec<Span>]) -> SelfTimes {
    let mut out = SelfTimes::default();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, kids) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.parent.is_none() {
                out.ops += 1;
                out.op_ns += dur;
            }
            let li = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("known layer");
            out.self_ns[li] += dur.saturating_sub(*kids);
        }
    }
    out
}

/// Spans per thread written out; self times use every span.
const MAX_WRITTEN: usize = 500_000;

/// Write spans as TSV: `thread op span parent layer name start_ns end_ns`,
/// the first `MAX_WRITTEN` of each thread.
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\top\tspan\tparent\tlayer\tname\tstart_ns\tend_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().take(MAX_WRITTEN).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{t}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_op_time() {
        // Tracing state is process-global; run the traced part on a fresh
        // thread and read its spans back directly.
        let spans = std::thread::spawn(|| {
            set_tracing(true);
            op("op.test", || {
                span(Layer::Core, "core.get", || {
                    let t0 = now_ns();
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    leaf(Layer::Disk, "disk.read", t0, now_ns());
                });
                span(Layer::Txn, "txn.publish", || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            });
            set_tracing(false);
            LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
        })
        .join()
        .expect("tracing thread");
        assert_eq!(spans.len(), 4);
        let st = self_times(&[spans]);
        assert_eq!(st.ops, 1);
        assert_eq!(st.self_ns.iter().sum::<u64>(), st.op_ns);
        assert!(st.self_ns[3] >= 2_000_000, "disk leaf holds the sleep");
    }
}
