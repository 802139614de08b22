//! The four workloads and what they share: the closed-loop client, the
//! commit pipeline, preload, counter snapshots, and the metrics common to
//! every workload.

pub mod family;
pub mod read_cold;
pub mod storm_hot;
pub mod update_cold;

use crate::io::{IoSnap, IoStats};
use crate::report::{self, Metrics, Samples};
use crate::trace::{self, Layer};
use pitree::{PiTree, Store};
use pitree_obs::Stopwatch;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{StoreError, StoreResult};
use pitree_txnlock::{PendingCommit, Txn};
use pitree_wal::ActionIdentity;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Closed-loop clients per workload: one per core of the 2-core hosts
/// the benchmark is sized for. Each client waits for its reply.
pub const CLIENTS: usize = 2;
/// Published-but-unacknowledged commits a client keeps in flight.
pub const PIPELINE: usize = 8;
/// Times each run builds its preloaded image; `setup_s` is the median.
/// Workloads whose setup is short build it more often.
pub const SETUP_REPS: usize = 3;
/// Frames of the pool that builds an image (the measured phase reopens
/// the image with a small pool).
pub const LOAD_POOL_FRAMES: usize = 8192;
/// Inserts per preload transaction.
const PRELOAD_BATCH: u64 = 64;
/// Tracing alternates on and off in slices of this length during a
/// traced run, so the traced and untraced throughput come from the same
/// stretch of time.
const TRACE_SLICE: Duration = Duration::from_millis(200);

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work: PathBuf,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Counter assertions the workload's own design requires that did not
    /// hold: the run measured the wrong layer and reports nothing.
    pub violations: Vec<String>,
}

/// End-to-end op classes: what a caller waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point read.
    Get,
    /// Range scan, as-of scan, or window query.
    Scan,
    /// Write, from op start to its durable acknowledgement.
    WriteAck,
}
const CLASSES: usize = 3;

/// Calls into a layer, timed from outside (traced runs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lat {
    CoreGet,
    CoreScan,
    CoreInsert,
    CoreDelete,
    Publish,
    AckWait,
    TsbGet,
    TsbScan,
    TsbPut,
    HbWindow,
    HbInsert,
}
const LATS: usize = 11;
/// End-to-end figures are medians over windows of this length, so a
/// passing burst of I/O from another tenant moves one window, not the run.
const WINDOW_NS: u64 = 1_000_000_000;

/// One class's percentiles in one client's window (ns). A percentile is
/// kept only when at least ten samples lie beyond it.
#[derive(Debug, Clone, Copy, Default)]
struct WinStat {
    n: usize,
    p50: Option<u32>,
    p99: Option<u32>,
}

/// One client's closed window.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    ops: u64,
    stats: [WinStat; CLASSES],
}

/// One client thread's ledger. Raw latencies of the open window are
/// reduced to exact percentiles when it closes, so memory does not grow
/// with the op count.
#[derive(Debug)]
pub struct Client {
    pub id: usize,
    open: [Samples; CLASSES],
    open_ops: u64,
    windows: Vec<Window>,
    next_close_ns: u64,
    /// Per-layer call latencies over the whole phase (traced runs only).
    calls: Vec<Samples>,
    layers: bool,
    /// Ops started; `ops` of them completed with an answer.
    pub attempted: u64,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Writes attempted, and `LockFailed` retries among them.
    pub writes: u64,
    pub retries: u64,
    /// Acknowledged commits.
    pub acked: u64,
    /// User key + value bytes written by acknowledged writes.
    pub user_bytes: u64,
    /// Ops completed while tracing was off / on.
    pub mode_ops: [u64; 2],
    /// Points returned by hB window queries.
    pub points: u64,
}

impl Client {
    pub fn new(id: usize, ctx: &Ctx, start_ns: u64) -> Client {
        Client {
            id,
            open: Default::default(),
            open_ops: 0,
            windows: Vec::new(),
            next_close_ns: start_ns + WINDOW_NS,
            calls: vec![Samples::default(); LATS],
            layers: ctx.trace,
            attempted: 0,
            ops: 0,
            failed: 0,
            errors: Vec::new(),
            writes: 0,
            retries: 0,
            acked: 0,
            user_bytes: 0,
            mode_ops: [0; 2],
            points: 0,
        }
    }

    /// A call into `layer`, timed (traced runs) and spanned (traced slices).
    pub fn call<T>(
        &mut self,
        layer: Layer,
        lat: Lat,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.layers {
            return f();
        }
        let t0 = trace::now_ns();
        let out = trace::span(layer, name, f);
        self.calls[lat as usize].push(trace::now_ns() - t0);
        out
    }

    /// An op of class `class` that started at `start_ns` has completed.
    pub fn complete(&mut self, class: Class, start_ns: u64) {
        let now = trace::now_ns();
        while now >= self.next_close_ns {
            self.close_window();
            self.next_close_ns += WINDOW_NS;
        }
        self.open[class as usize].push(now - start_ns);
        self.open_ops += 1;
        self.ops += 1;
        self.mode_ops[trace::tracing() as usize] += 1;
    }

    fn close_window(&mut self) {
        let stats = std::array::from_fn(|c| {
            let s = Samples::merge([std::mem::take(&mut self.open[c])]);
            let at = |p: f64| {
                (s.len() as f64 * (1.0 - p / 100.0) >= 10.0)
                    .then(|| s.pct(p))
                    .flatten()
            };
            WinStat {
                n: s.len(),
                p50: at(50.0),
                p99: at(99.0),
            }
        });
        self.windows.push(Window {
            ops: std::mem::take(&mut self.open_ops),
            stats,
        });
    }

    /// End of the phase: a phase shorter than one window keeps its only,
    /// partial window; otherwise the partial last window is dropped.
    fn finish(&mut self) {
        if self.windows.is_empty() {
            self.close_window();
        }
    }

    /// A wrong answer or an error. The first few are kept for the log.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Begin a write transaction and apply `op` to it, retrying on
    /// `LockFailed` (deadlock victim or lock timeout) after rolling back.
    pub fn write_txn<'t, R>(
        &mut self,
        store: &'t Store,
        mut op: impl FnMut(&mut Client, &mut Txn<'t>) -> StoreResult<R>,
        abort: impl Fn(Txn<'t>) -> StoreResult<()>,
    ) -> StoreResult<(Txn<'t>, R)> {
        self.writes += 1;
        loop {
            let mut txn = store.txns.begin(ActionIdentity::Transaction);
            match op(self, &mut txn) {
                Ok(r) => return Ok((txn, r)),
                Err(StoreError::LockFailed { .. }) => {
                    self.retries += 1;
                    abort(txn)?;
                }
                Err(e) => {
                    let _ = abort(txn);
                    return Err(e);
                }
            }
        }
    }

    /// Publish a commit (locks released at log append) into the pipeline.
    pub fn publish<'t>(
        &mut self,
        pipe: &mut Pipe<'t>,
        txn: Txn<'t>,
        start_ns: u64,
        tag: Option<u64>,
        user_bytes: u64,
    ) {
        let commit = self.call(Layer::Txn, Lat::Publish, "txn.commit_publish", || {
            txn.commit_publish()
        });
        pipe.q.push_back(Inflight {
            commit,
            start_ns,
            tag,
            user_bytes,
        });
    }

    /// Acknowledge every commit at the pipeline's front that is already
    /// durable, then block on the oldest while more than `keep` remain.
    /// A write completes at its acknowledgement; the tags of acknowledged
    /// tagged writes go to `pipe.acked`.
    pub fn settle(&mut self, pipe: &mut Pipe<'_>, keep: usize) {
        while let Some(front) = pipe.q.front() {
            if pipe.q.len() <= keep && !front.commit.is_durable() {
                break;
            }
            let f = pipe.q.pop_front().expect("non-empty pipeline");
            let r = self.call(Layer::Txn, Lat::AckWait, "txn.wait_durable", || {
                f.commit.wait_durable()
            });
            match r {
                Ok(_) => {
                    self.complete(Class::WriteAck, f.start_ns);
                    self.acked += 1;
                    self.user_bytes += f.user_bytes;
                    pipe.acked.extend(f.tag);
                }
                Err(e) => self.fail(format!("commit ack: {e}")),
            }
        }
    }
}

pub struct Inflight<'t> {
    commit: PendingCommit<'t>,
    start_ns: u64,
    tag: Option<u64>,
    user_bytes: u64,
}

/// A client's commit pipeline.
#[derive(Default)]
pub struct Pipe<'t> {
    q: VecDeque<Inflight<'t>>,
    pub acked: Vec<u64>,
}

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the deadline; clients check [`Phase::go`].
    Time(Duration),
    /// Until every client has done its fixed op count.
    Ops,
}

/// Shared view of a running measured phase.
pub struct Phase {
    stop: AtomicBool,
}

impl Phase {
    /// Whether a time-bound client should start another op.
    pub fn go(&self) -> bool {
        !self.stop.load(Ordering::Relaxed)
    }
}

/// Result of a measured phase.
pub struct PhaseRun {
    pub clients: Vec<Client>,
    pub elapsed_s: f64,
    /// Process CPU seconds (user + system) spent in the phase.
    pub cpu_s: f64,
    /// Seconds spent with tracing off / on.
    pub mode_s: [f64; 2],
}

impl PhaseRun {
    /// Windows every client completed.
    fn windows(&self) -> usize {
        self.clients
            .iter()
            .map(|c| c.windows.len())
            .min()
            .unwrap_or(0)
    }

    /// Whole-phase samples of layer call `lat`, sorted.
    fn calls(&self, lat: Lat) -> Samples {
        Samples::merge(self.clients.iter().map(|c| c.calls[lat as usize].clone()))
    }

    /// Completed ops per second: the median over whole windows, or over
    /// the whole phase when it spans fewer than three windows.
    fn ops_per_s(&self) -> f64 {
        let n = self.windows();
        if n < 3 {
            let ops: u64 = self.clients.iter().map(|c| c.ops).sum();
            return ops as f64 / self.elapsed_s;
        }
        let per_window = (0..n)
            .map(|w| {
                let ops: u64 = self.clients.iter().map(|c| c.windows[w].ops).sum();
                ops as f64 * 1e9 / WINDOW_NS as f64
            })
            .collect();
        report::median(per_window)
    }

    /// `<key>_p50_us` and `<key>_p99_us` of class `class`: the median over
    /// every client's windows of that window's exact percentile.
    fn class_latency(&self, m: &mut Metrics, key: &str, class: Class) {
        let n = self.windows();
        let stats: Vec<WinStat> = self
            .clients
            .iter()
            .flat_map(|c| c.windows[..n].iter().map(|w| w.stats[class as usize]))
            .collect();
        let total: usize = stats.iter().map(|s| s.n).sum();
        // The percentiles a typical window supports.
        let mut ns: Vec<usize> = stats.iter().map(|s| s.n).collect();
        ns.sort_unstable();
        let typical = ns.get(ns.len() / 2).copied().unwrap_or(0);
        m.samples
            .insert(key.to_string(), (total, Samples::tail_for(typical)));
        for (p, pick) in [
            (50, (|s: &WinStat| s.p50) as fn(&WinStat) -> Option<u32>),
            (99, |s| s.p99),
        ] {
            let vals: Vec<f64> = stats.iter().filter_map(pick).map(f64::from).collect();
            if !vals.is_empty() {
                m.set(format!("{key}_p{p}_us"), report::median(vals) / 1e3, "us");
            }
        }
    }
}

/// Run `CLIENTS` closed-loop clients until the budget is spent. In a
/// traced run, tracing alternates on and off every `TRACE_SLICE`.
pub fn run_phase<F>(ctx: &Ctx, budget: Budget, client: F) -> PhaseRun
where
    F: Fn(&mut Client, &Phase) + Sync,
{
    let phase = Phase {
        stop: AtomicBool::new(false),
    };
    let done = AtomicUsize::new(0);
    let start = Stopwatch::start();
    let start_ns = trace::now_ns();
    let cpu0 = report::process_cpu_s();
    let mut mode_s = [0.0; 2];
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (phase, done, client) = (&phase, &done, &client);
                s.spawn(move || {
                    let mut c = Client::new(id, ctx, start_ns);
                    client(&mut c, phase);
                    c.finish();
                    trace::finish_thread();
                    done.fetch_add(1, Ordering::SeqCst);
                    c
                })
            })
            .collect();
        let mut slice_start = Stopwatch::start();
        let mut traced = false;
        trace::set_tracing(false);
        while done.load(Ordering::SeqCst) < CLIENTS {
            std::thread::sleep(Duration::from_millis(2));
            if let Budget::Time(d) = budget {
                if start.elapsed_ns() >= d.as_nanos() as u64 {
                    phase.stop.store(true, Ordering::Relaxed);
                }
            }
            if ctx.trace && slice_start.elapsed_ns() >= TRACE_SLICE.as_nanos() as u64 {
                mode_s[traced as usize] += secs(&slice_start);
                slice_start = Stopwatch::start();
                traced = !traced;
                trace::set_tracing(traced);
            }
        }
        mode_s[traced as usize] += secs(&slice_start);
        trace::set_tracing(false);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    PhaseRun {
        clients,
        elapsed_s: secs(&start),
        cpu_s: report::process_cpu_s() - cpu0,
        mode_s,
    }
}

/// Insert `n` records through the public transaction path: batches of
/// `PRELOAD_BATCH` inserts per transaction, commits pipelined `PIPELINE`
/// deep, then every commit acknowledged.
pub fn preload(
    store: &Store,
    n: u64,
    mut put: impl FnMut(&mut Txn<'_>, u64) -> StoreResult<()>,
) -> StoreResult<()> {
    let mut pending: VecDeque<PendingCommit<'_>> = VecDeque::new();
    let mut i = 0;
    while i < n {
        let mut txn = store.txns.begin(ActionIdentity::Transaction);
        for k in i..(i + PRELOAD_BATCH).min(n) {
            put(&mut txn, k)?;
        }
        i += PRELOAD_BATCH;
        pending.push_back(txn.commit_publish());
        if pending.len() > PIPELINE {
            pending.pop_front().expect("non-empty").wait_durable()?;
        }
    }
    for p in pending {
        p.wait_durable()?;
    }
    Ok(())
}

/// Flush every dirty page and take a checkpoint, timed: the end of every
/// setup, and the fence the measured phase's log starts after.
pub fn flush_and_checkpoint(store: &Store) -> StoreResult<f64> {
    let t0 = Stopwatch::start();
    store.pool.flush_all()?;
    store.txns.checkpoint()?;
    Ok(secs(&t0))
}

/// Build the image `reps` times (each in a fresh directory) and keep the
/// last. Returns the image directory and the per-build timings.
pub fn setup_reps(
    ctx: &Ctx,
    name: &str,
    reps: usize,
    build: impl Fn(&std::path::Path) -> StoreResult<f64>,
) -> StoreResult<(PathBuf, Vec<f64>, Vec<f64>)> {
    let mut setup_secs = Vec::new();
    let mut flush_secs = Vec::new();
    let mut dir = PathBuf::new();
    for r in 0..reps {
        if r > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = ctx.work.join(format!("{name}-setup{r}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Stopwatch::start();
        let f = build(&dir)?;
        setup_secs.push(secs(&t0));
        flush_secs.push(f);
    }
    crate::io::sync_dir(&dir).map_err(|e| StoreError::Corrupt(format!("sync {dir:?}: {e}")))?;
    Ok((dir, setup_secs, flush_secs))
}

/// Pool frames for `percent`% of an image's `pages` data pages.
pub fn pool_for(pages: u64, percent: u64) -> usize {
    (pages * percent / 100).max(16) as usize
}

/// The recorder counters the benchmark reads.
pub const COUNTERS: [&str; 16] = [
    "buf.hits",
    "buf.misses",
    "buf.evictions",
    "buf.writebacks",
    "buf.shard_conflicts",
    "latch.waits",
    "wal.forces",
    "lock.waits",
    "lock.deadlocks",
    "tree.splits",
    "tree.consolidations",
    "tree.postings_done",
    "tree.side_traversals",
    "tree.no_wait_restarts",
    "tree.saved_path_hits",
    "tree.saved_path_misses",
];

pub type Counters = BTreeMap<&'static str, u64>;

pub fn counters(store: &Store) -> Counters {
    COUNTERS
        .iter()
        .map(|&n| (n, store.recorder().counter(n).get()))
        .collect()
}

pub fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Sum two counter sets (a workload over two stores).
pub fn sum(a: &Counters, b: &Counters) -> Counters {
    a.iter()
        .map(|(k, v)| (*k, v + b.get(k).copied().unwrap_or(0)))
        .collect()
}

/// I/O decorator snapshot: disk read, disk write, disk sync, log append.
pub fn io_snap(io: &IoStats) -> [IoSnap; 4] {
    [
        io.disk_read.snapshot(),
        io.disk_write.snapshot(),
        io.disk_sync.snapshot(),
        io.log_append.snapshot(),
    ]
}

/// Start the I/O ledger of a measured phase: keep per-call samples from
/// now on (traced runs only) and snapshot the counts.
pub fn begin_io(io: &IoStats, keep_samples: bool) -> [IoSnap; 4] {
    for c in [&io.disk_read, &io.disk_write, &io.disk_sync, &io.log_append] {
        c.take_samples();
    }
    io.keep_samples.store(keep_samples, Ordering::Relaxed);
    io_snap(io)
}

pub fn io_delta(after: [IoSnap; 4], before: [IoSnap; 4]) -> [IoSnap; 4] {
    [0, 1, 2, 3].map(|i| after[i].since(before[i]))
}

/// Seconds since `t` started.
pub fn secs(t: &Stopwatch) -> f64 {
    t.elapsed_ns() as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The metrics every workload reports from its measured phase.
pub struct Common<'a> {
    pub workload: &'static str,
    pub run: &'a PhaseRun,
    pub counters: &'a Counters,
    pub io: [IoSnap; 4],
    pub io_stats: &'a [&'a IoStats],
    pub setup_s: Vec<f64>,
    pub flush_ckpt_s: Vec<f64>,
    /// `store.db` bytes and live user key + value bytes at the end.
    pub db_bytes: u64,
    pub live_user_bytes: u64,
}

/// Fill `out` with the metrics every workload reports, and count the
/// phase's attempted and failed ops into it.
pub fn common_metrics(c: Common<'_>, out: &mut Outcome) {
    let run = c.run;
    let m = &mut out.metrics;
    let merged = |lat: Lat| run.calls(lat);
    let ops: u64 = run.clients.iter().map(|cl| cl.ops).sum();
    let failed: u64 = run.clients.iter().map(|cl| cl.failed).sum();
    let writes: u64 = run.clients.iter().map(|cl| cl.writes).sum();
    let retries: u64 = run.clients.iter().map(|cl| cl.retries).sum();
    let acked: u64 = run.clients.iter().map(|cl| cl.acked).sum();
    let user_bytes: u64 = run.clients.iter().map(|cl| cl.user_bytes).sum();
    let attempted: u64 = run.clients.iter().map(|cl| cl.attempted).sum();

    m.set("ops_per_s", run.ops_per_s(), "1/s");
    m.set("cpu_us_per_op", ratio(run.cpu_s * 1e6, ops as f64), "us");
    m.set("windows", run.windows() as f64, "count");
    for (key, class) in [
        ("get", Class::Get),
        ("scan", Class::Scan),
        ("write_ack", Class::WriteAck),
    ] {
        run.class_latency(m, key, class);
    }
    m.set("setup_s", report::median(c.setup_s), "s");
    m.set(
        "core.setup_flush_ckpt_s",
        report::median(c.flush_ckpt_s),
        "s",
    );
    m.set(
        "space_amp",
        ratio(c.db_bytes as f64, c.live_user_bytes as f64),
        "ratio",
    );
    let [rd, wr, sy, lg] = c.io;
    m.set(
        "write_amp",
        ratio((wr.bytes + lg.bytes) as f64, user_bytes as f64),
        "ratio",
    );
    m.set("rss_peak_mb", report::rss_peak_mb(), "MB");

    // pitree-pagestore
    let k = |n: &str| c.counters.get(n).copied().unwrap_or(0) as f64;
    let fetches = k("buf.hits") + k("buf.misses");
    m.set("buf.hit_ratio", ratio(k("buf.hits"), fetches), "ratio");
    m.set(
        "buf.misses_per_op",
        ratio(k("buf.misses"), ops as f64),
        "1/op",
    );
    m.set("buf.evictions", k("buf.evictions"), "count");
    m.set("buf.writebacks", k("buf.writebacks"), "count");
    m.set("buf.shard_conflicts", k("buf.shard_conflicts"), "count");
    m.set(
        "latch.waits_per_op",
        ratio(k("latch.waits"), ops as f64),
        "1/op",
    );
    let wall_ns = run.elapsed_s * 1e9;
    let io_samples =
        |f: &dyn Fn(&IoStats) -> Samples| Samples::merge(c.io_stats.iter().map(|s| f(s)));
    m.set("disk.reads", rd.calls as f64, "count");
    m.latency(
        "disk.read_us",
        &io_samples(&|s| s.disk_read.take_samples()),
        &[50, 99],
    );
    m.set("disk.read_busy_frac", ratio(rd.ns as f64, wall_ns), "ratio");
    m.set("disk.writes", wr.calls as f64, "count");
    m.latency(
        "disk.write_us",
        &io_samples(&|s| s.disk_write.take_samples()),
        &[50, 99],
    );
    m.set("disk.syncs", sy.calls as f64, "count");
    // pitree-wal
    m.set("wal.forces", k("wal.forces"), "count");
    m.latency(
        "wal.force_us",
        &io_samples(&|s| s.log_append.take_samples()),
        &[50, 99],
    );
    m.set("wal.force_busy_frac", ratio(lg.ns as f64, wall_ns), "ratio");
    m.set(
        "wal.bytes_per_op",
        ratio(lg.bytes as f64, ops as f64),
        "B/op",
    );
    m.set(
        "wal.commits_per_force",
        ratio(acked as f64, lg.calls as f64),
        "count",
    );
    // pitree-txnlock
    m.latency("txn.publish_us", &merged(Lat::Publish), &[50, 99]);
    m.latency("txn.ack_wait_us", &merged(Lat::AckWait), &[50, 99]);
    m.set(
        "txn.retries_per_write",
        ratio(retries as f64, writes as f64),
        "ratio",
    );
    m.set("lock.waits", k("lock.waits"), "count");
    m.set("lock.deadlocks", k("lock.deadlocks"), "count");
    // pitree (core)
    m.latency("core.get_us", &merged(Lat::CoreGet), &[50, 99]);
    m.latency("core.scan_us", &merged(Lat::CoreScan), &[50]);
    m.latency("core.insert_us", &merged(Lat::CoreInsert), &[50, 99]);
    m.latency("core.delete_us", &merged(Lat::CoreDelete), &[50]);
    m.set(
        "core.splits_per_kop",
        ratio(k("tree.splits") * 1e3, ops as f64),
        "1/kop",
    );
    m.set(
        "core.consolidations_per_kop",
        ratio(k("tree.consolidations") * 1e3, ops as f64),
        "1/kop",
    );
    m.set("core.postings_done", k("tree.postings_done"), "count");
    m.set("core.side_traversals", k("tree.side_traversals"), "count");
    m.set("core.no_wait_restarts", k("tree.no_wait_restarts"), "count");
    let sp = k("tree.saved_path_hits") + k("tree.saved_path_misses");
    m.set(
        "core.saved_path_hit_ratio",
        ratio(k("tree.saved_path_hits"), sp),
        "ratio",
    );
    // pitree-tsb / pitree-hb call timings
    m.latency("tsb.get_as_of_us", &merged(Lat::TsbGet), &[50, 99]);
    m.latency("tsb.scan_as_of_us", &merged(Lat::TsbScan), &[50]);
    m.latency("tsb.put_us", &merged(Lat::TsbPut), &[50]);
    m.latency("hb.window_us", &merged(Lat::HbWindow), &[50, 99]);
    m.latency("hb.insert_us", &merged(Lat::HbInsert), &[50]);

    // Tracing overhead: traced against untraced throughput, same run.
    if run.mode_s[0] > 0.0 && run.mode_s[1] > 0.0 {
        let mode_ops = |i: usize| run.clients.iter().map(|cl| cl.mode_ops[i]).sum::<u64>() as f64;
        let plain = mode_ops(0) / run.mode_s[0];
        let traced = mode_ops(1) / run.mode_s[1];
        m.set("trace.overhead_frac", 1.0 - ratio(traced, plain), "ratio");
    }
    out.attempted += attempted;
    out.failed += failed;
    for cl in &run.clients {
        for e in &cl.errors {
            eprintln!("{} client {}: {e}", c.workload, cl.id);
        }
    }
}

/// Per-layer self time as a share of op time, from the traced slices.
pub fn trace_metrics(spans: &[Vec<trace::Span>], m: &mut Metrics) -> Result<(), String> {
    let st = trace::self_times(spans);
    if st.ops == 0 {
        return Err("traced run recorded no op spans".into());
    }
    let mut sum = 0.0;
    for (i, l) in Layer::ALL.iter().enumerate() {
        let f = st.self_ns[i] as f64 / st.op_ns as f64;
        sum += f;
        m.set(format!("trace.{}.self_frac", l.name()), f, "ratio");
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(format!(
            "per-layer self times sum to {sum} of op time, not 1"
        ));
    }
    m.set("trace.ops", st.ops as f64, "count");
    Ok(())
}

/// Check a Π-tree read of preloaded key `k` with stamp `stamp`.
pub fn expect_value(
    c: &mut Client,
    what: &str,
    subject: &[u8],
    got: Option<&[u8]>,
    want_stamp: Option<u64>,
) {
    match got {
        None => c.fail(format!("{what}: {subject:?} missing")),
        Some(v) => match (crate::gen::stamp_of(subject, v), want_stamp) {
            (None, _) => c.fail(format!("{what}: {subject:?} has a malformed value")),
            (Some(s), Some(w)) if s != w => {
                c.fail(format!("{what}: {subject:?} stamp {s}, want {w}"))
            }
            _ => {}
        },
    }
}

/// Abort closure for Π-tree write transactions (logical undo through the
/// tree).
pub fn pi_abort<'t>(tree: &'t PiTree) -> impl Fn(Txn<'t>) -> StoreResult<()> + 't {
    move |txn: Txn<'t>| txn.abort(Some(&tree.undo_handler()))
}
