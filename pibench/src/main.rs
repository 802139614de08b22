//! The Π-tree benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path pibench/Cargo.toml -- \
//!     --workload <read-cold|update-cold|storm-hot|family> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop of two client threads against the
//! repository's crates, seen only through their public APIs. The inputs
//! are a pure function of `--seed`; every answer is checked. Work files go
//! to `.pibench/` under the current directory.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace
//! 1` reports the per-layer metrics: calls into each layer timed from
//! outside, layer counters, host calibration, and per-layer self time from
//! spans recorded while tracing alternates on and off in 200 ms slices
//! (which also gives the tracing overhead).
//!
//! The last line of standard output is the result object; the line before
//! it carries every measured value with the sample count behind each
//! percentile. Exit codes: 0 success; 1 a wrong answer or failed op (the
//! result is still printed); 2 bad arguments or an error before any
//! result; 3 a workload's counters broke its own design (nothing printed).

mod gen;
mod host;
mod io;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

/// Metrics of a `--trace 0` run: what a user of the store sees. Each is
/// measured on every workload and repeats from run to run on a shared
/// host; throughput does not (it follows the host's fsync latency on the
/// write workloads) and is reported with the per-layer metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_us_per_op", "us"),
    ("get_p50_us", "us"),
    ("setup_s", "s"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Metrics of a `--trace 1` run. A figure of a layer or op type a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end figures too unsteady on a shared host to gate (see
    // CHANGES.md for the measured spreads), or of op types only some
    // workloads have.
    ("ops_per_s", "1/s"),
    ("get_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("write_ack_p50_us", "us"),
    ("write_ack_p99_us", "us"),
    ("restart_first_op_ms", "ms"),
    ("restart_full_ms", "ms"),
    ("write_amp", "ratio"),
    ("failed_op_frac", "ratio"),
    // pitree-pagestore
    ("buf.hit_ratio", "ratio"),
    ("buf.misses_per_op", "1/op"),
    ("buf.evictions", "count"),
    ("buf.writebacks", "count"),
    ("buf.shard_conflicts", "count"),
    ("latch.waits_per_op", "1/op"),
    ("disk.reads", "count"),
    ("disk.read_us_p50", "us"),
    ("disk.read_us_p99", "us"),
    ("disk.read_busy_frac", "ratio"),
    ("disk.writes", "count"),
    ("disk.write_us_p50", "us"),
    ("disk.write_us_p99", "us"),
    ("disk.syncs", "count"),
    // pitree-wal
    ("wal.forces", "count"),
    ("wal.force_us_p50", "us"),
    ("wal.force_us_p99", "us"),
    ("wal.force_busy_frac", "ratio"),
    ("wal.bytes_per_op", "B/op"),
    ("wal.commits_per_force", "count"),
    ("recovery.instant_open_ms", "ms"),
    ("recovery.drive_ms", "ms"),
    ("recovery.redo_pages", "count"),
    ("recovery.on_demand_redos", "count"),
    ("recovery.log_bytes_since_ckpt", "B"),
    // pitree-txnlock
    ("txn.publish_us_p50", "us"),
    ("txn.publish_us_p99", "us"),
    ("txn.ack_wait_us_p50", "us"),
    ("txn.ack_wait_us_p99", "us"),
    ("txn.retries_per_write", "ratio"),
    ("lock.waits", "count"),
    ("lock.deadlocks", "count"),
    // pitree (core)
    ("core.get_us_p50", "us"),
    ("core.get_us_p99", "us"),
    ("core.scan_us_p50", "us"),
    ("core.insert_us_p50", "us"),
    ("core.insert_us_p99", "us"),
    ("core.delete_us_p50", "us"),
    ("core.setup_flush_ckpt_s", "s"),
    ("core.splits_per_kop", "1/kop"),
    ("core.consolidations_per_kop", "1/kop"),
    ("core.postings_done", "count"),
    ("core.side_traversals", "count"),
    ("core.no_wait_restarts", "count"),
    ("core.saved_path_hit_ratio", "ratio"),
    // pitree-tsb
    ("tsb.get_as_of_us_p50", "us"),
    ("tsb.get_as_of_us_p99", "us"),
    ("tsb.scan_as_of_us_p50", "us"),
    ("tsb.put_us_p50", "us"),
    ("tsb.splits", "count"),
    // pitree-hb
    ("hb.window_us_p50", "us"),
    ("hb.window_us_p99", "us"),
    ("hb.insert_us_p50", "us"),
    ("hb.fetches_per_result", "ratio"),
    ("hb.splits", "count"),
    // host calibration
    ("host.fsync_4k_us", "us"),
    ("host.pread_4k_us", "us"),
    ("host.memcpy_gbps", "GB/s"),
    // traced run: self time per layer as a share of op time
    ("trace.bench.self_frac", "ratio"),
    ("trace.core.self_frac", "ratio"),
    ("trace.txn.self_frac", "ratio"),
    ("trace.disk.self_frac", "ratio"),
    ("trace.log.self_frac", "ratio"),
    ("trace.tsb.self_frac", "ratio"),
    ("trace.hb.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: [&str; 4] = ["read-cold", "update-cold", "storm-hot", "family"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            work: PathBuf::from(".pibench"),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pibench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("pibench: work dir {:?}: {e}", ctx.work);
        return ExitCode::from(2);
    }
    let host = if ctx.trace {
        match host::calibrate(&ctx.work) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("pibench: host calibration: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let result = match args.workload.as_str() {
        "read-cold" => workloads::read_cold::run(ctx),
        "update-cold" => workloads::update_cold::run(ctx),
        "storm-hot" => workloads::storm_hot::run(ctx),
        _ => workloads::family::run(ctx),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pibench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(h) = host {
        h.report(&mut out.metrics);
    }
    // Every op a workload attempted, its measured phase and its checks.
    out.metrics.set(
        "failed_op_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if ctx.trace {
        let spans = trace::collect();
        if let Err(e) = workloads::trace_metrics(&spans, &mut out.metrics) {
            eprintln!("pibench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
        let path = ctx.work.join(format!("spans-{}.tsv", args.workload));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("pibench: writing {path:?}: {e}");
            return ExitCode::from(2);
        }
    }
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("pibench: {}: design violated: {v}", args.workload);
        }
        return ExitCode::from(3);
    }
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    match report::result_line(&out.metrics, names, ctx.trace, out.attempted, out.failed) {
        Ok(line) => {
            println!("{}", report::detail_line(&args.workload, &out.metrics));
            println!("{line}");
            if out.failed > 0 {
                eprintln!("pibench: {}: {} failed ops", args.workload, out.failed);
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pibench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics (names and units) and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str, next: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_string()
        };
        let metrics = |s: &str| -> Vec<(String, String)> {
            s.split("{\"name\": \"")
                .skip(1)
                .map(|m| {
                    let name = m.split('"').next().expect("name").to_string();
                    let unit = m.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit.split('"').next().expect("unit").to_string())
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            metrics(&section("end_to_end", "per_layer")),
            own(END_TO_END)
        );
        assert_eq!(
            metrics(&section("per_layer", "run_seconds")),
            own(PER_LAYER)
        );
        let wl = section("workloads", "end_to_end");
        let names: Vec<&str> = wl
            .split("{\"name\": \"")
            .skip(1)
            .map(|m| m.split('"').next().expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
