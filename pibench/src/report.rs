//! Exact latency percentiles from raw samples, the metric table each
//! workload fills, and the result line.

use std::collections::BTreeMap;

/// Raw per-op samples (nanoseconds, saturating at `u32::MAX`, 4.3 s).
/// Percentiles are exact order statistics (nearest rank), not histogram
/// buckets, so a 15% change at p50 shows as a 15% change.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u32>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn merge(parts: impl IntoIterator<Item = Samples>) -> Samples {
        let mut all = Vec::new();
        for p in parts {
            all.extend(p.0);
        }
        all.sort_unstable();
        Samples(all)
    }

    /// Nearest-rank percentile `q` (0–100) of sorted samples, in ns.
    pub fn pct(&self, q: f64) -> Option<u32> {
        debug_assert!(self.0.windows(2).all(|w| w[0] <= w[1]), "merge sorts");
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        Some(self.0[rank.clamp(1, n) - 1])
    }

    /// The highest of p99.99/p99.9/p99/p95/p90/p50 with at least ten
    /// samples beyond it.
    pub fn supported_tail(&self) -> Option<f64> {
        Samples::tail_for(self.0.len())
    }

    /// The highest percentile `n` samples support (see `supported_tail`).
    pub fn tail_for(n: usize) -> Option<f64> {
        [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
            .into_iter()
            .find(|q| n as f64 * (1.0 - q / 100.0) >= 10.0)
    }
}

/// One workload's metrics, by name, with units; plus the sample count
/// and supported tail behind every percentile.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
    pub samples: BTreeMap<String, (usize, Option<f64>)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Percentiles `pcts` of raw samples, in µs: `get` gives `get_p50_us`,
    /// and a key that already names its unit, `disk.read_us`, gives
    /// `disk.read_us_p50`. A percentile is reported only when at least ten
    /// samples lie beyond it; with fewer the metric is left out (and the
    /// run fails if it is one it must report).
    pub fn latency(&mut self, key: &str, s: &Samples, pcts: &[u32]) {
        self.samples
            .insert(key.to_string(), (s.len(), s.supported_tail()));
        for &p in pcts {
            let enough = s.len() as f64 * (1.0 - p as f64 / 100.0) >= 10.0;
            if let (true, Some(ns)) = (enough, s.pct(p as f64)) {
                let name = match key.strip_suffix("_us") {
                    Some(_) => format!("{key}_p{p}"),
                    None => format!("{key}_p{p}_us"),
                };
                self.set(name, ns as f64 / 1e3, "us");
            }
        }
    }
}

/// Render the result line for `names` (metric name, unit). A name the
/// workload did not measure is reported as 0 when `zero_if_absent` (a
/// per-layer figure of a layer the workload does not load) and is an
/// error otherwise.
pub fn result_line(
    m: &Metrics,
    names: &[(&str, &str)],
    zero_if_absent: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in names {
        let v = match m.values.get(name) {
            Some(&(v, u)) => {
                if u != unit {
                    return Err(format!("metric {name} measured in {u}, declared {unit}"));
                }
                v
            }
            None if zero_if_absent => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        parts.join(", ")
    ))
}

/// Every measured value plus sample counts, for the log line before the
/// result.
pub fn detail_line(workload: &str, m: &Metrics) -> String {
    let vals: Vec<String> = m
        .values
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": [{v}, \"{u}\"]"))
        .collect();
    let samples: Vec<String> = m
        .samples
        .iter()
        .map(|(k, (n, tail))| {
            let tail = tail.map_or("null".to_string(), |t| format!("{t}"));
            format!("\"{k}\": {{\"n\": {n}, \"highest_supported_pct\": {tail}}}")
        })
        .collect();
    format!(
        "{{\"detail\": {{\"workload\": \"{workload}\", \"values\": {{{}}}, \"samples\": {{{}}}}}}}",
        vals.join(", "),
        samples.join(", ")
    )
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks/s).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime is the
            // 14th field overall, the 12th after it.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Median of a small set of measurements.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let s = Samples::merge([Samples((1..=1000).rev().collect())]);
        assert_eq!(s.pct(50.0), Some(500));
        assert_eq!(s.pct(99.0), Some(990));
        assert_eq!(s.pct(100.0), Some(1000));
        assert_eq!(s.supported_tail(), Some(99.0));
        let mut m = Metrics::default();
        m.latency("get", &s, &[50, 99]);
        assert_eq!(m.get("get_p99_us"), Some(0.99));
        let small = Samples::merge([Samples((1..=500).collect())]);
        let mut m = Metrics::default();
        m.latency("get", &small, &[50, 99]);
        assert_eq!(
            m.get("get_p99_us"),
            None,
            "p99 of 500 samples has 5 beyond it"
        );
        assert_eq!(m.get("get_p50_us"), Some(0.25));
    }
}
