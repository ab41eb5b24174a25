//! Timing samples, in-memory spans, and process figures.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All samples of several sets.
    pub fn merged<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Samples {
        Samples {
            values: sets
                .into_iter()
                .flat_map(|s| s.values.iter().copied())
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The `q`-quantile (0..=1) by linear interpolation between the
    /// closest ranks; 0 when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => 0.0,
            n => {
                let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
            }
        }
    }

    /// How many samples lie strictly above the `q`-quantile: a tail
    /// percentile is only reported when at least ten do.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|v| **v > cut).count()
    }
}

/// Spans the benchmark records around its own calls into each layer.
/// Kept in memory and summarised when the run ends; the platform's own
/// tracer is left as it is.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Samples>,
}

impl Spans {
    /// Runs `f` under a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.by_name.entry(name).or_default().push(d);
    }

    pub fn record_ms(&mut self, name: &'static str, ms: f64) {
        self.by_name.entry(name).or_default().push_ms(ms);
    }

    /// Samples of one span name (empty when the layer never ran).
    pub fn get(&self, name: &str) -> Samples {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// One line per span name: calls, p50 and mean.
    pub fn summary(&self) -> Vec<String> {
        self.by_name
            .iter()
            .map(|(name, s)| {
                format!(
                    "span {name}: calls={} p50_ms={:.4} mean_ms={:.4}",
                    s.len(),
                    s.quantile(0.5),
                    s.mean()
                )
            })
            .collect()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Ratio that reads 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// 64-bit FNV-1a digest, for comparing outputs without keeping them.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Median of a few set-up timings.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}
