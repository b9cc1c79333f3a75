//! Process counters, summary statistics and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Linux reports `/proc/self/stat` CPU times in USER_HZ ticks, which is
/// 100 on every mainstream kernel configuration.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Wall and CPU time of a timed phase, giving `proc.cpu_share`.
pub struct CpuWindow {
    wall: Instant,
    cpu: f64,
}

impl CpuWindow {
    /// Starts the window now.
    pub fn start() -> Self {
        CpuWindow {
            wall: Instant::now(),
            cpu: cpu_secs(),
        }
    }

    /// (utime + stime) / (wall × nproc) since the window started.
    pub fn share(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        (cpu_secs() - self.cpu) / (wall * nproc() as f64)
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a over `bytes`: the outcome digests the correctness gates compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Metrics of one run, named as in `BENCHMARK.json`, plus the operation
/// counts and correctness verdict the result line carries.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// The workload's own names for its headline figures (for example
    /// `guesses_per_s`), printed beside the result line.
    pub named: Vec<(&'static str, f64)>,
    /// Operations attempted (attacks, training calls or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness gate failures, each naming the workload.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Sets metric `name`; its unit comes from the list passed to
    /// [`Report::only`].
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), (value, ""));
    }

    /// Records a headline figure under its workload-specific name.
    pub fn named(&mut self, name: &'static str, value: f64) {
        self.named.push((name, value));
    }

    /// Keeps exactly the metrics in `wanted`, reporting 0 (in the listed
    /// unit) for any the workload did not measure.
    #[must_use]
    pub fn only(mut self, wanted: &[(&str, &'static str)]) -> Report {
        let metrics = wanted
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).map_or(0.0, |&(v, _)| v);
                (name.to_string(), (value, unit))
            })
            .collect();
        self.metrics = metrics;
        self
    }

    /// Records a correctness failure unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn report_line_has_exactly_the_four_keys() {
        let mut report = Report::default();
        report.set("setup_s", 1.5);
        report.set("unlisted", 2.0);
        report.attempted = 3;
        let report = report.only(&[("setup_s", "s")]);
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn proc_counters_read_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() > 0.0);
            let spin = Instant::now();
            while spin.elapsed().as_millis() < 30 {}
            assert!(cpu_secs() > 0.0);
        }
    }
}
