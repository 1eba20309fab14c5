//! Percentiles, process counters and the result line.

use std::fmt::Write as _;

/// Quantile `q` (in [0, 1]) of an ascending slice: the mean of the
/// samples ranked within half a percentile point of `q`. Averaging a
/// narrow window keeps the estimate continuous where timer quantisation
/// makes many samples tie.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let last = (n - 1) as f64;
    let lo = ((q - 0.005).max(0.0) * last).floor() as usize;
    let hi = ((q + 0.005).min(1.0) * last).ceil() as usize;
    let window = &sorted[lo..=hi.min(n - 1)];
    window.iter().map(|&v| v as f64).sum::<f64>() / window.len() as f64
}

/// `(p50, p99)` of unsorted samples, sorting them in place.
pub fn p50_p99(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (quantile(samples, 0.50), quantile(samples, 0.99))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Whole-process resource counters: every thread, live or exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn add(&mut self, other: Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.minflt += other.minflt;
        self.ctx_switches += other.ctx_switches;
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// The counters `/proc/self/stat` reports (utime, stime, minflt), read
/// through `getrusage(RUSAGE_SELF)` for microsecond resolution and for
/// context switches summed over all threads (`/proc/self/status` only
/// counts the main thread's).
pub fn usage() -> Usage {
    let mut ru = std::mem::MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `RUsage` matches the 64-bit Linux `struct rusage` layout
    // and the pointer is valid for writes of that size.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    if rc != 0 {
        return Usage::default();
    }
    // SAFETY: zero-initialised, then filled by a successful getrusage.
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        minflt: ru.minflt as u64,
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// `name=value` pairs, space-separated, for an informational line.
    pub fn pairs(&self) -> String {
        let pairs: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, _)| format!("{n}={v:.6}"))
            .collect();
        pairs.join(" ")
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_averages_a_one_percent_window() {
        let v: Vec<u64> = (0..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 1.0), 997.5);
        assert_eq!(quantile(&[10, 20, 30, 40], 0.5), 25.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("x", f64::NAN, "count");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
