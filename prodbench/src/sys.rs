//! Process and host probes, percentile and median helpers, and JSON text.

use o2pc_common::Histogram;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process (every thread, user + system, including
/// threads that have exited), seconds, at nanosecond resolution.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, the only target this benchmark builds for), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".into())
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile of a [`Histogram`], interpolated inside its bucket.
///
/// `Histogram::quantile` returns the lower bound of the bucket holding the
/// quantile, so two runs whose true percentiles differ by less than a bucket
/// (1/64 of an octave) read the same. The rank's position inside the bucket
/// is recovered by bisecting `quantile` for the bucket's first and last
/// ranks and is spread linearly over the bucket's width.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let lo = h.quantile(q);
    // Bucket width: 1 below 64, then 64 sub-buckets per power of two.
    let width = if lo < 64 {
        1.0
    } else {
        (1u64 << (63 - lo.leading_zeros() - 6)) as f64
    };
    // Smallest quantile that still lands in this bucket, and the smallest
    // one past it.
    let (mut a, mut b) = (0.0f64, q);
    for _ in 0..48 {
        let m = (a + b) / 2.0;
        if h.quantile(m) >= lo {
            b = m;
        } else {
            a = m;
        }
    }
    let first = b;
    let (mut a, mut b) = (q, 1.0f64);
    if h.quantile(1.0) == lo {
        b = 1.0 + f64::EPSILON;
    } else {
        for _ in 0..48 {
            let m = (a + b) / 2.0;
            if h.quantile(m) > lo {
                b = m;
            } else {
                a = m;
            }
        }
    }
    let past = b;
    let frac = ((q - first) / (past - first).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
    lo as f64 + frac * width
}

/// Exact quantile of a sample (nearest rank), 0 when empty.
pub fn sample_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with every digit Rust prints, non-finite
/// values as 0 (JSON has no NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = 1_000.0 + q * 1_000.0;
            let got = hist_quantile(&h, q);
            assert!((got - exact).abs() <= 16.0, "q={q}: {got} vs {exact}");
        }
    }

    #[test]
    fn sample_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(sample_quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
