//! Sample summaries, host memory, and the identity of the measured code.

use std::io;
use std::path::Path;

/// Percentiles considered for the tail, highest last.
const TAIL_PERCENTILES: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

/// A timing reported as its median and the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    /// `(percentile, value)`; `None` with fewer than 11 samples.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`, in which a larger value is the worse tail when
    /// `high_is_worse`, the smaller one otherwise.
    pub fn of(samples: &[f64], high_is_worse: bool) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if !high_is_worse {
            v.reverse();
        }
        let n = v.len();
        let median = if n == 0 {
            f64::NAN
        } else if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let tail = TAIL_PERCENTILES
            .iter()
            .rev()
            .map(|&p| (p, ((p * n as f64).ceil() as usize).max(1)))
            .find(|&(_, rank)| n >= rank + 10)
            .map(|(p, rank)| (p, v[rank - 1]));
        Summary { median, tail, n }
    }

    /// `{"median":..,"p90":..,"n":..}` (the tail key only when it exists;
    /// `null` median without samples).
    pub fn json(&self) -> String {
        let tail = self.tail.map_or(String::new(), |(p, v)| {
            format!(",\"p{}\":{v}", (p * 100.0).round())
        });
        let median = if self.median.is_finite() {
            self.median.to_string()
        } else {
            "null".to_string()
        };
        format!("{{\"median\":{median}{tail},\"n\":{}}}", self.n)
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Reset the peak-resident mark to the current resident size, so the peak
/// read later covers only what ran after this call.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Identity of the measured code: a hash of the simulator sources and
/// manifests. The benchmark runs from a plain source tree, so this stands in
/// for the commit.
pub fn source_id(root: &Path) -> io::Result<String> {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates"] {
        collect(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let bytes = std::fs::read(f)?;
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("src-{h:016x}"))
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    if p.is_dir() {
        for e in std::fs::read_dir(p)? {
            collect(&e?.path(), out)?;
        }
    } else if p.is_file() {
        out.push(p.to_path_buf());
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
