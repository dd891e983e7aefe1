//! Small shared helpers: seeded input generation, order statistics,
//! record digests, process memory readings and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use vulnstack_core::journal::fnv1a64;

/// SplitMix64: the benchmark's only source of generated inputs, so one
/// `--seed` fixes every site set and arrival schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A campaign seed derived from the workload seed and a stable label,
/// so each campaign of a workload draws its own sites. Kept below 2^53
/// so it survives the daemon's JSON numbers exactly.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    Rng::new(seed ^ fnv1a64(label.as_bytes())).next_u64() >> 11
}

/// FNV-1a over a record stream: each payload followed by `\n`, in site
/// (sampling) order.
pub fn digest<'a>(payloads: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut text = String::new();
    for p in payloads {
        text.push_str(p);
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `x / base`, or 0 when the base is empty.
pub fn ratio(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        x / base
    }
}

/// A `/proc/<pid>/status` field in MiB (`VmHWM` is the peak resident
/// set, `VmRSS` the current one).
pub fn proc_mib(pid: Option<u32>, field: &str) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with(&format!("{field}:")))
        .ok_or_else(|| format!("{path} has no {field}"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {field} line in {path}: {line}"))?;
    Ok(kib / 1024.0)
}

/// A scratch directory under `.bench_state/` in the working directory
/// (the checkout root), removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir = PathBuf::from(".bench_state").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metric list a run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// The final stdout line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
