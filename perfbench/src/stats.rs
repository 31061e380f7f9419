//! Exact order statistics, digests, and the host-speed probe.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
/// Exact: the value is one of the samples, never a bucket bound.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency summary of one set of per-op samples (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Latency {
    pub fn of(samples_ms: &[f64]) -> Latency {
        let mut v = samples_ms.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            count: v.len(),
            p50: percentile(&v, 0.50),
            p99: percentile(&v, 0.99),
        }
    }
}

/// FNV-1a over a byte stream, used for the input and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash the exact bit pattern of a float.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.value()
}

/// Peak resident set size of this process in MB (`VmHWM`) less the host
/// probe's ring, or 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0 - RING_MB)
        .unwrap_or(0.0)
}

/// Host-speed probes. A shared host alternates, for seconds to minutes
/// at a time, between full speed and states up to 1.9x slower for
/// allocation- and pointer-heavy code like the program's (other tenants
/// contend for the same cores, caches and memory). A fixed piece of the
/// benchmark's own work of that kind is timed at most every
/// [`Speedometer::EVERY`], and each op's time is scaled by
/// [`Speedometer::NOMINAL_NS`] over the probe in force when it ran: the
/// time the op would take on a host where the probe takes its nominal
/// time. The probe runs none of the program's code, so a change to the
/// program moves the op times and not the probe. The probe in force is
/// the median of the last [`Speedometer::WINDOW`] probes, so one probe
/// that an interrupt lengthened does not distort the ops after it.
#[derive(Debug)]
pub struct Speedometer {
    last: Option<(Instant, u64)>,
    probes: Vec<u64>,
    names: Vec<String>,
}

/// Entries of the probe's ring: 4 MB of `u32`, more than a core's own
/// caches hold.
const RING: usize = 1 << 20;

/// The probe's ring, built once per process: a single cycle through every
/// slot in a seeded order (Sattolo's shuffle), so the walk cannot be
/// prefetched.
fn ring() -> &'static [u32] {
    static RING_SLOTS: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    RING_SLOTS.get_or_init(|| {
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        for k in (1..RING).rev() {
            ring.swap(k, (crate::splitmix64(k as u64) % k as u64) as usize);
        }
        ring
    })
}

/// The probe ring's share of the process's resident memory, MB.
pub const RING_MB: f64 = (RING * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0);

impl Default for Speedometer {
    fn default() -> Self {
        Speedometer::new()
    }
}

/// A value of the probe's toy interpreter.
#[derive(Clone)]
enum ProbeValue {
    Real(f64),
    Int(i64),
    Text(String),
}

/// An expression of the probe's toy interpreter.
enum ProbeExpr {
    Num(f64),
    Var(usize),
    Add(Box<ProbeExpr>, Box<ProbeExpr>),
    Mul(Box<ProbeExpr>, Box<ProbeExpr>),
}

fn probe_tree(depth: u32, key: &mut u64) -> ProbeExpr {
    *key = crate::splitmix64(*key);
    if depth == 0 {
        return if key.is_multiple_of(2) {
            ProbeExpr::Num((*key % 100) as f64)
        } else {
            ProbeExpr::Var((*key % 40) as usize)
        };
    }
    let (a, b) = (
        Box::new(probe_tree(depth - 1, key)),
        Box::new(probe_tree(depth - 1, key)),
    );
    if key.is_multiple_of(2) {
        ProbeExpr::Add(a, b)
    } else {
        ProbeExpr::Mul(a, b)
    }
}

fn probe_eval(e: &ProbeExpr, env: &BTreeMap<String, ProbeValue>, names: &[String]) -> f64 {
    match e {
        ProbeExpr::Num(x) => *x,
        ProbeExpr::Var(i) => match env.get(&names[*i]) {
            Some(ProbeValue::Real(f)) => *f,
            Some(ProbeValue::Int(i)) => *i as f64,
            Some(ProbeValue::Text(s)) => s.len() as f64,
            None => 0.0,
        },
        ProbeExpr::Add(a, b) => probe_eval(a, env, names) + probe_eval(b, env, names),
        ProbeExpr::Mul(a, b) => probe_eval(a, env, names) * probe_eval(b, env, names) * 0.5,
    }
}

impl Speedometer {
    pub const EVERY: Duration = Duration::from_millis(50);
    /// Probes whose median is in force.
    pub const WINDOW: usize = 5;
    /// The probe's time at full speed on the 2-CPU Xeon host the bounds
    /// were set on.
    pub const NOMINAL_NS: f64 = 340_000.0;

    pub fn new() -> Speedometer {
        ring();
        Speedometer {
            last: None,
            probes: Vec::new(),
            names: (0..40).map(|i| format!("VAR_{i}_NAME")).collect(),
        }
    }

    /// Probe now; returns the probe in force, in ns.
    pub fn probe(&mut self) -> u64 {
        let ns = self.work_ns();
        self.probes.push(ns);
        let recent = &self.probes[self.probes.len().saturating_sub(Self::WINDOW)..];
        let in_force = median(&recent.iter().map(|&p| p as f64).collect::<Vec<_>>()) as u64;
        self.last = Some((Instant::now(), in_force));
        in_force
    }

    /// One probe, in ns: the geometric mean of three timed pieces of
    /// work. One is a toy tree-walking interpreter over a string-keyed
    /// environment plus a burst of small allocations (like the front end
    /// and the evaluator); one a toy event walk over a hashed memo with a
    /// random stream (like the simulator); one a dependent walk through a
    /// ring larger than the core's own caches (like the simulator's large
    /// machines), which feels the shared cache's contention.
    fn work_ns(&self) -> u64 {
        let walker = self.walker_ns() as f64;
        let events = Self::events_ns() as f64;
        let memory = self.memory_ns() as f64;
        (walker * events * memory).cbrt() as u64
    }

    fn memory_ns(&self) -> u64 {
        let t = Instant::now();
        let ring = ring();
        let mut at = 0u32;
        for _ in 0..4_000 {
            at = ring[at as usize];
        }
        std::hint::black_box(at);
        t.elapsed().as_nanos() as u64
    }

    fn events_ns() -> u64 {
        let t = Instant::now();
        let mut memo: HashMap<(u8, u64, usize), f64> = HashMap::new();
        let mut x = 0x0139_408D_CBBF_7A44u64;
        let (mut clock, mut trace) = (0.0f64, Vec::new());
        for i in 0..6000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ((i % 7) as u8, x % 64, i % 13);
            let base = *memo
                .entry(key)
                .or_insert_with(|| (key.1 as f64).sqrt() * 1e-6);
            let jitter = (x >> 11) as f64 / (1u64 << 53) as f64;
            clock = clock.max(base * (1.0 + 0.05 * jitter)) + base;
            if i % 4 == 0 {
                trace.push(clock);
            }
        }
        std::hint::black_box(trace.iter().sum::<f64>());
        t.elapsed().as_nanos() as u64
    }

    fn walker_ns(&self) -> u64 {
        let t = Instant::now();
        let mut env = BTreeMap::new();
        for (i, n) in self.names.iter().enumerate() {
            let v = match i % 3 {
                0 => ProbeValue::Text(n.clone()),
                1 => ProbeValue::Real(i as f64),
                _ => ProbeValue::Int(i as i64),
            };
            env.insert(n.clone(), v);
        }
        let mut key = 7u64;
        let mut sum = 0.0;
        for _ in 0..12 {
            let e = probe_tree(6, &mut key);
            let scope = env.clone();
            sum += probe_eval(&e, &scope, &self.names);
        }
        let mut map = BTreeMap::new();
        for i in 0..500u64 {
            map.insert(crate::splitmix64(i) % 10_007, vec![i; 4]);
        }
        std::hint::black_box((sum, map.values().map(Vec::len).sum::<usize>()));
        t.elapsed().as_nanos() as u64
    }

    /// The latest probe, refreshed when older than [`Self::EVERY`].
    pub fn current(&mut self) -> u64 {
        match self.last {
            Some((at, ns)) if at.elapsed() < Self::EVERY => ns,
            _ => self.probe(),
        }
    }

    pub fn probes(&self) -> &[u64] {
        &self.probes
    }
}

/// `value` (a time) scaled to a host where the probe takes its nominal
/// time.
pub fn normalized(value: f64, probe_ns: u64) -> f64 {
    value * Speedometer::NOMINAL_NS / probe_ns.max(1) as f64
}

/// A note on the host's speed during the run, with the raw throughput.
pub fn speed_note(probes: &[u64], ops: usize, window_s: f64) -> String {
    let v: Vec<f64> = probes.iter().map(|&p| p as f64 / 1e3).collect();
    let mut sorted = v.clone();
    sorted.sort_by(f64::total_cmp);
    format!(
        "host probe_us p10={:.1} p50={:.1} p90={:.1} probes={} nominal_us={:.1} raw_ops_per_s={:.3}",
        percentile(&sorted, 0.1),
        percentile(&sorted, 0.5),
        percentile(&sorted, 0.9),
        v.len(),
        Speedometer::NOMINAL_NS / 1e3,
        ops as f64 / window_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }
}
