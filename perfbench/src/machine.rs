//! What the machine did while the benchmark ran: a background sampler of
//! the VM's CPU steal time (from `/proc/stat`) and this process's CPU
//! time, queried afterwards per interval.
//!
//! On a shared virtual machine the hypervisor can take a vCPU away for
//! long stretches; every wall-clock number measured then is slower for a
//! reason outside the program. Timed windows (and calls ending in time
//! slices) during which steal exceeds [`STEAL_LIMIT`] are set aside, and
//! the run measures on until it has enough clean time. The share set
//! aside is printed with every result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::measure::{clock_s, process_cpu};

/// Largest share of CPU time stolen by the hypervisor in an interval that
/// still counts as a clean measurement.
pub const STEAL_LIMIT: f64 = 0.05;

/// Length of the time slices a call's completion is judged clean in.
pub const CLEAN_SLICE_S: f64 = 0.25;

const PERIOD: Duration = Duration::from_millis(25);

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Time on [`clock_s`].
    pub t: f64,
    /// Cumulative VM-wide steal and total CPU ticks.
    pub steal: u64,
    pub total: u64,
    /// Cumulative CPU time of this process, in nanoseconds.
    pub cpu_ns: u64,
}

pub struct Machine {
    samples: Mutex<Vec<Sample>>,
    stop: AtomicBool,
}

pub fn machine() -> &'static Machine {
    static MACHINE: OnceLock<Machine> = OnceLock::new();
    MACHINE.get_or_init(|| Machine {
        samples: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    })
}

/// Reads the aggregate `cpu` line of `/proc/stat`: (steal, total) ticks.
fn read_cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn sample_now() -> Sample {
    let (steal, total) = read_cpu_ticks();
    Sample {
        t: clock_s(),
        steal,
        total,
        cpu_ns: process_cpu().as_nanos() as u64,
    }
}

/// `(steal share, process CPU seconds)` between the last sample at or
/// before `a` and the first at or after `b`.
pub fn between(samples: &[Sample], a: f64, b: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let i = samples.partition_point(|s| s.t <= a).saturating_sub(1);
    let j = samples.partition_point(|s| s.t < b).min(samples.len() - 1);
    let (x, y) = (samples[i], samples[j.max(i)]);
    let total = y.total.saturating_sub(x.total);
    let share = if total == 0 {
        0.0
    } else {
        y.steal.saturating_sub(x.steal) as f64 / total as f64
    };
    (share, y.cpu_ns.saturating_sub(x.cpu_ns) as f64 / 1e9)
}

/// Indices of the items measured with the least CPU steal, in their
/// original order: every item whose steal share is at most
/// [`STEAL_LIMIT`], or, when those weigh less than `need`, the
/// least-stolen items until they do (all of them at most).
pub fn least_stolen(shares: &[f64], weights: &[f64], need: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    let mut weight = 0.0;
    let mut keep = Vec::new();
    for i in order {
        if shares[i] > STEAL_LIMIT && weight >= need {
            break;
        }
        weight += weights[i];
        keep.push(i);
    }
    keep.sort_unstable();
    keep
}

impl Machine {
    /// Starts the sampler thread; [`Machine::stop`] joins it.
    pub fn start(&'static self) -> JoinHandle<()> {
        self.samples
            .lock()
            .expect("samples poisoned")
            .push(sample_now());
        std::thread::Builder::new()
            .name("perfbench-machine".into())
            .spawn(move || {
                while !self.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(PERIOD);
                    self.samples
                        .lock()
                        .expect("samples poisoned")
                        .push(sample_now());
                }
            })
            .expect("spawn machine sampler")
    }

    pub fn stop(&self, handle: JoinHandle<()>) {
        self.stop.store(true, Ordering::SeqCst);
        handle.join().expect("machine sampler panicked");
    }

    /// `(steal share, process CPU seconds)` over `[a, b]`.
    pub fn interval(&self, a: f64, b: f64) -> (f64, f64) {
        let mut samples = self.samples.lock().expect("samples poisoned");
        if samples.last().is_none_or(|s| s.t < b) {
            samples.push(sample_now());
        }
        between(&samples, a, b)
    }

    pub fn clean(&self, a: f64, b: f64) -> bool {
        self.interval(a, b).0 <= STEAL_LIMIT
    }

    /// Index of the time slice holding time `t`.
    pub fn slice_of(t: f64) -> i64 {
        (t / CLEAN_SLICE_S).floor() as i64
    }

    /// Steal share of time slice `k`.
    pub fn slice_share(&self, k: i64) -> f64 {
        let a = k as f64 * CLEAN_SLICE_S;
        self.interval(a, a + CLEAN_SLICE_S).0
    }

    /// Whether the slice holding time `t` was clean.
    pub fn clean_at(&self, t: f64) -> bool {
        self.slice_share(Self::slice_of(t)) <= STEAL_LIMIT
    }

    /// Steal share over the whole run so far.
    pub fn overall_steal(&self) -> f64 {
        let samples = self.samples.lock().expect("samples poisoned");
        match (samples.first(), samples.last()) {
            (Some(a), Some(b)) => between(&samples, a.t, b.t).0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64, steal: u64, total: u64, cpu_ns: u64) -> Sample {
        Sample {
            t,
            steal,
            total,
            cpu_ns,
        }
    }

    #[test]
    fn interval_share_uses_the_enclosing_samples() {
        let samples = [
            s(0.0, 0, 0, 0),
            s(1.0, 0, 200, 1_000_000_000),
            s(2.0, 50, 400, 1_500_000_000),
            s(3.0, 50, 600, 2_500_000_000),
        ];
        assert_eq!(between(&samples, 0.0, 1.0), (0.0, 1.0));
        assert_eq!(between(&samples, 1.0, 2.0), (0.25, 0.5));
        // Enclosing samples: [1.0, 3.0].
        assert_eq!(between(&samples, 1.5, 2.5), (50.0 / 400.0, 1.5));
        // Past the last sample: clamps to it.
        assert_eq!(between(&samples, 2.0, 9.0), (0.0, 1.0));
        assert_eq!(between(&[], 0.0, 1.0), (0.0, 0.0));
    }

    #[test]
    fn least_stolen_prefers_clean_items_then_tops_up() {
        let shares = [0.0, 0.30, 0.02, 0.10, 0.50];
        let ones = [1.0; 5];
        // Enough clean weight: only the clean items.
        assert_eq!(least_stolen(&shares, &ones, 2.0), vec![0, 2]);
        // Not enough: top up with the least stolen (0.10, then 0.30).
        assert_eq!(least_stolen(&shares, &ones, 4.0), vec![0, 1, 2, 3]);
        // Never more than everything.
        assert_eq!(least_stolen(&shares, &ones, 99.0), vec![0, 1, 2, 3, 4]);
        assert!(least_stolen(&[], &[], 1.0).is_empty());
    }

    #[test]
    fn proc_stat_parses() {
        let (steal, total) = read_cpu_ticks();
        assert!(total > 0 && steal <= total);
    }
}
