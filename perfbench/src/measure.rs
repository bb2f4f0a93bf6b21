//! The benchmark's own arithmetic: latency percentiles, medians, counter
//! deltas between cluster snapshots, and process-level probes (CPU time,
//! peak resident memory).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use shhc::{BackupService, ClusterStats, SharedBatcherStats};
use shhc_chunking::Chunker;
use shhc_storage::ChunkStore;
use shhc_types::Result;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p / 100 * n` (e.g. 99.9% of
    // 10 000 = 9990.000000000002) from bumping an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(p, n)
    }
}

/// The highest tail percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (NaN when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[rank(p, sorted.len())]
    }
}

/// Median (mean of the middle pair for even lengths; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Linear-interpolation quantile `q` (0..=1) of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if v[hi] == v[lo] {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// The quartile of per-window values on the good side: the 25th
/// percentile of a lower-is-better value, the 75th of a higher-is-better
/// one. On a shared machine a window is only ever slowed by neighbours,
/// so the good quartile tracks the program while the median still tracks
/// how busy the machine was.
pub fn good_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    quantile(values, if lower_is_better { 0.25 } else { 0.75 })
}

/// Seconds since the first call in this process: the common clock call
/// completions are stamped with.
pub fn clock_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Call {
    /// Completion time on [`clock_s`].
    end: f64,
    ms: f64,
    bytes: u64,
}

/// The calls of one operation kind: completion time, latency and bytes.
/// A failed or refused call is recorded as an infinite latency moving no
/// bytes: it misses every latency limit and lands at the top of the
/// distribution.
///
/// Statistics are taken per consecutive window of calls (in completion
/// order) and summarised by [`good_quartile`], so a stall of the shared
/// machine moves some windows, not the run's result.
#[derive(Debug, Default, Clone)]
pub struct Calls {
    calls: Vec<Call>,
    failed: usize,
}

impl Calls {
    /// Records a call that started at `start` and has just returned.
    pub fn ok(&mut self, start: Instant, bytes: u64) {
        self.calls.push(Call {
            end: clock_s(),
            ms: start.elapsed().as_secs_f64() * 1e3,
            bytes,
        });
    }

    pub fn miss(&mut self) {
        self.failed += 1;
        self.calls.push(Call {
            end: clock_s(),
            ms: f64::INFINITY,
            bytes: 0,
        });
    }

    pub fn merge(&mut self, other: Calls) {
        self.calls.extend(other.calls);
        self.failed += other.failed;
    }

    pub fn len(&self) -> usize {
        self.calls.len()
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Consecutive windows of `size` calls in completion order; a partial
    /// tail joins the last full window.
    fn windows(&self, size: usize) -> Vec<Vec<Call>> {
        let mut sorted = self.calls.clone();
        sorted.sort_by(|a, b| a.end.total_cmp(&b.end));
        let mut out: Vec<Vec<Call>> = sorted.chunks(size.max(1)).map(<[Call]>::to_vec).collect();
        if out.len() > 1 && out.last().is_some_and(|w| w.len() < size) {
            let tail = out.pop().expect("non-empty");
            out.last_mut().expect("non-empty").extend(tail);
        }
        out
    }

    /// Good quartile over windows of `size` calls of each window's
    /// percentile `p`, in milliseconds (infinite when it falls on a miss).
    pub fn windowed_quantile(&self, p: f64, size: usize) -> f64 {
        let per: Vec<f64> = self
            .windows(size)
            .into_iter()
            .map(|w| {
                let mut ms: Vec<f64> = w.iter().map(|c| c.ms).collect();
                ms.sort_by(f64::total_cmp);
                percentile(&ms, p)
            })
            .collect();
        good_quartile(&per, true)
    }

    /// Good quartile over windows of `size` consecutive calls of the
    /// window's bytes over its summed call time, in MB/s — the throughput of a
    /// client that issues these calls back to back.
    pub fn windowed_rate(&self, size: usize) -> f64 {
        let per: Vec<f64> = self
            .windows(size)
            .into_iter()
            .map(|w| {
                let bytes: u64 = w.iter().map(|c| c.bytes).sum();
                let ms: f64 = w.iter().map(|c| c.ms).filter(|m| m.is_finite()).sum();
                ratio(bytes as f64 / 1e6, ms / 1e3)
            })
            .collect();
        good_quartile(&per, false)
    }

    /// Bytes of the calls completing inside `[a, b)`.
    pub fn bytes_in(&self, a: f64, b: f64) -> u64 {
        self.calls
            .iter()
            .filter(|c| c.end >= a && c.end < b)
            .map(|c| c.bytes)
            .sum()
    }

    /// Good quartile over the `[start, end)` intervals of the bytes of
    /// calls completing inside each, per second, in MB/s — aggregate throughput
    /// of concurrent clients.
    pub fn interval_rate(&self, intervals: &[(f64, f64)]) -> f64 {
        let per: Vec<f64> = intervals
            .iter()
            .map(|&(a, b)| ratio(self.bytes_in(a, b) as f64 / 1e6, b - a))
            .collect();
        good_quartile(&per, false)
    }

    /// Completion times of the calls.
    pub fn ends(&self) -> impl Iterator<Item = f64> + '_ {
        self.calls.iter().map(|c| c.end)
    }

    /// The calls whose completion time satisfies `keep`.
    pub fn filtered(&self, keep: impl Fn(f64) -> bool) -> Calls {
        let calls: Vec<Call> = self.calls.iter().copied().filter(|c| keep(c.end)).collect();
        let failed = calls.iter().filter(|c| c.ms.is_infinite()).count();
        Calls { calls, failed }
    }
}

/// Cumulative cluster and front-end counters at one instant. Subtracting
/// two captures gives the work done between them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub fe_batches: u64,
    pub fe_fingerprints: u64,
    pub fe_closed_by_flush: u64,
    pub fe_delay_count: u64,
    pub fe_delay_total_ns: u128,
    pub fe_admitted_count: u64,
    pub fe_admitted_total_ns: u128,
    pub fe_shed: u64,
    pub ram_hits: u64,
    pub ssd_hits: u64,
    pub inserted: u64,
    pub bloom_skips: u64,
    pub bloom_false_positives: u64,
    pub queries: u64,
    pub flash_reads: u64,
    pub flash_programs: u64,
    pub flash_erases: u64,
    pub gc_runs: u64,
    pub gc_programs: u64,
    /// Modelled (virtual) node busy time — a model cost, never slept.
    pub model_node_busy_ns: u64,
}

/// `after - before` for a cumulative counter; a counter that went
/// backwards was reset (its node restarted), so all of `after` is new.
pub fn counter_delta<T: PartialOrd + std::ops::Sub<Output = T> + Copy>(after: T, before: T) -> T {
    if after < before {
        after
    } else {
        after - before
    }
}

impl Counters {
    pub fn from_stats(fe: &SharedBatcherStats, cluster: &ClusterStats) -> Self {
        let mut c = Counters {
            fe_batches: fe.batches,
            fe_fingerprints: fe.fingerprints,
            fe_closed_by_flush: fe.closed_by_flush,
            fe_delay_count: fe.delay_count,
            fe_delay_total_ns: fe.delay_total_ns,
            fe_admitted_count: fe.admitted_latency_count,
            fe_admitted_total_ns: fe.admitted_latency_total_ns,
            fe_shed: fe.shed,
            ..Counters::default()
        };
        for n in &cluster.nodes {
            c.ram_hits += n.stats.ram_hits;
            c.ssd_hits += n.stats.ssd_hits;
            c.inserted += n.stats.inserted;
            c.bloom_skips += n.stats.bloom_skips;
            c.bloom_false_positives += n.stats.bloom_false_positives;
            c.queries += n.stats.queries;
            c.flash_reads += n.device.reads;
            c.flash_programs += n.device.programs;
            c.flash_erases += n.device.erases;
            c.gc_runs += n.ftl.gc_runs;
            c.gc_programs += n.ftl.gc_programs;
            c.model_node_busy_ns += n.stats.busy.as_nanos();
        }
        c
    }

    pub fn capture<C: Chunker, S: ChunkStore>(service: &BackupService<C, S>) -> Result<Self> {
        Ok(Self::from_stats(
            &service.tier().stats(),
            &service.cluster().stats()?,
        ))
    }

    /// Field-wise [`counter_delta`].
    pub fn since(&self, before: &Counters) -> Counters {
        macro_rules! delta {
            ($($f:ident),*) => { Counters { $($f: counter_delta(self.$f, before.$f)),* } };
        }
        delta!(
            fe_batches,
            fe_fingerprints,
            fe_closed_by_flush,
            fe_delay_count,
            fe_delay_total_ns,
            fe_admitted_count,
            fe_admitted_total_ns,
            fe_shed,
            ram_hits,
            ssd_hits,
            inserted,
            bloom_skips,
            bloom_false_positives,
            queries,
            flash_reads,
            flash_programs,
            flash_erases,
            gc_runs,
            gc_programs,
            model_node_busy_ns
        )
    }

    /// Field-wise sum: accumulates the deltas of several timed windows.
    pub fn add(&mut self, d: &Counters) {
        macro_rules! add {
            ($($f:ident),*) => { $(self.$f += d.$f;)* };
        }
        add!(
            fe_batches,
            fe_fingerprints,
            fe_closed_by_flush,
            fe_delay_count,
            fe_delay_total_ns,
            fe_admitted_count,
            fe_admitted_total_ns,
            fe_shed,
            ram_hits,
            ssd_hits,
            inserted,
            bloom_skips,
            bloom_false_positives,
            queries,
            flash_reads,
            flash_programs,
            flash_erases,
            gc_runs,
            gc_programs,
            model_node_busy_ns
        );
    }
}

/// Ratio that reads 0 on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the operating system. Called after a
/// cluster is torn down, so the next cycle's resident-memory peak does
/// not depend on how the previous cycle's frees fragmented the heap.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` takes a padding size and only
    // releases memory the allocator already holds as free.
    unsafe {
        malloc_trim(0);
    }
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed by every thread of this process,
/// including threads that have already exited.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [100, 1000, 4321, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(beyond(99.0, 1000), 10);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
        assert_eq!(good_quartile(&[4.0, 1.0, 2.0, 3.0], false), 3.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[f64::INFINITY], 0.25).is_infinite());
    }

    fn calls(ms: &[f64], bytes: u64) -> Calls {
        Calls {
            calls: ms
                .iter()
                .enumerate()
                .map(|(i, &ms)| Call {
                    end: i as f64,
                    ms,
                    bytes,
                })
                .collect(),
            failed: ms.iter().filter(|m| m.is_infinite()).count(),
        }
    }

    #[test]
    fn misses_sit_at_the_top_of_the_distribution() {
        let mut ms: Vec<f64> = (1..100).map(f64::from).collect();
        ms.push(f64::INFINITY);
        let c = calls(&ms, 1);
        assert_eq!(c.len(), 100);
        assert_eq!(c.failed(), 1);
        assert_eq!(c.windowed_quantile(50.0, 100), 50.0);
        assert_eq!(c.windowed_quantile(99.0, 100), 99.0);
        assert!(c.windowed_quantile(100.0, 100).is_infinite());
    }

    #[test]
    fn windowed_statistics_take_the_good_quartile_window() {
        // Three windows of 100 calls; the middle one is a stall.
        let mut ms = vec![1.0; 100];
        ms.extend(vec![50.0; 100]);
        ms.extend(vec![2.0; 100]);
        // A 30-call tail joins the last window.
        ms.extend(vec![2.0; 30]);
        let c = calls(&ms, 1000);
        assert_eq!(c.windows(100).len(), 3);
        assert_eq!(c.windows(100)[2].len(), 130);
        // Window p99s 1, 50 and 2 ms: the 25th percentile is 1.5 ms.
        assert_eq!(c.windowed_quantile(99.0, 100), 1.5);
        // Window rates: 1000 B per 1 ms = 1 MB/s, 0.02 MB/s, 0.5 MB/s;
        // the 75th percentile is 0.75 MB/s.
        assert!((c.windowed_rate(100) - 0.75).abs() < 1e-12);
        // Completions at t = 0..330: 100 calls in [0, 100) move 0.1 MB.
        let r = c.interval_rate(&[(0.0, 100.0), (100.0, 200.0), (200.0, 400.0)]);
        assert!((r - 0.001).abs() < 1e-12);
        assert!(Calls::default().windowed_quantile(50.0, 10).is_nan());
    }

    #[test]
    fn counter_deltas_subtract_and_survive_resets() {
        assert_eq!(counter_delta(10u64, 4), 6);
        assert_eq!(counter_delta(7u64, 7), 0);
        // A restarted node's counter starts again from zero.
        assert_eq!(counter_delta(3u64, 50), 3);

        let before = Counters {
            fe_batches: 10,
            ram_hits: 100,
            flash_programs: 5,
            fe_delay_total_ns: 1_000,
            ..Counters::default()
        };
        let after = Counters {
            fe_batches: 25,
            ram_hits: 160,
            flash_programs: 2,
            fe_delay_total_ns: 4_000,
            ..Counters::default()
        };
        let d = after.since(&before);
        assert_eq!(d.fe_batches, 15);
        assert_eq!(d.ram_hits, 60);
        assert_eq!(d.flash_programs, 2);
        assert_eq!(d.fe_delay_total_ns, 3_000);

        let mut sum = Counters::default();
        sum.add(&d);
        sum.add(&d);
        assert_eq!(sum.fe_batches, 30);
        assert_eq!(sum.ram_hits, 120);
        assert_eq!(after.since(&after), Counters::default());
    }

    #[test]
    fn process_probes_read_something() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= a);
        assert!(peak_rss_mib() > 0.0);
    }
}
