//! The three workloads and the harness they share: a WAL-backed
//! four-node cluster behind one `BackupService`, driven closed-loop by at
//! most two client threads that each wait for their call to return.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use shhc::{BackupService, ClusterConfig, RestoreConfig, ShhcCluster};
use shhc_chunking::GearChunker;
use shhc_flash::{FlashConfig, FlashGeometry};
use shhc_node::{Durability, NodeConfig};
use shhc_storage::{BackupManifest, ChunkStore, MemChunkStore};
use shhc_types::{NodeId, StreamId};
use shhc_workload::{Dataset, DatasetSpec, MutationSpec};

use crate::machine::{least_stolen, machine, Machine, CLEAN_SLICE_S};
use crate::measure::{clock_s, good_quartile, median, release_free_memory, Calls, Counters};
use crate::trace::{tracer, TracedChunker, TracedStore};

pub type Res<T> = std::result::Result<T, String>;

pub type Service = BackupService<TracedChunker<GearChunker>, TracedStore<MemChunkStore>>;

/// Hash nodes in the cluster.
pub const NODES: u32 = 4;
/// RAM fingerprint-cache entries per node. Every workload's unique
/// fingerprint population is several times `NODES * CACHE_PER_NODE`, so
/// lookups exercise the bloom filter and flash table, not just RAM.
pub const CACHE_PER_NODE: usize = 512;
/// Front-end batch size (the service's lookup window).
pub const BATCH: usize = 256;
/// Chunk-store container capacity in bytes.
const CONTAINER: u64 = 4 << 20;
/// Closed-loop client threads (the machine's core count in the reference
/// setup; the cluster's node and flusher threads are the program).
pub const SESSIONS: usize = 2;
/// Set-ups per run; `setup_s` is the median of the least stolen ones.
pub const SETUP_REPS: usize = 7;
/// Clean calls each timed latency distribution needs before a run may
/// stop: p99 of 1000 calls has ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;
/// Consecutive calls per latency-percentile window: p99 of 2000 calls
/// has twenty samples beyond it.
pub const LATENCY_WINDOW: usize = 2000;
/// Consecutive restore calls per restore-throughput window.
pub const RATE_WINDOW: usize = 100;
/// Length of the ingest-throughput slices of a continuous timed phase.
pub const SLICE_S: f64 = 0.5;
/// Warm restarts `restore_under_ingest` collects in clean time slices,
/// and the most restart rounds it makes to find them.
const RECOVERY_SAMPLES: usize = 20;
const RECOVERY_MAX_ROUNDS: usize = 40;
/// A timed phase that cannot collect enough clean time stops after this
/// many times its nominal length.
pub const MAX_STRETCH: f64 = 3.0;
/// Backup generations kept live in `ingest_generations`; older ones are
/// deleted (retention), so stored bytes track the live data.
const RETAINED_GENERATIONS: usize = 2;

/// Content-defined chunking: 2 KiB min, 8 KiB target, 64 KiB max.
pub fn chunker() -> GearChunker {
    GearChunker::new(2048, 8192, 65536)
}

/// The node every workload runs: `NodeConfig::default_node()` with its
/// RAM cache, bloom and flash sized down to the benchmark's fingerprint
/// population, and a write-ahead log under `dir`. Device latency is
/// modelled (virtual time) and never slept.
pub fn node_config(dir: &Path) -> NodeConfig {
    let mut cfg = NodeConfig::default_node();
    cfg.cache_capacity = CACHE_PER_NODE;
    cfg.bloom_expected = 1 << 18;
    cfg.flash = FlashConfig {
        geometry: FlashGeometry::new(4096, 64, 32),
        buckets: 256,
        write_buffer: 1024,
        ..FlashConfig::default_node()
    };
    cfg.durability = Durability::wal(dir);
    assert_eq!(
        cfg.service_delay,
        Duration::ZERO,
        "no injected service sleeps"
    );
    assert_eq!(
        cfg.batch_overhead,
        Duration::ZERO,
        "no injected batch sleeps"
    );
    cfg
}

/// SplitMix64 step: derives independent seeds from the run's seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A running cluster and service whose WAL lives under `dir`.
pub struct Bed {
    pub service: Service,
    dir: PathBuf,
}

impl Bed {
    pub fn spawn(dir: &Path) -> Res<Bed> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(err)?;
        let cluster =
            ShhcCluster::spawn(ClusterConfig::new(NODES, node_config(dir))).map_err(err)?;
        let service = BackupService::new(
            cluster,
            TracedChunker(chunker()),
            TracedStore(MemChunkStore::new(CONTAINER)),
            BATCH,
        );
        Ok(Bed {
            service,
            dir: dir.to_path_buf(),
        })
    }

    pub fn teardown(self) -> Res<()> {
        let cluster = self.service.cluster().clone();
        drop(self.service);
        cluster.shutdown().map_err(err)?;
        release_free_memory();
        std::fs::remove_dir_all(&self.dir).map_err(err)
    }

    fn stored_bytes(&self) -> u64 {
        self.service.store().stats().bytes
    }
}

/// Everything one run measures.
#[derive(Debug, Default)]
pub struct Tally {
    pub backup: Calls,
    pub restore: Calls,
    /// Timed ingest intervals on [`clock_s`].
    pub windows: Vec<(f64, f64)>,
    pub counters: Counters,
    pub delay_samples_ns: Vec<u64>,
    pub queue_peak: u64,
    /// Warm-restart wall times, with the time each restart ended.
    pub recovery: Vec<(f64, f64)>,
    pub recovered_entries: u64,
    pub replayed: u64,
    pub recovery_wall: Duration,
    pub space_amp: Vec<f64>,
}

impl Tally {
    pub fn attempted(&self) -> usize {
        self.backup.len() + self.restore.len()
    }

    pub fn failed(&self) -> usize {
        self.backup.failed() + self.restore.failed()
    }

    /// The timed windows with the least CPU steal: the clean ones, or
    /// the least stolen quarter of the timed time if fewer are clean.
    pub fn clean_windows(&self) -> Vec<(f64, f64)> {
        let shares: Vec<f64> = self
            .windows
            .iter()
            .map(|&(a, b)| machine().interval(a, b).0)
            .collect();
        let lengths: Vec<f64> = self.windows.iter().map(|(a, b)| b - a).collect();
        let need = lengths.iter().sum::<f64>() / 4.0;
        least_stolen(&shares, &lengths, need)
            .into_iter()
            .map(|i| self.windows[i])
            .collect()
    }

    /// Seconds of clean timed windows so far.
    fn clean_seconds(&self) -> f64 {
        self.windows
            .iter()
            .filter(|&&(a, b)| machine().clean(a, b))
            .map(|(a, b)| b - a)
            .sum()
    }

    /// The calls that completed in the time slices with the least CPU
    /// steal: the clean slices, topped up with the least stolen others
    /// until they hold [`MIN_SAMPLES`] calls.
    pub fn clean_calls(calls: &Calls) -> Calls {
        let mut per_slice: BTreeMap<i64, f64> = BTreeMap::new();
        for t in calls.ends() {
            *per_slice.entry(Machine::slice_of(t)).or_default() += 1.0;
        }
        let slices: Vec<i64> = per_slice.keys().copied().collect();
        let shares: Vec<f64> = slices.iter().map(|&k| machine().slice_share(k)).collect();
        let counts: Vec<f64> = per_slice.values().copied().collect();
        let keep: BTreeSet<i64> = least_stolen(&shares, &counts, MIN_SAMPLES as f64)
            .into_iter()
            .map(|i| slices[i])
            .collect();
        calls.filtered(|t| keep.contains(&Machine::slice_of(t)))
    }

    /// Aggregate backup throughput: good quartile over clean timed windows.
    pub fn ingest_mbps(&self) -> f64 {
        self.backup.interval_rate(&self.clean_windows())
    }

    /// Process CPU seconds per GB backed up or restored in clean windows.
    pub fn cpu_s_per_gb(&self) -> f64 {
        let (mut cpu, mut bytes) = (0.0, 0u64);
        for (a, b) in self.clean_windows() {
            cpu += machine().interval(a, b).1;
            bytes += self.backup.bytes_in(a, b) + self.restore.bytes_in(a, b);
        }
        cpu / (bytes as f64 / 1e9)
    }

    /// Good quartile of the warm-restart times in the least stolen time
    /// slices (at least one round's worth).
    pub fn recovery_s(&self) -> f64 {
        let shares: Vec<f64> = self
            .recovery
            .iter()
            .map(|(end, _)| machine().slice_share(Machine::slice_of(*end)))
            .collect();
        let ones = vec![1.0; shares.len()];
        let kept: Vec<f64> = least_stolen(&shares, &ones, NODES as f64)
            .into_iter()
            .map(|i| self.recovery[i].1)
            .collect();
        good_quartile(&kept, true)
    }
}

/// Keeps a timed phase going until it holds `seconds` of clean windows
/// and [`MIN_SAMPLES`] clean calls, or has run [`MAX_STRETCH`] times
/// `seconds` of wall time.
fn more(t: &Tally, seconds: f64, started: Instant) -> bool {
    if started.elapsed().as_secs_f64() > MAX_STRETCH * seconds {
        return false;
    }
    let total: f64 = t.windows.iter().map(|(a, b)| b - a).sum();
    let clean = t.clean_seconds();
    // Calls spread evenly over the windows, so the clean share of the
    // windows estimates the clean share of the calls.
    clean < seconds || (t.backup.len() as f64 * clean / total.max(1e-9)) < MIN_SAMPLES as f64
}

/// Counter state at the start of a timed window.
struct Window {
    counters: Counters,
    start_s: f64,
}

impl Window {
    fn open(svc: &Service) -> Res<Window> {
        let counters = Counters::capture(svc).map_err(err)?;
        Ok(Window {
            counters,
            start_s: clock_s(),
        })
    }

    /// Closes the window: records `timed` (the whole window when empty)
    /// as timed windows and adds the counter deltas to `t`.
    fn close(self, svc: &Service, t: &mut Tally, timed: Vec<(f64, f64)>) -> Res<()> {
        if timed.is_empty() {
            t.windows.push((self.start_s, clock_s()));
        } else {
            t.windows.extend(timed);
        }
        let fe = svc.tier().stats();
        let cluster = svc.cluster().stats().map_err(err)?;
        let delta = Counters::from_stats(&fe, &cluster).since(&self.counters);
        // The front-end's delay ring is oldest-first: this window's
        // samples are its last `delay_count` entries.
        let n = (delta.fe_delay_count as usize).min(fe.delay_samples_ns.len());
        t.delay_samples_ns
            .extend_from_slice(&fe.delay_samples_ns[fe.delay_samples_ns.len() - n..]);
        t.queue_peak = t.queue_peak.max(cluster.max_queue_peak());
        t.counters.add(&delta);
        Ok(())
    }
}

/// Backs up one file as one `backup()` call, checking the report's
/// accounting. A failed call is counted as a miss and returns `None`.
fn backup_file(
    svc: &Service,
    stream: StreamId,
    data: &[u8],
    calls: &mut Calls,
) -> Res<Option<BackupManifest>> {
    let t = Instant::now();
    match tracer().root("backup", false, || svc.backup(stream, data)) {
        Ok(r) => {
            calls.ok(t, data.len() as u64);
            if r.new_chunks + r.duplicate_chunks != r.total_chunks
                || r.manifest.len() != r.total_chunks
                || r.logical_bytes != data.len() as u64
                || r.manifest.logical_bytes() != data.len() as u64
            {
                return Err(format!(
                    "backup accounting broken: new {} + duplicate {} vs total {}, manifest {} entries / {} bytes for {} bytes",
                    r.new_chunks,
                    r.duplicate_chunks,
                    r.total_chunks,
                    r.manifest.len(),
                    r.manifest.logical_bytes(),
                    data.len()
                ));
            }
            Ok(Some(r.manifest))
        }
        Err(_) => {
            calls.miss();
            Ok(None)
        }
    }
}

/// Restores one file through the pipelined read path and checks it is
/// byte-exact against its source. A failed call is counted as a miss.
fn restore_file(
    svc: &Service,
    manifest: &BackupManifest,
    expect: &[u8],
    calls: &mut Calls,
) -> Res<()> {
    let t = Instant::now();
    let r = tracer().root("restore", true, || {
        svc.restore_pipelined_with(manifest, RestoreConfig::default())
    });
    match r {
        Ok(r) => {
            calls.ok(t, r.bytes);
            if r.data != expect {
                return Err(format!(
                    "restore not byte-exact: {} bytes restored, {} expected",
                    r.data.len(),
                    expect.len()
                ));
            }
            Ok(())
        }
        Err(_) => {
            calls.miss();
            Ok(())
        }
    }
}

type Backed = Vec<(String, BackupManifest)>;

/// Backs up `files` with [`SESSIONS`] closed-loop sessions (session `k`
/// takes every `SESSIONS`-th file) as one timed window.
fn backup_all(svc: &Service, files: &[(&str, &[u8])], t: &mut Tally) -> Res<Backed> {
    let window = Window::open(svc)?;
    let results: Vec<Res<(Backed, Calls)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|k| {
                s.spawn(move || {
                    let stream = StreamId::new(k as u32 + 1);
                    let mut calls = Calls::default();
                    let mut out = Vec::new();
                    for (path, data) in files.iter().skip(k).step_by(SESSIONS) {
                        if let Some(m) = backup_file(svc, stream, data, &mut calls)? {
                            out.push((path.to_string(), m));
                        }
                    }
                    Ok((out, calls))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("backup session panicked"))
            .collect()
    });
    let mut backed = Vec::new();
    for r in results {
        let (b, calls) = r?;
        backed.extend(b);
        t.backup.merge(calls);
    }
    window.close(svc, t, Vec::new())?;
    Ok(backed)
}

/// Restores each backed-up file and checks it against `source`.
fn restore_all<'a>(
    svc: &Service,
    backed: impl Iterator<Item = &'a (String, BackupManifest)>,
    source: &Dataset,
    t: &mut Tally,
) -> Res<()> {
    for (path, m) in backed {
        let expect = source
            .file(path)
            .ok_or_else(|| format!("restore source {path} missing"))?;
        restore_file(svc, m, expect, &mut t.restore)?;
    }
    Ok(())
}

/// Kills and warm-restarts every node `rounds` times, then checks that
/// every fingerprint the live manifests hold (all WAL-acked before their
/// backup returned) still answers "exists".
fn crash_and_recover<'a>(
    svc: &Service,
    rounds: usize,
    live: impl Iterator<Item = &'a BackupManifest>,
    t: &mut Tally,
) -> Res<()> {
    let cluster = svc.cluster();
    for _ in 0..rounds {
        for i in 0..NODES {
            let id = NodeId::new(i);
            cluster.kill_node(id).map_err(err)?;
            let r = cluster.restart_node(id).map_err(err)?;
            t.recovery.push((clock_s(), r.wall_clock.as_secs_f64()));
            t.recovered_entries += r.recovered_entries;
            t.replayed += r.replayed;
            t.recovery_wall += r.wall_clock;
        }
    }
    let fps: Vec<_> = live
        .flat_map(|m| m.entries.iter().map(|e| e.fingerprint))
        .collect();
    let mut lost = 0usize;
    for chunk in fps.chunks(4096) {
        let exists = cluster.query_batch(chunk).map_err(err)?;
        lost += exists.iter().filter(|e| !**e).count();
    }
    if lost > 0 {
        return Err(format!(
            "{lost} of {} acked fingerprints lost across warm restarts",
            fps.len()
        ));
    }
    Ok(())
}

fn space_amp(bed: &Bed, live_logical: u64, t: &mut Tally) {
    t.space_amp
        .push(bed.stored_bytes() as f64 / live_logical as f64);
}

fn logical<'a>(live: impl Iterator<Item = &'a BackupManifest>) -> u64 {
    live.map(BackupManifest::logical_bytes).sum()
}

fn files(ds: &Dataset) -> Vec<(&str, &[u8])> {
    ds.iter().collect()
}

/// What a workload exposes to `main`.
pub trait Workload {
    /// One timed phase of at least `seconds` (and [`MIN_SAMPLES`] calls).
    fn phase(&mut self, t: &mut Tally, seconds: f64) -> Res<()>;
    /// Post-phase checks: byte-exact restores, crash recovery, acked
    /// fingerprints, space amplification.
    fn finish(&mut self, t: &mut Tally) -> Res<()>;
    /// Input sizes relative to the cluster's RAM cache, for the context.
    fn describe(&self) -> String;
    fn teardown(self: Box<Self>) -> Res<()>;
}

/// Sets up `SETUP_REPS` times, keeping the last; returns it with the
/// median time of the clean set-ups (of the least stolen half, if fewer
/// were clean).
pub fn setup(name: &str, seed: u64, dir: &Path) -> Res<(Box<dyn Workload>, f64)> {
    let mut times = Vec::new();
    let mut shares = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.teardown()?;
        }
        let t0 = Instant::now();
        let a = clock_s();
        let w: Box<dyn Workload> = match name {
            "ingest_generations" => Box::new(Generations::setup(seed, dir)?),
            "ingest_fresh" => Box::new(Fresh::setup(seed, dir)?),
            "restore_under_ingest" => Box::new(RestoreUnderIngest::setup(seed, dir)?),
            other => return Err(format!("unknown workload {other}")),
        };
        times.push(t0.elapsed().as_secs_f64());
        shares.push(machine().interval(a, clock_s()).0);
        kept = Some(w);
    }
    let ones = vec![1.0; times.len()];
    let least: Vec<f64> = least_stolen(&shares, &ones, (SETUP_REPS / 2) as f64)
        .into_iter()
        .map(|i| times[i])
        .collect();
    let setup_s = median(&least);
    Ok((kept.expect("at least one set-up"), setup_s))
}

// ---------------------------------------------------------------------------
// ingest_generations
// ---------------------------------------------------------------------------

const GENERATIONS_DATASET: DatasetSpec = DatasetSpec {
    files: 1600,
    mean_file_size: 32 * 1024,
    seed: 0,
};

/// One round of user activity touching about 10% of the files.
const GENERATION_MUTATION: MutationSpec = MutationSpec {
    edits: 120,
    appends: 36,
    creates: 4,
    deletes: 4,
    change_size: 4096,
};

/// Generations per epoch of `ingest_generations`.
const EPOCH_GENERATIONS: u64 = 8;

/// Repeated full backups of one slowly changing file tree, in epochs:
/// each epoch loads generation 0 into a brand-new cluster (untimed), takes
/// [`EPOCH_GENERATIONS`] timed generations, then kills and warm-restarts
/// every node. Every epoch sees the same inputs and ends in the same
/// state, so state-dependent metrics (recovery time, memory) do not
/// drift with the run's length.
struct Generations {
    seed: u64,
    /// Generation 0.
    base: Dataset,
    dir: PathBuf,
    /// The set-up's cluster, with generation 0 loaded.
    loaded: Option<(Bed, Backed)>,
    chunks: u64,
}

impl Generations {
    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let base = Dataset::generate(&DatasetSpec {
            seed: mix(seed, 1),
            ..GENERATIONS_DATASET
        });
        let bed = Bed::spawn(dir)?;
        let gen0 = backup_all(&bed.service, &files(&base), &mut Tally::default())?;
        let chunks = bed.service.store().stats().chunks;
        Ok(Generations {
            seed,
            base,
            dir: dir.to_path_buf(),
            chunks,
            loaded: Some((bed, gen0)),
        })
    }

    fn epoch(&self, bed: &Bed, gen0: Backed, t: &mut Tally) -> Res<()> {
        let svc = &bed.service;
        let mut ds = self.base.clone();
        let mut live = VecDeque::from([gen0]);
        for g in 1..=EPOCH_GENERATIONS {
            ds.mutate(&GENERATION_MUTATION, mix(self.seed, 100 + g));
            let backed = backup_all(svc, &files(&ds), t)?;
            // Restore a rotating quarter of each generation (untimed for
            // ingest), so restore samples span the whole run.
            restore_all(svc, backed.iter().skip(g as usize % 4).step_by(4), &ds, t)?;
            live.push_back(backed);
            while live.len() > RETAINED_GENERATIONS {
                for (_, m) in live.pop_front().expect("non-empty") {
                    svc.delete_backup(&m).map_err(err)?;
                }
            }
        }
        let manifests = || live.iter().flatten().map(|(_, m)| m);
        space_amp(bed, logical(manifests()), t);
        crash_and_recover(svc, 1, manifests(), t)
    }
}

impl Workload for Generations {
    fn phase(&mut self, t: &mut Tally, seconds: f64) -> Res<()> {
        let started = Instant::now();
        while more(t, seconds, started) {
            let (bed, gen0) = match self.loaded.take() {
                Some(loaded) => loaded,
                None => {
                    let bed = Bed::spawn(&self.dir)?;
                    let gen0 = backup_all(&bed.service, &files(&self.base), &mut Tally::default())?;
                    (bed, gen0)
                }
            };
            let r = self.epoch(&bed, gen0, t);
            bed.teardown()?;
            r?;
        }
        Ok(())
    }

    fn finish(&mut self, _t: &mut Tally) -> Res<()> {
        // Every epoch already restored, recovered and checked its data.
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "{} files, {} bytes in generation 0, {} stored chunks = {:.1}x the cluster RAM cache; {:?} per generation, {} generations per epoch, {} retained",
            self.base.len(),
            self.base.total_bytes(),
            self.chunks,
            self.chunks as f64 / (NODES as usize * CACHE_PER_NODE) as f64,
            GENERATION_MUTATION,
            EPOCH_GENERATIONS,
            RETAINED_GENERATIONS
        )
    }

    fn teardown(self: Box<Self>) -> Res<()> {
        match self.loaded {
            Some((bed, _)) => bed.teardown(),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// ingest_fresh
// ---------------------------------------------------------------------------

const FRESH_DATASET: DatasetSpec = DatasetSpec {
    files: 1200,
    mean_file_size: 32 * 1024,
    seed: 0,
};

/// Backups of data the cluster has never seen: each cycle backs the
/// dataset up into a brand-new WAL cluster and store, then kills and
/// warm-restarts every node. Memory stays bounded by one cycle.
struct Fresh {
    ds: Dataset,
    dir: PathBuf,
    bed: Option<Bed>,
    chunks: u64,
    cycle: usize,
}

impl Fresh {
    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let ds = Dataset::generate(&DatasetSpec {
            seed: mix(seed, 2),
            ..FRESH_DATASET
        });
        Ok(Fresh {
            ds,
            dir: dir.to_path_buf(),
            bed: Some(Bed::spawn(dir)?),
            chunks: 0,
            cycle: 0,
        })
    }
}

impl Workload for Fresh {
    fn phase(&mut self, t: &mut Tally, seconds: f64) -> Res<()> {
        let started = Instant::now();
        while more(t, seconds, started) {
            let bed = match self.bed.take() {
                Some(b) => b,
                None => Bed::spawn(&self.dir)?,
            };
            let backed = backup_all(&bed.service, &files(&self.ds), t)?;
            self.chunks = bed.service.store().stats().chunks;
            // A rotating quarter of the files per cycle keeps restores
            // from dominating the run; every file is covered in 4 cycles.
            self.cycle += 1;
            let sample = backed.iter().skip(self.cycle % 4).step_by(4);
            restore_all(&bed.service, sample, &self.ds, t)?;
            space_amp(&bed, logical(backed.iter().map(|(_, m)| m)), t);
            crash_and_recover(&bed.service, 1, backed.iter().map(|(_, m)| m), t)?;
            bed.teardown()?;
        }
        Ok(())
    }

    fn finish(&mut self, _t: &mut Tally) -> Res<()> {
        // Every cycle already restored, recovered and checked its data.
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "{} files, {} fresh bytes per cycle, {} stored chunks per cycle = {:.1}x the cluster RAM cache; WAL group commit at each ack point, no fsync",
            self.ds.len(),
            self.ds.total_bytes(),
            self.chunks,
            self.chunks as f64 / (NODES as usize * CACHE_PER_NODE) as f64,
        )
    }

    fn teardown(self: Box<Self>) -> Res<()> {
        match self.bed {
            Some(bed) => bed.teardown(),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// restore_under_ingest
// ---------------------------------------------------------------------------

const ARCHIVE_DATASET: DatasetSpec = DatasetSpec {
    files: 1200,
    mean_file_size: 32 * 1024,
    seed: 0,
};

const HOT_DATASET: DatasetSpec = DatasetSpec {
    files: 48,
    mean_file_size: 32 * 1024,
    seed: 0,
};

/// One thread restores an archive larger than the RAM caches file by
/// file while the other re-backs-up a hot set that fits in them.
struct RestoreUnderIngest {
    archive: Dataset,
    hot: Dataset,
    bed: Bed,
    archive_backed: Backed,
    /// The live backup of each hot file (older ones are deleted).
    hot_backed: Backed,
}

impl RestoreUnderIngest {
    fn setup(seed: u64, dir: &Path) -> Res<Self> {
        let archive = Dataset::generate(&DatasetSpec {
            seed: mix(seed, 3),
            ..ARCHIVE_DATASET
        });
        let hot = Dataset::generate(&DatasetSpec {
            seed: mix(seed, 4),
            ..HOT_DATASET
        });
        let bed = Bed::spawn(dir)?;
        let archive_backed = backup_all(&bed.service, &files(&archive), &mut Tally::default())?;
        let hot_backed = backup_all(&bed.service, &files(&hot), &mut Tally::default())?;
        Ok(RestoreUnderIngest {
            archive,
            hot,
            bed,
            archive_backed,
            hot_backed,
        })
    }

    fn live(&self) -> impl Iterator<Item = &BackupManifest> {
        self.archive_backed
            .iter()
            .chain(&self.hot_backed)
            .map(|(_, m)| m)
    }
}

impl Workload for RestoreUnderIngest {
    fn phase(&mut self, t: &mut Tally, seconds: f64) -> Res<()> {
        let svc = &self.bed.service;
        let stop = AtomicBool::new(false);
        let restored = AtomicUsize::new(0);
        let backed = AtomicUsize::new(0);
        let window = Window::open(svc)?;
        let start_s = window.start_s;
        let mut slices: Vec<(f64, f64)> = Vec::new();
        let archive = &self.archive;
        let archive_backed = &self.archive_backed;
        let hot = &self.hot;
        let hot_backed = &mut self.hot_backed;
        let (restore_side, ingest_side) = std::thread::scope(|s| {
            let restorer = s.spawn(|| -> Res<Calls> {
                let mut calls = Calls::default();
                for (path, m) in archive_backed.iter().cycle() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let expect = archive.file(path).expect("archive file");
                    restore_file(svc, m, expect, &mut calls)?;
                    restored.fetch_add(1, Ordering::SeqCst);
                }
                Ok(calls)
            });
            let ingester = s.spawn(|| -> Res<Calls> {
                let mut lat = Calls::default();
                let stream = StreamId::new(1);
                for i in (0..hot_backed.len()).cycle() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let data = hot.file(&hot_backed[i].0).expect("hot file");
                    if let Some(m) = backup_file(svc, stream, data, &mut lat)? {
                        let old = std::mem::replace(&mut hot_backed[i].1, m);
                        svc.delete_backup(&old).map_err(err)?;
                    }
                    backed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(lat)
            });
            // Cut the phase into SLICE_S slices as they complete; stop
            // once the clean ones hold `seconds` and enough calls.
            let mut clean_s = 0.0;
            loop {
                std::thread::sleep(Duration::from_millis(20));
                let now = clock_s();
                while start_s + (slices.len() + 1) as f64 * SLICE_S <= now {
                    let a = start_s + slices.len() as f64 * SLICE_S;
                    slices.push((a, a + SLICE_S));
                    if machine().clean(a, a + SLICE_S) {
                        clean_s += SLICE_S;
                    }
                }
                let elapsed = now - start_s;
                let share = clean_s / elapsed;
                let enough =
                    |n: &AtomicUsize| n.load(Ordering::SeqCst) as f64 * share >= MIN_SAMPLES as f64;
                let done = clean_s >= seconds && enough(&restored) && enough(&backed);
                if done
                    || elapsed > MAX_STRETCH * seconds
                    || restorer.is_finished()
                    || ingester.is_finished()
                {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
            (
                restorer.join().expect("restore session panicked"),
                ingester.join().expect("ingest session panicked"),
            )
        });
        t.restore.merge(restore_side?);
        t.backup.merge(ingest_side?);
        window.close(svc, t, slices)?;
        Ok(())
    }

    fn finish(&mut self, t: &mut Tally) -> Res<()> {
        let live_logical = logical(self.live());
        space_amp(&self.bed, live_logical, t);
        // The first round replays the whole log since set-up and leaves a
        // fresh checkpoint; it checks the acked fingerprints but is not a
        // sample, so every counted restart starts from the same state.
        crash_and_recover(&self.bed.service, 1, self.live(), t)?;
        t.recovery.clear();
        // Restarts take milliseconds, too short to judge steal one by one:
        // pace rounds across time slices until enough fall in clean ones.
        for _ in 0..RECOVERY_MAX_ROUNDS {
            crash_and_recover(&self.bed.service, 1, self.live(), t)?;
            let now = clock_s();
            let clean = t
                .recovery
                .iter()
                .filter(|(end, _)| *end < now - CLEAN_SLICE_S && machine().clean_at(*end))
                .count();
            if clean >= RECOVERY_SAMPLES {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Ok(())
    }

    fn describe(&self) -> String {
        let chunks = self.bed.service.store().stats().chunks;
        format!(
            "archive {} files / {} bytes, hot set {} files / {} bytes, {} stored chunks = {:.1}x the cluster RAM cache; restores use the default RestoreConfig",
            self.archive.len(),
            self.archive.total_bytes(),
            self.hot.len(),
            self.hot.total_bytes(),
            chunks,
            chunks as f64 / (NODES as usize * CACHE_PER_NODE) as f64,
        )
    }

    fn teardown(self: Box<Self>) -> Res<()> {
        self.bed.teardown()
    }
}
