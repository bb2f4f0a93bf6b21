//! The end-to-end backup service: chunk → dedup → store → manifest.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use shhc_chunking::Chunker;
use shhc_storage::{BackupManifest, ChunkStore};
use shhc_types::{Admission, ChunkId, Error, Fingerprint, Result, StreamId};

use crate::{FrontendTier, LookupAnswer, SharedFrontend, ShhcCluster};

/// Age limit for the service's private shared front-end. Rarely hit —
/// full windows close their batch by size and tail windows flush — but it
/// bounds the wait when concurrent sessions interleave submissions and a
/// window's fingerprints straddle a batch boundary.
const SERVICE_MAX_AGE: Duration = Duration::from_millis(20);

/// How many times a shed lookup submission is retried (with backoff)
/// before the overload error is surfaced to the backup session. At the
/// backoff cap this is ≈¼ s of yielding — long enough to ride out a
/// burst, short enough that a truly saturated tier fails fast.
const SHED_RETRY_LIMIT: u32 = 32;

/// First retry backoff after a shed submission; doubles per attempt.
const SHED_BACKOFF_FLOOR: Duration = Duration::from_micros(200);

/// Backoff ceiling for shed retries.
const SHED_BACKOFF_CAP: Duration = Duration::from_millis(10);

/// Outcome of a backup deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteReport {
    /// Chunk references released (one per manifest entry).
    pub references_released: usize,
    /// Chunks whose last reference was dropped (payload freed and
    /// fingerprint removed from the cluster).
    pub chunks_freed: usize,
}

/// Tuning for the restore read path.
///
/// `batch` is the number of manifest entries located and fetched per
/// store-lock scope (both restore flavours release the chunk-store read
/// lock between batches, so concurrent backup sessions' writers are never
/// starved by a long replay). `window` is how many fetched batches the
/// pipelined restore may hold ready ahead of assembly — the prefetcher
/// blocks once it is that far ahead, bounding memory to
/// `window × batch × chunk_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreConfig {
    /// Manifest entries per locate/fetch batch (per lock scope).
    pub batch: usize,
    /// Fetched batches the prefetcher may run ahead of assembly
    /// (pipelined restore only; the sequential path ignores it).
    pub window: usize,
}

impl RestoreConfig {
    /// Creates a config; both knobs must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `window` is zero.
    pub fn new(batch: usize, window: usize) -> Self {
        assert!(batch > 0, "restore batch must be nonzero");
        assert!(window > 0, "restore window must be nonzero");
        RestoreConfig { batch, window }
    }
}

impl Default for RestoreConfig {
    fn default() -> Self {
        RestoreConfig {
            batch: 64,
            window: 4,
        }
    }
}

/// Outcome of one restore run: the reconstructed payload plus the
/// advisory cluster-locate audit that rode along with it.
///
/// Restores always fetch data by the manifest's own chunk ids (that is
/// what keeps them byte-exact even when the fingerprint index has
/// drifted); the locate counters report how much of the manifest the
/// cluster could still find, which is the paper's read-path health
/// signal.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// The reconstructed backup payload.
    pub data: Vec<u8>,
    /// Manifest entries replayed.
    pub chunks: usize,
    /// Bytes reconstructed (equals `data.len()`).
    pub bytes: u64,
    /// Entries the cluster index located (advisory query answered
    /// "exists").
    pub located: usize,
    /// Entries the cluster index could *not* locate — index drift, e.g.
    /// a fingerprint removed by a concurrent delete. The data was still
    /// restored from the manifest's chunk id.
    pub mismatched: usize,
    /// Advisory locates skipped after the cluster path degraded.
    pub skipped: usize,
    /// True when an advisory locate failed (e.g. a dead node): further
    /// locates were skipped so a broken index costs at most one failed
    /// round-trip, and the restore carried on from storage alone.
    pub degraded: bool,
    /// Wall-clock time for the whole replay.
    pub duration: Duration,
}

impl RestoreReport {
    /// Fraction of manifest entries the cluster index located (1.0 for
    /// an empty manifest — nothing was missing).
    pub fn locate_coverage(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            self.located as f64 / self.chunks as f64
        }
    }
}

/// Outcome of one backup run.
#[derive(Debug, Clone)]
pub struct BackupReport {
    /// The restore recipe.
    pub manifest: BackupManifest,
    /// Chunks in the stream.
    pub total_chunks: usize,
    /// Chunks whose data had to be uploaded.
    pub new_chunks: usize,
    /// Chunks deduplicated against existing data.
    pub duplicate_chunks: usize,
    /// Bytes the client logically backed up.
    pub logical_bytes: u64,
    /// Bytes actually shipped to storage.
    pub stored_bytes: u64,
}

impl BackupReport {
    /// Deduplication ratio: logical / stored (∞-safe: full dedup reports
    /// `f64::INFINITY`).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            if self.logical_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Fraction of chunks that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.total_chunks == 0 {
            0.0
        } else {
            self.duplicate_chunks as f64 / self.total_chunks as f64
        }
    }
}

struct ServiceInner<C, S> {
    tier: FrontendTier,
    chunker: C,
    /// Reader-writer: restores and stats only read (`ChunkStore::get`/
    /// `fingerprint_of` take `&self`), so a long restore does not
    /// serialize concurrent sessions' metadata reads.
    store: RwLock<S>,
    batch_size: usize,
    /// Chunk locations assigned for fingerprints whose cluster-side
    /// `record` may not have landed yet, keyed by fingerprint. This is
    /// the placeholder shield, shared across sessions: a concurrent
    /// session that sees "exists" for a chunk stored moments ago resolves
    /// its location here instead of trusting the cluster's placeholder
    /// value. Entries are dropped once the record batch lands.
    pending_records: Mutex<HashMap<Fingerprint, ChunkId>>,
}

/// The full cloud-backup pipeline of the paper's Figure 2: a client-side
/// chunker, the SHHC fingerprint cluster behind a shared web front-end,
/// and a cloud chunk store behind that.
///
/// `backup` plays the client role: chunk the stream, submit fingerprints
/// through the shared front-end (receiving completion tickets), upload
/// only new chunks, and assemble the manifest. `restore` plays recovery,
/// verifying every chunk against its fingerprint.
///
/// The service is a cheaply cloneable handle: N sessions on N threads can
/// back up concurrently against one cluster + chunk store, and their
/// fingerprint lookups aggregate in the shared front-end — the paper's
/// many-clients-per-front-end shape. Under a concurrent race on the *same
/// brand-new* chunk, a session may upload a redundant copy (each manifest
/// references the copy it stored, so restores stay byte-exact); dedup
/// efficiency degrades slightly under such races, correctness never.
///
/// # Examples
///
/// ```
/// use shhc::prelude::*;
/// use shhc::{BackupService, ClusterConfig, ShhcCluster};
///
/// # fn main() -> shhc_types::Result<()> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let store = MemChunkStore::new(1 << 20);
/// let service = BackupService::new(cluster, FixedChunker::new(256), store, 64);
///
/// let data = vec![42u8; 4096];
/// let report = service.backup(StreamId::new(1), &data)?;
/// assert_eq!(report.total_chunks, 16);
/// assert!(report.duplicate_chunks > 0, "constant data dedups internally");
/// let restored = service.restore(&report.manifest)?;
/// assert_eq!(restored, data);
/// service.cluster().clone().shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct BackupService<C, S> {
    inner: Arc<ServiceInner<C, S>>,
}

impl<C, S> Clone for BackupService<C, S> {
    fn clone(&self) -> Self {
        BackupService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<C, S> std::fmt::Debug for BackupService<C, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupService")
            .field("batch_size", &self.inner.batch_size)
            .field("tier", &self.inner.tier)
            .finish()
    }
}

impl<C: Chunker, S: ChunkStore> BackupService<C, S> {
    /// Creates a service with its own shared front-end; `batch_size`
    /// controls fingerprint batching toward the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(cluster: ShhcCluster, chunker: C, store: S, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be nonzero");
        Self::with_frontend(
            SharedFrontend::new(cluster, batch_size, SERVICE_MAX_AGE),
            chunker,
            store,
        )
    }

    /// Creates a service over an existing shared front-end (its batch
    /// size becomes the service's lookup window) — a tier of one.
    pub fn with_frontend(frontend: SharedFrontend, chunker: C, store: S) -> Self {
        Self::with_tier(FrontendTier::from_frontends(vec![frontend]), chunker, store)
    }

    /// Creates a service over a load-balanced [`FrontendTier`]. Sessions'
    /// lookup windows spread across the tier's front-ends by
    /// power-of-two-choices, and each session's submissions carry its
    /// stream id as the admission tenant — under a `FairShed` policy a
    /// noisy stream sheds before it can starve quiet ones.
    ///
    /// The lookup window is the first front-end's batch size.
    pub fn with_tier(tier: FrontendTier, chunker: C, store: S) -> Self {
        let batch_size = tier.frontend(0).batch_size();
        BackupService {
            inner: Arc::new(ServiceInner {
                tier,
                chunker,
                store: RwLock::new(store),
                batch_size,
                pending_records: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The underlying cluster handle.
    pub fn cluster(&self) -> &ShhcCluster {
        self.inner.tier.cluster()
    }

    /// The first front-end of the service's tier (the only one for
    /// services built with [`new`](Self::new) or
    /// [`with_frontend`](Self::with_frontend)).
    pub fn frontend(&self) -> &SharedFrontend {
        self.inner.tier.frontend(0)
    }

    /// The front-end tier this service submits lookups through.
    pub fn tier(&self) -> &FrontendTier {
        &self.inner.tier
    }

    /// Locked (shared, read-only) access to the underlying chunk store
    /// (e.g. for statistics).
    pub fn store(&self) -> RwLockReadGuard<'_, S> {
        self.inner.store.read()
    }

    /// Submits one window of fingerprints through the front-end tier
    /// (tenant-attributed to `stream`) and waits for every ticket. A
    /// window smaller than the batch size flushes, so the tail of a
    /// stream is never left to the age limit.
    ///
    /// Shed submissions are retried with exponential backoff up to
    /// [`SHED_RETRY_LIMIT`] times — overload shows up as a slower backup
    /// first and an [`Overloaded`](shhc_types::Error::Overloaded) error
    /// only once the tier stays saturated through the whole backoff run.
    fn lookup_window(&self, stream: StreamId, fps: &[Fingerprint]) -> Result<Vec<LookupAnswer>> {
        let tenant = Some(stream.raw());
        let mut tickets = Vec::with_capacity(fps.len());
        for fp in fps {
            let mut backoff = SHED_BACKOFF_FLOOR;
            let mut attempts = 0u32;
            let ticket = loop {
                let (ticket, shed) = self.inner.tier.submit_from(tenant, *fp);
                if !shed || attempts >= SHED_RETRY_LIMIT {
                    // Retries exhausted: the shed ticket is already
                    // resolved Overloaded and surfaces below in wait().
                    break ticket;
                }
                attempts += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(SHED_BACKOFF_CAP);
            };
            tickets.push(ticket);
        }
        if fps.len() < self.inner.batch_size {
            self.inner.tier.flush_all()?;
        }
        tickets.into_iter().map(|t| t.wait()).collect()
    }

    /// Backs up `data` as stream `stream`, returning the manifest and
    /// dedup accounting. Takes `&self`: any number of sessions may back
    /// up concurrently through one service handle.
    ///
    /// # Errors
    ///
    /// Propagates cluster and storage failures. On error the store may
    /// hold chunks not referenced by any manifest (garbage, not
    /// corruption).
    pub fn backup(&self, stream: StreamId, data: &[u8]) -> Result<BackupReport> {
        let mut manifest = BackupManifest::new(stream);
        let mut report_new = 0usize;
        let mut report_dup = 0usize;
        let mut total = 0usize;
        let mut stored_bytes = 0u64;

        let mut chunks: Vec<_> = self.inner.chunker.chunk(data).collect();
        for window in chunks.chunks_mut(self.inner.batch_size) {
            let fps: Vec<Fingerprint> = window.iter().map(|c| c.fingerprint).collect();
            let answers = self.lookup_window(stream, &fps)?;

            let mut record_pairs: Vec<(Fingerprint, u64)> = Vec::new();
            #[allow(clippy::redundant_closure_call)] // try-block emulation
            let window_result: Result<()> = (|| {
                for (chunk, answer) in window.iter_mut().zip(&answers) {
                    total += 1;
                    let len = chunk.data.len() as u32;
                    let resolved = if answer.existed {
                        // Prefer the in-flight location: the cluster value
                        // may still be the insert-time placeholder.
                        let shielded = self
                            .inner
                            .pending_records
                            .lock()
                            .get(&chunk.fingerprint)
                            .copied();
                        // Resolve, verify and take the reference under ONE
                        // store lock, so a concurrent delete cannot free
                        // the chunk between the check and the add_ref. Any
                        // failure here — placeholder value, wrong payload,
                        // chunk just deleted — falls back to uploading our
                        // own copy (benign redundancy, never corruption).
                        let mut store = self.inner.store.write();
                        shielded
                            .or_else(|| {
                                let id = ChunkId::from_u64(answer.value);
                                match store.fingerprint_of(id) {
                                    Ok(fp) if fp == chunk.fingerprint => Some(id),
                                    _ => None,
                                }
                            })
                            .filter(|&id| store.add_ref(id).is_ok())
                    } else {
                        None
                    };
                    match resolved {
                        Some(id) => {
                            report_dup += 1;
                            manifest.push(chunk.fingerprint, id, len);
                        }
                        None => {
                            report_new += 1;
                            stored_bytes += chunk.data.len() as u64;
                            // The payload is not read again: move it into
                            // the store instead of copying it.
                            let id = self
                                .inner
                                .store
                                .write()
                                .put(chunk.fingerprint, std::mem::take(&mut chunk.data))?;
                            self.inner
                                .pending_records
                                .lock()
                                .insert(chunk.fingerprint, id);
                            record_pairs.push((chunk.fingerprint, id.to_u64()));
                            manifest.push(chunk.fingerprint, id, len);
                        }
                    }
                }
                if record_pairs.is_empty() {
                    Ok(())
                } else {
                    self.cluster().record_batch(&record_pairs)
                }
            })();
            // Drop this window's shield entries whether or not the record
            // landed, so error paths cannot grow the map for the lifetime
            // of the service. After a failed record the cluster holds a
            // placeholder value; later sessions fail its verification and
            // re-upload, which is correct (if slightly redundant).
            if !record_pairs.is_empty() {
                let mut pending = self.inner.pending_records.lock();
                for (fp, _) in &record_pairs {
                    pending.remove(fp);
                }
            }
            window_result?;
        }

        Ok(BackupReport {
            manifest,
            total_chunks: total,
            new_chunks: report_new,
            duplicate_chunks: report_dup,
            logical_bytes: data.len() as u64,
            stored_bytes,
        })
    }

    /// Adds one storage reference per entry of `manifest` — used when a
    /// new snapshot reuses a previous snapshot's file manifest verbatim,
    /// so each snapshot owns its references and can retire independently.
    ///
    /// # Errors
    ///
    /// [`shhc_types::Error::NotFound`] if a referenced chunk is gone
    /// (the manifest was already retired).
    pub fn reference_manifest(&self, manifest: &shhc_storage::BackupManifest) -> Result<()> {
        let mut store = self.inner.store.write();
        for entry in &manifest.entries {
            store.add_ref(entry.chunk)?;
        }
        Ok(())
    }

    /// Deletes a backup: every chunk loses one reference; chunks reaching
    /// zero references are freed from storage and their fingerprints are
    /// removed from the hash cluster (so future backups re-upload them).
    ///
    /// # Errors
    ///
    /// Propagates storage and cluster failures. Deleting the same
    /// manifest twice releases references twice — callers own manifest
    /// lifecycle.
    pub fn delete_backup(&self, manifest: &shhc_storage::BackupManifest) -> Result<DeleteReport> {
        // A manifest may reference one chunk many times, but it only held
        // one storage reference per distinct chunk (duplicates within the
        // backup used add_ref at backup time, so each occurrence does own
        // a reference).
        let mut freed_fps: Vec<Fingerprint> = Vec::new();
        let mut released = 0usize;
        {
            let mut store = self.inner.store.write();
            for entry in &manifest.entries {
                released += 1;
                if store.release(entry.chunk)? == 0 {
                    freed_fps.push(entry.fingerprint);
                }
            }
        }
        if !freed_fps.is_empty() {
            self.cluster().remove_batch(&freed_fps)?;
        }
        Ok(DeleteReport {
            references_released: released,
            chunks_freed: freed_fps.len(),
        })
    }

    /// Reconstructs a backup from its manifest, verifying every chunk.
    ///
    /// Equivalent to [`restore_with`](Self::restore_with) under the
    /// default [`RestoreConfig`], returning just the payload.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; corruption and missing chunks are
    /// detected.
    pub fn restore(&self, manifest: &BackupManifest) -> Result<Vec<u8>> {
        self.restore_with(manifest, RestoreConfig::default())
            .map(|r| r.data)
    }

    /// Sequential restore: replays the manifest one entry at a time,
    /// asking the cluster where each fingerprint lives (one locate
    /// round-trip per chunk — the pre-batching read path, kept as the
    /// measured baseline for
    /// [`restore_pipelined_with`](Self::restore_pipelined_with)) and
    /// fetching/verifying each chunk from the store.
    ///
    /// The store read lock is taken per `config.batch` entries, never for
    /// the whole replay, so concurrent backup sessions' writes interleave
    /// with a long restore instead of queueing behind it.
    ///
    /// The cluster locates are advisory (see [`RestoreReport`]): their
    /// answers are audited, but data is always fetched by the manifest's
    /// chunk id, and a failing cluster degrades the audit rather than the
    /// restore.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if a referenced chunk is gone,
    /// [`Error::Corruption`] if a chunk's payload or length no longer
    /// matches the manifest. Cluster failures never error the restore.
    pub fn restore_with(
        &self,
        manifest: &BackupManifest,
        config: RestoreConfig,
    ) -> Result<RestoreReport> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(manifest.logical_bytes() as usize);
        let mut located = 0usize;
        let mut mismatched = 0usize;
        let mut skipped = 0usize;
        let mut degraded = false;
        for (w, window) in manifest.entries.chunks(config.batch.max(1)).enumerate() {
            for entry in window {
                if degraded {
                    skipped += 1;
                    continue;
                }
                match self.cluster().query_batch_values_with(
                    std::slice::from_ref(&entry.fingerprint),
                    {
                        // The paper's client restore path reads through
                        // the index like any other lookup; only the
                        // batched prefetcher marks itself a scan.
                        Admission::Normal
                    },
                ) {
                    Ok((exists, _)) if exists.first().copied().unwrap_or(false) => located += 1,
                    Ok(_) => mismatched += 1,
                    Err(_) => {
                        degraded = true;
                        skipped += 1;
                    }
                }
            }
            let store = self.inner.store.read();
            for (j, entry) in window.iter().enumerate() {
                let i = w * config.batch.max(1) + j;
                let data = store.get(entry.chunk)?;
                verify_entry(i, entry, data.len(), store.fingerprint_of(entry.chunk)?)?;
                out.extend_from_slice(&data);
            }
        }
        Ok(RestoreReport {
            chunks: manifest.len(),
            bytes: out.len() as u64,
            data: out,
            located,
            mismatched,
            skipped,
            degraded,
            duration: start.elapsed(),
        })
    }

    /// Pipelined restore under the default [`RestoreConfig`], returning
    /// just the payload. See
    /// [`restore_pipelined_with`](Self::restore_pipelined_with).
    ///
    /// # Errors
    ///
    /// As [`restore_with`](Self::restore_with); the two flavours are
    /// byte-exact equivalents.
    pub fn restore_pipelined(&self, manifest: &BackupManifest) -> Result<Vec<u8>>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        self.restore_pipelined_with(manifest, RestoreConfig::default())
            .map(|r| r.data)
    }

    /// Pipelined restore: a prefetcher thread walks the manifest up to
    /// `config.window` batches ahead of assembly, locating each batch's
    /// fingerprints in the cluster as **one** batched query and fetching
    /// its chunks as **one** [`ChunkStore::get_many`] call, while this
    /// thread verifies and assembles the previous batch — fetch of batch
    /// N+1 overlaps assembly of batch N.
    ///
    /// The locate queries are sent with [`Admission::Bypass`]: a full
    /// restore is a scan, and it must not evict the ingest working set
    /// from the nodes' RAM caches (answers are byte-identical to normal
    /// queries; only cache recency differs). As in
    /// [`restore_with`](Self::restore_with), locates are advisory, the
    /// store read lock is scoped per batch, and data always comes from
    /// the manifest's own chunk ids.
    ///
    /// # Errors
    ///
    /// As [`restore_with`](Self::restore_with): storage errors propagate,
    /// cluster failures only degrade the locate audit.
    pub fn restore_pipelined_with(
        &self,
        manifest: &BackupManifest,
        config: RestoreConfig,
    ) -> Result<RestoreReport>
    where
        C: Send + Sync,
        S: Send + Sync,
    {
        struct Prefetched {
            /// Index of the batch's first entry in the manifest.
            start: usize,
            blobs: Vec<Vec<u8>>,
            stored_fps: Vec<Fingerprint>,
            located: usize,
            mismatched: usize,
            skipped: usize,
            degraded: bool,
        }

        let start_time = Instant::now();
        let batch_size = config.batch.max(1);
        let entries = &manifest.entries;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Prefetched>>(config.window.max(1));

        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut degraded = false;
                for (w, batch) in entries.chunks(batch_size).enumerate() {
                    let (located, mismatched, skipped) = if degraded {
                        (0, 0, batch.len())
                    } else {
                        let fps: Vec<Fingerprint> = batch.iter().map(|e| e.fingerprint).collect();
                        match self
                            .cluster()
                            .query_batch_values_with(&fps, Admission::Bypass)
                        {
                            Ok((exists, _)) => {
                                let hits = exists.iter().filter(|e| **e).count();
                                (hits, exists.len() - hits, 0)
                            }
                            Err(_) => {
                                degraded = true;
                                (0, 0, batch.len())
                            }
                        }
                    };
                    let fetched = {
                        // Lock scope: one batch. Writers get in between
                        // batches, and the guard drops before the
                        // (potentially blocking) channel send below.
                        let store = self.inner.store.read();
                        let ids: Vec<ChunkId> = batch.iter().map(|e| e.chunk).collect();
                        store.get_many(&ids).and_then(|blobs| {
                            let stored_fps = ids
                                .iter()
                                .map(|&id| store.fingerprint_of(id))
                                .collect::<Result<Vec<_>>>()?;
                            Ok((blobs, stored_fps))
                        })
                    };
                    let failed = fetched.is_err();
                    let msg = fetched.map(|(blobs, stored_fps)| Prefetched {
                        start: w * batch_size,
                        blobs,
                        stored_fps,
                        located,
                        mismatched,
                        skipped,
                        degraded,
                    });
                    // A send error means the assembler bailed (storage
                    // error on an earlier batch) and hung up; either way
                    // there is nothing useful left to prefetch.
                    if tx.send(msg).is_err() || failed {
                        break;
                    }
                }
            });

            let mut out = Vec::with_capacity(manifest.logical_bytes() as usize);
            let mut located = 0usize;
            let mut mismatched = 0usize;
            let mut skipped = 0usize;
            let mut degraded = false;
            // Dropping `rx` on an early `?` return unblocks a prefetcher
            // parked on a full channel, so the scope join cannot deadlock.
            for msg in rx {
                let batch = msg?;
                located += batch.located;
                mismatched += batch.mismatched;
                skipped += batch.skipped;
                degraded |= batch.degraded;
                for (j, (blob, stored_fp)) in batch.blobs.iter().zip(&batch.stored_fps).enumerate()
                {
                    let i = batch.start + j;
                    verify_entry(i, &entries[i], blob.len(), *stored_fp)?;
                    out.extend_from_slice(blob);
                }
            }
            Ok(RestoreReport {
                chunks: manifest.len(),
                bytes: out.len() as u64,
                data: out,
                located,
                mismatched,
                skipped,
                degraded,
                duration: start_time.elapsed(),
            })
        })
    }

    /// Consumes the service, returning the store (e.g. to inspect
    /// containers after a run).
    ///
    /// # Panics
    ///
    /// Panics when other clones of this service handle are still alive.
    pub fn into_store(self) -> S {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.store.into_inner(),
            Err(_) => panic!("into_store with other service handles alive"),
        }
    }
}

/// Checks one replayed chunk against its manifest entry (length and
/// stored fingerprint), with the same error shape for both restore
/// flavours — the byte-exact-equivalence tests compare error text too.
fn verify_entry(
    i: usize,
    entry: &shhc_storage::ManifestEntry,
    len: usize,
    stored_fp: Fingerprint,
) -> Result<()> {
    if len != entry.len as usize {
        return Err(Error::Corruption(format!(
            "manifest entry {i}: length {} but stored chunk has {}",
            entry.len, len
        )));
    }
    if stored_fp != entry.fingerprint {
        return Err(Error::Corruption(format!(
            "manifest entry {i}: fingerprint mismatch (chunk {} holds different content)",
            entry.chunk
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use shhc_chunking::FixedChunker;
    use shhc_storage::MemChunkStore;

    fn service(nodes: u32) -> BackupService<FixedChunker, MemChunkStore> {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(nodes)).unwrap();
        BackupService::new(
            cluster,
            FixedChunker::new(128),
            MemChunkStore::new(1 << 20),
            32,
        )
    }

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn backup_restore_round_trip() {
        let svc = service(2);
        let data = random_data(10_000, 1);
        let report = svc.backup(StreamId::new(1), &data).unwrap();
        assert_eq!(report.logical_bytes, 10_000);
        assert_eq!(report.duplicate_chunks, 0, "random data has no dups");
        let restored = svc.restore(&report.manifest).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn second_backup_fully_deduplicates() {
        let svc = service(3);
        let data = random_data(20_000, 2);
        let first = svc.backup(StreamId::new(1), &data).unwrap();
        let second = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(second.new_chunks, 0);
        assert_eq!(second.duplicate_chunks, second.total_chunks);
        assert_eq!(second.stored_bytes, 0);
        assert!(second.dedup_ratio().is_infinite());
        // Both manifests restore correctly.
        assert_eq!(svc.restore(&first.manifest).unwrap(), data);
        assert_eq!(svc.restore(&second.manifest).unwrap(), data);
    }

    #[test]
    fn incremental_backup_stores_only_changes() {
        let svc = service(2);
        let mut data = random_data(12_800, 3); // 100 chunks of 128
        svc.backup(StreamId::new(1), &data).unwrap();
        // Change exactly one chunk-aligned block.
        data[256..384].copy_from_slice(&random_data(128, 4));
        let second = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(second.new_chunks, 1);
        assert_eq!(second.duplicate_chunks, 99);
        assert_eq!(svc.restore(&second.manifest).unwrap(), data);
    }

    #[test]
    fn intra_stream_duplicates_resolved_in_session() {
        let svc = service(2);
        // The same 128-byte block repeated 50 times: first is new, the
        // other 49 resolve via the pending-record shield.
        let block = random_data(128, 5);
        let data: Vec<u8> = block.iter().copied().cycle().take(128 * 50).collect();
        let report = svc.backup(StreamId::new(1), &data).unwrap();
        assert_eq!(report.new_chunks, 1);
        assert_eq!(report.duplicate_chunks, 49);
        assert_eq!(svc.restore(&report.manifest).unwrap(), data);
        assert!((report.dedup_ratio() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cross_session_dedup_uses_recorded_locations() {
        let svc = service(2);
        let data = random_data(5120, 6);
        svc.backup(StreamId::new(1), &data).unwrap();
        // The pending-record shield has drained — locations must come
        // from the cluster's recorded values.
        assert!(svc.inner.pending_records.lock().is_empty());
        let report = svc.backup(StreamId::new(2), &data).unwrap();
        assert_eq!(report.new_chunks, 0);
        assert_eq!(svc.restore(&report.manifest).unwrap(), data);
    }

    #[test]
    fn store_refcounts_track_manifests() {
        let svc = service(1);
        let data = random_data(1280, 7);
        let r1 = svc.backup(StreamId::new(1), &data).unwrap();
        let r2 = svc.backup(StreamId::new(2), &data).unwrap();
        // 10 chunks stored once, referenced twice.
        assert_eq!(svc.store().stats().chunks, 10);
        assert_eq!(r1.manifest.len(), 10);
        assert_eq!(r2.manifest.len(), 10);
    }

    #[test]
    fn concurrent_sessions_share_one_service() {
        let svc = service(2);
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                let data = random_data(6400, 100 + u64::from(s));
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), data);
                report
            }));
        }
        let reports: Vec<BackupReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Disjoint random streams: everything was new, nothing was lost.
        let stored: u64 = reports.iter().map(|r| r.stored_bytes).sum();
        assert_eq!(stored, 4 * 6400);
        assert_eq!(svc.store().stats().chunks, 4 * 50);
    }

    #[test]
    fn concurrent_sessions_with_identical_data_stay_correct() {
        // The documented race: sessions may duplicate a brand-new chunk,
        // but every manifest must restore byte-exactly.
        let svc = service(2);
        let data = Arc::new(random_data(6400, 9));
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), *data);
                report
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // At least one copy of each chunk exists; races may add a few
        // redundant copies but never lose data.
        let chunks = svc.store().stats().chunks;
        assert!((50..=200).contains(&chunks), "stored {chunks} chunks");
    }

    #[test]
    fn concurrent_backups_complete_through_a_fair_shed_tier() {
        // A tier of 2 tightly bounded front-ends: sessions get shed under
        // the combined load and the retry/backoff path must still land
        // every backup byte-exactly.
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let config = crate::FrontendConfig::new(32, SERVICE_MAX_AGE).admission(
            shhc_net::AdmissionPolicy::FairShed {
                max_pending: 48,
                per_tenant_quota: 40,
            },
        );
        let tier = FrontendTier::new(cluster, 2, &config);
        let svc =
            BackupService::with_tier(tier, FixedChunker::new(128), MemChunkStore::new(1 << 20));
        let mut handles = Vec::new();
        for s in 0..4u32 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                let data = random_data(6400, 200 + u64::from(s));
                let report = svc.backup(StreamId::new(s), &data).unwrap();
                assert_eq!(svc.restore(&report.manifest).unwrap(), data);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.store().stats().chunks, 4 * 50);
    }
}
