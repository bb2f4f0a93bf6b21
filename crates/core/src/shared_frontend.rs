//! The shared web-front-end role: cross-client batching with completion
//! tickets.
//!
//! The paper's Figure-4 request flow has one web front-end accepting
//! backup streams from many concurrent clients and aggregating their
//! fingerprints into batches before querying the hash cluster.
//! [`SharedFrontend`] is that component: a cheaply cloneable handle any
//! number of client threads submit fingerprints to. Each submission
//! receives a [`Ticket`] that later yields the fingerprint's answer;
//! batches close on size (dispatched synchronously on the closing
//! client's thread), on age (dispatched by a **background flusher
//! thread**, so an idle front-end still answers a lone fingerprint within
//! ≈`max_age` — the idle-batch starvation the submit-driven
//! [`SyncFrontend`](crate::SyncFrontend) suffered), or on explicit
//! [`flush`](SharedFrontend::flush).

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use shhc_net::{
    AdmissionPolicy, BatchTuner, ClosedBatch, IngestModel, SharedBatcher, SharedBatcherStats,
    Ticket, TunerConfig,
};
use shhc_types::{Fingerprint, Result};

use crate::ShhcCluster;

/// One fingerprint's cluster answer, delivered through a completion
/// ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupAnswer {
    /// Whether the fingerprint already existed in the cluster (the
    /// "duplicate — skip the upload" answer).
    pub existed: bool,
    /// The value stored with it (chunk location once recorded; zero for
    /// new fingerprints and not-yet-recorded placeholders).
    pub value: u64,
}

/// Floor on flusher sleeps, so a tiny `max_age` degrades to a busy-ish
/// poll instead of a zero-length sleep loop.
const MIN_TICK: Duration = Duration::from_micros(50);

/// Full configuration for a [`SharedFrontend`]: batch close limits plus
/// the admission policy, ingest-rate model and optional batch tuner.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use shhc::FrontendConfig;
/// use shhc_net::AdmissionPolicy;
///
/// let config = FrontendConfig::new(64, Duration::from_millis(5))
///     .admission(AdmissionPolicy::Shed { max_pending: 4096 });
/// assert_eq!(config.batch_size, 64);
/// ```
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Maximum fingerprints per batch (size close trigger).
    pub batch_size: usize,
    /// Maximum batch age before the flusher closes it.
    pub max_age: Duration,
    /// Admission policy bounding the pending + in-flight queue.
    pub admission: AdmissionPolicy,
    /// Optional ingest-rate model: the front-end's own aggregation
    /// capacity, paced (`Block`) or enforced by shedding.
    pub ingest: Option<IngestModel>,
    /// Optional adaptive batch tuner retuning the close limits live.
    pub tuner: Option<TunerConfig>,
}

impl FrontendConfig {
    /// A config with the given close limits, default (blocking) admission,
    /// no ingest model and no tuner.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize, max_age: Duration) -> Self {
        assert!(batch_size > 0, "batch size must be nonzero");
        FrontendConfig {
            batch_size,
            max_age,
            admission: AdmissionPolicy::default(),
            ingest: None,
            tuner: None,
        }
    }

    /// Sets the admission policy.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Sets the ingest-rate model.
    pub fn ingest(mut self, model: IngestModel) -> Self {
        self.ingest = Some(model);
        self
    }

    /// Attaches an adaptive batch tuner.
    pub fn tuner(mut self, tuner: TunerConfig) -> Self {
        self.tuner = Some(tuner);
        self
    }
}

struct FrontendInner {
    cluster: ShhcCluster,
    batcher: SharedBatcher<LookupAnswer>,
    /// Never sent on: dropping the last handle disconnects the channel,
    /// which is the flusher's exit signal.
    _exit_tx: Sender<()>,
}

impl FrontendInner {
    /// Sends one batch to the cluster and answers every ticket in it.
    /// Runs on whichever thread closed the batch — a client thread on a
    /// size trigger, the flusher on an age trigger.
    fn dispatch(&self, batch: ClosedBatch<LookupAnswer>) -> Result<usize> {
        let n = batch.len();
        match self
            .cluster
            .lookup_insert_batch_values(batch.fingerprints())
        {
            Ok((exists, values)) => {
                let answers = exists
                    .into_iter()
                    .zip(values)
                    .map(|(existed, value)| LookupAnswer { existed, value })
                    .collect();
                batch.complete(answers)?;
                Ok(n)
            }
            Err(e) => {
                batch.fail(&e);
                Err(e)
            }
        }
    }
}

/// A shared web front-end: many client threads, one batch queue, one
/// cluster.
///
/// Handles are cheaply cloneable; all operations take `&self`. The
/// background flusher thread exits on its own once the last handle is
/// dropped.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use shhc::{ClusterConfig, SharedFrontend, ShhcCluster};
/// use shhc_types::Fingerprint;
///
/// # fn main() -> Result<(), shhc_types::Error> {
/// let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2))?;
/// let frontend = SharedFrontend::new(cluster.clone(), 4, Duration::from_millis(5));
/// // A lone fingerprint is answered by the age flusher — no further
/// // submission or flush call needed.
/// let ticket = frontend.submit(Fingerprint::from_u64(7));
/// let answer = ticket.wait_timeout(Duration::from_secs(10))?;
/// assert!(!answer.existed, "fresh fingerprint");
/// cluster.shutdown()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SharedFrontend {
    inner: Arc<FrontendInner>,
}

impl std::fmt::Debug for SharedFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFrontend")
            .field("batch_size", &self.inner.batcher.max_size())
            .field("max_age", &self.inner.batcher.max_age())
            .field("pending", &self.inner.batcher.pending_len())
            .finish()
    }
}

impl SharedFrontend {
    /// Creates a shared front-end batching up to `batch_size`
    /// fingerprints or `max_age` of waiting, whichever comes first, and
    /// spawns its background flusher thread.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    ///
    /// Setting `SHHC_TEST_ADAPTIVE=1` in the environment attaches a
    /// default [`BatchTuner`] (as [`with_tuner`](Self::with_tuner)
    /// would) — the CI lever that runs the whole existing suite with the
    /// adaptive batcher enabled, pinning down that tuning never changes
    /// answers. Setting `SHHC_TEST_ADMISSION=fairshed` likewise runs the
    /// suite behind a per-tenant fair-shedding admission gate, pinning
    /// down that a bounded front-end still answers everything the tests
    /// submit.
    pub fn new(cluster: ShhcCluster, batch_size: usize, max_age: Duration) -> Self {
        let mut config = FrontendConfig::new(batch_size, max_age);
        if matches!(std::env::var("SHHC_TEST_ADAPTIVE"), Ok(v) if v == "1") {
            config = config.tuner(TunerConfig::default());
        }
        if matches!(std::env::var("SHHC_TEST_ADMISSION"), Ok(v) if v == "fairshed") {
            // Bounds generous enough that the functional suite never
            // actually sheds — the lever checks the gate's accounting,
            // not its refusals.
            config = config.admission(AdmissionPolicy::FairShed {
                max_pending: 1 << 15,
                per_tenant_quota: 1 << 11,
            });
        }
        Self::with_config(cluster, config)
    }

    /// Creates a shared front-end whose batch limits are continuously
    /// retuned by a [`BatchTuner`] with the given knobs. `batch_size`
    /// and `max_age` are the starting point; the tuner adjusts both
    /// within the config's bounds as the workload shifts. Tuning only
    /// changes *when* batches close — answers stay byte-identical to a
    /// static front-end fed the same submission sequence.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn with_tuner(
        cluster: ShhcCluster,
        batch_size: usize,
        max_age: Duration,
        tuner: TunerConfig,
    ) -> Self {
        Self::with_config(
            cluster,
            FrontendConfig::new(batch_size, max_age).tuner(tuner),
        )
    }

    /// Creates a shared front-end from a full [`FrontendConfig`]:
    /// admission policy, ingest model and tuner included.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size` is zero.
    pub fn with_config(cluster: ShhcCluster, config: FrontendConfig) -> Self {
        let (exit_tx, exit_rx) = unbounded();
        let inner = Arc::new(FrontendInner {
            cluster,
            batcher: SharedBatcher::with_admission(
                config.batch_size,
                config.max_age,
                config.admission,
                config.ingest,
            ),
            _exit_tx: exit_tx,
        });
        let weak = Arc::downgrade(&inner);
        let tuner = config.tuner.map(BatchTuner::new);
        std::thread::Builder::new()
            .name("shhc-fe-flusher".into())
            .spawn(move || flusher_loop(weak, exit_rx, tuner))
            .expect("spawn front-end flusher thread");
        SharedFrontend { inner }
    }

    /// Submits one fingerprint, returning its completion ticket.
    ///
    /// If this submission closes the batch (size or age limit), the whole
    /// batch is dispatched synchronously on the calling thread before
    /// returning, so every ticket in it — this one included — is already
    /// answered. Dispatch failures are delivered through the tickets.
    pub fn submit(&self, fp: Fingerprint) -> Ticket<LookupAnswer> {
        self.submit_from(None, fp).0
    }

    /// Submits one fingerprint on behalf of a tenant (a client stream),
    /// returning its completion ticket and whether admission control
    /// shed it.
    ///
    /// A shed submission's ticket is already resolved with
    /// [`Overloaded`](shhc_types::Error::Overloaded) and nothing was
    /// queued — callers that can retry should back off first. Admitted
    /// submissions behave exactly like [`submit`](Self::submit).
    pub fn submit_from(
        &self,
        tenant: Option<u32>,
        fp: Fingerprint,
    ) -> (Ticket<LookupAnswer>, bool) {
        // A submission that opens a batch does not wake the flusher: its
        // idle sleep is at most max_age/2, so it sees the batch before the
        // batch's age deadline anyway.
        let submitted = self.inner.batcher.submit_from(tenant, fp);
        if let Some(batch) = submitted.closed {
            // The closing client pays the round-trip; everyone else in
            // the batch just sees their ticket become ready.
            let _ = self.inner.dispatch(batch);
        }
        (submitted.ticket, submitted.shed)
    }

    /// Dispatches whatever is pending, answering those tickets. Returns
    /// the number of fingerprints answered.
    ///
    /// # Errors
    ///
    /// Propagates the dispatch failure (the affected tickets carry the
    /// same error).
    pub fn flush(&self) -> Result<usize> {
        match self.inner.batcher.flush() {
            Some(batch) => self.inner.dispatch(batch),
            None => Ok(0),
        }
    }

    /// Snapshots the front-end's aggregation stats: batches released,
    /// occupancy, close reasons and the per-fingerprint queueing-delay
    /// distribution.
    pub fn stats(&self) -> SharedBatcherStats {
        self.inner.batcher.stats()
    }

    /// The underlying cluster handle.
    pub fn cluster(&self) -> &ShhcCluster {
        &self.inner.cluster
    }

    /// The configured maximum batch size.
    pub fn batch_size(&self) -> usize {
        self.inner.batcher.max_size()
    }

    /// The configured maximum batch age.
    pub fn max_age(&self) -> Duration {
        self.inner.batcher.max_age()
    }

    /// The admission policy bounding this front-end's queue.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.inner.batcher.admission_policy()
    }

    /// Submissions admitted but not yet answered (pending in the queue
    /// plus dispatched to the cluster) — the load signal a balancer
    /// compares front-ends by.
    pub fn outstanding(&self) -> usize {
        self.inner.batcher.outstanding()
    }
}

/// The background flusher: sleeps toward the pending batch's age
/// deadline, releases it when due, and dispatches it. With a tuner
/// attached it also ticks the controller, which retunes the batcher's
/// close limits in place. Exits when every front-end handle is gone
/// (the exit channel disconnects).
fn flusher_loop(weak: Weak<FrontendInner>, exit_rx: Receiver<()>, mut tuner: Option<BatchTuner>) {
    loop {
        let sleep = match weak.upgrade() {
            Some(inner) => {
                if let Some(t) = tuner.as_mut() {
                    // The tuner is internally rate-limited; ticking on
                    // every pass keeps it current without a second timer.
                    t.tick(&inner.batcher);
                }
                match inner.batcher.next_deadline() {
                    Some(deadline) => deadline
                        .saturating_duration_since(Instant::now())
                        .max(MIN_TICK),
                    // With an empty queue there is no deadline; sleeping
                    // at most half the age limit means a batch opened
                    // meanwhile is seen before its deadline, and no
                    // submission has to wake the flusher. Re-read the
                    // limit each pass — the tuner may have moved it.
                    None => {
                        (inner.batcher.max_age() / 2).clamp(MIN_TICK, Duration::from_millis(500))
                    }
                }
            }
            // Every handle is gone; nothing can ever be submitted again.
            None => return,
        };
        if let Err(RecvTimeoutError::Disconnected) = exit_rx.recv_timeout(sleep) {
            return;
        }
        let Some(inner) = weak.upgrade() else { return };
        if let Some(batch) = inner.batcher.poll() {
            // An error here already failed the batch's tickets; the
            // flusher itself has nobody to report to.
            let _ = inner.dispatch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    fn fp(v: u64) -> Fingerprint {
        Fingerprint::from_u64(v)
    }

    #[test]
    fn size_closed_batch_answers_all_tickets_synchronously() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 3, Duration::from_secs(60));
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(2));
        assert!(!t1.is_ready() && !t2.is_ready());
        let t3 = fe.submit(fp(3));
        // The third submission closed and dispatched the batch inline.
        for t in [t1, t2, t3] {
            assert!(t.is_ready());
            assert!(!t.wait().unwrap().existed);
        }
        let stats = fe.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.closed_by_size, 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn idle_batch_is_flushed_by_age_without_further_calls() {
        // Regression: the submit-driven front-end only noticed an expired
        // age limit on the *next* submit, so a lone fingerprint starved
        // forever. The flusher thread must answer it within ≈max_age.
        let max_age = Duration::from_millis(20);
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 1000, max_age);
        let start = Instant::now();
        let ticket = fe.submit(fp(42));
        let answer = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("age flusher must answer a lone fingerprint");
        let waited = start.elapsed();
        assert!(!answer.existed);
        assert!(waited >= max_age, "answered before the age limit");
        // Generous CI bound; the point is "≈max_age, not forever".
        assert!(
            waited < max_age * 20,
            "lone fingerprint waited {waited:?} (max_age {max_age:?})"
        );
        assert_eq!(fe.stats().closed_by_age, 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn flush_answers_pending_tickets() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 100, Duration::from_secs(60));
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(1));
        assert_eq!(fe.flush().unwrap(), 2);
        assert!(!t1.wait().unwrap().existed);
        assert!(t2.wait().unwrap().existed, "same-batch duplicate dedups");
        assert_eq!(fe.flush().unwrap(), 0);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn dispatch_failure_is_delivered_through_tickets() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 2, Duration::from_secs(60));
        cluster.kill_node(shhc_types::NodeId::new(0)).unwrap();
        let t1 = fe.submit(fp(1));
        let t2 = fe.submit(fp(2));
        assert!(t1.wait().is_err());
        assert!(t2.wait().is_err());
        cluster.shutdown().unwrap();
    }

    #[test]
    fn shed_submission_fails_fast_through_the_frontend() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(1)).unwrap();
        let config = FrontendConfig::new(100, Duration::from_secs(60))
            .admission(AdmissionPolicy::Shed { max_pending: 2 });
        let fe = SharedFrontend::with_config(cluster.clone(), config);
        let (t1, shed1) = fe.submit_from(Some(7), fp(1));
        let (t2, shed2) = fe.submit_from(Some(7), fp(2));
        assert!(!shed1 && !shed2);
        // Third submission exceeds the bound: resolved Overloaded now.
        let (t3, shed3) = fe.submit_from(Some(7), fp(3));
        assert!(shed3);
        assert!(t3.is_ready());
        assert!(t3.wait().unwrap_err().is_overload());
        assert_eq!(fe.outstanding(), 2);
        fe.flush().unwrap();
        assert!(!t1.wait().unwrap().existed);
        assert!(!t2.wait().unwrap().existed);
        assert_eq!(fe.outstanding(), 0, "answered slots release admission");
        let stats = fe.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 1);
        cluster.shutdown().unwrap();
    }

    #[test]
    fn clones_share_one_queue() {
        let cluster = ShhcCluster::spawn(ClusterConfig::small_test(2)).unwrap();
        let fe = SharedFrontend::new(cluster.clone(), 2, Duration::from_secs(60));
        let fe2 = fe.clone();
        let t1 = fe.submit(fp(10));
        let t2 = fe2.submit(fp(11));
        assert!(!t1.wait().unwrap().existed);
        assert!(!t2.wait().unwrap().existed);
        assert_eq!(fe.stats().batches, 1, "both handles fed one batch");
        cluster.shutdown().unwrap();
    }
}
