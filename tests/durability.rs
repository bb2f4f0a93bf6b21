//! End-to-end durability: WAL-backed clusters under kill -9, dirty
//! shutdowns with torn log tails, cold-vs-warm restarts, and
//! cross-process-style reopen (a fresh cluster over the same data dir).
//!
//! The contract under test, from strongest to weakest:
//!
//! 1. **Acked implies durable**: every frame the cluster acknowledged
//!    before a crash is recovered by a warm restart — byte-exact values,
//!    even with `replication = 1` (no peer to lean on).
//! 2. **Torn tails are detected, truncated, never replayed**: dirty
//!    shutdowns that leave partially written journal/segment records
//!    must not corrupt recovery or invent state.
//! 3. **Cold restarts wipe**: `restart_cold` discards durable state —
//!    the historical empty-standby semantics stay available.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use shhc::{
    ClusterConfig, Durability, Error, FaultPlan, Fingerprint, NodeConfig, NodeId, ShhcCluster,
    WalConfig,
};

fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
    range
        .map(|i| Fingerprint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)))
        .collect()
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shhc-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(nodes: u32, dir: &std::path::Path) -> ClusterConfig {
    let node_config = NodeConfig::small_test().with_durability(Durability::wal(dir));
    ClusterConfig::new(nodes, node_config)
}

/// Acceptance: kill -9 mid-load, warm restart, zero lost acked entries.
/// `replication = 1` makes the WAL the *only* copy — nothing can be
/// papered over by a replica.
#[test]
fn acked_entries_survive_kill_nine_without_replication() {
    let dir = wal_dir("kill9");
    let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
    let batch = fps(0..2_000);
    cluster.lookup_insert_batch(&batch).unwrap();
    // Re-looking the batch up returns the stored values (inserts carry
    // no values on the wire; duplicates do).
    let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();

    // kill -9 both nodes: threads exit without closing their stores.
    cluster.kill_node(NodeId::new(0)).unwrap();
    cluster.kill_node(NodeId::new(1)).unwrap();
    let r0 = cluster.restart_node(NodeId::new(0)).unwrap();
    let r1 = cluster.restart_node(NodeId::new(1)).unwrap();
    assert_eq!(
        r0.recovered_entries + r1.recovered_entries,
        batch.len() as u64,
        "every acked entry must be rebuilt from the WALs"
    );
    // No replicas to pull from: recovery was purely local replay.
    assert_eq!(r0.resynced + r1.resynced, 0);

    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e), "acked entries lost by the crash");
    assert_eq!(values, after, "recovered values differ from acked values");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record fanned out while a replica is down reaches only its peers,
/// so the restarted replica still holds the fingerprint with the
/// placeholder its insert invented. Warm re-sync must carry the recorded
/// value over as well: reads take the value of the first replica in ring
/// order that knows the fingerprint, and a stale placeholder there fails
/// the chunk store's verification, so the chunk is uploaded again.
#[test]
fn warm_restart_resyncs_values_recorded_while_down() {
    let dir = wal_dir("missed-record");
    let cluster = ShhcCluster::spawn(durable_config(3, &dir).with_replication(2)).unwrap();
    let batch = fps(0..600);
    cluster.lookup_insert_batch(&batch).unwrap();

    let victim = NodeId::new(1);
    cluster.kill_node(victim).unwrap();
    let pairs: Vec<(Fingerprint, u64)> = batch
        .iter()
        .zip(1_000_000u64..)
        .map(|(fp, value)| (*fp, value))
        .collect();
    cluster.record_batch(&pairs).unwrap();
    let report = cluster.restart_node(victim).unwrap();
    assert!(report.resynced > 0, "no recorded value was re-synced");
    assert!(report.chunks <= report.resynced);

    let (exists, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e), "entries lost by the crash");
    let recorded: Vec<u64> = pairs.iter().map(|(_, v)| *v).collect();
    assert_eq!(values, recorded, "a replica kept a pre-crash placeholder");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dirty shutdown: every crash also tears the final journal and segment
/// records. Recovery must detect the torn tails by checksum, truncate
/// them, and still serve every acked entry.
#[test]
fn torn_log_tails_are_truncated_never_replayed() {
    let dir = wal_dir("torn");
    let mut config = durable_config(1, &dir);
    config.node_config.durability =
        Durability::Wal(WalConfig::new(&dir).with_fault(FaultPlan::torn_tails()));
    let cluster = ShhcCluster::spawn(config).unwrap();
    let batch = fps(0..1_000);
    cluster.lookup_insert_batch(&batch).unwrap();

    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, batch.len() as u64);
    assert!(
        report.torn >= 1,
        "the armed fault plan must have torn at least one tail record"
    );

    let exists = cluster.lookup_insert_batch(&batch).unwrap();
    assert!(exists.iter().all(|e| *e));
    // The node's snapshot carries the recovery counters too.
    let stats = cluster.stats().unwrap();
    let node = &stats.nodes[0];
    assert_eq!(node.stats.recovered_entries, batch.len() as u64);
    assert!(node.stats.recovery_torn >= 1);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repeated crash/recover cycles with live writes between crashes: each
/// generation's acked writes accumulate; nothing regresses.
#[test]
fn repeated_crash_recover_cycles_accumulate_state() {
    let dir = wal_dir("cycles");
    let cluster = ShhcCluster::spawn(durable_config(1, &dir)).unwrap();
    let mut all: Vec<Fingerprint> = Vec::new();
    for round in 0..4u64 {
        let batch = fps(round * 500..(round + 1) * 500);
        cluster.lookup_insert_batch(&batch).unwrap();
        all.extend(batch);
        cluster.kill_node(NodeId::new(0)).unwrap();
        let report = cluster.restart_node(NodeId::new(0)).unwrap();
        assert_eq!(
            report.recovered_entries,
            all.len() as u64,
            "round {round}: recovery lost ground"
        );
        let exists = cluster.lookup_insert_batch(&all).unwrap();
        assert!(exists.iter().all(|e| *e), "round {round} lost entries");
    }
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded durable node keeps one WAL per shard and recovers them all.
#[test]
fn sharded_durable_node_recovers_every_shard() {
    let dir = wal_dir("sharded");
    let mut config = durable_config(1, &dir);
    config.node_config = config.node_config.with_shards(4);
    let cluster = ShhcCluster::spawn(config).unwrap();
    let batch = fps(0..2_000);
    cluster.lookup_insert_batch(&batch).unwrap();
    let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();

    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, batch.len() as u64);

    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e));
    assert_eq!(values, after, "a shard recovered the wrong values");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `restart_cold` discards durable state: the node rejoins empty even
/// though its WAL held every entry, and the wiped directory cannot leak
/// into a later warm restart.
#[test]
fn cold_restart_wipes_the_wal() {
    let dir = wal_dir("cold");
    let cluster = ShhcCluster::spawn(durable_config(1, &dir)).unwrap();
    cluster.lookup_insert_batch(&fps(0..500)).unwrap();
    cluster.kill_node(NodeId::new(0)).unwrap();
    cluster.restart_cold(NodeId::new(0)).unwrap();
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.nodes[0].entries, 0, "cold standby must start empty");
    assert!(stats.recovered.is_empty());

    // A second crash/warm-restart finds nothing to replay either.
    cluster.kill_node(NodeId::new(0)).unwrap();
    let report = cluster.restart_node(NodeId::new(0)).unwrap();
    assert_eq!(report.recovered_entries, 0);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean shutdown, then a brand-new cluster over the same data dir (the
/// process-restart story): every entry reopens with its value intact.
#[test]
fn fresh_cluster_reopens_cleanly_shut_down_state() {
    let dir = wal_dir("reopen");
    let batch = fps(0..1_500);
    let values = {
        let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
        cluster.lookup_insert_batch(&batch).unwrap();
        let (_, values) = cluster.lookup_insert_batch_values(&batch).unwrap();
        cluster.shutdown().unwrap(); // clean close: journals checkpointed
        values
    };
    let cluster = ShhcCluster::spawn(durable_config(2, &dir)).unwrap();
    let (exists, after) = cluster.lookup_insert_batch_values(&batch).unwrap();
    assert!(exists.iter().all(|e| *e), "reopened cluster lost entries");
    assert_eq!(values, after);
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.total_entries(), batch.len() as u64);
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill and warm-restart one node twenty times while two client threads
/// keep inserting and recording. A kill waits for the frame the node is
/// serving and later frames find it down, so every call returns `Ok` or
/// `Unavailable` — none panics or hangs — and every record the cluster
/// acked survives a final warm restart of every node with its value.
/// With `replication = 1` the WAL is the only copy.
#[test]
fn kill_restart_under_live_traffic_keeps_acked_records() {
    kill_restart_under_live_traffic(1, "live-kill");
}

/// The same churn with `replication = 2`: each warm restart also scans
/// the recovered node and re-syncs it from its peers, so this covers the
/// frame order re-sync relies on — a record scattered before a restart
/// must reach the surviving replica before re-sync scans it.
#[test]
fn kill_restart_under_live_traffic_keeps_acked_records_replicated() {
    kill_restart_under_live_traffic(2, "live-kill-r2");
}

fn kill_restart_under_live_traffic(replication: usize, tag: &str) {
    let dir = wal_dir(tag);
    let nodes = 3;
    // Room for every replica's copy even when SHHC_TEST_SHARDS splits
    // each node's flash into slices.
    let mut config = durable_config(nodes, &dir).with_replication(replication);
    config.node_config.flash = shhc_flash::FlashConfig::medium_test();
    let cluster = ShhcCluster::spawn(config).unwrap();
    let stop = AtomicBool::new(false);
    let acked: Vec<(Fingerprint, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2u64)
            .map(|client| {
                let (cluster, stop) = (&cluster, &stop);
                s.spawn(move || {
                    let mut acked = Vec::new();
                    // Paced and capped so the traffic spans the kills.
                    for round in 0..96u64 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        let base = (client << 40) + round * 16;
                        let batch = fps(base..base + 16);
                        match cluster.lookup_insert_batch_values(&batch) {
                            Ok(_) => {}
                            Err(Error::Unavailable(_)) => continue,
                            Err(e) => panic!("lookup-insert failed: {e}"),
                        }
                        let pairs: Vec<(Fingerprint, u64)> =
                            batch.iter().zip(base..).map(|(fp, v)| (*fp, v)).collect();
                        match cluster.record_batch(&pairs) {
                            Ok(()) => acked.extend(pairs),
                            Err(Error::Unavailable(_)) => {}
                            Err(e) => panic!("record failed: {e}"),
                        }
                    }
                    acked
                })
            })
            .collect();
        let victim = NodeId::new(1);
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(3));
            cluster.kill_node(victim).unwrap();
            std::thread::sleep(Duration::from_millis(1));
            cluster.restart_node(victim).unwrap();
        }
        std::thread::sleep(Duration::from_millis(3));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    assert!(!acked.is_empty(), "no record was acked");

    let fps: Vec<Fingerprint> = acked.iter().map(|(fp, _)| *fp).collect();
    let recorded: Vec<u64> = acked.iter().map(|(_, v)| *v).collect();
    let check = |when: &str| {
        let (exists, values) = cluster
            .query_batch_values_with(&fps, shhc::Admission::Normal)
            .unwrap();
        assert!(exists.iter().all(|e| *e), "an acked record was lost {when}");
        assert_eq!(values, recorded, "an acked record lost its value {when}");
    };
    // Checked before the final restarts too: with replicas, restarting
    // every node re-syncs each from its peers, which would paper over an
    // entry the churn left on only one replica.
    check("during the churn");
    for i in 0..nodes {
        cluster.kill_node(NodeId::new(i)).unwrap();
    }
    for i in 0..nodes {
        cluster.restart_node(NodeId::new(i)).unwrap();
    }
    check("after a warm restart of every node");
    cluster.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
