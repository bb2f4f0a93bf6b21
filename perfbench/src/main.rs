//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_generations|ingest_fresh|restore_under_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the public `shhc` API (`BackupService` over a WAL-backed
//! `ShhcCluster`, a `MemChunkStore`, a `GearChunker`) with no injected
//! sleeps, checks every output, and prints a report followed by one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run first
//! repeats the timed phase untraced, then traced, and reports the
//! per-layer breakdown and the tracing overhead. A failed check exits
//! non-zero without a result line. Run it from the repository root; WAL
//! files go under `perfbench/work/` and are removed on exit.

mod machine;
mod measure;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{median, peak_rss_mib, ratio, tail_percentile, MIN_BEYOND};
use trace::{breakdown, tracer, Breakdown};
use workloads::{Res, Tally, LATENCY_WINDOW, RATE_WINDOW};

const WORKLOADS: [&str; 3] = ["ingest_generations", "ingest_fresh", "restore_under_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Test-suite switches (`SHHC_TEST_*`) reconfigure nodes and front-ends
/// behind the API's back; a measured run must not inherit them.
fn check_environment() -> Res<()> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SHHC_TEST_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (a percentile landing on a failed
/// call) is written as 1e300 so it still parses and misses every bound.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".into()
    }
}

fn read_first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

fn git_commit() -> String {
    match read_first_line(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read_first_line(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (not run from a git checkout)".into(),
    }
}

fn context(args: &Args, describe: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let node = workloads::node_config(std::path::Path::new("<wal-dir>"));
    let chunker = workloads::chunker();
    let fields = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_commit", git_commit()),
        (
            "cluster",
            format!(
                "{} nodes, replication 1, pipelined data plane, {} client sessions, front-end batch {}",
                workloads::NODES,
                workloads::SESSIONS,
                workloads::BATCH
            ),
        ),
        (
            "node",
            format!(
                "default_node() with cache {} entries ({:?}), bloom {} @ {}, flash {:?} / {} buckets / {}-record write buffer, shards {}, backend {:?}, readers {}, WAL durability, service_delay {:?}, batch_overhead {:?}",
                node.cache_capacity,
                node.cache_policy,
                node.bloom_expected,
                node.bloom_fpr,
                node.flash.geometry,
                node.flash.buckets,
                node.flash.write_buffer,
                node.shards,
                node.backend,
                node.readers,
                node.service_delay,
                node.batch_overhead
            ),
        ),
        (
            "chunker",
            format!(
                "GearChunker min {} target {} max {}, SHA-1 fingerprints",
                chunker.min_size(),
                chunker.target_size(),
                chunker.max_size()
            ),
        ),
        ("inputs", describe.to_string()),
        (
            "method",
            format!(
                "closed loop; timed windows and call completions in 0.25 s slices with more than {}% hypervisor CPU steal are set aside (topped up with the least stolen ones) and the phase runs on (up to {}x its length) until it holds --seconds of clean windows; each statistic is taken per window and summarised by the good quartile (25th percentile of times, 75th of rates): latency p50/p99 per consecutive {}-call window (at least {} calls per run, nearest rank), ingest MB/s per timed window (one backup generation or cycle, or a {} s slice of a continuous phase), restore MB/s per {}-call window; failed calls count as infinite latency; setup_s is the median of the least stolen of {} set-ups",
                machine::STEAL_LIMIT * 100.0,
                workloads::MAX_STRETCH,
                workloads::LATENCY_WINDOW,
                workloads::MIN_SAMPLES,
                workloads::SLICE_S,
                workloads::RATE_WINDOW,
                workloads::SETUP_REPS
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(t: &Tally, setup_s: f64) -> Vec<Metric> {
    let backup = Tally::clean_calls(&t.backup);
    let restore = Tally::clean_calls(&t.restore);
    vec![
        ("ingest_MBps", t.ingest_mbps(), "MB/s"),
        (
            "backup_p50_ms",
            backup.windowed_quantile(50.0, LATENCY_WINDOW),
            "ms",
        ),
        (
            "backup_p99_ms",
            backup.windowed_quantile(99.0, LATENCY_WINDOW),
            "ms",
        ),
        ("restore_MBps", restore.windowed_rate(RATE_WINDOW), "MB/s"),
        (
            "restore_p50_ms",
            restore.windowed_quantile(50.0, LATENCY_WINDOW),
            "ms",
        ),
        (
            "restore_p99_ms",
            restore.windowed_quantile(99.0, LATENCY_WINDOW),
            "ms",
        ),
        ("recovery_s", t.recovery_s(), "s"),
        ("space_amp", median(&t.space_amp), "ratio"),
        ("cpu_s_per_GB", t.cpu_s_per_gb(), "s/GB"),
        ("peak_rss_MB", peak_rss_mib(), "MiB"),
        ("setup_s", setup_s, "s"),
    ]
}

fn per_layer(t: &Tally, b: &Breakdown, untraced_mbps: f64) -> Vec<Metric> {
    let c = &t.counters;
    let s = |ns: u64| ns as f64 / 1e9;
    let chunking = b.layer("chunking");
    let put = b.layer("storage.put");
    let get_many = b.layer("storage.get_many");
    let backup = b.layer("backup");
    let mut delays = t.delay_samples_ns.clone();
    delays.sort_unstable();
    let delays: Vec<f64> = delays.into_iter().map(|d| d as f64).collect();
    let traced_mbps = t.ingest_mbps();
    vec![
        ("chunking.busy_s", s(chunking.self_ns), "s"),
        (
            "chunking.ns_per_byte",
            ratio(chunking.self_ns as f64, chunking.bytes as f64),
            "ns/B",
        ),
        ("chunking.chunks", chunking.items as f64, "count"),
        ("storage.put.calls", put.calls as f64, "count"),
        ("storage.put.busy_s", s(put.self_ns), "s"),
        ("storage.put.bytes", put.bytes as f64, "B"),
        (
            "storage.add_ref.calls",
            b.layer("storage.add_ref").calls as f64,
            "count",
        ),
        (
            "storage.fingerprint_of.calls",
            b.layer("storage.fingerprint_of").calls as f64,
            "count",
        ),
        ("storage.get_many.calls", get_many.calls as f64, "count"),
        ("storage.get_many.busy_s", s(get_many.self_ns), "s"),
        ("service.other_s", s(backup.self_ns), "s"),
        (
            "service.other_share",
            ratio(backup.self_ns as f64, backup.total_ns as f64),
            "ratio",
        ),
        (
            "service.restore_other_s",
            s(b.layer("restore").self_ns),
            "s",
        ),
        ("frontend.batches", c.fe_batches as f64, "count"),
        (
            "frontend.fill",
            ratio(c.fe_fingerprints as f64, c.fe_batches as f64) / workloads::BATCH as f64,
            "ratio",
        ),
        (
            "frontend.closed_by_flush_share",
            ratio(c.fe_closed_by_flush as f64, c.fe_batches as f64),
            "ratio",
        ),
        (
            "frontend.queue_delay_mean_us",
            ratio(c.fe_delay_total_ns as f64, c.fe_delay_count as f64) / 1e3,
            "us",
        ),
        (
            "frontend.queue_delay_p99_us",
            if delays.is_empty() {
                0.0
            } else {
                measure::percentile(&delays, 99.0) / 1e3
            },
            "us",
        ),
        (
            "frontend.admitted_latency_mean_us",
            ratio(c.fe_admitted_total_ns as f64, c.fe_admitted_count as f64) / 1e3,
            "us",
        ),
        ("frontend.shed", c.fe_shed as f64, "count"),
        ("node.ram_hits", c.ram_hits as f64, "count"),
        ("node.ssd_hits", c.ssd_hits as f64, "count"),
        ("node.inserted", c.inserted as f64, "count"),
        ("node.bloom_skips", c.bloom_skips as f64, "count"),
        (
            "node.bloom_false_positives",
            c.bloom_false_positives as f64,
            "count",
        ),
        ("node.queries", c.queries as f64, "count"),
        (
            "node.ram_hit_ratio",
            ratio(c.ram_hits as f64, (c.ram_hits + c.ssd_hits) as f64),
            "ratio",
        ),
        ("node.queue_peak", t.queue_peak as f64, "count"),
        ("flash.reads", c.flash_reads as f64, "count"),
        ("flash.programs", c.flash_programs as f64, "count"),
        ("flash.erases", c.flash_erases as f64, "count"),
        ("ftl.gc_runs", c.gc_runs as f64, "count"),
        ("ftl.gc_programs", c.gc_programs as f64, "count"),
        ("wal.recovered_entries", t.recovered_entries as f64, "count"),
        ("wal.replayed", t.replayed as f64, "count"),
        (
            "wal.replay_entries_per_s",
            ratio(t.recovered_entries as f64, t.recovery_wall.as_secs_f64()),
            "1/s",
        ),
        ("trace.ingest_MBps", traced_mbps, "MB/s"),
        (
            "trace.overhead_share",
            1.0 - traced_mbps / untraced_mbps,
            "ratio",
        ),
        (
            "trace.accounted_share",
            ratio(b.self_sum_ns as f64, b.root_ns as f64),
            "ratio",
        ),
    ]
}

fn run(args: &Args) -> Res<()> {
    check_environment()?;
    let dir =
        PathBuf::from("perfbench/work").join(format!("{}-{}", args.workload, std::process::id()));
    let sampler = machine::machine().start();
    let result = run_in(args, &dir);
    machine::machine().stop(sampler);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir("perfbench/work");
    result
}

fn run_in(args: &Args, dir: &std::path::Path) -> Res<()> {
    let (mut w, setup_s) = workloads::setup(&args.workload, args.seed, dir)?;

    let mut plain = Tally::default();
    w.phase(&mut plain, args.seconds)?;
    let (tally, metrics, spans) = if args.trace {
        let mut traced = Tally::default();
        tracer().set_enabled(true);
        let r = w
            .phase(&mut traced, args.seconds)
            .and_then(|()| w.finish(&mut traced));
        tracer().set_enabled(false);
        r?;
        let spans = tracer().take();
        let b = breakdown(&spans);
        let m = per_layer(&traced, &b, plain.ingest_mbps());
        // The untraced phase's calls count as attempted too.
        traced.backup.merge(plain.backup);
        traced.restore.merge(plain.restore);
        (traced, m, Some(b))
    } else {
        w.finish(&mut plain)?;
        let m = end_to_end(&plain, setup_s);
        (plain, m, None)
    };
    println!("{}", context(args, &w.describe()));
    w.teardown()?;

    for (name, v, unit) in &metrics {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    println!(
        "{:<34} {:>16.6} ratio ({} failed of {} calls)",
        "error_rate",
        ratio(tally.failed() as f64, tally.attempted() as f64),
        tally.failed(),
        tally.attempted()
    );
    for (kind, calls) in [("backup", &tally.backup), ("restore", &tally.restore)] {
        let clean = Tally::clean_calls(calls).len();
        println!(
            "{kind} calls {} ({clean} in clean slices): highest percentile with >= {MIN_BEYOND} samples beyond is p{}",
            calls.len(),
            tail_percentile(clean).map_or("-".into(), |p| p.to_string())
        );
    }
    println!(
        "cpu steal {:.1}% over the run; {} of {} timed windows clean (steal <= {}%)",
        machine::machine().overall_steal() * 100.0,
        tally.clean_windows().len(),
        tally.windows.len(),
        machine::STEAL_LIMIT * 100.0
    );
    // Modelled costs (virtual time charged by the node and flash models,
    // never slept): labelled secondary output, not measurements.
    println!(
        "model.node_busy_s {:.6} s (modelled, not measured)",
        tally.counters.model_node_busy_ns as f64 / 1e9
    );
    if let Some(b) = &spans {
        println!(
            "trace: {} root calls, {:.6} s root time, {:.6} s in span self times (chunking + storage + service.other)",
            b.layer("backup").calls + b.layer("restore").calls,
            b.root_ns as f64 / 1e9,
            b.self_sum_ns as f64 / 1e9
        );
        for (name, l) in &b.layers {
            println!(
                "  span {name:<24} calls {:>9} self {:>12.6} s total {:>12.6} s",
                l.calls,
                l.self_ns as f64 / 1e9,
                l.total_ns as f64 / 1e9
            );
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
