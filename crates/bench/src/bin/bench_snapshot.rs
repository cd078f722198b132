//! `bench-snapshot`: quick-mode run of the `alloc_paths` + `substrate`
//! criterion groups, appending a summary record to `BENCH_hotpath.json`
//! at the repo root.
//!
//! The file holds the repo's benchmark *trajectory*: one record per
//! snapshot (label, unix time, sample count, median ns + ops/sec per
//! path), plus each record's speedup relative to the most recent
//! snapshot labelled `--baseline` (default `before`). CI runs this as a
//! smoke job and fails on panic, not on regression — the numbers are
//! for reading trends, not gating merges.
//!
//! Usage:
//!   bench-snapshot [--label NAME] [--baseline NAME] [--samples N]
//!                  [--out PATH] [--groups alloc_paths,substrate]
//!                  [--check]
//!
//! Besides the default groups, `--groups` accepts `host_scaling` (the
//! full PR-8 1–64 host sweep; records carry per-op cost plus CAS-retry
//! and line-contention counters) and `host_scaling_smoke` (its 1- and
//! 32-host remote-free endpoints). In `--check` mode, runs that include
//! those endpoints are additionally gated on the sharded
//! configuration's intra-run speedup at 32 hosts and parity at 1 host.
//! `host_scaling_congested` / `host_scaling_congested_smoke` run the
//! same sweep on the `FabricConfig::congested` queueing model; their
//! `--check` gates pin the saturation knee (32-host per-op inflation
//! over 1 host) and that queueing delay, not protocol cost, carries it
//! (`fabric_queue_ns_per_op` share), and that batching survives the
//! knee (32-host sharded/unsharded `line_transfers_per_kop`).
//!
//! `--check` runs the groups and compares each path's median against
//! the most recent snapshot labelled `--baseline`. Because one CI run
//! on a shared machine can be globally 1.5–2x slower than the
//! fast-state minima recorded in the trajectory file, the gate is
//! *relative*: it first computes the geometric-mean ratio across all
//! shared paths (the run's machine-state factor), then fails only on
//! paths that are more than `CHECK_TOLERANCE`x worse than that factor
//! — i.e. paths that regressed relative to the rest of the suite.
//! Paths with a baseline under `CHECK_MIN_NS` are reported but never
//! gated (sub-25 ns paths swing 2x on code layout alone). `--check`
//! never writes the trajectory file, so CI can gate on it without
//! dirtying the checkout.

use criterion::{BenchRecord, Criterion, Throughput};
use cxl_bench::groups;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

struct Args {
    label: String,
    baseline: String,
    samples: usize,
    out: PathBuf,
    groups: Vec<String>,
    check: bool,
}

/// `--check` fails on any path more than this much slower than the
/// run's geometric-mean ratio to the baseline snapshot (the
/// machine-state factor). Loose on purpose: the gate is meant to catch
/// broken paths (2–10× cliffs), not to litigate medians — uniform
/// slowness of the whole suite cancels out of the per-path verdicts,
/// and intra-run drift spikes on a busy machine reach ~1.7× relative.
const CHECK_TOLERANCE: f64 = 2.0;

/// Paths whose baseline median is below this are reported but never
/// gated: sub-25 ns paths routinely double from binary code layout
/// changes alone, so any verdict on them is noise.
const CHECK_MIN_NS: f64 = 25.0;

/// Host-scaling gate (PR 8), applied by `--check` whenever the run
/// includes the sweep's endpoints (groups `host_scaling` or
/// `host_scaling_smoke`): at 32 simulated hosts the sharded+combining
/// configuration must beat the unsharded baseline by at least this
/// factor of *modeled* time (the `sim_ns_per_op` counter — per-core
/// virtual clocks with contended lines serialized, see EXPERIMENTS.md).
/// Wall time on the single-threaded driver charges every simulated
/// event the same bookkeeping cost and therefore cannot express
/// host-count contention. Both points come from the same run, so
/// machine state cancels out of the ratio.
const SCALING_MIN_SPEEDUP_H32: f64 = 2.0;

/// The 1-host side of the host-scaling gate: sharding must not tax the
/// uncontended case — the sharded configuration stays within this
/// factor of the unsharded baseline at 1 host. Looser than the ≤5%
/// documented in EXPERIMENTS.md because single-point CI medians drift.
const SCALING_MAX_PARITY_H1: f64 = 1.25;

/// Congested-fabric knee gate (PR 10), applied by `--check` whenever
/// the run includes the `host_scaling_congested` endpoints: on the
/// congested fabric the sharded configuration's modeled per-op
/// *latency* at 32 hosts must exceed its 1-host latency by at least
/// this factor. Latency is the `sim_latency_ns_per_op` counter — sum
/// of per-core virtual-clock deltas over total ops — not the
/// makespan-based `sim_ns_per_op`, which divides one timeline by 32x
/// the ops and therefore *falls* with host count. The uncongested
/// sharded curve scales near-flat (that is what the PR-8 gate pins),
/// so this inflation *is* the saturation knee — 32 hosts offering load
/// past the device port's service rate and each paying queueing delay
/// for it. Modeled time: machine state is irrelevant to the ratio.
/// Measured at the 1.5 gate's introduction: ~7x.
const CONGESTED_KNEE_MIN_INFLATION: f64 = 1.5;

/// The attribution side of the congested gate: at 32 hosts, queueing
/// delay (the `fabric_queue_ns_per_op` counter — time spent waiting
/// for port/switch/device stations, as opposed to being served by
/// them) must be at least this share of the modeled per-op latency
/// (`sim_latency_ns_per_op`, same normalization). Queueing that rounds
/// to nothing would mean the knee above was protocol contention
/// mislabeled, so the two checks together pin *where* the congested
/// nanoseconds went, not just that they grew. Measured at
/// introduction: ~0.6.
const CONGESTED_MIN_QUEUE_SHARE: f64 = 0.10;

/// Congested batching gate, applied by `--check` whenever the run
/// includes the `host_scaling_congested` 32-host endpoints: the sharded
/// configuration's line transfers (`line_transfers_per_kop`, fills plus
/// writebacks) must stay at most this fraction of the unsharded
/// baseline's. Batch-64 publication is what halves line traffic; a
/// remote-free buffer that fills with one-free entries and evicts on
/// nearly every free degrades batching to eager plus a durable record
/// and clear per free, and the ratio climbs back to ~1.0. Measured at
/// introduction: 0.53, against 1.00 with that collapse. Modeled
/// counters from one run: machine-independent.
const CONGESTED_MAX_LINE_TRANSFER_RATIO: f64 = 0.75;

fn default_out() -> PathBuf {
    // crates/bench -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate has a repo root")
        .join("BENCH_hotpath.json")
}

fn parse_args() -> Args {
    let mut args = Args {
        label: "snapshot".to_string(),
        baseline: "before".to_string(),
        samples: 10,
        out: default_out(),
        groups: vec!["alloc_paths".to_string(), "substrate".to_string()],
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--label" => args.label = value("--label"),
            "--baseline" => args.baseline = value("--baseline"),
            "--samples" => args.samples = value("--samples").parse().expect("--samples: integer"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--groups" => {
                args.groups = value("--groups").split(',').map(str::to_string).collect()
            }
            "--check" => args.check = true,
            other => panic!("unknown flag {other} (see crate docs)"),
        }
    }
    args
}

/// One snapshot line of the trajectory file. `paths` maps
/// `group/id` -> median ns/iter.
struct Snapshot {
    label: String,
    raw_line: String,
    paths: BTreeMap<String, f64>,
}

/// Parses the snapshot lines out of an existing trajectory file. The
/// format is line-oriented by construction (this binary is the only
/// writer): every snapshot record is a single line starting with
/// `{"label":`.
fn parse_existing(text: &str) -> Vec<Snapshot> {
    let mut snapshots = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix("{\"label\":\"") else {
            continue;
        };
        let Some(end) = rest.find('"') else { continue };
        let label = rest[..end].to_string();
        let mut paths = BTreeMap::new();
        let Some(paths_at) = line.find("\"paths\":{") else {
            continue;
        };
        let mut cursor = &line[paths_at + "\"paths\":{".len()..];
        // Entries look like: "group/id":{"ns":123.4,"ops_per_sec":5.6e6}
        while let Some(key_start) = cursor.find('"') {
            let after_key = &cursor[key_start + 1..];
            let Some(key_end) = after_key.find('"') else { break };
            let key = &after_key[..key_end];
            let after = &after_key[key_end + 1..];
            let Some(ns_at) = after.find("{\"ns\":") else { break };
            let num = &after[ns_at + "{\"ns\":".len()..];
            let num_end = num
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(num.len());
            if let Ok(ns) = num[..num_end].parse::<f64>() {
                paths.insert(key.to_string(), ns);
            }
            let Some(entry_end) = after.find('}') else { break };
            cursor = &after[entry_end + 1..];
            if cursor.starts_with('}') {
                break;
            }
        }
        snapshots.push(Snapshot {
            label,
            raw_line: line.to_string(),
            paths,
        });
    }
    snapshots
}

fn format_snapshot(
    label: &str,
    unix: u64,
    samples: usize,
    records: &[BenchRecord],
    baseline: Option<&Snapshot>,
) -> String {
    let mut line = format!("{{\"label\":\"{label}\",\"unix\":{unix},\"samples\":{samples},\"paths\":{{");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let ops = r.per_second().unwrap_or(1e9 / r.median_ns);
        line.push_str(&format!(
            "\"{}\":{{\"ns\":{:.1},\"ops_per_sec\":{:.0}",
            r.path(),
            r.median_ns,
            ops
        ));
        // Multi-element iterations (the host-scaling rounds) also get
        // their per-op cost and any attached counters, as flat numeric
        // fields so the line-oriented parser above stays valid.
        if let Some(Throughput::Elements(n)) = r.throughput {
            if n > 1 {
                line.push_str(&format!(",\"ns_per_op\":{:.1}", r.median_ns / n as f64));
            }
        }
        for (key, value) in &r.counters {
            line.push_str(&format!(",\"{key}\":{value:.1}"));
        }
        line.push('}');
    }
    line.push('}');
    if let Some(base) = baseline {
        line.push_str(&format!(",\"speedup_vs_{}\":{{", base.label));
        let mut first = true;
        for r in records {
            if let Some(&base_ns) = base.paths.get(&r.path()) {
                if !first {
                    line.push(',');
                }
                first = false;
                line.push_str(&format!("\"{}\":{:.2}", r.path(), base_ns / r.median_ns));
            }
        }
        line.push('}');
    }
    line.push('}');
    line
}

fn main() {
    let args = parse_args();
    let mut criterion = Criterion::default().sample_size(args.samples);
    for group in &args.groups {
        match group.as_str() {
            "alloc_paths" => groups::alloc_paths(&mut criterion),
            "substrate" => groups::substrate(&mut criterion),
            "host_scaling" => groups::bench_host_scaling(&mut criterion),
            "host_scaling_smoke" => groups::bench_host_scaling_smoke(&mut criterion),
            "host_scaling_congested" => groups::bench_host_scaling_congested(&mut criterion),
            "host_scaling_congested_smoke" => {
                groups::bench_host_scaling_congested_smoke(&mut criterion)
            }
            other => panic!(
                "unknown group {other}: expected alloc_paths, substrate, \
                 host_scaling[_smoke], and/or host_scaling_congested[_smoke]"
            ),
        }
    }
    let records = criterion.take_records();
    assert!(!records.is_empty(), "benchmark groups produced no records");

    let existing = std::fs::read_to_string(&args.out).unwrap_or_default();
    let snapshots = parse_existing(&existing);

    if args.check {
        let base = snapshots
            .iter()
            .rev()
            .find(|s| s.label == args.baseline)
            .unwrap_or_else(|| {
                panic!(
                    "--check: no snapshot labelled '{}' in {}",
                    args.baseline,
                    args.out.display()
                )
            });
        // Machine-state factor: geometric mean of ratios over gated
        // paths. A globally slow (or fast) run moves every ratio by
        // the same factor, which this divides back out.
        let mut log_sum = 0.0;
        let mut log_n = 0u32;
        for r in &records {
            if let Some(&base_ns) = base.paths.get(&r.path()) {
                if base_ns >= CHECK_MIN_NS {
                    log_sum += (r.median_ns / base_ns).ln();
                    log_n += 1;
                }
            }
        }
        // A run of only new paths (e.g. the congested sweep before its
        // first snapshot) has no relative gate; the intra-run gates
        // below still apply, and at least one gate of some kind must.
        let mut regressed = Vec::new();
        let mut threshold = f64::INFINITY;
        if log_n > 0 {
            let state = (log_sum / f64::from(log_n)).exp();
            threshold = state * CHECK_TOLERANCE;
            println!(
                "\n-- check vs snapshot '{}' (machine-state factor {state:.2}x, \
                 gate {CHECK_TOLERANCE}x relative => {threshold:.2}x) --",
                base.label
            );
            for r in &records {
                let Some(&base_ns) = base.paths.get(&r.path()) else {
                    println!("  {:<45} (new path, no baseline)", r.path());
                    continue;
                };
                let ratio = r.median_ns / base_ns;
                let verdict = if base_ns < CHECK_MIN_NS {
                    "ungated (tiny path)"
                } else if ratio > threshold {
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "  {:<45} {:>8.1} ns vs {:>8.1} ns  {:>5.2}x  {verdict}",
                    r.path(),
                    r.median_ns,
                    base_ns,
                    ratio
                );
                if base_ns >= CHECK_MIN_NS && ratio > threshold {
                    regressed.push(r.path());
                }
            }
        } else {
            println!(
                "\n-- check vs snapshot '{}': no shared path, relative gate skipped --",
                base.label
            );
        }
        // Host-scaling gate: intra-run modeled-time ratios at the sweep
        // endpoints, checked only when the run produced those points.
        let counter = |group: &str, name: &str, key: &str| {
            records
                .iter()
                .find(|r| r.path() == format!("{group}/remote_free_{name}"))
                .and_then(|r| {
                    r.counters
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, value)| *value)
                })
        };
        let point = |name: &str| counter("host_scaling", name, "sim_ns_per_op");
        let mut scaling_failed = false;
        let mut scaling_gated = false;
        if let (Some(unsharded), Some(sharded)) = (point("h32_unsharded"), point("h32_sharded")) {
            scaling_gated = true;
            let speedup = unsharded / sharded;
            let verdict = if speedup >= SCALING_MIN_SPEEDUP_H32 { "ok" } else { "FAILED" };
            println!(
                "  host-scaling gate: 32-host sharded speedup {speedup:.2}x \
                 (need >= {SCALING_MIN_SPEEDUP_H32}x)  {verdict}"
            );
            scaling_failed |= speedup < SCALING_MIN_SPEEDUP_H32;
        }
        if let (Some(unsharded), Some(sharded)) = (point("h1_unsharded"), point("h1_sharded")) {
            scaling_gated = true;
            let ratio = sharded / unsharded;
            let verdict = if ratio <= SCALING_MAX_PARITY_H1 { "ok" } else { "FAILED" };
            println!(
                "  host-scaling gate: 1-host sharded/unsharded ratio {ratio:.2}x \
                 (need <= {SCALING_MAX_PARITY_H1}x)  {verdict}"
            );
            scaling_failed |= ratio > SCALING_MAX_PARITY_H1;
        }
        // Congested-fabric gates: same intra-run discipline on the
        // `host_scaling_congested` endpoints, when the run has them.
        let cpoint = |name: &str, key: &str| counter("host_scaling_congested", name, key);
        if let (Some(h1), Some(h32)) = (
            cpoint("h1_sharded", "sim_latency_ns_per_op"),
            cpoint("h32_sharded", "sim_latency_ns_per_op"),
        ) {
            scaling_gated = true;
            let inflation = h32 / h1;
            let verdict = if inflation >= CONGESTED_KNEE_MIN_INFLATION { "ok" } else { "FAILED" };
            println!(
                "  congested gate: 32-host/1-host sharded per-op inflation {inflation:.2}x \
                 (need >= {CONGESTED_KNEE_MIN_INFLATION}x)  {verdict}"
            );
            scaling_failed |= inflation < CONGESTED_KNEE_MIN_INFLATION;
            if let Some(queue) = cpoint("h32_sharded", "fabric_queue_ns_per_op") {
                let share = queue / h32;
                let verdict =
                    if share >= CONGESTED_MIN_QUEUE_SHARE { "ok" } else { "FAILED" };
                println!(
                    "  congested gate: 32-host fabric queue share {share:.2} of modeled cost \
                     (need >= {CONGESTED_MIN_QUEUE_SHARE})  {verdict}"
                );
                scaling_failed |= share < CONGESTED_MIN_QUEUE_SHARE;
            }
        }
        if let (Some(unsharded), Some(sharded)) = (
            cpoint("h32_unsharded", "line_transfers_per_kop"),
            cpoint("h32_sharded", "line_transfers_per_kop"),
        ) {
            scaling_gated = true;
            let ratio = sharded / unsharded;
            let verdict =
                if ratio <= CONGESTED_MAX_LINE_TRANSFER_RATIO { "ok" } else { "FAILED" };
            println!(
                "  congested gate: 32-host sharded/unsharded line transfers {ratio:.2} \
                 (need <= {CONGESTED_MAX_LINE_TRANSFER_RATIO})  {verdict}"
            );
            scaling_failed |= ratio > CONGESTED_MAX_LINE_TRANSFER_RATIO;
        }
        assert!(
            log_n > 0 || scaling_gated,
            "--check: no gated path shared with the baseline and no intra-run gate applied"
        );
        if !regressed.is_empty() || scaling_failed {
            if !regressed.is_empty() {
                eprintln!("check FAILED: {} path(s) regressed: {regressed:?}", regressed.len());
            }
            if scaling_failed {
                eprintln!("check FAILED: host-scaling gate violated");
            }
            std::process::exit(1);
        }
        if log_n > 0 {
            println!("check passed: no gated path more than {threshold:.2}x slower");
        } else {
            println!("check passed: intra-run gates ok");
        }
        return;
    }

    let baseline = snapshots
        .iter()
        .rev()
        .find(|s| s.label == args.baseline && s.label != args.label);
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let new_line = format_snapshot(&args.label, unix, args.samples, &records, baseline);

    let mut out = String::from("{\n\"schema\":\"bench-snapshot-v1\",\n\"snapshots\":[\n");
    for s in &snapshots {
        out.push_str(&s.raw_line);
        out.push_str(",\n");
    }
    out.push_str(&new_line);
    out.push_str("\n]\n}\n");
    std::fs::write(&args.out, out).expect("write trajectory file");

    println!("\n-- snapshot '{}' appended to {} --", args.label, args.out.display());
    if let Some(base) = baseline {
        println!("speedup vs '{}':", base.label);
        for r in &records {
            if let Some(&base_ns) = base.paths.get(&r.path()) {
                println!("  {:<45} {:>6.2}x", r.path(), base_ns / r.median_ns);
            }
        }
    }
}
