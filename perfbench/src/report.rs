//! Turns what a run measured into named metrics, the correctness
//! verdict, and the JSON result line.

use crate::audit::Gate;
use crate::probe::{Counts, CORE_CALLS};
use crate::sim::Model;
use crate::span::{Attribution, Layer};
use crate::stats::{ratio, Quantiles};
use crate::wall::Driven;
use cxl_core::HeapStats;

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Results {
    /// Duration of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Cost of one clock read (ns).
    pub timer_floor_ns: f64,
    /// The wall-clock phases.
    pub driven: Driven,
    /// Heap and application state at a fixed point of the run.
    pub footprint: Footprint,
    /// The modeled window.
    pub model: Model,
    /// The end-of-run correctness gate.
    pub gate: Gate,
    /// Other failed correctness checks.
    pub failures: Vec<String>,
}

/// Heap and application state, read at a fixed op count rather than at
/// the end of the timed phases: the heap's length is a high-water mark,
/// so read after a timed phase it would grow with the host's speed.
#[derive(Debug, Clone)]
pub struct Footprint {
    /// Heap statistics.
    pub heap: HeapStats,
    /// Bytes the application holds.
    pub live_bytes: f64,
    /// KV workloads: allocated-but-unreclaimed share of the ledger's
    /// blocks. `None` where `kvstore` is not used.
    pub unreclaimed_frac: Option<f64>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a quantile or mean, when it has any.
    pub samples: Option<usize>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn q(name: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit: "ns",
        samples: Some(n),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The end-to-end metrics (untraced phase and modeled window).
pub fn end_to_end(r: &mut Results) -> Vec<Metric> {
    let t = &mut r.driven.plain.tally;
    let op = Quantiles::of(&mut t.op);
    let insert = Quantiles::of(&mut t.insert);
    let delete = Quantiles::of(&mut t.delete);
    let read = Quantiles::of(&mut t.read);
    let sim_op = Quantiles::of(&mut r.model.op_clock);
    let heap = &r.footprint.heap;
    let heap_bytes = (heap.small_bytes + heap.large_bytes + heap.hwcc_bytes) as f64;
    vec![
        m("ops_per_s", r.driven.plain.ops_per_s, "1/s"),
        q("op_p50_ns", op.p50, op.n),
        q("op_p99_ns", op.p99, op.n),
        q("insert_p50_ns", insert.p50, insert.n),
        q("insert_p99_ns", insert.p99, insert.n),
        q("delete_p99_ns", delete.p99, delete.n),
        q("read_p50_ns", read.p50, read.n),
        q(
            "sim_ns_per_op",
            ratio(r.model.clock_ns as f64, r.model.tally.ops as f64),
            sim_op.n,
        ),
        q("sim_op_p99_ns", sim_op.p99, sim_op.n),
        m(
            "bytes_per_live_byte",
            ratio(heap_bytes, r.footprint.live_bytes),
            "ratio",
        ),
        m("setup_s", median(&r.setup_s), "s"),
    ]
}

/// The per-layer metrics (traced phase, call counts of the untraced
/// phase, heap statistics, and the modeled window).
pub fn per_layer(r: &mut Results, attribution: &mut Attribution) -> Vec<Metric> {
    let plain = &r.driven.plain;
    let ops = plain.tally.ops as f64;
    let c = plain.counts;
    let heap = &r.footprint.heap;
    let kv = r.footprint.unreclaimed_frac.is_some();
    let per_kv_op = |n: u64| if kv { ratio(n as f64, ops) } else { 0.0 };

    let mut out = vec![
        m(
            "workloads.next_op_ns",
            attribution.self_per_op(Layer::Workloads),
            "ns",
        ),
        m(
            "kvstore.self_ns_per_op",
            attribution.self_per_op(Layer::Kvstore),
            "ns",
        ),
        m("kvstore.allocs_per_op", per_kv_op(c.allocs()), "1/op"),
        m("kvstore.frees_per_op", per_kv_op(c.frees()), "1/op"),
        m("kvstore.resolves_per_op", per_kv_op(c.resolves), "1/op"),
        m(
            "kvstore.unreclaimed_frac",
            r.footprint.unreclaimed_frac.unwrap_or(0.0),
            "ratio",
        ),
        m(
            "core.self_ns_per_op",
            attribution.self_per_op(Layer::Core),
            "ns",
        ),
    ];
    let [alloc_small, alloc_large, free_local, free_remote, resolve] =
        CORE_CALLS.map(|name| attribution.call(Layer::Core, name));
    out.extend([
        q("core.alloc_small_ns", alloc_small.mean, alloc_small.n),
        q("core.alloc_small_p99_ns", alloc_small.p99, alloc_small.n),
        q("core.free_local_ns", free_local.mean, free_local.n),
        q("core.resolve_ns", resolve.mean, resolve.n),
        q("core.alloc_large_ns", alloc_large.mean, alloc_large.n),
        q("core.alloc_large_p99_ns", alloc_large.p99, alloc_large.n),
        m("core.small_slabs", f64::from(heap.small_slabs), "count"),
        m("core.large_slabs", f64::from(heap.large_slabs), "count"),
        m("core.hwcc_bytes", heap.hwcc_bytes as f64, "B"),
        q("core.free_remote_ns", free_remote.mean, free_remote.n),
        q("core.free_remote_p99_ns", free_remote.p99, free_remote.n),
        m(
            "core.free_remote_share",
            ratio(c.frees_remote as f64, c.frees() as f64),
            "ratio",
        ),
    ]);

    let model = &r.model;
    let mops = model.tally.ops as f64;
    let s = &model.mem;
    let per_op = |n: u64| ratio(n as f64, mops);
    let per_kop = |n: u64| ratio(n as f64 * 1000.0, mops);
    out.extend([
        m("pod.loads_per_op", per_op(s.loads), "1/op"),
        m("pod.stores_per_op", per_op(s.stores), "1/op"),
        m("pod.cas_per_op", per_op(s.cas_total()), "1/op"),
        m("pod.flushes_per_op", per_op(s.flushes), "1/op"),
        m("pod.fences_per_op", per_op(s.fences), "1/op"),
        m("pod.line_fills_per_op", per_op(s.line_fills), "1/op"),
        m("pod.writebacks_per_op", per_op(s.writebacks), "1/op"),
        m(
            "pod.cas_fail_per_kop",
            per_kop(s.cas_fail + s.mcas_fail),
            "1/kop",
        ),
        m("pod.cas_retries_per_kop", per_kop(s.cas_retries), "1/kop"),
        m(
            "pod.cached_hit_ratio",
            ratio(s.cached_hits as f64, (s.cached_hits + s.line_fills) as f64),
            "ratio",
        ),
        m(
            "pod.remote_batched_share",
            ratio(
                s.remote_free_batched as f64,
                model.counts.frees_remote as f64,
            ),
            "ratio",
        ),
        m(
            "pod.fabric.queue_ns_per_op",
            per_op(s.fabric_queue_ns),
            "ns",
        ),
        m(
            "pod.fabric.service_ns_per_op",
            per_op(s.fabric_service_ns),
            "ns",
        ),
        m(
            "pod.fabric.saturated_share",
            ratio(s.fabric_saturated as f64, s.fabric_requests as f64),
            "ratio",
        ),
    ]);
    const CATEGORIES: [(&str, &str); 8] = [
        ("load", "pod.trace.load_ns_per_op"),
        ("store", "pod.trace.store_ns_per_op"),
        ("cas", "pod.trace.cas_ns_per_op"),
        ("nmp", "pod.trace.nmp_ns_per_op"),
        ("cache", "pod.trace.cache_ns_per_op"),
        ("ordering", "pod.trace.ordering_ns_per_op"),
        ("alloc", "pod.trace.alloc_ns_per_op"),
        ("fabric", "pod.trace.fabric_ns_per_op"),
    ];
    for (category, name) in CATEGORIES {
        out.push(m(
            name,
            per_op(model.trace_ns.get(category).copied().unwrap_or(0)),
            "ns",
        ));
    }
    out.extend([
        m(
            "bench.self_ns_per_op",
            attribution.self_per_op(Layer::Bench),
            "ns",
        ),
        q(
            "bench.traced_op_ns",
            ratio(attribution.root_ns as f64, attribution.ops as f64),
            attribution.ops as usize,
        ),
        m("bench.tracer_ns_per_op", attribution.residue_per_op(), "ns"),
        m("bench.timer_floor_ns", r.timer_floor_ns, "ns"),
        m(
            "bench.trace_overhead",
            ratio(r.driven.traced.ops_per_s, r.driven.plain.ops_per_s),
            "ratio",
        ),
    ]);
    out
}

/// Every failed correctness check. `main_thread` holds the probe
/// counts of calls made outside the driven phases.
pub fn failures(r: &Results, main_thread: &Counts) -> Vec<String> {
    let mut out = r.failures.clone();
    out.extend(r.model.failures.iter().cloned());
    if !r.gate.ok() {
        out.push(format!("gate: {}", r.gate.render()));
    }
    let d = &r.driven;
    let wrong = d.warm.tally.wrong + d.plain.tally.wrong + d.traced.tally.wrong;
    if wrong > 0 {
        out.push(format!("{wrong} ops returned wrong results"));
    }
    let defects = d
        .warm
        .counts
        .plus(&d.plain.counts)
        .plus(&d.traced.counts)
        .plus(main_thread)
        .plus(&r.model.counts);
    if defects.defects() > 0 {
        out.push(format!(
            "allocator defects: {} refused frees, {} ledger violations, {} bad reads",
            defects.free_errors, defects.ledger_errors, defects.bad_reads
        ));
    }
    if r.footprint.unreclaimed_frac.is_some() && d.plain.counts.frees() == 0 {
        out.push("the KV store freed nothing: epoch-based reclamation is stalled".to_string());
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable metric table (stderr).
pub fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|x| match x.samples {
            Some(n) => format!("{:<32} {:>16.3} {:<6} (n={n})\n", x.name, x.value, x.unit),
            None => format!("{:<32} {:>16.3} {}\n", x.name, x.value, x.unit),
        })
        .collect()
}
