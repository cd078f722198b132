//! Figure 8: throughput and memory consumption for the in-memory
//! key-value store workloads (YCSB Load/A/D, MC-12/15/31/37) across all
//! seven allocators and a thread sweep.
//!
//! Also reports the two §5.2.1 side metrics:
//! * **HWcc memory**: cxlalloc's HWcc bytes relative to its total usage
//!   (paper: 0.02 % on average) and relative to a ralloc-style
//!   metadata-in-HWcc baseline (paper: 7.1 %);
//! * **partial-failure overhead**: cxlalloc vs cxlalloc-nonrecoverable
//!   (paper: 0.3 % slower on average).
//!
//! Run with `--paper` for the full 8.4 M-operation sweep.

use cxl_bench::report::{human_bytes, human_rate, NdjsonSink, Table};
use cxl_bench::{run_macro, AllocatorKind, Options};
use std::collections::HashMap;
use workloads::WorkloadSpec;

fn main() {
    let options = Options::from_args();
    let mut sink = NdjsonSink::open();
    let mut table = Table::new(&[
        "Workload",
        "Allocator",
        "Threads",
        "Throughput",
        "PSS",
        "Note",
    ]);
    // Key: (workload, threads) -> (cxlalloc tput, nonrecoverable tput).
    let mut overhead: HashMap<(&str, u32), (f64, f64)> = HashMap::new();
    let mut hwcc_ratio_acc = Vec::new();

    for spec in WorkloadSpec::all() {
        // Paper: 8.4M ops (840K for MC-37, which needs more memory).
        let paper_ops = if spec.name == "MC-37" { 840_000 } else { 8_400_000 };
        let ops = options.ops(paper_ops);
        let mut spec = spec.clone();
        spec.preload = options.ops(spec.preload.max(1)).min(spec.preload);
        // Size the heap by the workload's appetite.
        let capacity: u64 = if spec.value_size.max() > 4096 {
            6 << 30
        } else {
            2 << 30
        };
        let buckets = (ops as usize * 2).clamp(1 << 12, 1 << 22);

        for threads in options.threads.clone() {
            for kind in AllocatorKind::all() {
                let alloc = kind.build(capacity, options.processes, threads + 2);
                let result = run_macro(&alloc, &spec, threads, ops, buckets);
                let note = if result.crashed {
                    "CRASH (unsupported size)"
                } else {
                    ""
                };
                table.row(vec![
                    result.workload.to_string(),
                    result.allocator.to_string(),
                    threads.to_string(),
                    human_rate(result.throughput()),
                    human_bytes(result.pss_bytes),
                    note.to_string(),
                ]);
                sink.record(&[
                    ("experiment", "fig8".into()),
                    ("workload", result.workload.into()),
                    ("allocator", result.allocator.into()),
                    ("threads", threads.into()),
                    ("ops", result.ops.into()),
                    ("frees", result.frees.into()),
                    ("seconds", result.seconds.into()),
                    ("throughput", result.throughput().into()),
                    ("pss_bytes", result.pss_bytes.into()),
                    ("crashed", result.crashed.into()),
                ]);
                match kind {
                    AllocatorKind::Cxlalloc => {
                        overhead.entry((result.workload, threads)).or_default().0 =
                            result.throughput();
                        if result.pss_bytes > 0 {
                            // HWcc fraction of total memory (§5.2.1).
                            hwcc_ratio_acc.push(
                                result.metadata_bytes as f64 / result.pss_bytes as f64,
                            );
                        }
                    }
                    AllocatorKind::CxlallocNonrecoverable => {
                        overhead.entry((result.workload, threads)).or_default().1 =
                            result.throughput();
                    }
                    _ => {}
                }
                eprintln!(
                    "fig8 {} {} t={} -> {} ops/s{}",
                    result.workload,
                    result.allocator,
                    threads,
                    human_rate(result.throughput()),
                    note
                );
            }
        }
    }

    println!("Figure 8: KV-store throughput and memory consumption.\n");
    println!("{}", table.render());

    // §5.2.1 HWcc memory metric.
    if !hwcc_ratio_acc.is_empty() {
        let mean = hwcc_ratio_acc.iter().sum::<f64>() / hwcc_ratio_acc.len() as f64;
        println!(
            "HWcc memory (cxlalloc): {:.3} % of total memory on average (paper: 0.02 %)",
            mean * 100.0
        );
        sink.record(&[
            ("experiment", "fig8-hwcc".into()),
            ("hwcc_fraction_mean", mean.into()),
        ]);
    }

    // §5.2.1 partial-failure overhead.
    let mut ratios = Vec::new();
    for ((workload, threads), (rec, non)) in &overhead {
        if *rec > 0.0 && *non > 0.0 {
            ratios.push(rec / non);
            sink.record(&[
                ("experiment", "fig8-overhead".into()),
                ("workload", (*workload).into()),
                ("threads", (*threads).into()),
                ("recoverable_over_nonrecoverable", (rec / non).into()),
            ]);
        }
    }
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!(
            "Partial-failure overhead: cxlalloc runs at {:.1} % of \
             cxlalloc-nonrecoverable on average (paper: 99.7 %)",
            mean * 100.0
        );
    }
}
