//! A shared in-memory key-value store over cxlalloc — the paper's
//! motivating use case (§1: "applications that want to dynamically
//! allocate and share memory in a CXL pod require a memory allocator").
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```
//!
//! Four worker threads spread over two simulated processes run a
//! YCSB-A-style mix (25 % insert / 25 % delete / 50 % read) against one
//! lock-free hash table whose entries live in pod memory.

use cxlalloc::baselines::{CxlallocAdapter, PodAlloc};
use cxlalloc::core::AttachOptions;
use cxlalloc::kvstore::KvStore;
use cxlalloc::pod::{Pod, PodConfig};
use cxlalloc::workloads::{KvOp, OpStream, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const THREADS: u32 = 4;
const OPS_PER_THREAD: u64 = 200_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pod = Pod::new(PodConfig {
        small_max_slabs: 1 << 16, // 2 GiB of small-heap capacity
        ..PodConfig::default()
    })?;
    let alloc = CxlallocAdapter::new(pod, 2, AttachOptions::default());
    // Exactly one EBR slot per worker: an idle slot would park the
    // epoch token and stop reclamation.
    let store = KvStore::new(1 << 18, THREADS as usize);

    let spec = WorkloadSpec::ycsb_a();
    println!(
        "running {} ops of {} ({}% insert / {}% delete) on {THREADS} threads in 2 processes",
        OPS_PER_THREAD * THREADS as u64,
        spec.name,
        spec.insert_pct,
        spec.delete_pct
    );

    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mut worker = store.worker(alloc.thread().expect("register worker"));
            let spec = spec.clone();
            s.spawn(move || {
                let mut stream = OpStream::new(spec, StdRng::seed_from_u64(t as u64));
                let (mut hits, mut misses) = (0u64, 0u64);
                for _ in 0..OPS_PER_THREAD {
                    match stream.next_op() {
                        KvOp::Insert {
                            key,
                            key_len,
                            value_len,
                        } => worker.insert(key, key_len, value_len).expect("insert"),
                        KvOp::Read {
                            key,
                        } => match worker.get(key) {
                            Some(_) => hits += 1,
                            None => misses += 1,
                        },
                        KvOp::Delete {
                            key,
                        } => {
                            let _ = worker.delete(key);
                        }
                    }
                }
                worker.drain_retired();
                println!("  thread {t}: {hits} read hits, {misses} misses");
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let total = OPS_PER_THREAD * THREADS as u64;
    let usage = alloc.memory_usage();
    println!(
        "{total} ops in {seconds:.2}s = {:.2} M ops/s; {} live entries; \
         heap {} MiB ({} B HWcc metadata)",
        total as f64 / seconds / 1e6,
        store.len(),
        usage.data_bytes >> 20,
        usage.metadata_bytes,
    );
    alloc.heaps()[0]
        .check_invariants(cxlalloc::pod::CoreId(0))
        .expect("invariants hold after the run");
    println!("heap invariants hold — done");
    Ok(())
}
