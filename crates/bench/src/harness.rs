//! Workload runners: the key-value macrobenchmark (Figure 8) and the
//! threadtest/xmalloc microbenchmarks (Figures 9, 10, 12).

use baselines::{BenchError, PodAlloc};
use cxl_core::OffsetPtr;
use kvstore::{KvStore, KvThread};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use workloads::{KvOp, MicroSpec, OpStream, WorkloadSpec};

/// Result of one macrobenchmark run.
#[derive(Debug, Clone)]
pub struct MacroResult {
    /// Workload name.
    pub workload: &'static str,
    /// Allocator name.
    pub allocator: &'static str,
    /// Worker thread count.
    pub threads: u32,
    /// Operations completed.
    pub ops: u64,
    /// Entries the store reclaimed (freed through the allocator) during
    /// the measured phase, before the end-of-run drain.
    pub frees: u64,
    /// Wall-clock seconds of the measured phase.
    pub seconds: f64,
    /// Memory usage at the end of the run (PSS proxy).
    pub pss_bytes: u64,
    /// Allocator metadata bytes (HWcc bytes for cxlalloc).
    pub metadata_bytes: u64,
    /// Whether the allocator "crashed" (unsupported allocation — the
    /// cxl-shm on MC-12/MC-37 case).
    pub crashed: bool,
}

impl MacroResult {
    /// Throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Runs `spec` over `alloc` with `threads` workers performing
/// `total_ops` operations in total (split evenly), over a table with
/// `buckets` buckets.
///
/// The store has exactly one EBR slot per worker, and the preload runs
/// through worker 0 itself: a slot no measured worker drives would park
/// the epoch token and stop reclamation for the whole run.
pub fn run_macro(
    alloc: &Arc<dyn PodAlloc>,
    spec: &WorkloadSpec,
    threads: u32,
    total_ops: u64,
    buckets: usize,
) -> MacroResult {
    let store = KvStore::new(buckets, threads as usize);
    let crashed = std::sync::atomic::AtomicBool::new(false);
    let done_ops = std::sync::atomic::AtomicU64::new(0);
    let frees = std::sync::atomic::AtomicU64::new(0);
    let mut workers: Vec<Option<KvThread>> = (0..threads)
        .map(|_| alloc.thread().ok().map(|handle| store.worker(handle)))
        .collect();

    // Preload phase (not measured).
    if let (true, Some(w)) = (spec.preload > 0, workers[0].as_mut()) {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let keygen = spec.key_generator();
        let preload = spec.preload.min(total_ops.max(10_000));
        for i in 0..preload {
            let key = match &keygen {
                workloads::KeyGen::Uniform { n } => i % n,
                workloads::KeyGen::Zipfian(z) => z.sample_scrambled(&mut rng),
            };
            use rand::Rng as _;
            let key_len = spec.key_size.sample(&mut rng);
            let value_len = spec.value_size.sample(&mut rng);
            let _ = rng.gen::<u8>();
            if w.insert(key, key_len, value_len).is_err() {
                break;
            }
        }
        w.drain_retired();
    }

    let ops_per_thread = (total_ops / threads as u64).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, worker) in workers.iter_mut().enumerate() {
            let crashed = &crashed;
            let done_ops = &done_ops;
            let frees = &frees;
            let spec = spec.clone();
            scope.spawn(move || {
                let Some(w) = worker else {
                    crashed.store(true, std::sync::atomic::Ordering::Relaxed);
                    return;
                };
                let mut stream = OpStream::new(spec, StdRng::seed_from_u64(7 + t as u64));
                let frees_before = w.frees();
                let mut completed = 0;
                for _ in 0..ops_per_thread {
                    let outcome = match stream.next_op() {
                        KvOp::Insert {
                            key,
                            key_len,
                            value_len,
                        } => w.insert(key, key_len, value_len).map(|_| ()),
                        KvOp::Read {
                            key,
                        } => {
                            let _ = w.get(key);
                            Ok(())
                        }
                        KvOp::Delete {
                            key,
                        } => {
                            let _ = w.delete(key);
                            Ok(())
                        }
                    };
                    match outcome {
                        Ok(()) => completed += 1,
                        Err(BenchError::Unsupported { .. }) => {
                            // The real system crashes here (cxl-shm on
                            // MC-12/MC-37).
                            crashed.store(true, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                        Err(_) => break, // OOM: stop this worker
                    }
                }
                done_ops.fetch_add(completed, std::sync::atomic::Ordering::Relaxed);
                frees.fetch_add(w.frees() - frees_before, std::sync::atomic::Ordering::Relaxed);
                w.drain_retired();
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let usage = alloc.memory_usage();
    MacroResult {
        workload: spec.name,
        allocator: alloc.props().name,
        threads,
        ops: done_ops.load(std::sync::atomic::Ordering::Relaxed),
        frees: frees.load(std::sync::atomic::Ordering::Relaxed),
        seconds,
        pss_bytes: usage.total(),
        metadata_bytes: usage.metadata_bytes,
        crashed: crashed.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Workload name.
    pub workload: &'static str,
    /// Allocator name.
    pub allocator: &'static str,
    /// Worker thread count.
    pub threads: u32,
    /// Alloc+free pairs completed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Memory usage (PSS proxy).
    pub pss_bytes: u64,
    /// Whether the run failed (allocator cannot run the workload — the
    /// §5.3 "no baselines" case for huge allocations).
    pub failed: bool,
}

impl MicroResult {
    /// Throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Runs a threadtest/xmalloc microbenchmark.
///
/// threadtest: each thread allocates a batch then frees it locally.
/// xmalloc: each thread sends its batch to the next thread (ring) for a
/// remote free.
pub fn run_micro(alloc: &Arc<dyn PodAlloc>, spec: &MicroSpec, threads: u32) -> MicroResult {
    let failed = std::sync::atomic::AtomicBool::new(false);
    let done_ops = std::sync::atomic::AtomicU64::new(0);
    let ops_per_thread = spec.ops_per_thread(threads);

    // Ring of channels for xmalloc-style remote frees. Huge objects get
    // tight bounds so in-flight address space stays within the heap.
    let channel_bound = if spec.object_size >= 1 << 20 { 2 } else { 16 };
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..threads)
        .map(|_| mpsc::sync_channel::<Vec<OffsetPtr>>(channel_bound))
        .unzip();
    let mut senders: Vec<Option<mpsc::SyncSender<Vec<OffsetPtr>>>> =
        senders.into_iter().map(Some).collect();
    let mut receivers: Vec<Option<mpsc::Receiver<Vec<OffsetPtr>>>> =
        receivers.into_iter().map(Some).collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads as usize {
            let alloc = alloc.clone();
            let failed = &failed;
            let done_ops = &done_ops;
            let spec = *spec;
            let to_next = senders[(t + 1) % threads as usize].take().unwrap();
            let from_prev = receivers[t].take().unwrap();
            scope.spawn(move || {
                let Ok(mut handle) = alloc.thread() else {
                    failed.store(true, std::sync::atomic::Ordering::Relaxed);
                    return;
                };
                let mut completed = 0u64;
                let mut batch = Vec::with_capacity(spec.batch);
                let mut remaining = ops_per_thread;
                while remaining > 0 && !failed.load(std::sync::atomic::Ordering::Relaxed) {
                    let n = (spec.batch as u64).min(remaining) as usize;
                    for _ in 0..n {
                        match handle.alloc(spec.object_size) {
                            Ok(p) => batch.push(p),
                            Err(_) => {
                                failed.store(true, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    if spec.remote_free && threads > 1 {
                        // Pass to the neighbour; drain what our
                        // predecessor sent us.
                        if to_next.send(std::mem::take(&mut batch)).is_err() {
                            break;
                        }
                        while let Ok(incoming) = from_prev.try_recv() {
                            for p in incoming {
                                if spec.object_size >= 1 << 20 {
                                    // Touch remote huge allocations so the
                                    // cross-process fault path (hazard
                                    // publish + map install) is exercised,
                                    // as the paper notes for xmalloc-huge.
                                    let raw = handle.resolve(p, 8);
                                    std::hint::black_box(unsafe { *raw });
                                }
                                let _ = handle.dealloc(p);
                            }
                        }
                    } else {
                        for p in batch.drain(..) {
                            let _ = handle.dealloc(p);
                        }
                    }
                    completed += n as u64;
                    remaining -= n as u64;
                    if spec.object_size >= 1 << 20 {
                        handle.maintain();
                    }
                }
                drop(to_next);
                // Final drain of the predecessor's leftovers.
                while let Ok(incoming) = from_prev.recv() {
                    for p in incoming {
                        let _ = handle.dealloc(p);
                    }
                }
                for p in batch {
                    let _ = handle.dealloc(p);
                }
                handle.maintain();
                done_ops.fetch_add(completed, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let usage = alloc.memory_usage();
    MicroResult {
        workload: spec.name,
        allocator: alloc.props().name,
        threads,
        ops: done_ops.load(std::sync::atomic::Ordering::Relaxed),
        seconds,
        pss_bytes: usage.total(),
        failed: failed.load(std::sync::atomic::Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::AllocatorKind;

    #[test]
    fn macro_run_smoke() {
        let alloc = AllocatorKind::Cxlalloc.build(512 << 20, 2, 8);
        let spec = WorkloadSpec {
            preload: 1000,
            ..WorkloadSpec::ycsb_a()
        };
        let result = run_macro(&alloc, &spec, 2, 5_000, 4096);
        assert!(!result.crashed);
        assert!(result.ops >= 4_000, "ops {}", result.ops);
        assert!(result.throughput() > 0.0);
        assert!(result.pss_bytes > 0);
    }

    /// `fig8_macro`'s default-scale 1-thread YCSB-A point on cxlalloc:
    /// with one EBR slot per measured worker the epoch advances during
    /// the run, so replaced and deleted entries are reclaimed before the
    /// final drain (a spare idle slot parks the token and reclaim
    /// stops). One worker keeps the count independent of how the OS
    /// schedules threads: token passing stalls while any slot's owner
    /// is not running.
    #[test]
    fn fig8_sized_cxlalloc_run_reclaims_during_the_run() {
        let options = crate::Options::default();
        let ops = options.ops(8_400_000);
        let spec = WorkloadSpec {
            preload: options.ops(8_400_000),
            ..WorkloadSpec::ycsb_a()
        };
        let threads = 1;
        let alloc = AllocatorKind::Cxlalloc.build(2 << 30, options.processes, threads + 2);
        let buckets = (ops as usize * 2).clamp(1 << 12, 1 << 22);
        let result = run_macro(&alloc, &spec, threads, ops, buckets);
        assert!(!result.crashed);
        // About one op in eight retires an entry that is reclaimed in
        // the run; a parked token reclaims next to nothing.
        assert!(
            result.frees * 20 >= result.ops,
            "only {} entries reclaimed during {} ops",
            result.frees,
            result.ops
        );
    }

    #[test]
    fn cxlshm_crashes_on_mc12() {
        let alloc = AllocatorKind::CxlShm.build(256 << 20, 2, 8);
        let result = run_macro(&alloc, &WorkloadSpec::mc12(), 2, 3_000, 1024);
        assert!(result.crashed, "cxl-shm must crash on >1KiB workloads");
    }

    #[test]
    fn micro_threadtest_smoke() {
        for kind in [AllocatorKind::Cxlalloc, AllocatorKind::Mimalloc] {
            let alloc = kind.build(256 << 20, 2, 8);
            let spec = MicroSpec::threadtest_small().scaled_down(1000);
            let result = run_micro(&alloc, &spec, 2);
            assert!(!result.failed, "{:?} failed", kind);
            assert_eq!(result.ops, spec.ops_per_thread(2) * 2);
        }
    }

    #[test]
    fn micro_xmalloc_smoke() {
        let alloc = AllocatorKind::Cxlalloc.build(256 << 20, 2, 8);
        let spec = MicroSpec::xmalloc_small().scaled_down(1000);
        let result = run_micro(&alloc, &spec, 4);
        assert!(!result.failed);
        assert!(result.ops > 0);
    }
}
