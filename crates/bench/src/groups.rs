//! Criterion benchmark groups shared by the bench harnesses.
//!
//! The bodies live here (not in `benches/`) so both the criterion
//! harnesses (`benches/alloc_paths.rs`, `benches/substrate.rs`) and the
//! `bench-snapshot` binary can run the same groups; `bench-snapshot`
//! additionally post-processes the [`criterion::BenchRecord`]s into
//! `BENCH_hotpath.json`.

use crate::allocators::{cxlalloc_pod, cxlalloc_pod_striped, cxlalloc_pod_striped_fabric};
use baselines::{CxlallocAdapter, PodAlloc, PodAllocThread};
use criterion::{Criterion, Throughput};
use cxl_core::cell::Detect;
use cxl_core::dcas::Dcas;
use cxl_core::{AttachOptions, ThreadId};
use cxl_pod::latency::{Clocks, LatencyModel};
use cxl_pod::nmp::NmpDevice;
use cxl_pod::stats::MemStats;
use cxl_pod::{CoreId, FabricConfig, HwccMode, Pod, PodConfig, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn thread(recoverable: bool) -> Box<dyn PodAllocThread> {
    let options = AttachOptions {
        recoverable,
        ..AttachOptions::default()
    };
    let alloc = CxlallocAdapter::new(cxlalloc_pod(1 << 30, 8, None), 1, options);
    alloc.thread().unwrap()
}

/// Local alloc/free fast path per heap, plus the recoverable-vs-not
/// ablation and the same path over the simulated SWcc substrate.
pub fn bench_local_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_alloc_free");
    group.throughput(Throughput::Elements(1));
    for (name, size) in [("small_64B", 64usize), ("small_1KiB", 1024), ("large_8KiB", 8192)] {
        let mut t = thread(true);
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = t.alloc(size).unwrap();
                t.dealloc(p).unwrap();
            })
        });
    }
    // Fragmentation-adversarial shape: hold the low 480 of the slab's
    // 512 blocks so every free bit lives in the top bitset words, then
    // churn. A scan-from-zero `find_set` walks ~7 dead words per alloc
    // here; the first-fit rover sits right on the free bit. (The held
    // blocks also pin the slab sized, so the churn never pays the
    // slab-reinit path. An 8-word bitmap is short, so most of the win
    // lives in the 8B variant below.)
    let mut t = thread(true);
    let held: Vec<_> = (0..480).map(|_| t.alloc(64).unwrap()).collect();
    group.bench_function("fragmented_small_64B", |b| {
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    for p in held {
        t.dealloc(p).unwrap();
    }
    // The same shape on the 8-byte class, whose slab bitmap is 64 words
    // (4096 blocks) instead of 8: hold all but the top six blocks, so a
    // scan-from-zero alloc walks ~63 dead words while the rover (pulled
    // back to the freed bit on every dealloc) lands exactly on the free
    // bit. This is where first-fit-with-hint pays for itself — the 64B
    // bitmap is too short for the scan to dominate.
    let mut t = thread(true);
    let held: Vec<_> = (0..4090).map(|_| t.alloc(8).unwrap()).collect();
    group.bench_function("fragmented_small_8B", |b| {
        b.iter(|| {
            let p = t.alloc(8).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    for p in held {
        t.dealloc(p).unwrap();
    }
    // The cxlalloc-nonrecoverable ablation (paper §5.2.1: ~0.3–5 %
    // difference on real hardware; higher here because the log flush is
    // a larger fraction of a simulated op).
    let mut t = thread(false);
    group.bench_function("small_64B_nonrecoverable", |b| {
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    // The same fast path over the simulated substrate, where every
    // descriptor access goes through the SWcc cache model: this is the
    // path the substrate hot-path work targets.
    for (name, mode) in [
        ("sim_limited_small_64B", HwccMode::Limited),
        ("sim_none_small_64B", HwccMode::None),
    ] {
        let alloc = CxlallocAdapter::new(
            cxlalloc_pod(64 << 20, 8, Some(mode)),
            1,
            AttachOptions::default(),
        );
        let mut t = alloc.thread().unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = t.alloc(64).unwrap();
                t.dealloc(p).unwrap();
            })
        });
    }
    group.finish();
}

/// Remote-free (m)CAS path: producer/consumer across threads. The
/// handoff gates the producer on the consumer's dealloc speed, so the
/// measured throughput is the remote-free path; the PR-4 amortizations
/// (batched publishes, magazines, coalesced fences) are enabled here —
/// the eager ablation lives in `remote_free_batched/eager_64B`.
///
/// The handoff is a slot-sentinel SPSC ring rather than
/// `std::sync::mpsc::sync_channel`: the channel's ~95 ns/op cost put a
/// ~210 ns floor under this group (PR-4 note in ROADMAP.md) that hid
/// the batching win end to end. A slot is empty while it holds 0 (no
/// valid block lives at offset 0), so each side needs one uncontended
/// atomic load plus one store per transfer. Waits spin briefly and
/// then yield: on a single-CPU box a pure spin wait burns the whole
/// timeslice while the peer is runnable but not running, and the ring
/// degenerates to one transfer per scheduler quantum.
pub fn bench_remote_free(c: &mut Criterion) {
    use cxl_core::OffsetPtr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn wait_until(slot: &AtomicU64, empty: bool) -> u64 {
        let mut spins = 0u32;
        loop {
            let raw = slot.load(Ordering::Acquire);
            if (raw == 0) == empty {
                return raw;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    let mut group = c.benchmark_group("remote_free");
    group.throughput(Throughput::Elements(1));
    group.bench_function("producer_consumer_64B", |b| {
        let options = AttachOptions {
            remote_free_batch: 16,
            magazine_capacity: 16,
            coalesce_fences: true,
            ..AttachOptions::default()
        };
        let alloc = CxlallocAdapter::new(cxlalloc_pod(1 << 30, 8, None), 1, options);
        const RING: usize = 1024;
        const CLOSE: u64 = u64::MAX;
        let ring: Arc<Vec<AtomicU64>> =
            Arc::new((0..RING).map(|_| AtomicU64::new(0)).collect());
        let consumer = std::thread::spawn({
            let alloc = alloc.clone();
            let ring = ring.clone();
            move || {
                let mut t = alloc.thread().unwrap();
                let mut i = 0usize;
                loop {
                    let slot = &ring[i & (RING - 1)];
                    let raw = wait_until(slot, false);
                    slot.store(0, Ordering::Release);
                    if raw == CLOSE {
                        break;
                    }
                    t.dealloc(OffsetPtr::decode(raw).unwrap()).unwrap();
                    i += 1;
                }
            }
        });
        let mut t = alloc.thread().unwrap();
        let mut i = 0usize;
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            let slot = &ring[i & (RING - 1)];
            wait_until(slot, true);
            slot.store(p.offset(), Ordering::Release);
            i += 1;
        });
        let slot = &ring[i & (RING - 1)];
        wait_until(slot, true);
        slot.store(CLOSE, Ordering::Release);
        consumer.join().unwrap();
    });
    group.finish();
}

/// The remote-free publish protocol in isolation: two registered
/// threads on one OS thread (no channel, no scheduler), one allocating
/// and the other freeing remotely, so the eager-vs-batched difference
/// is purely CAS-per-free vs CAS-per-batch.
pub fn bench_remote_free_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_free_batched");
    group.throughput(Throughput::Elements(1));
    for (name, batch, mode) in [
        ("eager_64B", 1u32, None),
        ("batch8_64B", 8, None),
        ("batch32_64B", 32, None),
        // The same pair over the simulated SWcc substrate, where the
        // publish CAS serializes through the coherent-CAS line clocks
        // and the log flush+fence are real simulated traffic — the
        // costs the paper's remote-free protocol actually pays.
        ("sim_eager_64B", 1, Some(HwccMode::Limited)),
        ("sim_batch16_64B", 16, Some(HwccMode::Limited)),
    ] {
        let alloc = CxlallocAdapter::new(
            cxlalloc_pod(if mode.is_some() { 64 << 20 } else { 1 << 30 }, 8, mode),
            1,
            AttachOptions {
                remote_free_batch: batch,
                coalesce_fences: batch > 1,
                ..AttachOptions::default()
            },
        );
        let mut owner = alloc.thread().unwrap();
        let mut freer = alloc.thread().unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = owner.alloc(64).unwrap();
                freer.dealloc(p).unwrap();
            })
        });
    }
    group.finish();
}

/// Local churn with and without the per-thread magazine: same
/// alloc/free pair, a handful of held blocks keeping the slab
/// partially live (a free that empties its slab bypasses the magazine
/// because the slab may be retired).
pub fn bench_magazines(c: &mut Criterion) {
    let mut group = c.benchmark_group("magazines");
    group.throughput(Throughput::Elements(1));
    for (name, capacity, mode) in [
        ("churn_64B_baseline", 0u32, None),
        ("churn_64B_magazine", 16, None),
        // On the wall-clock backend the magazine roughly breaks even
        // (a raw DRAM bitset scan is nearly free); the simulated SWcc
        // substrate is where the skipped descriptor traffic is real.
        ("sim_churn_64B_baseline", 0, Some(HwccMode::Limited)),
        ("sim_churn_64B_magazine", 16, Some(HwccMode::Limited)),
    ] {
        let alloc = CxlallocAdapter::new(
            cxlalloc_pod(if mode.is_some() { 64 << 20 } else { 1 << 30 }, 8, mode),
            1,
            AttachOptions {
                magazine_capacity: capacity,
                coalesce_fences: capacity > 0,
                ..AttachOptions::default()
            },
        );
        let mut t = alloc.thread().unwrap();
        // 480 of the slab's 512 blocks stay live: the first-fit scan
        // must walk ~7 full bitset words per alloc, which is exactly
        // the walk the magazine's block hint skips. (Held blocks also
        // keep the slab from going fully free, where frees bypass the
        // magazine because the slab may be retired.)
        let held: Vec<_> = (0..480).map(|_| t.alloc(64).unwrap()).collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = t.alloc(64).unwrap();
                t.dealloc(p).unwrap();
            })
        });
        for p in held {
            t.dealloc(p).unwrap();
        }
    }
    group.finish();
}

/// Huge-heap alloc/free/cleanup cycle.
pub fn bench_huge(c: &mut Criterion) {
    let mut group = c.benchmark_group("huge_heap");
    group.throughput(Throughput::Elements(1));
    let mut t = thread(true);
    group.bench_function("alloc_free_cleanup_4MiB", |b| {
        b.iter(|| {
            let p = t.alloc(4 << 20).unwrap();
            t.dealloc(p).unwrap();
            t.maintain();
        })
    });
    group.finish();
}

/// The slab free-bit scan in isolation, on the shape a long-lived
/// fragmented slab presents: one free bit high in an 8B-class bitmap
/// (4096 bits), 63 all-zero words before it. `find_set_sparse` runs
/// the allocator's strategy for that shape — `find_set_from` with a
/// carried rover hint, so only the first probe pays the full walk —
/// and is pinned by the CI `bench-snapshot --check` gate, so a change
/// that silently reintroduces the full rescan fails loudly;
/// `find_set_sparse_scan0` keeps the scan-from-zero cost visible for
/// attribution across PRs.
pub fn bench_bitset(c: &mut Criterion) {
    use cxl_core::bitset::BlockBits;
    let mut group = c.benchmark_group("bitset");
    const PROBES: u64 = 64;
    const NBITS: u32 = 4096;
    const FREE_BIT: u32 = 4090;
    group.throughput(Throughput::Elements(PROBES));
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let mem = pod.memory().clone();
    let core = CoreId(0);
    let bits = BlockBits::new(mem.as_ref(), pod.layout().small.bitset_at(0), NBITS);
    bits.set(core, FREE_BIT);
    group.bench_function("find_set_sparse", |b| {
        let mut hint = 0u32;
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..PROBES {
                let bit = bits.find_set_from(core, hint).unwrap();
                hint = bit;
                acc = acc.wrapping_add(bit);
            }
            acc
        })
    });
    group.bench_function("find_set_sparse_scan0", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..PROBES {
                acc = acc.wrapping_add(bits.find_set(core).unwrap());
            }
            acc
        })
    });
    group.finish();
}

/// Detectable CAS vs plain CAS primitives.
pub fn bench_cas(c: &mut Criterion) {
    let mut group = c.benchmark_group("cas_primitives");
    group.throughput(Throughput::Elements(1));
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let mem = pod.memory().clone();
    let off = pod.layout().small.global_len;
    let core = CoreId(0);

    group.bench_function("plain_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(core, off);
            mem.cas_u64(core, off, cur, cur.wrapping_add(1)).unwrap();
        })
    });

    let dcas = Dcas::new(mem.as_ref());
    let me = ThreadId::new(1).unwrap();
    let mut version = 0u16;
    group.bench_function("detectable_cas", |b| {
        b.iter(|| {
            let observed = dcas.read(core, off);
            version = version.wrapping_add(1);
            dcas.attempt(core, off, observed, observed.payload.wrapping_add(1), me, version)
                .unwrap();
        })
    });

    group.bench_function("detect_query", |b| {
        b.iter(|| dcas.detect(core, off, me, version))
    });
    group.finish();
}

/// The NMP mCAS device in isolation.
pub fn bench_nmp(c: &mut Criterion) {
    let mut group = c.benchmark_group("nmp_mcas");
    group.throughput(Throughput::Elements(1));
    let segment = Arc::new(Segment::zeroed(64 << 10).unwrap());
    let stats = Arc::new(MemStats::new());
    let nmp = NmpDevice::new(segment.clone(), 4, stats);
    let clocks = Clocks::new(4);
    let model = LatencyModel::paper_calibrated();
    group.bench_function("spwr_sprd_pair", |b| {
        b.iter(|| {
            let cur = segment.peek_u64(4096);
            nmp.mcas(0, 4096, cur, cur.wrapping_add(1), &clocks, &model)
        })
    });
    group.finish();
}

/// The simulated SWcc substrate's steady-state path: cached loads and
/// stores through the per-core cache model, flush writeback, and the
/// coherent-CAS path that serializes through the per-line clock table.
pub fn bench_swcc_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("swcc_substrate");
    group.throughput(Throughput::Elements(1));
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let mem = pod.memory().clone();
    // A descriptor offset: outside the HWcc window, so Limited mode
    // routes it through the software cache model.
    let off = pod.layout().small.swcc_desc_at(0);
    let core = CoreId(0);

    group.bench_function("cached_load", |b| b.iter(|| mem.load_u64(core, off)));
    group.bench_function("cached_load_store", |b| {
        b.iter(|| {
            let v = mem.load_u64(core, off);
            mem.store_u64(core, off, v.wrapping_add(1));
        })
    });
    group.bench_function("store_flush_fence", |b| {
        b.iter(|| {
            let v = mem.load_u64(core, off);
            mem.store_u64(core, off, v.wrapping_add(1));
            mem.flush(core, off, 8);
            mem.fence(core);
        })
    });
    // CAS is only legal on HWcc-region cells; in Limited mode that is
    // the coherent-CAS path that serializes through the per-line clock
    // table (formerly the global mutex + HashMap).
    let hwcc_off = pod.layout().small.hwcc_desc_at(0);
    group.bench_function("coherent_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(core, hwcc_off);
            let _ = mem.cas_u64(core, hwcc_off, cur, cur.wrapping_add(1));
        })
    });
    group.finish();
}

/// Packed 64-bit cell codecs.
pub fn bench_cell_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_codecs");
    group.throughput(Throughput::Elements(1));
    group.bench_function("detect_pack_unpack", |b| {
        let d = Detect {
            version: 77,
            tid: 3,
            payload: 123456,
        };
        b.iter(|| Detect::unpack(criterion::black_box(d.pack())))
    });
    group.finish();
}

/// Heartbeats, detector ticks, and the software-fallback CAS path.
pub fn bench_liveness(c: &mut Criterion) {
    use cxl_core::liveness::LivenessDetector;
    use cxl_core::Cxlalloc;
    use cxl_pod::fault::FaultRule;
    use cxl_pod::SimMemory;

    let mut group = c.benchmark_group("liveness");
    group.throughput(Throughput::Elements(1));

    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let t = heap.register_thread().unwrap();
    group.bench_function("heartbeat", |b| b.iter(|| t.heartbeat().unwrap()));

    let mut detector = LivenessDetector::new(pod.layout().max_threads, u32::MAX);
    let core = t.core();
    group.bench_function("detector_tick", |b| {
        b.iter(|| detector.tick(&heap, core).unwrap().scanned)
    });

    // CAS served by the software-fallback path: a persistent outage
    // keeps the breaker open (probes keep bouncing), so steady-state
    // traffic measures the degraded path.
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::None).unwrap();
    let sim = pod.memory().as_any().downcast_ref::<SimMemory>().unwrap();
    sim.faults().push(FaultRule::device_outage(u64::MAX));
    let mem = pod.memory().clone();
    let off = pod.layout().small.global_len;
    group.bench_function("fallback_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(CoreId(0), off);
            let _ = mem.cas_u64(CoreId(0), off, cur, cur.wrapping_add(1));
        })
    });
    group.finish();
}

/// KV-store worker ops over the mimalloc-like baseline.
pub fn bench_kvstore(c: &mut Criterion) {
    use baselines::MiLike;
    use kvstore::KvStore;
    let mut group = c.benchmark_group("kvstore");
    group.throughput(Throughput::Elements(1));
    let alloc = MiLike::new(512 << 20);
    // Exactly one EBR slot per worker (here: one); a spare idle slot
    // would park the epoch token there and stop reclamation.
    let store = KvStore::new(1 << 14, 1);
    let mut w = store.worker(alloc.thread().unwrap());
    for key in 0..10_000 {
        w.insert(key, 8, 64).unwrap();
    }
    let mut key = 0u64;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 10_000;
            w.get(key).unwrap()
        })
    });
    group.bench_function("insert_replace", |b| {
        b.iter(|| {
            key = (key + 1) % 10_000;
            w.insert(key, 8, 64).unwrap();
        })
    });
    // The same workload over cxlalloc itself (the MiLike labels above
    // are the baseline and cannot reflect allocator changes): eager,
    // and with the PR-4 amortizations on. Replaced entries are freed on
    // the inserting thread after an EBR epoch, so magazines and fence
    // coalescing are the active levers here.
    for (name, options) in [
        ("insert_replace_cxl", AttachOptions::default()),
        (
            "insert_replace_cxl_batched",
            AttachOptions {
                remote_free_batch: 16,
                magazine_capacity: 16,
                coalesce_fences: true,
                ..AttachOptions::default()
            },
        ),
    ] {
        let alloc = CxlallocAdapter::new(cxlalloc_pod(1 << 30, 8, None), 1, options);
        let store = KvStore::new(1 << 14, 1);
        let mut w = store.worker(alloc.thread().unwrap());
        for key in 0..10_000 {
            w.insert(key, 8, 64).unwrap();
        }
        let mut key = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                key = (key + 1) % 10_000;
                w.insert(key, 8, 64).unwrap();
            })
        });
    }
    group.finish();
}

/// Workload generation (Zipfian sampling, MC12 op streams).
pub fn bench_workloads(c: &mut Criterion) {
    use workloads::{OpStream, WorkloadSpec, Zipfian};
    let mut group = c.benchmark_group("workload_generation");
    group.throughput(Throughput::Elements(1));
    let z = Zipfian::ycsb(8_400_000);
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("zipfian_sample", |b| {
        b.iter(|| z.sample_scrambled(&mut rng))
    });
    let mut stream = OpStream::new(WorkloadSpec::mc12(), StdRng::seed_from_u64(2));
    group.bench_function("mc12_next_op", |b| b.iter(|| stream.next_op()));
    group.finish();
}

/// Blocks per host per round of the remote-free host-scaling kernel:
/// one full small slab, so every round cycles each host's slab through
/// remote-free counters, slab stealing, and the global free list.
const HOST_SCALING_BLOCKS: usize = 512;

/// Insert/replace ops per host per round of the kvstore host-scaling
/// kernel.
const HOST_SCALING_KV_OPS: usize = 256;

/// Stripe count of the sharded configuration (one stripe per possible
/// host at the sweep's widest point).
const HOST_SCALING_STRIPES: u32 = 64;

/// The two swept configurations: the unsharded baseline (single global
/// free-list head, the paper's eager §3.2.1 publish protocol) vs the
/// sharded heap (64 per-host-stripe freelists) with batched publishes
/// and contention-adaptive flat combining on top.
fn host_scaling_variants() -> [(&'static str, u32, AttachOptions); 2] {
    // `unsized_limit: 0` on both sides: every emptied slab overflows to
    // the global free list instead of parking on the thread-local
    // unsized list, so the sweep actually exercises the stripe layer
    // rather than the local cache in front of it.
    [
        (
            "unsharded",
            1,
            AttachOptions {
                unsized_limit: 0,
                ..AttachOptions::default()
            },
        ),
        (
            "sharded",
            HOST_SCALING_STRIPES,
            AttachOptions {
                unsized_limit: 0,
                remote_free_batch: 64,
                magazine_capacity: 32,
                coalesce_fences: true,
                combining: true,
                ..AttachOptions::default()
            },
        ),
    ]
}

/// One round of the remote-free host-scaling kernel: every host
/// allocates a slab's worth of 64B blocks and scatters them round-robin
/// over its peers, then every host frees what it received. With more
/// than one host every free is a remote free (a publish CAS into the
/// owner slab's counter line, touched by every peer core in turn), and
/// every emptied slab is stolen and crosses the global free list.
fn host_scaling_round(
    team: &mut [cxl_core::ThreadHandle],
    routed: &mut [Vec<cxl_core::OffsetPtr>],
    per_host: usize,
) {
    let hosts = team.len();
    for (i, t) in team.iter_mut().enumerate() {
        for j in 0..per_host {
            let p = t.alloc(64).unwrap();
            let dst = if hosts == 1 { 0 } else { (i + 1 + j % (hosts - 1)) % hosts };
            routed[dst].push(p);
        }
    }
    for (t, received) in team.iter_mut().zip(routed.iter_mut()) {
        for p in received.drain(..) {
            t.dealloc(p).unwrap();
        }
    }
}

/// The remote-free kernel with host-interleaved issue order (one op per
/// host per turn), used for the congested-fabric sweep. The fabric's
/// stations are issue-order FIFO over per-core virtual clocks, so the
/// batched kernel above — which runs each host's whole batch before the
/// next host's — would push a station's busy-clock to the end of host
/// 0's batch and make host 1's first (virtual-time-earlier) request
/// wait behind all of it: a global-lock artifact of the sequential
/// driver, not queueing. Interleaving keeps the per-core clocks in
/// lockstep, so station waits measure genuine backlog instead.
fn host_scaling_round_interleaved(
    team: &mut [cxl_core::ThreadHandle],
    routed: &mut [Vec<cxl_core::OffsetPtr>],
    per_host: usize,
) {
    let hosts = team.len();
    for j in 0..per_host {
        for (i, t) in team.iter_mut().enumerate() {
            let p = t.alloc(64).unwrap();
            let dst = if hosts == 1 { 0 } else { (i + 1 + j % (hosts - 1)) % hosts };
            routed[dst].push(p);
        }
    }
    let mut drained = false;
    while !drained {
        drained = true;
        for (t, received) in team.iter_mut().zip(routed.iter_mut()) {
            if let Some(p) = received.pop() {
                t.dealloc(p).unwrap();
                drained = false;
            }
        }
    }
}

/// Latest virtual time across every simulated core — the sweep's
/// makespan clock. The wall clock of a round-robin driver charges a
/// 357 ns line fill and a 4 ns cache hit the same bookkeeping cost, so
/// host-scaling throughput is read from the substrate's modeled time
/// (per-core clocks, with contended CAS lines serialized through the
/// per-line resource clocks), not from wall time.
fn sim_now_ns(mem: &dyn cxl_pod::PodMemory) -> u64 {
    let sim = mem
        .as_any()
        .downcast_ref::<cxl_pod::SimMemory>()
        .expect("host-scaling sweep runs on the simulated substrate");
    let clocks = sim.clocks();
    (0..clocks.len()).map(|c| clocks.now(c)).max().unwrap_or(0)
}

/// Sum of virtual time across every simulated core — the sweep's
/// aggregate-latency clock. Dividing the makespan by total ops rewards
/// parallelism (32 hosts split one timeline), so the congested knee —
/// each host's ops getting *slower* as offered load outruns the device
/// port — is read from this sum instead: Σ per-core deltas / total ops
/// is the mean modeled latency one op actually experienced.
fn sim_sum_ns(mem: &dyn cxl_pod::PodMemory) -> u64 {
    let sim = mem
        .as_any()
        .downcast_ref::<cxl_pod::SimMemory>()
        .expect("host-scaling sweep runs on the simulated substrate");
    let clocks = sim.clocks();
    (0..clocks.len()).map(|c| clocks.now(c)).sum()
}

/// Untimed rounds over which every host-scaling point takes its modeled
/// counters. The timed criterion loop runs a wall-clock-dependent
/// number of rounds, so counters read across it would vary run to run
/// on unchanged code; a fixed window makes every modeled field of a
/// record a pure function of the code.
const HOST_SCALING_MODELED_ROUNDS: u64 = 8;

/// Modeled cost of a fixed window of host-scaling rounds.
struct Modeled {
    delta: cxl_pod::stats::MemStatsSnapshot,
    /// Advance of the maximum per-core virtual clock.
    sim_ns: u64,
    /// Sum of per-core virtual-clock advances.
    sim_sum: u64,
    /// Block ops the window issued.
    ops: u64,
}

/// Runs `round` [`HOST_SCALING_MODELED_ROUNDS`] times (untimed) and
/// returns what the window cost on the simulated substrate.
fn modeled_window(
    mem: &dyn cxl_pod::PodMemory,
    ops_per_round: u64,
    mut round: impl FnMut(),
) -> Modeled {
    let before = mem.stats();
    let sim_before = sim_now_ns(mem);
    let sum_before = sim_sum_ns(mem);
    for _ in 0..HOST_SCALING_MODELED_ROUNDS {
        round();
    }
    Modeled {
        delta: mem.stats().since(&before),
        sim_ns: sim_now_ns(mem) - sim_before,
        sim_sum: sim_sum_ns(mem) - sum_before,
        ops: HOST_SCALING_MODELED_ROUNDS * ops_per_round,
    }
}

/// Attaches the sweep's per-point counters (modeled ns/op, CAS retries
/// with per-site attribution, line-contention traffic, combining
/// activity, remote-buffer evictions) to the record just produced,
/// normalized per block op / per 1k block ops.
fn annotate_host_scaling(group: &mut criterion::BenchmarkGroup<'_>, m: &Modeled) {
    let (delta, ops) = (&m.delta, m.ops);
    let per_kop = |n: u64| n as f64 * 1000.0 / ops as f64;
    group.annotate_last("sim_ns_per_op", m.sim_ns as f64 / ops as f64);
    group.annotate_last("cas_retries_per_kop", per_kop(delta.cas_retries));
    group.annotate_last(
        "pop_global_retries_per_kop",
        per_kop(delta.cas_retries_pop_global),
    );
    group.annotate_last(
        "publish_retries_per_kop",
        per_kop(delta.cas_retries_remote_publish),
    );
    group.annotate_last(
        "line_transfers_per_kop",
        per_kop(delta.line_fills + delta.writebacks),
    );
    group.annotate_last("comb_wins_per_kop", per_kop(delta.comb_wins));
    group.annotate_last(
        "remote_evictions_per_kop",
        per_kop(delta.remote_buf_evictions),
    );
    // Fabric attribution, attached only when the pod actually crossed a
    // (non-disabled) fabric so uncongested records keep their pre-PR-10
    // field set byte-for-byte.
    if delta.fabric_requests > 0 {
        group.annotate_last("sim_latency_ns_per_op", m.sim_sum as f64 / ops as f64);
        group.annotate_last(
            "fabric_queue_ns_per_op",
            delta.fabric_queue_ns as f64 / ops as f64,
        );
        group.annotate_last(
            "fabric_service_ns_per_op",
            delta.fabric_service_ns as f64 / ops as f64,
        );
        group.annotate_last("fabric_saturated_per_kop", per_kop(delta.fabric_saturated));
    }
}

/// Host-scaling sweep (PR 8): 1–64 simulated hosts over the remote-free
/// and kvstore paths, unsharded vs sharded+combining. Hosts are
/// registered handles on distinct simulated cores driven round-robin on
/// one OS thread over the `HwccMode::Limited` substrate: on the
/// wall-clock backend a CI box's scheduler would drown the coherence
/// signal, while here every cross-host line transfer and publish CAS is
/// real measured work and also shows up in the `MemStats` counters
/// attached to each record.
pub fn bench_host_scaling(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 2, 4, 8, 16, 32, 64], true, None);
}

/// CI smoke variant of [`bench_host_scaling`]: just the 1- and 32-host
/// endpoints of the remote-free sweep — the points the
/// `bench-snapshot --check` scaling gate reads.
pub fn bench_host_scaling_smoke(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 32], false, None);
}

/// The host-scaling sweep on a congested fabric (PR 10): identical
/// kernel and configurations, but every line fill, writeback, and NMP
/// op additionally crosses the [`FabricConfig::congested`] queueing
/// model, so per-op latency (`sim_latency_ns_per_op`: per-core clock
/// deltas summed over total ops) picks up an inflection — the
/// saturation knee — as hosts outrun the device port, absent from the
/// uncongested curve. Records also carry `fabric_queue_ns_per_op` /
/// `fabric_service_ns_per_op` / `fabric_saturated_per_kop` counters.
pub fn bench_host_scaling_congested(c: &mut Criterion) {
    host_scaling_sweep(
        c,
        &[1, 2, 4, 8, 16, 32, 64],
        false,
        Some(FabricConfig::congested()),
    );
}

/// CI smoke variant of [`bench_host_scaling_congested`]: the 1- and
/// 32-host endpoints the congested `bench-snapshot --check` knee gate
/// reads.
pub fn bench_host_scaling_congested_smoke(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 32], false, Some(FabricConfig::congested()));
}

fn host_scaling_sweep(
    c: &mut Criterion,
    host_counts: &[u32],
    with_kvstore: bool,
    fabric: Option<FabricConfig>,
) {
    use cxl_core::{Cxlalloc, OffsetPtr, ThreadHandle};
    use kvstore::KvStore;

    let build_pod = |stripes: u32| match fabric {
        Some(config) => {
            cxlalloc_pod_striped_fabric(64 << 20, 80, stripes, HwccMode::Limited, config)
        }
        None => cxlalloc_pod_striped(64 << 20, 80, stripes, Some(HwccMode::Limited)),
    };
    let group_name = if fabric.is_some() {
        "host_scaling_congested"
    } else {
        "host_scaling"
    };
    let mut group = c.benchmark_group(group_name);
    for &hosts in host_counts {
        for (variant, stripes, options) in host_scaling_variants() {
            let pod = build_pod(stripes);
            let mem = pod.memory().clone();
            let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
            let mut team: Vec<ThreadHandle> =
                (0..hosts).map(|_| heap.register_thread().unwrap()).collect();
            if stripes > 1 && hosts > 2 {
                // The governor engages combining from the observed CAS
                // retry rate, but a round-robin schedule on one OS
                // thread never loses a CAS, so the sweep pins the
                // combiner at the boost the governor would converge to
                // under real multi-host contention (DESIGN.md §13).
                for t in &team {
                    t.force_combining(4);
                }
            }
            let mut routed: Vec<Vec<OffsetPtr>> = (0..hosts)
                .map(|_| Vec::with_capacity(2 * HOST_SCALING_BLOCKS))
                .collect();
            let ops_per_round = hosts as u64 * HOST_SCALING_BLOCKS as u64;
            group.throughput(Throughput::Elements(ops_per_round));
            // Congested runs use the interleaved kernel (see
            // `host_scaling_round_interleaved`) plus one untimed round:
            // from all-zero clocks even interleaved issue briefly skews,
            // and a warm round lets the stations reach steady state.
            let round: fn(&mut [cxl_core::ThreadHandle], &mut [Vec<OffsetPtr>], usize) =
                if fabric.is_some() {
                    host_scaling_round_interleaved
                } else {
                    host_scaling_round
                };
            if fabric.is_some() {
                round(&mut team, &mut routed, HOST_SCALING_BLOCKS);
            }
            let modeled = modeled_window(mem.as_ref(), ops_per_round, || {
                round(&mut team, &mut routed, HOST_SCALING_BLOCKS)
            });
            group.bench_function(format!("remote_free_h{hosts}_{variant}"), |b| {
                b.iter(|| round(&mut team, &mut routed, HOST_SCALING_BLOCKS))
            });
            annotate_host_scaling(&mut group, &modeled);
        }
    }

    if with_kvstore {
        // The same sweep at the kvstore layer: hosts share one key
        // space, so each replace retires a value some *other* host
        // allocated and the EBR-deferred free follows the remote-free
        // path; allocator-side contention is diluted by the (DRAM-side)
        // table walk, which is the point of measuring it separately.
        const KV_KEYS: u64 = 4096;
        for &hosts in host_counts {
            for (variant, stripes, options) in host_scaling_variants() {
                let pod = build_pod(stripes);
                let mem = pod.memory().clone();
                let alloc = CxlallocAdapter::new(pod, 1, options);
                // One EBR slot per worker: an idle slot would park the
                // epoch token and stall reclamation between drains.
                let store = KvStore::new(1 << 12, hosts as usize);
                let mut workers: Vec<_> = (0..hosts)
                    .map(|_| store.worker(alloc.thread().unwrap()))
                    .collect();
                for key in 0..KV_KEYS {
                    workers[0].insert(key, 8, 64).unwrap();
                }
                let mut cursor = 0u64;
                let mut round = || {
                    for (i, w) in workers.iter_mut().enumerate() {
                        for _ in 0..HOST_SCALING_KV_OPS {
                            cursor = cursor.wrapping_add(1);
                            let key = cursor
                                .wrapping_mul(2654435761)
                                .wrapping_add(i as u64 * 97)
                                % KV_KEYS;
                            w.insert(key, 8, 64).unwrap();
                        }
                        w.drain_retired();
                    }
                };
                let ops_per_round = hosts as u64 * HOST_SCALING_KV_OPS as u64;
                group.throughput(Throughput::Elements(ops_per_round));
                let modeled = modeled_window(mem.as_ref(), ops_per_round, &mut round);
                group.bench_function(format!("kvstore_h{hosts}_{variant}"), |b| {
                    b.iter(&mut round)
                });
                annotate_host_scaling(&mut group, &modeled);
            }
        }
    }
    group.finish();
}

/// Every group of the `alloc_paths` harness.
pub fn alloc_paths(c: &mut Criterion) {
    bench_local_paths(c);
    bench_remote_free(c);
    bench_remote_free_batched(c);
    bench_magazines(c);
    bench_huge(c);
}

/// Every group of the `substrate` harness.
pub fn substrate(c: &mut Criterion) {
    bench_bitset(c);
    bench_cas(c);
    bench_nmp(c);
    bench_swcc_substrate(c);
    bench_cell_codecs(c);
    bench_liveness(c);
    bench_kvstore(c);
    bench_workloads(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record's path and counters from a small host-scaling sweep.
    fn sweep_counters(fabric: Option<FabricConfig>) -> Vec<(String, Vec<(String, f64)>)> {
        let mut c = Criterion::default().sample_size(2);
        host_scaling_sweep(&mut c, &[1, 4], true, fabric);
        c.take_records()
            .into_iter()
            .map(|r| (r.path(), r.counters))
            .collect()
    }

    /// The modeled counters come from a fixed untimed window, so two
    /// runs agree exactly however many rounds the timed loops ran.
    #[test]
    fn host_scaling_modeled_counters_repeat_exactly() {
        for fabric in [None, Some(FabricConfig::congested())] {
            let first = sweep_counters(fabric);
            assert_eq!(first.len(), 8, "2 host counts x 2 kernels x 2 variants");
            assert!(first.iter().all(|(_, counters)| !counters.is_empty()));
            assert_eq!(first, sweep_counters(fabric));
        }
    }
}
