//! PR 4 acceptance tests: batched remote frees, per-thread magazines,
//! and fence coalescing.
//!
//! * Crash matrix over the batched publish path
//!   ([`cxl_core::slab::BATCH_CRASH_POINTS`]): a decrement-by-k must be
//!   crash-equivalent to k delayed decrements-by-1 — the logged batch
//!   width lets recovery redo exactly the undelivered decrement, and
//!   detect prevents a double decrement when the CAS already landed.
//! * Differential proptest: magazine-enabled and magazine-disabled
//!   heaps driven by the same op sequence produce identical
//!   post-quiesce slab bitsets and identical bitset-visible live bytes
//!   at every quiesce point.
//! * Differential (seeded): a producer/consumer run with batch 8 ends
//!   with exactly the HWcc counters of the eager (batch 1) run once the
//!   consumer's buffer drains at its quiesce point.
//! * Singleton-aware admission: frees scattered over more slabs than
//!   the buffer has slots mix bypassed (eager) and buffered frees; a
//!   crash at every `slab::remote_free::*` point recovers to census =
//!   ledger with zero lost and zero phantom blocks.

use cxl_core::bitset::BlockBits;
use cxl_core::cell::{flags, Detect, SwccHeader};
use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr, ThreadId};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pod() -> Pod {
    Pod::with_simulation(
        PodConfig {
            small_max_slabs: 256,
            ..PodConfig::small_for_tests()
        },
        HwccMode::Limited,
    )
    .unwrap()
}

/// Attach options with every PR-4 amortization enabled.
fn batched_options(batch: u32) -> AttachOptions {
    AttachOptions {
        remote_free_batch: batch,
        magazine_capacity: 4,
        coalesce_fences: true,
        ..AttachOptions::default()
    }
}

/// Runs `victim` on a fresh thread with a crash plan armed; returns the
/// victim's tid plus whether the crash fired.
fn crash_thread(
    heap: &Cxlalloc,
    plan: CrashPlan,
    victim: impl FnOnce(&mut cxl_core::ThreadHandle) + Send,
) -> (ThreadId, bool) {
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut t = heap.register_thread().unwrap();
            let tid = t.tid();
            crash::arm(plan);
            let crashed = crash::catch(std::panic::AssertUnwindSafe(|| victim(&mut t))).is_err();
            crash::disarm();
            (tid, crashed)
        })
        .join()
        .unwrap()
    })
}

/// Reads a small-heap slab's HWcc remote counter from durable memory.
fn remote_counter(pod: &Pod, slab: u32) -> u32 {
    let mem = pod.memory().as_ref();
    Detect::unpack(mem.load_u64(CoreId(13), mem.layout().small.hwcc_desc_at(slab))).payload
}

/// Crash matrix: every label between buffering and publish, at several
/// skips, with a live survivor and cross-thread recovery + invariants.
#[test]
fn batched_publish_crash_points_recover() {
    for &point in cxl_core::slab::BATCH_CRASH_POINTS {
        for skip in [0u32, 10] {
            let pod = pod();
            let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(8)).unwrap();
            let mut producer = heap.register_thread().unwrap();
            let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

            let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip }, |t| {
                for p in &ptrs {
                    t.dealloc(*p).unwrap();
                }
            });
            assert!(crashed, "never reached {point} (skip {skip})");
            heap.mark_crashed(tid).unwrap();

            // The producer keeps working while the victim is dead.
            for _ in 0..100 {
                let p = producer.alloc(64).unwrap();
                producer.dealloc(p).unwrap();
            }

            let report = heap.recover(tid, producer.core()).unwrap();
            assert!(report.interrupted.is_some(), "{point} skip {skip}");
            heap.check_invariants(producer.core())
                .unwrap_or_else(|e| panic!("invariants after {point} skip {skip}: {e}"));

            // The adopted slot is fully usable; frees that were still
            // buffered at the crash were republished from the victim's
            // durable header line during recovery (see
            // `buffered_frees_republished_after_crash` for the direct
            // counter assertion).
            let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
            let fresh: Vec<OffsetPtr> = (0..256).map(|_| adopted.alloc(64).unwrap()).collect();
            for p in fresh {
                adopted.dealloc(p).unwrap();
            }
            heap.check_invariants(adopted.core()).unwrap();
        }
    }
}

/// The batched final publish steals the slab; crashing between the
/// decrement-to-zero and the steal push must still recover the slab.
#[test]
fn batched_steal_crash_point_recovers() {
    let pod = pod();
    let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(8)).unwrap();
    let mut producer = heap.register_thread().unwrap();
    let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

    let (tid, crashed) = crash_thread(
        &heap,
        CrashPlan {
            at: "slab::remote_free::before_steal_push",
            skip: 0,
        },
        |t| {
            for p in &ptrs {
                t.dealloc(*p).unwrap();
            }
        },
    );
    assert!(crashed, "batched drain never reached the steal");
    heap.mark_crashed(tid).unwrap();
    let slabs_before = heap.stats().small_slabs;
    let (mut adopted, report) = heap.adopt(tid, CoreId(5)).unwrap();
    assert!(
        report.outcome.contains("stolen") || report.outcome.contains("redone"),
        "unexpected outcome: {}",
        report.outcome
    );
    // The stolen slab is on the adopted thread's unsized list: new
    // allocations must not extend the heap.
    let p: Vec<OffsetPtr> = (0..512).map(|_| adopted.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs_before);
    for ptr in p {
        adopted.dealloc(ptr).unwrap();
    }
    heap.check_invariants(adopted.core()).unwrap();
}

/// Decrement-by-k ≡ k decrements-by-1, verified on the counter itself:
/// a crash before the CAS leaves the counter untouched and recovery
/// redoes the full logged width; a crash after the CAS leaves it
/// decremented by exactly k and detect forbids a second decrement.
#[test]
fn publish_crash_counter_equivalence() {
    const BATCH: u32 = 4;
    for (point, at_crash, after_recovery) in [
        // CAS not yet attempted: 512 at crash, redo lands the 4.
        ("slab::remote_free::publish_after_log", 512u32, 508u32),
        // CAS landed: already 508, detect must not redo.
        ("slab::remote_free::publish_after_cas", 508, 508),
    ] {
        let pod = pod();
        let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(BATCH)).unwrap();
        let mut producer = heap.register_thread().unwrap();
        // Exactly one 64 B slab (512 blocks), full and detached.
        let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();
        let slab = pod.layout().small.slab_of(ptrs[0].offset()).unwrap();
        assert_eq!(remote_counter(&pod, slab), 512);

        let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip: 0 }, |t| {
            // The BATCH-th free fills the slab's buffer entry and
            // triggers the publish this plan crashes.
            for p in &ptrs[..BATCH as usize] {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed, "never reached {point}");
        assert_eq!(remote_counter(&pod, slab), at_crash, "{point}: counter at crash");
        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, producer.core()).unwrap();
        assert!(report.interrupted.is_some(), "{point}");
        assert_eq!(
            remote_counter(&pod, slab),
            after_recovery,
            "{point}: counter after recovery"
        );
        heap.check_invariants(producer.core()).unwrap();
    }
}

/// The PR-4 deferral, closed: frees that are *buffered but unpublished*
/// when a thread dies must survive the crash. The victim buffers 5
/// frees against slab A (below the batch threshold, so they only exist
/// in its DRAM buffer and its durable header line), then crashes inside
/// the publish of slab B's full batch. Recovery must (a) settle slab
/// B's logged batch exactly once — redo when the CAS had not landed,
/// detect-skip when it had — and (b) republish slab A's 5 buffered
/// decrements from the durable line, leaving zero leaked blocks.
#[test]
fn buffered_frees_republished_after_crash() {
    const BATCH: u32 = 8;
    for (point, b_at_crash) in [
        // CAS not yet attempted: B still holds all 512 at the crash.
        ("slab::remote_free::publish_after_log", 512u32),
        // CAS landed: B already decremented by the batch.
        ("slab::remote_free::publish_after_cas", 504),
    ] {
        let pod = pod();
        let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(BATCH)).unwrap();
        let mut producer = heap.register_thread().unwrap();
        // Two full 64 B slabs: A = ptrs[..512], B = ptrs[512..].
        let ptrs: Vec<OffsetPtr> = (0..1024).map(|_| producer.alloc(64).unwrap()).collect();
        let slab_a = pod.layout().small.slab_of(ptrs[0].offset()).unwrap();
        let slab_b = pod.layout().small.slab_of(ptrs[512].offset()).unwrap();
        assert_ne!(slab_a, slab_b);

        let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip: 0 }, |t| {
            // 5 buffered frees against A (durably recorded, unpublished)…
            for p in &ptrs[..5] {
                t.dealloc(*p).unwrap();
            }
            // …then fill B's buffer entry; the 8th free triggers the
            // publish this plan crashes inside.
            for p in &ptrs[512..512 + BATCH as usize] {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed, "never reached {point}");
        assert_eq!(remote_counter(&pod, slab_a), 512, "{point}: A untouched at crash");
        assert_eq!(remote_counter(&pod, slab_b), b_at_crash, "{point}: B at crash");

        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, producer.core()).unwrap();
        assert!(report.interrupted.is_some(), "{point}");
        assert_eq!(
            remote_counter(&pod, slab_a),
            507,
            "{point}: A's buffered frees must be republished, not leaked"
        );
        assert_eq!(
            remote_counter(&pod, slab_b),
            504,
            "{point}: B's logged batch must land exactly once"
        );
        heap.check_invariants(producer.core()).unwrap();

        // A second recovery pass must be a no-op: the durable line was
        // drained, so nothing can be republished twice.
        let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
        assert_eq!(remote_counter(&pod, slab_a), 507, "{point}: adopt must not republish");
        assert_eq!(remote_counter(&pod, slab_b), 504, "{point}: adopt must not republish");
        let fresh: Vec<OffsetPtr> = (0..64).map(|_| adopted.alloc(64).unwrap()).collect();
        for p in fresh {
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(adopted.core()).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Magazine differential: same ops, magazines on vs off.
// ---------------------------------------------------------------------------

/// Sums live (allocated) bytes of the small heap's sized slabs from the
/// durable bitsets, and hashes the full durable bitset image. The
/// reader flushes its own lines first so repeated quiesce reads on the
/// same core never see stale cache contents.
fn durable_small_image(pod: &Pod, class: u8) -> (u64, u64) {
    let mem = pod.memory().as_ref();
    let core = CoreId(13);
    let hl = &mem.layout().small;
    let table = cxl_core::class::SMALL_CLASSES_TABLE;
    let blocks = table.blocks_per_slab(class);
    let len = Detect::unpack(mem.load_u64(core, hl.global_len)).payload;
    let mut live = 0u64;
    let mut hash = 0xcbf29ce484222325u64; // FNV-1a
    for slab in 0..len {
        mem.flush(core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
        mem.fence(core);
        let header = SwccHeader::unpack(mem.load_u64(core, hl.swcc_desc_at(slab)));
        let sized = header.flags & flags::SIZED != 0;
        if sized {
            assert_eq!(header.class, class, "single-class workload");
            let bits = BlockBits::new(mem, hl.bitset_at(slab), blocks);
            live += (blocks - bits.count_set(core)) as u64 * table.block_size(class) as u64;
        }
        for w in 0..(blocks as u64).div_ceil(64) {
            let word = mem.load_u64(core, hl.bitset_at(slab) + w * 8);
            hash = (hash ^ word).wrapping_mul(0x100000001b3);
        }
    }
    (live, hash)
}

#[derive(Debug, Clone)]
enum DiffOp {
    Alloc,
    FreeOldest,
    FreeNewest,
    Quiesce,
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        4 => Just(DiffOp::Alloc),
        2 => Just(DiffOp::FreeOldest),
        2 => Just(DiffOp::FreeNewest),
        1 => Just(DiffOp::Quiesce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Magazines are semantically invisible: the same single-class op
    /// sequence on a magazine-enabled and a magazine-disabled heap
    /// yields, at every quiesce point and after a full drain, identical
    /// bitset-visible live bytes (== the model's) and an identical
    /// durable bitset image.
    #[test]
    fn magazine_differential_identical_quiesce_state(
        ops in proptest::collection::vec(diff_op(), 1..250)
    ) {
        let class = cxl_core::class::SMALL_CLASSES_TABLE.class_of(64).unwrap();
        let pod_off = pod();
        let pod_on = pod();
        let heap_off =
            Cxlalloc::attach(pod_off.spawn_process(), AttachOptions::default()).unwrap();
        let heap_on = Cxlalloc::attach(pod_on.spawn_process(), AttachOptions {
            magazine_capacity: 8,
            coalesce_fences: true,
            ..AttachOptions::default()
        })
        .unwrap();
        let mut t_off = heap_off.register_thread().unwrap();
        let mut t_on = heap_on.register_thread().unwrap();

        let mut live_off: Vec<OffsetPtr> = Vec::new();
        let mut live_on: Vec<OffsetPtr> = Vec::new();
        for op in &ops {
            match op {
                DiffOp::Alloc => {
                    live_off.push(t_off.alloc(64).unwrap());
                    live_on.push(t_on.alloc(64).unwrap());
                }
                DiffOp::FreeOldest => {
                    if !live_off.is_empty() {
                        t_off.dealloc(live_off.remove(0)).unwrap();
                        t_on.dealloc(live_on.remove(0)).unwrap();
                    }
                }
                DiffOp::FreeNewest => {
                    if let Some(p) = live_off.pop() {
                        t_off.dealloc(p).unwrap();
                        t_on.dealloc(live_on.pop().unwrap()).unwrap();
                    }
                }
                DiffOp::Quiesce => {
                    t_off.flush_cache();
                    t_on.flush_cache();
                    let (bytes_off, _) = durable_small_image(&pod_off, class);
                    let (bytes_on, _) = durable_small_image(&pod_on, class);
                    prop_assert_eq!(bytes_off, live_off.len() as u64 * 64);
                    prop_assert_eq!(bytes_on, bytes_off, "live bytes diverged mid-run");
                }
            }
        }

        // Full drain, then quiesce: the durable images must be equal
        // word for word (same slabs, all blocks free in both).
        for p in live_off.drain(..) {
            t_off.dealloc(p).unwrap();
        }
        for p in live_on.drain(..) {
            t_on.dealloc(p).unwrap();
        }
        t_off.flush_local_caches();
        t_on.flush_local_caches();
        t_off.flush_cache();
        t_on.flush_cache();
        let (bytes_off, hash_off) = durable_small_image(&pod_off, class);
        let (bytes_on, hash_on) = durable_small_image(&pod_on, class);
        prop_assert_eq!(bytes_off, 0);
        prop_assert_eq!(bytes_on, 0);
        prop_assert_eq!(
            heap_off.stats().small_slabs,
            heap_on.stats().small_slabs,
            "magazines changed slab consumption"
        );
        prop_assert_eq!(hash_off, hash_on, "post-quiesce bitsets diverged");
        heap_off.check_invariants(t_off.core()).unwrap();
        heap_on.check_invariants(t_on.core()).unwrap();
    }
}

/// Batching differential: a producer/consumer run with batch 8 must end
/// (after the consumer's drain point publishes its buffer) with exactly
/// the per-slab HWcc counters of the eager run, for the same seeded
/// dealloc order — and must account every delivered free in
/// `MemStats::remote_free_batched`.
#[test]
fn batched_remote_free_differential_matches_eager() {
    for seed in [1u64, 7, 42] {
        let run = |batch: u32| -> (Vec<u32>, u64) {
            let pod = pod();
            let heap = Cxlalloc::attach(
                pod.spawn_process(),
                AttachOptions {
                    remote_free_batch: batch,
                    coalesce_fences: batch > 1,
                    ..AttachOptions::default()
                },
            )
            .unwrap();
            let mut producer = heap.register_thread().unwrap();
            let ptrs: Vec<OffsetPtr> = (0..600).map(|_| producer.alloc(64).unwrap()).collect();

            // Shuffle and free 450 of the 600 blocks remotely.
            let mut order: Vec<usize> = (0..ptrs.len()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut consumer = heap.register_thread().unwrap();
            for &i in order.iter().take(450) {
                consumer.dealloc(ptrs[i]).unwrap();
            }
            // The consumer's quiesce drains its pending-free buffer.
            consumer.flush_local_caches();
            consumer.flush_cache();
            producer.flush_cache();
            heap.check_invariants(consumer.core()).unwrap();

            let slabs = heap.stats().small_slabs;
            let counters = (0..slabs).map(|s| remote_counter(&pod, s)).collect();
            (counters, heap.stats().mem.remote_free_batched)
        };

        let (eager, eager_batched) = run(1);
        let (batched, batched_count) = run(8);
        assert_eq!(eager, batched, "seed {seed}: counters diverged");
        assert_eq!(eager_batched, 0, "eager path must not count batched frees");
        assert_eq!(
            batched_count, 450,
            "seed {seed}: every delivered free must be accounted"
        );
    }
}

// ---------------------------------------------------------------------------
// Singleton-aware admission: frees scattered over more slabs than the
// buffer has slots interleave bypassed (eager) and buffered frees.
// ---------------------------------------------------------------------------

/// Victim slabs of the scatter test: more than the buffer's 8 slots.
const SCATTER_SLABS: usize = 12;

/// Every block of [`SCATTER_SLABS`] full 64 B slabs, in a seeded
/// shuffle, so consecutive frees rarely revisit a slab.
fn scattered_blocks(producer: &mut cxl_core::ThreadHandle) -> Vec<OffsetPtr> {
    let mut ptrs: Vec<OffsetPtr> = (0..SCATTER_SLABS * 512)
        .map(|_| producer.alloc(64).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(12);
    for i in (1..ptrs.len()).rev() {
        ptrs.swap(i, rng.gen_range(0..=i));
    }
    ptrs
}

/// Census = ledger, per slab: every slab's census-"allocated" blocks
/// minus its published-but-unapplied remote frees equal the ledger's
/// blocks in that slab (zero lost), and every ledger block is
/// allocated in the census (zero phantom). No batch may remain in any
/// durable remote-free line.
fn assert_census_matches(pod: &Pod, heap: &Cxlalloc, via: CoreId, ledger: &[OffsetPtr], what: &str) {
    let census = heap.census(via).unwrap();
    let small = &pod.layout().small;
    let mut want = std::collections::BTreeMap::<u32, u32>::new();
    for p in ledger {
        *want.entry(small.slab_of(p.offset()).unwrap()).or_default() += 1;
        assert!(
            census.small.binary_search(&p.offset()).is_ok(),
            "{what}: phantom ledger block {:#x}",
            p.offset()
        );
    }
    for s in &census.slabs {
        let live = s.open - s.remote_pending;
        assert_eq!(
            live,
            want.get(&s.slab).copied().unwrap_or(0),
            "{what}: slab {} census {live} live vs ledger",
            s.slab
        );
    }
    let live = census.total() as u64 - census.remote_pending_total();
    assert_eq!(live, ledger.len() as u64, "{what}: lost blocks");
    assert!(
        cxl_core::audit::remote_buffered(pod.memory().as_ref(), via).is_empty(),
        "{what}: a durable remote-free batch survived recovery"
    );
}

/// Frees scattered over more slabs than the buffer holds, with batch
/// 64: the admission rule must send some frees eager (the bypass) while
/// others buffer, evict and publish — and a crash at every
/// `slab::remote_free::*` point, recovered, must leave census = ledger
/// plus clean invariants, then drain to zero live blocks.
#[test]
fn scattered_frees_bypass_and_recover_exactly() {
    // Crash-free reference: the bypass fires, and so do evictions.
    {
        let pod = pod();
        let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(64)).unwrap();
        let mut producer = heap.register_thread().unwrap();
        let ptrs = scattered_blocks(&mut producer);
        let mut freer = heap.register_thread().unwrap();
        for p in &ptrs {
            freer.dealloc(*p).unwrap();
        }
        freer.flush_local_caches();
        let mem = heap.stats().mem;
        let bypassed = ptrs.len() as u64 - mem.remote_free_batched;
        assert!(bypassed >= 12, "the singleton bypass must fire (bypassed {bypassed})");
        assert!(mem.remote_buf_evictions > 0, "buffered frees must still evict");
        freer.flush_cache();
        producer.flush_cache();
        assert_census_matches(&pod, &heap, producer.core(), &[], "reference");
    }

    let points = [
        "slab::remote_free::after_log",
        "slab::remote_free::after_cas",
        "slab::remote_free::before_steal_push",
    ]
    .iter()
    .chain(cxl_core::slab::BATCH_CRASH_POINTS);
    for &point in points {
        for skip in [0u32, 5, 11] {
            let what = format!("{point} skip {skip}");
            let pod = pod();
            let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(64)).unwrap();
            let mut producer = heap.register_thread().unwrap();
            let ptrs = scattered_blocks(&mut producer);
            let done = std::sync::atomic::AtomicUsize::new(0);
            let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip }, |t| {
                for p in &ptrs {
                    t.dealloc(*p).unwrap();
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                // Publish the residue too, so every slab reaches zero
                // and is stolen.
                t.flush_local_caches();
            });
            assert!(crashed, "never reached {what}");
            heap.mark_crashed(tid).unwrap();
            heap.recover(tid, producer.core()).unwrap();
            producer.flush_cache();
            heap.check_invariants(producer.core())
                .unwrap_or_else(|e| panic!("invariants after {what}: {e}"));

            // Frees that returned are in effect; the one in flight at
            // the crash may or may not be, so the census decides it —
            // consistently with the per-slab check.
            let done = done.into_inner();
            let census = heap.census(producer.core()).unwrap();
            let live = census.total() as u64 - census.remote_pending_total();
            let mut ledger = ptrs[done..].to_vec();
            if live + 1 == ledger.len() as u64 {
                ledger.remove(0);
            }
            assert_census_matches(&pod, &heap, producer.core(), &ledger, &what);

            // The adopted slot frees the rest; nothing may be lost.
            let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
            for p in &ledger {
                adopted.dealloc(*p).unwrap();
            }
            adopted.flush_local_caches();
            adopted.flush_cache();
            producer.flush_cache();
            heap.check_invariants(producer.core()).unwrap();
            assert_census_matches(&pod, &heap, producer.core(), &[], &format!("{what}, drained"));
        }
    }
}
