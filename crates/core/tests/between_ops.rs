//! Crash matrix *between* ops: the relaxed log clear.
//!
//! A slab op clears its log entry with a cached store and no flush of
//! its own; the clear becomes durable with the next op's `begin`. A
//! crash in between leaves the durable log naming the *completed* op,
//! and recovery redoes it (DESIGN.md §9.3). These tests crash the
//! victim at the entry of its next [`ThreadHandle`] op
//! ([`crash::ENTRY_POINTS`]), on a limited-HWcc pod whose crash
//! discards the victim's cache, after exactly one op since the
//! victim's last quiesce point, and only after a peer has acted on the
//! op's result. Each case asserts which op the durable log names, that
//! the census equals the ledger (zero lost, zero phantom blocks), the
//! heap invariants, and a clean drain to zero live blocks.
//!
//! Two cases pin the eager exceptions. A slab that an allocation
//! filled, and that a peer then drained, stole and re-initialized,
//! would be normalized back to the victim by a redo. A detectable
//! allocation whose destination cell a peer cleared on handoff would
//! be rolled back by a redo while the peer still holds the block.
//! Both ops therefore clear eagerly, and recovery finds an idle log.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, Cxlalloc, HeapKind, OffsetPtr, Op, ThreadHandle};
use cxl_pod::{HwccMode, Pod, PodConfig};
use std::sync::atomic::Ordering;

/// Blocks per small slab at the 64 B class.
const SLAB: usize = 512;

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

fn slab_of(pod: &Pod, p: OffsetPtr) -> u32 {
    pod.layout().small.slab_of(p.offset()).unwrap()
}

fn allocs(t: &mut ThreadHandle, n: usize) -> Vec<OffsetPtr> {
    (0..n).map(|_| t.alloc(64).unwrap()).collect()
}

/// A victim and a peer on one heap, plus the live blocks each holds.
struct Staged {
    pod: Pod,
    heap: Cxlalloc,
    victim: ThreadHandle,
    peer: ThreadHandle,
    victim_holds: Vec<OffsetPtr>,
    peer_holds: Vec<OffsetPtr>,
}

fn stage(unsized_limit: u32) -> Staged {
    let pod = pod();
    let heap = Cxlalloc::attach(
        pod.spawn_process(),
        AttachOptions {
            unsized_limit,
            ..AttachOptions::default()
        },
    )
    .unwrap();
    let victim = heap.register_thread().unwrap();
    let peer = heap.register_thread().unwrap();
    Staged {
        pod,
        heap,
        victim,
        peer,
        victim_holds: Vec::new(),
        peer_holds: Vec::new(),
    }
}

/// Census = ledger, per slab: every slab's census-"allocated" blocks
/// minus its published-but-unapplied remote frees equal the ledger's
/// blocks in that slab (zero lost), and every ledger block is
/// allocated in the census (zero phantom).
fn assert_census_matches(s: &Staged, ledger: &[OffsetPtr], what: &str) {
    let census = s.heap.census(s.peer.core()).unwrap();
    let mut want = std::collections::BTreeMap::<u32, u32>::new();
    for &p in ledger {
        *want.entry(slab_of(&s.pod, p)).or_default() += 1;
        assert!(
            census.small.binary_search(&p.offset()).is_ok(),
            "{what}: phantom ledger block {:#x}",
            p.offset()
        );
    }
    for slab in &census.slabs {
        let live = slab.open - slab.remote_pending;
        assert_eq!(
            live,
            want.get(&slab.slab).copied().unwrap_or(0),
            "{what}: slab {} census {live} live vs ledger",
            slab.slab
        );
    }
    let live = census.total() as u64 - census.remote_pending_total();
    assert_eq!(live, ledger.len() as u64, "{what}: lost blocks");
}

/// Crashes the victim at `label`, recovers it through the peer's core,
/// checks that the log named `expect` (`None` for an eagerly cleared
/// op), the census and the invariants, then adopts the victim and
/// drains every ledger block.
fn crash_recover_drain(mut s: Staged, expect: Option<Op>, label: &'static str, what: &str) {
    let what = format!("{what} at {label}");
    let tid = s.victim.tid();
    // The crash fires before the op reads its argument.
    let any = OffsetPtr::new(s.pod.layout().small.slab_data_at(0)).unwrap();
    crash::arm(CrashPlan { at: label, skip: 0 });
    let victim = &mut s.victim;
    let crashed = crash::catch(std::panic::AssertUnwindSafe(|| match label {
        "handle::alloc::entry" => drop(victim.alloc(64)),
        "handle::dealloc::entry" => drop(victim.dealloc(any)),
        "handle::cleanup::entry" => drop(victim.cleanup()),
        other => panic!("unknown entry label {other}"),
    }))
    .is_err();
    crash::disarm();
    assert!(crashed, "{what}: the entry point did not fire");
    s.heap.mark_crashed(tid).unwrap();

    let report = s.heap.recover(tid, s.peer.core()).unwrap();
    assert_eq!(
        report.interrupted,
        expect.map(|op| (op, HeapKind::Small)),
        "{what}: {}",
        report.outcome
    );
    let all: Vec<OffsetPtr> = s
        .victim_holds
        .iter()
        .chain(&s.peer_holds)
        .copied()
        .collect();
    assert_census_matches(&s, &all, &what);
    s.heap
        .check_invariants(s.peer.core())
        .unwrap_or_else(|e| panic!("{what}: invariants after recovery: {e}"));

    let (mut adopted, _) = s.heap.adopt(tid, s.peer.core()).unwrap();
    for p in std::mem::take(&mut s.victim_holds) {
        adopted.dealloc(p).unwrap();
    }
    for p in std::mem::take(&mut s.peer_holds) {
        s.peer.dealloc(p).unwrap();
    }
    adopted.flush_cache();
    s.peer.flush_cache();
    assert_census_matches(&s, &[], &format!("{what}, drained"));
    s.heap
        .check_invariants(s.peer.core())
        .unwrap_or_else(|e| panic!("{what}: invariants after drain: {e}"));
}

/// (i) The allocation that fills a slab, after which a peer frees
/// every block remotely, steals the slab and re-initializes it for its
/// own allocations.
fn fill_then_peer_reinits(s: &mut Staged) -> Option<Op> {
    let mut blocks = allocs(&mut s.victim, SLAB - 1);
    s.victim.flush_cache();
    blocks.push(s.victim.alloc(64).unwrap());
    let slab = slab_of(&s.pod, blocks[0]);
    assert!(blocks.iter().all(|&p| slab_of(&s.pod, p) == slab));
    for p in blocks {
        s.peer.dealloc(p).unwrap();
    }
    s.peer_holds = allocs(&mut s.peer, 8);
    assert!(
        s.peer_holds.iter().all(|&p| slab_of(&s.pod, p) == slab),
        "the peer re-initialized the stolen slab"
    );
    s.peer.flush_cache();
    None
}

/// (ii) A detectable allocation, then a handoff: a peer takes the
/// block out of the destination cell and clears the cell.
fn detectable_then_handoff(s: &mut Staged) -> Option<Op> {
    let cell = s.victim.alloc(8).unwrap();
    s.victim.flush_cache();
    let block = s.victim.alloc_detectable(64, cell).unwrap();
    // A cache may write a dirty line back at any time: evict the
    // block's descriptor lines so the allocation itself is durable and
    // only the log clear is at stake.
    let mem = s.pod.memory();
    let small = &s.pod.layout().small;
    let slab = slab_of(&s.pod, block);
    mem.flush(
        s.victim.core(),
        small.swcc_desc_at(slab),
        small.swcc_desc_stride,
    );
    mem.fence(s.victim.core());
    let cell_word = mem.segment().atomic_u64(cell.offset());
    assert_eq!(cell_word.swap(0, Ordering::SeqCst), block.offset());
    s.peer.flush_cache();
    s.victim_holds = vec![cell];
    s.peer_holds = vec![block];
    None
}

/// Empties the first of two full slabs with local frees, the last of
/// them being the op under test; returns the first slab.
fn empty_first_of_two_slabs(s: &mut Staged) -> u32 {
    let first = allocs(&mut s.victim, SLAB);
    s.victim_holds = allocs(&mut s.victim, SLAB);
    // Relink the second slab first, so the first is not the only slab
    // on its sized list when it empties (hysteresis would keep it).
    s.victim.dealloc(s.victim_holds.pop().unwrap()).unwrap();
    for &p in &first[..SLAB - 1] {
        s.victim.dealloc(p).unwrap();
    }
    s.victim.flush_cache();
    s.victim.dealloc(first[SLAB - 1]).unwrap();
    slab_of(&s.pod, first[0])
}

/// (iii) The local free that empties a slab and overflows it to the
/// global free list, after which a peer pops it and initializes it.
fn overflow_push_then_peer_pops(s: &mut Staged) -> Option<Op> {
    let slab = empty_first_of_two_slabs(s);
    s.peer_holds = allocs(&mut s.peer, 8);
    assert!(
        s.peer_holds.iter().all(|&p| slab_of(&s.pod, p) == slab),
        "the peer popped the pushed slab"
    );
    s.peer.flush_cache();
    Some(Op::PushGlobal)
}

/// A local free that empties a slab onto the unsized list.
fn local_free_to_unsized(s: &mut Staged) -> Option<Op> {
    empty_first_of_two_slabs(s);
    Some(Op::FreeLocal)
}

/// A local free that leaves its slab partially allocated.
fn local_free(s: &mut Staged) -> Option<Op> {
    s.victim_holds = allocs(&mut s.victim, 8);
    s.victim.flush_cache();
    s.victim.dealloc(s.victim_holds.remove(3)).unwrap();
    Some(Op::FreeLocal)
}

/// A remote free that does not bring the slab's counter to zero.
fn remote_free(s: &mut Staged) -> Option<Op> {
    s.victim_holds = allocs(&mut s.peer, 8);
    s.peer.flush_cache();
    s.victim.dealloc(s.victim_holds.remove(5)).unwrap();
    Some(Op::RemoteFree)
}

/// The remote free that brings a full slab's counter to zero and
/// steals the slab onto the victim's unsized list.
fn remote_free_last(s: &mut Staged) -> Option<Op> {
    let mut blocks = allocs(&mut s.peer, SLAB);
    s.peer.flush_cache();
    let last = blocks.pop().unwrap();
    for p in blocks {
        s.victim.dealloc(p).unwrap();
    }
    s.victim.flush_cache();
    s.victim.dealloc(last).unwrap();
    Some(Op::RemoteFreeLast)
}

/// Runs one scenario's ops and returns the op the log must name.
type Scenario = fn(&mut Staged) -> Option<Op>;

/// Every scenario, crashed at the entry of every handle op.
#[test]
fn crashes_between_ops_recover_exactly() {
    let scenarios: [(&str, u32, Scenario); 7] = [
        ("fill, then peer re-init", 4, fill_then_peer_reinits),
        ("detectable, then handoff", 4, detectable_then_handoff),
        (
            "overflow push, then peer pop",
            0,
            overflow_push_then_peer_pops,
        ),
        ("local free to unsized", 4, local_free_to_unsized),
        ("local free", 4, local_free),
        ("remote free", 4, remote_free),
        ("last remote free", 4, remote_free_last),
    ];
    for (what, unsized_limit, scenario) in scenarios {
        for &label in crash::ENTRY_POINTS {
            let mut s = stage(unsized_limit);
            let expect = scenario(&mut s);
            crash_recover_drain(s, expect, label, what);
        }
    }
}
