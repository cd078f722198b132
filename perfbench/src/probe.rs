//! The benchmark's allocator handle and its ledger of live blocks.
//!
//! [`Probe`] wraps a `cxl_core::ThreadHandle` behind the
//! `baselines::PodAllocThread` interface, so the same handle serves
//! `KvStore::worker` and the churn workload. Around every call it counts
//! the call, records a span when the op is traced, and keeps
//! [`Books`]: one bit per 8-byte granule of the slab heaps, set on
//! `alloc` and cleared on `dealloc`, which is the benchmark's own set of
//! live blocks that the end-of-run census must match.

use crate::span::{self, Layer};
use baselines::{BenchError, PodAllocThread};
use cxl_core::{OffsetPtr, ThreadHandle};
use cxl_pod::{Layout, Region, SMALL_MAX_BLOCK};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU16, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Calls made through probes on one OS thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Successful small-heap allocations.
    pub allocs_small: u64,
    /// Successful large-heap allocations.
    pub allocs_large: u64,
    /// Frees of blocks this thread allocated.
    pub frees_local: u64,
    /// Frees of blocks another thread allocated.
    pub frees_remote: u64,
    /// `resolve` calls.
    pub resolves: u64,
    /// Allocations the allocator refused.
    pub alloc_errors: u64,
    /// Frees the allocator refused.
    pub free_errors: u64,
    /// Ledger violations: a block handed out twice, or a free of a
    /// block the ledger does not hold.
    pub ledger_errors: u64,
    /// KV reads whose entry did not hold the key's bytes.
    pub bad_reads: u64,
}

impl Counts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, e: &Counts) -> Counts {
        Counts {
            allocs_small: self.allocs_small - e.allocs_small,
            allocs_large: self.allocs_large - e.allocs_large,
            frees_local: self.frees_local - e.frees_local,
            frees_remote: self.frees_remote - e.frees_remote,
            resolves: self.resolves - e.resolves,
            alloc_errors: self.alloc_errors - e.alloc_errors,
            free_errors: self.free_errors - e.free_errors,
            ledger_errors: self.ledger_errors - e.ledger_errors,
            bad_reads: self.bad_reads - e.bad_reads,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counts) -> Counts {
        Counts {
            allocs_small: self.allocs_small + o.allocs_small,
            allocs_large: self.allocs_large + o.allocs_large,
            frees_local: self.frees_local + o.frees_local,
            frees_remote: self.frees_remote + o.frees_remote,
            resolves: self.resolves + o.resolves,
            alloc_errors: self.alloc_errors + o.alloc_errors,
            free_errors: self.free_errors + o.free_errors,
            ledger_errors: self.ledger_errors + o.ledger_errors,
            bad_reads: self.bad_reads + o.bad_reads,
        }
    }

    /// Successful allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs_small + self.allocs_large
    }

    /// Successful frees.
    pub fn frees(&self) -> u64 {
        self.frees_local + self.frees_remote
    }

    /// Calls whose outcome shows a defect in the allocator or the store.
    pub fn defects(&self) -> u64 {
        self.free_errors + self.ledger_errors + self.bad_reads
    }
}

thread_local! {
    static COUNTS: RefCell<Counts> = RefCell::new(Counts::default());
    static EXPECT_KEY: Cell<u64> = const { Cell::new(0) };
}

/// This OS thread's probe counts so far.
pub fn counts() -> Counts {
    COUNTS.with_borrow(|c| *c)
}

fn count(f: impl FnOnce(&mut Counts)) {
    COUNTS.with_borrow_mut(f);
}

/// Names the key the next KV read on this thread looks up, so the read
/// barrier can check the entry it found.
pub fn expect_key(key: u64) {
    EXPECT_KEY.set(key);
}

/// One slab heap's share of the ledger.
#[derive(Debug)]
struct HeapBooks {
    data: Region,
    slab_size: u64,
    /// One bit per 8-byte granule: set while the benchmark holds a block
    /// starting there.
    live: Vec<AtomicU64>,
    /// Per slab: the thread slot that last allocated from it. A slab
    /// keeps one owner while any of its blocks is live, so this is the
    /// block's owner whenever the block is freed.
    owner: Vec<AtomicU16>,
}

impl HeapBooks {
    fn new(data: Region, slab_size: u64) -> Self {
        let granules = data.len / 8;
        HeapBooks {
            data,
            slab_size,
            live: (0..granules.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            owner: (0..data.len.div_ceil(slab_size))
                .map(|_| AtomicU16::new(0))
                .collect(),
        }
    }

    fn bit(&self, offset: u64) -> (&AtomicU64, u64) {
        let g = (offset - self.data.start) / 8;
        (&self.live[(g / 64) as usize], 1 << (g % 64))
    }

    fn owner(&self, offset: u64) -> &AtomicU16 {
        &self.owner[((offset - self.data.start) / self.slab_size) as usize]
    }
}

/// The benchmark's ledger of live blocks over the small and large heaps.
#[derive(Debug)]
pub struct Books {
    heaps: [HeapBooks; 2],
}

impl Books {
    /// Empty books for a pod with `layout`.
    pub fn new(layout: &Layout) -> Arc<Self> {
        Arc::new(Books {
            heaps: [
                HeapBooks::new(layout.small.data, layout.small.slab_size),
                HeapBooks::new(layout.large.data, layout.large.slab_size),
            ],
        })
    }

    fn heap(&self, offset: u64) -> Option<&HeapBooks> {
        self.heaps.iter().find(|h| h.data.contains(offset))
    }

    /// Records a block handed to thread slot `me`; false if the ledger
    /// already held it or it lies outside the slab heaps.
    fn note_alloc(&self, offset: u64, me: u16) -> bool {
        let Some(h) = self.heap(offset) else {
            return false;
        };
        let owner = h.owner(offset);
        if owner.load(Ordering::Relaxed) != me {
            owner.store(me, Ordering::Relaxed);
        }
        let (word, mask) = h.bit(offset);
        word.fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Drops a block from the ledger before it is freed. Returns
    /// whether the ledger held it and whether its owner is not `me`.
    fn note_free(&self, offset: u64, me: u16) -> (bool, bool) {
        let Some(h) = self.heap(offset) else {
            return (false, false);
        };
        let (word, mask) = h.bit(offset);
        let held = word.fetch_and(!mask, Ordering::Relaxed) & mask != 0;
        (held, h.owner(offset).load(Ordering::Relaxed) != me)
    }

    /// Every block offset the ledger holds, ascending.
    pub fn live(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for h in &self.heaps {
            for (w, word) in h.live.iter().enumerate() {
                let mut bits = word.load(Ordering::Relaxed);
                while bits != 0 {
                    let b = bits.trailing_zeros() as u64;
                    out.push(h.data.start + (w as u64 * 64 + b) * 8);
                    bits &= bits - 1;
                }
            }
        }
        out
    }
}

const ALLOC_SMALL: &str = "alloc_small";
const ALLOC_LARGE: &str = "alloc_large";
const FREE_LOCAL: &str = "free_local";
const FREE_REMOTE: &str = "free_remote";
const RESOLVE: &str = "resolve";

/// Span names of the allocator calls, in the order `report` reads them.
pub const CORE_CALLS: [&str; 5] = [ALLOC_SMALL, ALLOC_LARGE, FREE_LOCAL, FREE_REMOTE, RESOLVE];

/// A counting, tracing allocator handle (see the module docs).
#[derive(Debug)]
pub struct Probe {
    handle: ThreadHandle,
    me: u16,
    books: Arc<Books>,
}

impl Probe {
    /// Wraps `handle`; allocations are recorded in `books`.
    pub fn new(handle: ThreadHandle, books: Arc<Books>) -> Self {
        Probe {
            me: handle.tid().raw(),
            handle,
            books,
        }
    }

    /// The simulated core the wrapped thread runs on.
    pub fn core(&self) -> cxl_pod::CoreId {
        self.handle.core()
    }

    /// Quiesce point: reclaims huge-heap state, publishes buffered
    /// remote frees, releases surplus slabs and writes the thread's
    /// cache back, so a census sees settled state.
    pub fn quiesce(&mut self) {
        self.handle.cleanup();
        self.handle.flush_local_caches();
        self.handle.flush_cache();
    }
}

impl PodAllocThread for Probe {
    fn alloc(&mut self, size: usize) -> Result<OffsetPtr, BenchError> {
        let large = size > SMALL_MAX_BLOCK as usize;
        let name = if large { ALLOC_LARGE } else { ALLOC_SMALL };
        let handle = &mut self.handle;
        match span::scoped(Layer::Core, name, || handle.alloc(size)) {
            Ok(ptr) => {
                let fresh = self.books.note_alloc(ptr.offset(), self.me);
                count(|c| {
                    if large {
                        c.allocs_large += 1;
                    } else {
                        c.allocs_small += 1;
                    }
                    c.ledger_errors += u64::from(!fresh);
                });
                Ok(ptr)
            }
            Err(e) => {
                count(|c| c.alloc_errors += 1);
                Err(match e {
                    cxl_core::AllocError::InvalidSize { size } => BenchError::Unsupported { size },
                    _ => BenchError::OutOfMemory,
                })
            }
        }
    }

    fn dealloc(&mut self, ptr: OffsetPtr) -> Result<(), BenchError> {
        // Leave the ledger first: once freed, the block may be handed
        // out again by its owner before this thread runs another line.
        let (held, remote) = self.books.note_free(ptr.offset(), self.me);
        let name = if remote { FREE_REMOTE } else { FREE_LOCAL };
        let handle = &mut self.handle;
        let result = span::scoped(Layer::Core, name, || handle.dealloc(ptr));
        count(|c| {
            c.ledger_errors += u64::from(!held);
            match result {
                Ok(()) if remote => c.frees_remote += 1,
                Ok(()) => c.frees_local += 1,
                Err(_) => c.free_errors += 1,
            }
        });
        result.map_err(|_| BenchError::BadPointer)
    }

    fn resolve(&mut self, ptr: OffsetPtr, len: u64) -> *mut u8 {
        count(|c| c.resolves += 1);
        let handle = &self.handle;
        span::scoped(Layer::Core, RESOLVE, || handle.resolve(ptr, len))
            .expect("the benchmark resolves only blocks it allocated")
    }

    /// Called by `KvThread::get` on the entry it found: checks that the
    /// entry holds the looked-up key and the key's fill byte. Entry
    /// layout (`kvstore` docs): word 1 = key, word 2 low half = key
    /// length, then key and value bytes filled with `key as u8 ^ 0x5A`.
    fn read_barrier(&mut self, ptr: OffsetPtr) {
        let key = EXPECT_KEY.get();
        let handle = &self.handle;
        let ok = span::scoped(Layer::Bench, "verify", || {
            let Ok(raw) = handle.resolve(ptr, 64) else {
                return false;
            };
            // SAFETY: the caller holds an epoch pin on a published entry
            // of at least 33 bytes (24-byte header, 8-byte key, value),
            // 8-aligned; its header words are only accessed atomically.
            let (stored, lens, fill) = unsafe {
                let words = raw as *const AtomicU64;
                let lens = (*words.add(2)).load(Ordering::Relaxed);
                let fill = &*(raw.add(24 + (lens as u32).min(8) as usize) as *const AtomicU8);
                (
                    (*words.add(1)).load(Ordering::Relaxed),
                    lens,
                    fill.load(Ordering::Relaxed),
                )
            };
            stored == key && lens as u32 == 8 && fill == key as u8 ^ 0x5A
        });
        count(|c| c.bad_reads += u64::from(!ok));
    }

    fn maintain(&mut self) {
        self.quiesce();
    }
}
