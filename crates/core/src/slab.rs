//! The slab heaps (small and large).
//!
//! The small heap serves 8 B – 1 KiB blocks from 32 KiB slabs; the large
//! heap serves 1 KiB – 512 KiB blocks from 512 KiB slabs. Both share the
//! design of paper §3.1.1:
//!
//! * The data region is divided into fixed-size slabs; the heap length
//!   (`SmallGlobal.len`) is the current slab count and only grows.
//! * Slabs move between the states of Figure 4: **unmapped** (past the
//!   heap length), **global** (on the CAS-managed global free list),
//!   **TL unsized** (owned, no class, all memory available), **TL
//!   sized** (owned, classed, non-full), **detached** (full, owned,
//!   unlinked — no remote frees yet), and **disowned** (full, unowned,
//!   unlinked — had remote frees).
//! * Each slab splits its metadata between an 8-byte HWcc descriptor
//!   (the remote-free counter, a detectable-CAS cell) and a SWcc
//!   descriptor (header + free count + block bitset) that only the owner
//!   writes.
//!
//! The remote-free protocol is the paper's §3.2.1: remote frees only
//! decrement the HWcc counter (which counts *down* so correctness never
//! depends on the possibly-stale class field); the thread whose decrement
//! reaches zero steals the slab. Detached slabs let fully-remote-freed
//! slabs (producer/consumer) be reclaimed without coordinating with the
//! owner; disowning forces mixed local/remote slabs to eventually drain
//! through the remote path.
//!
//! The SWcc discipline is §3.2.2: owners keep descriptors cached and only
//! flush + fence when ownership may change (push to global, detach,
//! disown); readers flush before loading `next` on the global-list path;
//! the `owner` field may be read from cache without flushing (the
//! four-case argument in the paper, reproduced in this crate's tests).
//!
//! Every structural step first updates the thread's 8-byte recovery log
//! (§3.4.2); `recovery.rs` redoes interrupted steps idempotently.

use crate::bitset::BlockBits;
use crate::cell::{flags, Detect, LogWord, SwccHeader};
use crate::class::ClassTable;
use crate::ctx::Ctx;
use crate::error::{AllocError, HeapKind};
use crate::recovery::Op;
use crate::remote;
use crate::remote::RemoteFreeBuffer;
use cxl_pod::trace::TraceKind;
use cxl_pod::{CoreId, HeapLayout, PodMemory};

/// Crash-point labels compiled into this module (white-box failure
/// tests iterate these).
pub const CRASH_POINTS: &[&str] = &[
    "slab::alloc_block::rover",
    "slab::alloc_block::after_log",
    "slab::alloc_block::after_clear",
    "slab::alloc_block::after_deliver",
    "slab::alloc_block::after_unlink",
    "slab::alloc_block::after_transition",
    "slab::free_local::after_log",
    "slab::free_local::after_set",
    "slab::free_local::after_relink",
    "slab::remote_free::after_log",
    "slab::remote_free::after_cas",
    "slab::remote_free::before_steal_push",
    "slab::init::after_log",
    "slab::init::mid",
    "slab::pop_global::after_log",
    "slab::pop_global::after_cas",
    "slab::push_global::after_log",
    "slab::push_global::after_pop",
    "slab::push_global::after_cas",
    "slab::extend::after_log",
    "slab::extend::after_cas",
];

/// Crash-point labels on the *batched* remote-free publish path. Kept
/// out of [`CRASH_POINTS`] so schedule generation (which indexes that
/// list by RNG draw) is unperturbed for configurations that never
/// batch; the batched crash matrix iterates this list separately.
pub const BATCH_CRASH_POINTS: &[&str] = &[
    "slab::remote_free::publish_after_log",
    "slab::remote_free::publish_after_cas",
];

/// One slab heap (instantiated once for small, once for large).
#[derive(Debug, Clone, Copy)]
pub struct SlabHeap {
    /// Which heap this is.
    pub kind: HeapKind,
    /// Its size-class table.
    pub classes: ClassTable,
}

impl SlabHeap {
    /// The small heap.
    pub fn small() -> Self {
        SlabHeap {
            kind: HeapKind::Small,
            classes: crate::class::SMALL_CLASSES_TABLE,
        }
    }

    /// The large heap.
    pub fn large() -> Self {
        SlabHeap {
            kind: HeapKind::Large,
            classes: crate::class::LARGE_CLASSES_TABLE,
        }
    }

    /// The slab heap for `kind` (huge is not a slab heap).
    pub(crate) fn of(kind: HeapKind) -> Self {
        match kind {
            HeapKind::Small => Self::small(),
            HeapKind::Large => Self::large(),
            HeapKind::Huge => unreachable!("huge heap is not a slab heap"),
        }
    }

    /// This heap's region layout.
    pub fn hl<'a>(&self, mem: &'a dyn PodMemory) -> &'a HeapLayout {
        match self.kind {
            HeapKind::Small => &mem.layout().small,
            HeapKind::Large => &mem.layout().large,
            HeapKind::Huge => unreachable!("huge heap is not a slab heap"),
        }
    }

    fn op(&self, op: Op) -> u8 {
        op.encode(self.kind)
    }

    // ---- descriptor accessors ------------------------------------------
    //
    // All four route through the calling thread's descriptor shadow
    // when it has one (see `shadow.rs`): loads are served from the
    // shadow, stores are absorbed (software-coherent backends) or
    // written through (coherent backends). Contexts without a shadow —
    // recovery, the invariant checker's probes, fault handling — hit
    // pod memory directly, as before.

    pub(crate) fn header(&self, ctx: &Ctx<'_>, slab: u32) -> SwccHeader {
        if let Some(shadow) = ctx.shadow {
            if let Some(packed) = shadow.header(self.kind, slab) {
                return SwccHeader::unpack(packed);
            }
            let packed = ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).swcc_desc_at(slab));
            shadow.install_header(ctx.mem, ctx.core, self.kind, slab, packed);
            return SwccHeader::unpack(packed);
        }
        SwccHeader::unpack(ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).swcc_desc_at(slab)))
    }

    pub(crate) fn set_header(&self, ctx: &Ctx<'_>, slab: u32, header: SwccHeader) {
        let packed = header.pack();
        if let Some(shadow) = ctx.shadow {
            if shadow.store_header(ctx.mem, ctx.core, self.kind, slab, packed) {
                return;
            }
        }
        ctx.mem
            .store_u64(ctx.core, self.hl(ctx.mem).swcc_desc_at(slab), packed);
    }

    pub(crate) fn free_count(&self, ctx: &Ctx<'_>, slab: u32) -> u32 {
        if let Some(shadow) = ctx.shadow {
            if let Some(count) = shadow.free_count(self.kind, slab) {
                return count as u32;
            }
            let count = ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).free_count_at(slab));
            shadow.install_count(ctx.mem, ctx.core, self.kind, slab, count);
            return count as u32;
        }
        ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).free_count_at(slab)) as u32
    }

    pub(crate) fn set_free_count(&self, ctx: &Ctx<'_>, slab: u32, count: u32) {
        if let Some(shadow) = ctx.shadow {
            if shadow.store_count(ctx.mem, ctx.core, self.kind, slab, count as u64) {
                return;
            }
        }
        ctx.mem
            .store_u64(ctx.core, self.hl(ctx.mem).free_count_at(slab), count as u64);
    }

    pub(crate) fn bits<'m>(&self, ctx: &Ctx<'m>, slab: u32, class: u8) -> BlockBits<'m> {
        BlockBits::new(
            ctx.mem,
            self.hl(ctx.mem).bitset_at(slab),
            self.classes.blocks_per_slab(class),
        )
    }

    /// Flushes a slab's entire SWcc descriptor (header, count, bitset)
    /// and fences — required before any transition after which another
    /// thread may become the owner (§3.2.2).
    pub(crate) fn flush_desc(&self, ctx: &Ctx<'_>, slab: u32) {
        let hl = self.hl(ctx.mem);
        // Drain deferred shadow stores into the cache first (so the
        // flush writes them back) and forget the entry: after the flush
        // another thread may own the descriptor.
        if let Some(shadow) = ctx.shadow {
            shadow.drop_entry(ctx.mem, ctx.core, self.kind, slab);
        }
        ctx.mem
            .flush(ctx.core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
        ctx.mem.fence(ctx.core);
    }

    /// Current heap length (number of mapped slabs).
    pub fn len(&self, mem: &dyn PodMemory, core: CoreId) -> u32 {
        Detect::unpack(mem.load_u64(core, self.hl(mem).global_len)).payload
    }

    /// Whether the heap has no slabs yet.
    pub fn is_empty(&self, mem: &dyn PodMemory, core: CoreId) -> bool {
        self.len(mem, core) == 0
    }

    // ---- private (thread-local) free lists ------------------------------

    fn head_of(&self, ctx: &Ctx<'_>, head_off: u64) -> Option<u32> {
        let raw = ctx.mem.load_u64(ctx.core, head_off) as u32;
        raw.checked_sub(1)
    }

    pub(crate) fn unsized_head_off(&self, ctx: &Ctx<'_>) -> u64 {
        self.hl(ctx.mem).local_unsized_at(ctx.tid.slot())
    }

    pub(crate) fn sized_head_off(&self, ctx: &Ctx<'_>, class: u8) -> u64 {
        self.hl(ctx.mem).local_sized_at(ctx.tid.slot(), class as u32)
    }

    /// Pushes `slab` onto the private list at `head_off`.
    pub(crate) fn push_local(&self, ctx: &Ctx<'_>, head_off: u64, slab: u32) {
        let old = ctx.mem.load_u64(ctx.core, head_off) as u32;
        let mut header = self.header(ctx, slab);
        header.next = old;
        self.set_header(ctx, slab, header);
        ctx.mem.store_u64(ctx.core, head_off, (slab + 1) as u64);
    }

    /// Pops the head of the private list at `head_off`.
    pub(crate) fn pop_local(&self, ctx: &Ctx<'_>, head_off: u64) -> Option<u32> {
        let slab = self.head_of(ctx, head_off)?;
        let header = self.header(ctx, slab);
        ctx.mem.store_u64(ctx.core, head_off, header.next as u64);
        Some(slab)
    }

    /// Removes `slab` from the private list at `head_off`; returns
    /// whether it was present. Private lists are short, so this walk is
    /// cheap; only the owning thread (or its recoverer) calls it.
    pub(crate) fn remove_local(&self, ctx: &Ctx<'_>, head_off: u64, slab: u32) -> bool {
        let mut prev: Option<u32> = None;
        let mut cursor = self.head_of(ctx, head_off);
        let mut hops = 0u32;
        while let Some(cur) = cursor {
            assert!(
                hops <= self.hl(ctx.mem).max_slabs,
                "cycle in private free list at head {head_off:#x}"
            );
            hops += 1;
            let header = self.header(ctx, cur);
            if cur == slab {
                match prev {
                    None => ctx.mem.store_u64(ctx.core, head_off, header.next as u64),
                    Some(p) => {
                        let mut ph = self.header(ctx, p);
                        ph.next = header.next;
                        self.set_header(ctx, p, ph);
                    }
                }
                return true;
            }
            prev = Some(cur);
            cursor = header.next.checked_sub(1);
        }
        false
    }

    /// Whether `slab` is on the private list at `head_off`.
    pub(crate) fn contains_local(&self, ctx: &Ctx<'_>, head_off: u64, slab: u32) -> bool {
        let mut cursor = self.head_of(ctx, head_off);
        let mut hops = 0u32;
        while let Some(cur) = cursor {
            assert!(hops <= self.hl(ctx.mem).max_slabs, "cycle in private free list");
            hops += 1;
            if cur == slab {
                return true;
            }
            cursor = self.header(ctx, cur).next.checked_sub(1);
        }
        false
    }

    /// Walks the private list at `head_off`, up to `cap` nodes.
    pub(crate) fn list_len(&self, ctx: &Ctx<'_>, head_off: u64, cap: u32) -> u32 {
        let mut n = 0;
        let mut cursor = self.head_of(ctx, head_off);
        while let Some(cur) = cursor {
            n += 1;
            if n >= cap {
                break;
            }
            cursor = self.header(ctx, cur).next.checked_sub(1);
        }
        n
    }

    // ---- slab acquisition -------------------------------------------------

    /// Initializes `slab` for `class` and links it into the calling
    /// thread's sized list. The slab must be owned by the caller and
    /// unlinked (freshly popped from the unsized list, the global list,
    /// or the heap end).
    fn init_slab(&self, ctx: &Ctx<'_>, slab: u32, class: u8) {
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::InitSlab),
                a: slab,
                b: class,
                c: 0,
            },
            &[],
        );
        ctx.crash_point("slab::init::after_log");
        self.init_slab_body(ctx, slab, class);
        ctx.log().clear_relaxed(ctx.core);
    }

    /// The (idempotent) body of slab initialization; also called by
    /// recovery to redo an interrupted init.
    pub(crate) fn init_slab_body(&self, ctx: &Ctx<'_>, slab: u32, class: u8) {
        let blocks = self.classes.blocks_per_slab(class);
        self.set_header(ctx, slab, SwccHeader {
            next: 0,
            owner: ctx.tid.raw(),
            class,
            flags: flags::SIZED,
        });
        self.set_free_count(ctx, slab, blocks);
        ctx.crash_point("slab::init::mid");
        self.bits(ctx, slab, class).set_all(ctx.core);
        // Reset the remote-free counter to the block count. A plain
        // store is safe: no block of this slab is live, so no thread can
        // be racing a remote free (§3.1.1).
        ctx.mem.store_u64(
            ctx.core,
            self.hl(ctx.mem).hwcc_desc_at(slab),
            Detect {
                version: 0,
                tid: 0,
                payload: blocks,
            }
            .pack(),
        );
        if !self.contains_local(ctx, self.sized_head_off(ctx, class), slab) {
            self.push_local(ctx, self.sized_head_off(ctx, class), slab);
        }
    }

    /// The stripe of the global free list `ctx.tid` homes to. Stripe 0
    /// is the legacy head cell; the rest live in their own cachelines
    /// at the segment tail, so threads on different stripes never
    /// contend on the same line.
    pub(crate) fn home_stripe(&self, ctx: &Ctx<'_>) -> u32 {
        ctx.tid.slot() % self.hl(ctx.mem).global_stripes
    }

    /// Pops a slab from the striped global free list: the home stripe
    /// first, then deterministic round-robin work-stealing over the
    /// remaining stripes when the home stripe is empty.
    fn pop_global(&self, ctx: &Ctx<'_>) -> Option<u32> {
        let stripes = self.hl(ctx.mem).global_stripes;
        let home = self.home_stripe(ctx);
        for probe in 0..stripes {
            let stripe = (home + probe) % stripes;
            if let Some(slab) = self.pop_global_stripe(ctx, stripe) {
                return Some(slab);
            }
        }
        None
    }

    /// Pops from one stripe's head cell (paper §3.2.2's
    /// flush-before-load discipline on `next`). Returns `None` when the
    /// stripe is empty; CAS contention retries the *same* stripe — the
    /// head changed, so it is non-empty and progress is someone's.
    fn pop_global_stripe(&self, ctx: &Ctx<'_>, stripe: u32) -> Option<u32> {
        let hl = self.hl(ctx.mem);
        let head_cell = hl.global_free_at(stripe);
        let dcas = ctx.dcas();
        loop {
            let head = dcas.read(ctx.core, head_cell);
            let slab = head.payload.checked_sub(1)?;
            // Readers flush before loading SWccDesc.next; a stale load is
            // caught by the CAS on the head (version mismatch). The
            // shadow entry (a clean read-install at most — we don't own
            // slabs on the global list) is dropped for the same reason.
            if let Some(shadow) = ctx.shadow {
                shadow.drop_entry(ctx.mem, ctx.core, self.kind, slab);
            }
            ctx.mem.flush(ctx.core, hl.swcc_desc_at(slab), 8);
            let next = self.header(ctx, slab).next;
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::PopGlobal),
                    a: slab,
                    b: stripe as u8,
                    c: version,
                },
                &[],
            );
            ctx.crash_point("slab::pop_global::after_log");
            if dcas
                .attempt(ctx.core, head_cell, head, next, ctx.tid, version)
                .is_ok()
            {
                ctx.crash_point("slab::pop_global::after_cas");
                return Some(slab);
            }
            ctx.log().clear_relaxed(ctx.core);
            ctx.mem
                .note_cas_retry_at(cxl_pod::stats::CasRetrySite::PopGlobal);
            ctx.mem.trace_op(ctx.core, TraceKind::CasRetry, head_cell);
        }
    }

    /// Pushes `slab` (owned, unlinked, empty) onto the calling thread's
    /// home stripe of the global free list. The stripe index travels in
    /// the oplog record's `b` byte so recovery detects against the
    /// right head cell.
    pub(crate) fn push_global(&self, ctx: &Ctx<'_>, slab: u32) {
        let hl = self.hl(ctx.mem);
        let stripe = self.home_stripe(ctx);
        let head_cell = hl.global_free_at(stripe);
        let dcas = ctx.dcas();
        loop {
            let head = dcas.read(ctx.core, head_cell);
            // Slabs on the global list are unowned and unsized.
            self.set_header(ctx, slab, SwccHeader {
                next: head.payload,
                owner: 0,
                class: 0,
                flags: 0,
            });
            // Ownership is about to change: flush + fence the descriptor
            // before publishing (§3.2.2).
            self.flush_desc(ctx, slab);
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::PushGlobal),
                    a: slab,
                    b: stripe as u8,
                    c: version,
                },
                &[],
            );
            ctx.crash_point("slab::push_global::after_log");
            if dcas
                .attempt(ctx.core, head_cell, head, slab + 1, ctx.tid, version)
                .is_ok()
            {
                ctx.crash_point("slab::push_global::after_cas");
                ctx.log().clear_relaxed(ctx.core);
                return;
            }
            ctx.log().clear_relaxed(ctx.core);
            ctx.mem
                .note_cas_retry_at(cxl_pod::stats::CasRetrySite::PopGlobal);
            ctx.mem.trace_op(ctx.core, TraceKind::CasRetry, head_cell);
        }
    }

    /// Extends the heap by one slab; returns the new slab's index.
    fn extend(&self, ctx: &Ctx<'_>) -> Option<u32> {
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        loop {
            let len = dcas.read(ctx.core, hl.global_len);
            if len.payload >= hl.max_slabs {
                return None;
            }
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::Extend),
                    a: len.payload,
                    b: 0,
                    c: version,
                },
                &[],
            );
            ctx.crash_point("slab::extend::after_log");
            if dcas
                .attempt(ctx.core, hl.global_len, len, len.payload + 1, ctx.tid, version)
                .is_ok()
            {
                ctx.crash_point("slab::extend::after_cas");
                let slab = len.payload;
                self.map_upto(ctx, slab as u64 + 1);
                return Some(slab);
            }
            ctx.log().clear_relaxed(ctx.core);
        }
    }

    /// Installs this process's mappings up to `slabs` slabs (the three
    /// mappings of §3.3.1, modeled as the process's heap watermark).
    pub(crate) fn map_upto(&self, ctx: &Ctx<'_>, slabs: u64) {
        match self.kind {
            HeapKind::Small => ctx.process.map_small_upto(slabs),
            HeapKind::Large => ctx.process.map_large_upto(slabs),
            HeapKind::Huge => unreachable!(),
        }
    }

    /// Acquires a slab for `class` into the sized list, per the paper's
    /// transfer order: thread-local unsized list, global free list, heap
    /// extension.
    fn acquire(&self, ctx: &Ctx<'_>, class: u8) -> Result<(), AllocError> {
        let slab = if let Some(slab) = self.head_of(ctx, self.unsized_head_off(ctx)) {
            // We log the init *before* popping so recovery can redo the
            // pop (the init body is idempotent and pops if still linked).
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::InitSlab),
                    a: slab,
                    b: class,
                    c: 0,
                },
                &[],
            );
            ctx.crash_point("slab::init::after_log");
            self.pop_local(ctx, self.unsized_head_off(ctx));
            self.init_slab_body(ctx, slab, class);
            ctx.log().clear_relaxed(ctx.core);
            return Ok(());
        } else if let Some(slab) = self.pop_global(ctx) {
            slab
        } else if let Some(slab) = self.extend(ctx) {
            slab
        } else {
            return Err(AllocError::OutOfMemory {
                heap: self.kind,
                size: self.classes.block_size(class) as usize,
            });
        };
        self.init_slab(ctx, slab, class);
        Ok(())
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates `size` bytes; returns the block's segment offset.
    ///
    /// `detect_dst` is an optional segment offset of an 8-byte cell the
    /// caller will store the resulting pointer into; recovery uses it to
    /// decide whether an interrupted allocation reached the application
    /// (see `recovery.rs`).
    pub(crate) fn alloc(&self, ctx: &Ctx<'_>, size: usize, detect_dst: u64) -> Result<u64, AllocError> {
        let class = self
            .classes
            .class_of(size)
            .ok_or(AllocError::InvalidSize { size })?;
        if let Some(mags) = ctx.magazines {
            while let Some((slab, bit)) = mags.pop(self.kind, class) {
                // A magazine hint is advisory: the slab may have been
                // emptied, reclassed, or stolen since the hint was
                // pushed, or the block reallocated. Re-validate owner,
                // class, and the bitset bit; discard stale hints.
                let header = self.header(ctx, slab);
                if header.owner == ctx.tid.raw()
                    && header.flags & flags::SIZED != 0
                    && header.class == class
                    && self.bits(ctx, slab, class).get(ctx.core, bit)
                {
                    return Ok(self.alloc_block_hint(ctx, slab, class, bit, detect_dst));
                }
            }
        }
        loop {
            let Some(slab) = self.head_of(ctx, self.sized_head_off(ctx, class)) else {
                self.acquire(ctx, class)?;
                continue;
            };
            return Ok(self.alloc_block(ctx, slab, class, detect_dst));
        }
    }

    /// Allocates one block from `slab` (the head of the caller's sized
    /// list for `class`), handling the full-slab transition.
    fn alloc_block(&self, ctx: &Ctx<'_>, slab: u32, class: u8, detect_dst: u64) -> u64 {
        let bits = self.bits(ctx, slab, class);
        // Next-fit: start the scan at the volatile per-slab rover hint.
        // Any hint value is safe — the scan re-validates the durable
        // bitset word by word and wraps — and the log word below records
        // the *chosen* bit, so recovery never depends on scan order. A
        // crash here loses only the hint.
        let hint = match ctx.shadow {
            Some(shadow) if ctx.rover => shadow.rover(self.kind, slab),
            _ => 0,
        };
        let bit = bits
            .find_set_from(ctx.core, hint)
            .expect("sized-list invariant: slabs on sized lists are non-full");
        ctx.crash_point("slab::alloc_block::rover");
        if let Some(shadow) = ctx.shadow {
            if ctx.rover {
                shadow.set_rover(ctx.mem, ctx.core, self.kind, slab, bit + 1);
            }
        }
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::AllocBlock),
                a: slab,
                b: class,
                c: bit as u16,
            },
            &[detect_dst],
        );
        ctx.crash_point("slab::alloc_block::after_log");
        bits.clear(ctx.core, bit);
        let remaining = self.free_count(ctx, slab) - 1;
        self.set_free_count(ctx, slab, remaining);
        ctx.crash_point("slab::alloc_block::after_clear");
        if remaining == 0 {
            // The slab is now full: unlink it so the sized list only
            // holds non-full slabs, then detach or disown (Figure 4).
            self.pop_local(ctx, self.sized_head_off(ctx, class));
            ctx.crash_point("slab::alloc_block::after_unlink");
            self.full_transition(ctx, slab, class);
            ctx.crash_point("slab::alloc_block::after_transition");
        }
        self.finish_alloc(ctx, slab, class, bit, detect_dst)
    }

    /// Allocates the specific free block `bit` of owned, sized `slab` (a
    /// validated magazine hint). Identical to [`Self::alloc_block`]
    /// except the slab need not be its sized list's head, so the
    /// full-slab transition unlinks with `remove_local`. Recovery is
    /// shared: the redo of `AllocBlock` already locates the slab by
    /// index, not list position.
    fn alloc_block_hint(
        &self,
        ctx: &Ctx<'_>,
        slab: u32,
        class: u8,
        bit: u32,
        detect_dst: u64,
    ) -> u64 {
        let bits = self.bits(ctx, slab, class);
        // Keep the first-fit rover moving even on the magazine path, so
        // a later scan resumes past the block the hint just consumed.
        if let Some(shadow) = ctx.shadow {
            if ctx.rover {
                shadow.set_rover(ctx.mem, ctx.core, self.kind, slab, bit + 1);
            }
        }
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::AllocBlock),
                a: slab,
                b: class,
                c: bit as u16,
            },
            &[detect_dst],
        );
        ctx.crash_point("slab::alloc_block::after_log");
        bits.clear(ctx.core, bit);
        let remaining = self.free_count(ctx, slab) - 1;
        self.set_free_count(ctx, slab, remaining);
        ctx.crash_point("slab::alloc_block::after_clear");
        if remaining == 0 {
            self.remove_local(ctx, self.sized_head_off(ctx, class), slab);
            ctx.crash_point("slab::alloc_block::after_unlink");
            self.full_transition(ctx, slab, class);
            ctx.crash_point("slab::alloc_block::after_transition");
        }
        self.finish_alloc(ctx, slab, class, bit, detect_dst)
    }

    /// Common allocation epilogue: deliver the pointer, retire the log
    /// entry, return the block offset.
    ///
    /// When the caller asked for detectability (`detect_dst != 0`), the
    /// block offset is stored into `*detect_dst` *before* the log entry
    /// is cleared. The redo log's `AllocBlock` handler keeps the block
    /// iff `*detect_dst` names it, so delivering here — rather than
    /// trusting the application to store after we return — closes the
    /// window where a crash between our return and the application's own
    /// store would leak the block. The store goes straight to the
    /// segment: `detect_dst` is application data, written exactly as the
    /// caller would have written it.
    fn finish_alloc(&self, ctx: &Ctx<'_>, slab: u32, class: u8, bit: u32, detect_dst: u64) -> u64 {
        let block =
            self.hl(ctx.mem).slab_data_at(slab) + bit as u64 * self.classes.block_size(class) as u64;
        if detect_dst != 0 {
            ctx.mem
                .segment()
                .atomic_u64(detect_dst)
                .store(block, std::sync::atomic::Ordering::SeqCst);
            ctx.crash_point("slab::alloc_block::after_deliver");
        }
        ctx.log().clear_relaxed(ctx.core);
        block
    }

    /// Detaches or disowns a just-full slab, per its remote counter.
    /// Idempotent (also used by recovery).
    pub(crate) fn full_transition(&self, ctx: &Ctx<'_>, slab: u32, class: u8) {
        let hl = self.hl(ctx.mem);
        let remote = Detect::unpack(ctx.mem.load_u64(ctx.core, hl.hwcc_desc_at(slab))).payload;
        let blocks = self.classes.blocks_per_slab(class);
        if remote == blocks {
            // No remote frees: detach, keeping ownership. The descriptor
            // must be durable before our allocation returns, because the
            // final remote free may steal the slab and read it.
            self.flush_desc(ctx, slab);
        } else {
            // At least one remote free: disown so every subsequent free
            // takes the remote path and the whole slab drains (§3.2.1).
            let mut header = self.header(ctx, slab);
            header.owner = 0;
            self.set_header(ctx, slab, header);
            self.flush_desc(ctx, slab);
        }
    }

    // ---- deallocation ------------------------------------------------------

    /// Frees the block at segment offset `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for misaligned interior
    /// pointers, blocks that are already free, or slabs past the heap
    /// length.
    pub(crate) fn dealloc(&self, ctx: &Ctx<'_>, offset: u64) -> Result<(), AllocError> {
        let hl = self.hl(ctx.mem);
        let slab = hl
            .slab_of(offset)
            .ok_or(AllocError::WildPointer { offset })?;
        // No heap-length check here: it would cost an HWcc read on every
        // free. A pointer past the heap length hits an all-zero
        // descriptor (owner 0 -> remote path -> zero counter) and is
        // rejected by the counter check.
        // Loading the owner from our own cache without flushing is safe:
        // the four-case analysis of §3.2.2.
        let header = self.header(ctx, slab);
        if header.owner == ctx.tid.raw() {
            self.free_local(ctx, slab, header, offset)
        } else {
            self.free_remote(ctx, slab, offset)
        }
    }

    /// The unsynchronized local-free fast path.
    fn free_local(
        &self,
        ctx: &Ctx<'_>,
        slab: u32,
        header: SwccHeader,
        offset: u64,
    ) -> Result<(), AllocError> {
        let hl = self.hl(ctx.mem);
        let class = header.class;
        let block_size = self.classes.block_size(class) as u64;
        let within = offset - hl.slab_data_at(slab);
        if !within.is_multiple_of(block_size) {
            return Err(AllocError::NotAllocated { offset });
        }
        let bit = (within / block_size) as u32;
        let bits = self.bits(ctx, slab, class);
        if bits.get(ctx.core, bit) {
            return Err(AllocError::NotAllocated { offset }); // double free
        }
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::FreeLocal),
                a: slab,
                b: class,
                c: bit as u16,
            },
            &[],
        );
        ctx.crash_point("slab::free_local::after_log");
        let was_full = self.free_count(ctx, slab) == 0;
        bits.set(ctx.core, bit);
        let now_free = self.free_count(ctx, slab) + 1;
        self.set_free_count(ctx, slab, now_free);
        ctx.crash_point("slab::free_local::after_set");
        if was_full {
            // It was detached (full + owned + unlinked): re-link it.
            self.push_local(ctx, self.sized_head_off(ctx, class), slab);
        }
        let mut stayed_sized = true;
        if now_free == self.classes.blocks_per_slab(class) {
            // Fully empty. Hysteresis: when this is the *only* slab on
            // the thread's sized list for its class, keep it sized — the
            // next same-class allocation reuses it directly instead of
            // paying the unsized-push + full re-init cycle (header,
            // count, bitset `set_all`, HWcc counter, `InitSlab` log
            // record). Retention is bounded to one empty slab per
            // (thread, class): keeping requires a singleton list, and no
            // second slab joins while the retained one still has free
            // blocks. Recovery is untouched — `normalize_slab` still
            // maps a crashed empty slab to the unsized list, which is a
            // valid (paper Figure-4) state the next allocation handles.
            let alone = ctx.retain_empty
                && self.head_of(ctx, self.sized_head_off(ctx, class)) == Some(slab)
                && self.header(ctx, slab).next == 0;
            if !alone {
                // Move from the sized list to the unsized list.
                self.remove_local(ctx, self.sized_head_off(ctx, class), slab);
                let mut h = self.header(ctx, slab);
                h.class = 0;
                h.flags = 0;
                self.set_header(ctx, slab, h);
                self.push_local(ctx, self.unsized_head_off(ctx), slab);
                stayed_sized = false;
            }
        }
        ctx.crash_point("slab::free_local::after_relink");
        ctx.log().clear_relaxed(ctx.core);
        if stayed_sized {
            // The slab stayed sized and owned: hint the freed block to
            // the magazine so the next same-class alloc can skip the
            // bitset scan. (A slab demoted to the unsized list would
            // only produce a stale, discarded hint.)
            if let Some(mags) = ctx.magazines {
                mags.push(self.kind, class, slab, bit);
            }
            // Pull the rover back to the freed bit. Without this the
            // hint is pure next-fit: it marches past freed-behind
            // blocks until it falls off the end of the bitmap and the
            // wrap pass pays a full scan-from-zero — on a
            // fragmentation-adversarial shape that is every few
            // operations. With the pull-back the owner maintains
            // "no free bit below the rover" across *local* frees, so
            // `find_set_from` degenerates to exact first-fit at
            // one-word cost. Remote frees don't update the hint (the
            // freer doesn't own the shadow); the wrap pass in
            // `find_set_from` keeps those reachable.
            if let Some(shadow) = ctx.shadow {
                if ctx.rover && bit < shadow.rover(self.kind, slab) {
                    shadow.set_rover(ctx.mem, ctx.core, self.kind, slab, bit);
                }
            }
        }
        self.release_overflow(ctx);
        Ok(())
    }

    /// Releases unsized slabs beyond the configured threshold to the
    /// global free list.
    pub(crate) fn release_overflow(&self, ctx: &Ctx<'_>) {
        let head_off = self.unsized_head_off(ctx);
        while self.list_len(ctx, head_off, ctx.unsized_limit + 1) > ctx.unsized_limit {
            let Some(slab) = self.pop_local(ctx, head_off) else {
                return;
            };
            ctx.crash_point("slab::push_global::after_pop");
            self.push_global(ctx, slab);
        }
    }

    /// The remote-free path: decrement the HWcc counter with detectable
    /// (m)CAS; steal the slab if we reach zero.
    fn free_remote(&self, ctx: &Ctx<'_>, slab: u32, offset: u64) -> Result<(), AllocError> {
        // While this thread's combiner-request word names `slab`, frees
        // against it must bypass buffering: a durable `remote_buf`
        // record for the same slab would give the slab two durable batch
        // representations and recovery's dedup rule would double-count.
        let buffering_blocked = ctx
            .comb
            .is_some_and(|c| c.blocks_buffering(self.kind, slab));
        if ctx.remote_free_batch > 1 && !buffering_blocked {
            // A buffer full of singletons declines a new slab: evicting
            // one singleton to admit another saves no CAS, so the free
            // goes eager. Declined slabs have no DRAM entry and hence no
            // durable `remote_buf` word, so the §9.1 invariant holds.
            if let Some(buf) = ctx.remote.filter(|b| b.admits(self.kind, slab)) {
                return self.free_remote_buffered(ctx, buf, slab, offset);
            }
        }
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        loop {
            let remote = dcas.read(ctx.core, hl.hwcc_desc_at(slab));
            if remote.payload == 0 {
                // Every block was already remotely freed; another free
                // into this slab is an application bug.
                return Err(AllocError::NotAllocated { offset });
            }
            let last = remote.payload == 1;
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(if last {
                        Op::RemoteFreeLast
                    } else {
                        Op::RemoteFree
                    }),
                    a: slab,
                    b: 0,
                    c: version,
                },
                &[],
            );
            ctx.crash_point("slab::remote_free::after_log");
            if dcas
                .attempt(
                    ctx.core,
                    hl.hwcc_desc_at(slab),
                    remote,
                    remote.payload - 1,
                    ctx.tid,
                    version,
                )
                .is_ok()
            {
                ctx.crash_point("slab::remote_free::after_cas");
                ctx.mem.trace_op(ctx.core, TraceKind::RemoteFreePublish, 1);
                if let Some(comb) = ctx.comb {
                    comb.note_publish();
                }
                if last {
                    self.steal(ctx, slab);
                }
                ctx.log().clear_relaxed(ctx.core);
                if last {
                    self.release_overflow(ctx);
                }
                return Ok(());
            }
            ctx.log().clear_relaxed(ctx.core);
            ctx.mem
                .note_cas_retry_at(cxl_pod::stats::CasRetrySite::RemotePublish);
            ctx.mem
                .trace_op(ctx.core, TraceKind::CasRetry, hl.hwcc_desc_at(slab));
            if let Some(comb) = ctx.comb {
                comb.note_retry();
            }
        }
    }

    /// The batched remote-free path: validate the free against the live
    /// counter, buffer it, and publish the whole batch with a single
    /// detectable CAS once the slab's entry reaches `remote_free_batch`.
    ///
    /// Every buffered free holds one of the counter's remaining credits,
    /// so the payload can never reach zero while frees sit in the buffer
    /// — no steal or slab reinitialization can race the buffered state.
    fn free_remote_buffered(
        &self,
        ctx: &Ctx<'_>,
        buf: &RemoteFreeBuffer,
        slab: u32,
        offset: u64,
    ) -> Result<(), AllocError> {
        let hl = self.hl(ctx.mem);
        let remote = ctx.dcas().read(ctx.core, hl.hwcc_desc_at(slab));
        // Double-free / wild-pointer parity with the eager path: the
        // payload must strictly exceed the already-buffered count for
        // one more free into this slab to be legal.
        let pending = buf.pending(self.kind, slab);
        if remote.payload <= pending {
            return Err(AllocError::NotAllocated { offset });
        }
        let (count, evicted) = buf.note(self.kind, slab);
        if let Some((vkind, vslab, vpending)) = evicted {
            ctx.mem.note_remote_buf_eviction();
            SlabHeap::of(vkind).publish_remote_frees(ctx, vslab, vpending);
        }
        if count >= ctx.remote_free_batch {
            let k = buf.take(self.kind, slab);
            // The contention governor routes hot publishes through the
            // flat-combining path; quiet threads keep the direct CAS.
            // Combining needs recovery machinery (the request word is
            // resolved by crash recovery), so the nonrecoverable
            // ablation always publishes directly.
            if let Some(comb) = ctx.comb {
                if ctx.recoverable && comb.should_combine() {
                    return crate::comb::publish_combined(ctx, self, comb, slab, k);
                }
            }
            self.publish_remote_frees(ctx, slab, k);
        } else if ctx.recoverable {
            // Mirror the new pending count into the durable header line
            // so recovery can republish the batch if we die before the
            // publish. At the threshold the publish immediately clears
            // the word, so recording first would be wasted traffic.
            remote::durable::record(ctx, self.kind, slab, count);
        }
        Ok(())
    }

    /// Publishes `k` buffered remote frees against `slab` with one
    /// detectable CAS decrementing the HWcc counter by `k`. The batch
    /// width travels in the oplog record's `b` byte (`k` ≤ 255 by the
    /// `remote_free_batch` clamp) so recovery redoes exactly the
    /// undelivered decrement. `k` is capped at the live payload as a
    /// defense against application double-frees that were never
    /// buffered; a zero payload drops the batch the same way the eager
    /// path would have rejected each free.
    pub(crate) fn publish_remote_frees(&self, ctx: &Ctx<'_>, slab: u32, k: u32) {
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        loop {
            let remote = dcas.read(ctx.core, hl.hwcc_desc_at(slab));
            if remote.payload == 0 {
                // The batch is dropped, so its durable record must not
                // survive to be republished by a later recovery.
                if ctx.recoverable {
                    remote::durable::clear(ctx, self.kind, slab);
                }
                return;
            }
            let k_eff = k.min(remote.payload);
            let last = remote.payload == k_eff;
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(if last {
                        Op::RemoteFreeLast
                    } else {
                        Op::RemoteFree
                    }),
                    a: slab,
                    b: k_eff as u8,
                    c: version,
                },
                &[],
            );
            ctx.crash_point("slab::remote_free::publish_after_log");
            // Durably retire the batch's header word *before* the CAS:
            // once the decrement can have landed, no recovery may
            // republish it. A crash in between is covered by the oplog
            // record just written — the logged redo applies the
            // decrement and recovery's scan skips this slab's word.
            if ctx.recoverable {
                remote::durable::clear(ctx, self.kind, slab);
            }
            if dcas
                .attempt(
                    ctx.core,
                    hl.hwcc_desc_at(slab),
                    remote,
                    remote.payload - k_eff,
                    ctx.tid,
                    version,
                )
                .is_ok()
            {
                ctx.crash_point("slab::remote_free::publish_after_cas");
                ctx.mem.note_remote_free_batched(k_eff as u64);
                ctx.mem
                    .trace_op(ctx.core, TraceKind::RemoteFreePublish, k_eff as u64);
                if let Some(comb) = ctx.comb {
                    comb.note_publish();
                }
                if last {
                    self.steal(ctx, slab);
                }
                ctx.log().clear_relaxed(ctx.core);
                if last {
                    self.release_overflow(ctx);
                }
                return;
            }
            ctx.log().clear_relaxed(ctx.core);
            ctx.mem
                .note_cas_retry_at(cxl_pod::stats::CasRetrySite::RemotePublish);
            ctx.mem
                .trace_op(ctx.core, TraceKind::CasRetry, hl.hwcc_desc_at(slab));
            if let Some(comb) = ctx.comb {
                comb.note_retry();
            }
        }
    }

    /// Steals a fully-remotely-freed slab (detached or disowned, hence
    /// unlinked) onto our unsized list. Safe without coordination: with
    /// the counter at zero there can be no further allocation from or
    /// deallocation to this slab (§3.1.1).
    pub(crate) fn steal(&self, ctx: &Ctx<'_>, slab: u32) {
        self.set_header(ctx, slab, SwccHeader {
            next: 0,
            owner: ctx.tid.raw(),
            class: 0,
            flags: 0,
        });
        self.set_free_count(ctx, slab, 0);
        ctx.crash_point("slab::remote_free::before_steal_push");
        self.push_local(ctx, self.unsized_head_off(ctx), slab);
    }

    // ---- introspection ------------------------------------------------------

    /// Bytes of HWcc memory currently in use by this heap (§5.2.1
    /// accounting).
    pub fn hwcc_bytes(&self, mem: &dyn PodMemory, core: CoreId) -> u64 {
        self.hl(mem).hwcc_bytes(self.len(mem, core))
    }

    /// Total data bytes mapped (heap length × slab size).
    pub fn mapped_bytes(&self, mem: &dyn PodMemory, core: CoreId) -> u64 {
        self.len(mem, core) as u64 * self.hl(mem).slab_size
    }
}
