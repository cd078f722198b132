//! The end-of-run correctness gate: on a quiesced heap, the allocator's
//! census of allocated blocks must equal the benchmark's ledger.
//!
//! A census counts a block freed by a remote thread as allocated until
//! its owner applies the free; each slab reports how many such frees it
//! holds (`remote_pending`), and a thread's unpublished batched frees
//! are listed by `remote_buffered`. Census blocks missing from the
//! ledger are credited against those counts, slab by slab. What no
//! credit covers is lost; ledger blocks missing from the census are
//! phantoms; credits left over mean the remote-free counts are wrong.

use crate::probe::Books;
use cxl_core::Cxlalloc;
use cxl_pod::CoreId;

/// Outcome of the gate.
#[derive(Debug)]
pub struct Gate {
    /// Blocks the census counts as allocated.
    pub census_live: usize,
    /// Blocks the ledger holds.
    pub ledger_live: usize,
    /// Census blocks that are remote frees not yet applied.
    pub remote_pending: u64,
    /// Census blocks neither in the ledger nor covered by a credit.
    pub lost: usize,
    /// Ledger blocks the census counts as free.
    pub phantom: usize,
    /// Credits no census block used.
    pub credit_excess: u64,
    /// The heap invariant checker's verdict.
    pub invariants: Result<(), String>,
}

impl Gate {
    /// Whether the heap and the ledger agree exactly.
    pub fn ok(&self) -> bool {
        self.lost == 0 && self.phantom == 0 && self.credit_excess == 0 && self.invariants.is_ok()
    }

    /// One-line summary.
    pub fn render(&self) -> String {
        format!(
            "census {} = ledger {} + remote-pending {}; lost {} phantom {} credit-excess {} invariants {}",
            self.census_live,
            self.ledger_live,
            self.remote_pending,
            self.lost,
            self.phantom,
            self.credit_excess,
            match &self.invariants {
                Ok(()) => "ok".to_string(),
                Err(e) => e.clone(),
            }
        )
    }
}

/// Runs the gate. Every thread must have quiesced
/// ([`crate::probe::Probe::quiesce`]) and no operation may be running.
///
/// # Errors
///
/// Returns the census walker's description of a corrupt heap.
pub fn check(heap: &Cxlalloc, books: &Books) -> Result<Gate, String> {
    let via = CoreId(0);
    let invariants = heap.check_invariants(via);
    let census = heap.census(via)?;
    let buffered = cxl_core::audit::remote_buffered(heap.process().memory().as_ref(), via);

    // (base, end, credit) per slab with remote-free debt, by address.
    let mut credits: Vec<(u64, u64, u64)> = census
        .slabs
        .iter()
        .map(|sa| {
            let batched: u64 = buffered
                .iter()
                .filter(|b| b.kind == sa.kind && b.slab == sa.slab)
                .map(|b| u64::from(b.pending))
                .sum();
            let end = sa.base + u64::from(sa.blocks) * sa.block_size;
            (sa.base, end, u64::from(sa.remote_pending) + batched)
        })
        .filter(|&(_, _, credit)| credit > 0)
        .collect();
    credits.sort_unstable();

    let heap_side = census.all_offsets();
    let ledger = books.live();
    let mut lost = 0;
    for off in diff_sorted(&heap_side, &ledger) {
        let slot = credits.partition_point(|&(base, _, _)| base <= off);
        match slot.checked_sub(1).map(|i| &mut credits[i]) {
            Some((_, end, credit)) if off < *end && *credit > 0 => *credit -= 1,
            _ => lost += 1,
        }
    }
    Ok(Gate {
        census_live: heap_side.len(),
        ledger_live: ledger.len(),
        remote_pending: census.remote_pending_total(),
        lost,
        phantom: diff_sorted(&ledger, &heap_side).len(),
        credit_excess: credits.iter().map(|c| c.2).sum(),
        invariants,
    })
}

/// Elements of sorted `a` missing from sorted `b`.
fn diff_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}
