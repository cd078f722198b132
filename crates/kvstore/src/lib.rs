//! The in-memory key-value store index used by the macrobenchmarks
//! (paper §5.2.1).
//!
//! "For our index data structure, we adapt cxl-shm's non-resizable
//! lock-free hash table to support all allocators, configuring it with
//! 32M buckets. In order to support deletion, we also adapt it to use
//! token-passing epoch-based reclamation."
//!
//! The table is a fixed bucket array of lock-free (Harris-style) linked
//! lists whose entries live in pod memory, allocated through any
//! [`PodAllocThread`]. Because we compare *allocators*, the index's own
//! bucket array is identical host memory for every allocator.
//!
//! Entry layout in pod memory (all offsets 8-aligned):
//!
//! ```text
//! word 0: next entry offset | mark bit (bit 0)
//! word 1: key id (exact, used as the comparison key)
//! word 2: key_len (low 32) | value_len (high 32)
//! then:   key bytes, value bytes
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ebr;

pub use ebr::Ebr;

use baselines::{BenchError, PodAllocThread};
use cxl_core::OffsetPtr;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const HEADER: u64 = 24;
const MARK: u64 = 1;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The shared hash-table index.
///
/// ```
/// use baselines::{MiLike, PodAlloc};
/// use kvstore::KvStore;
///
/// let alloc = MiLike::new(64 << 20);
/// let store = KvStore::new(1024, 4);
/// let mut worker = store.worker(alloc.thread()?);
/// worker.insert(7, 8, 100)?;
/// assert_eq!(worker.get(7), Some(100));
/// assert!(worker.delete(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct KvStore {
    buckets: Vec<AtomicU64>,
    ebr: Ebr,
    next_slot: AtomicUsize,
    live_entries: AtomicU64,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("buckets", &self.buckets.len())
            .field("live_entries", &self.live_entries.load(Ordering::Relaxed))
            .finish()
    }
}

impl KvStore {
    /// Creates a table with `buckets` buckets supporting up to
    /// `max_threads` worker threads.
    pub fn new(buckets: usize, max_threads: usize) -> Arc<Self> {
        Arc::new(KvStore {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            ebr: Ebr::new(max_threads),
            next_slot: AtomicUsize::new(0),
            live_entries: AtomicU64::new(0),
        })
    }

    /// Registers a worker backed by an allocator thread handle.
    ///
    /// # Panics
    ///
    /// Panics when more than `max_threads` workers register.
    pub fn worker(self: &Arc<Self>, alloc: Box<dyn PodAllocThread>) -> KvThread {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(slot < self.ebr.capacity(), "too many kv workers");
        KvThread {
            store: self.clone(),
            alloc,
            slot,
            retired: VecDeque::new(),
            ops: 0,
            frees: 0,
        }
    }

    /// Number of live entries (approximate under concurrency).
    pub fn len(&self) -> u64 {
        self.live_entries.load(Ordering::Relaxed)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> &AtomicU64 {
        &self.buckets[(splitmix(key) % self.buckets.len() as u64) as usize]
    }
}

/// A per-thread handle to the store.
pub struct KvThread {
    store: Arc<KvStore>,
    alloc: Box<dyn PodAllocThread>,
    slot: usize,
    /// Entries awaiting epoch-safe reclamation: (retire_epoch, ptr).
    retired: VecDeque<(u64, OffsetPtr)>,
    ops: u64,
    /// Retired entries handed back to the allocator so far.
    frees: u64,
}

impl std::fmt::Debug for KvThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvThread")
            .field("slot", &self.slot)
            .field("retired", &self.retired.len())
            .finish()
    }
}

/// A decoded entry header.
#[derive(Debug, Clone, Copy)]
struct Entry {
    next: u64,
    marked: bool,
    key: u64,
    key_len: u32,
    value_len: u32,
}

impl KvThread {
    /// The underlying allocator handle.
    pub fn allocator(&mut self) -> &mut dyn PodAllocThread {
        self.alloc.as_mut()
    }

    #[inline]
    fn word(&mut self, ptr: OffsetPtr, index: u64) -> &AtomicU64 {
        let raw = self.alloc.resolve(ptr, HEADER) as *const AtomicU64;
        // SAFETY: entries are 8-aligned, at least HEADER bytes, and live
        // in the shared segment for the life of the store (retired
        // entries are freed only after two epochs).
        unsafe { &*raw.add(index as usize) }
    }

    fn read_entry(&mut self, ptr: OffsetPtr) -> Entry {
        let next_raw = self.word(ptr, 0).load(Ordering::Acquire);
        let key = self.word(ptr, 1).load(Ordering::Relaxed);
        let lens = self.word(ptr, 2).load(Ordering::Relaxed);
        Entry {
            next: next_raw & !MARK,
            marked: next_raw & MARK != 0,
            key,
            key_len: lens as u32,
            value_len: (lens >> 32) as u32,
        }
    }

    /// Inserts (or replaces) `key` with a fresh entry of the given key
    /// and value lengths; the entry's bytes are filled with a
    /// deterministic pattern.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors (OOM, unsupported size).
    pub fn insert(&mut self, key: u64, key_len: u32, value_len: u32) -> Result<(), BenchError> {
        let total = HEADER + key_len as u64 + value_len as u64;
        let ptr = self.alloc.alloc(total as usize)?;
        debug_assert_eq!(ptr.offset() % 8, 0);
        // Fill the entry before publication.
        let epoch = self.store.ebr.pin(self.slot);
        self.word(ptr, 1).store(key, Ordering::Relaxed);
        self.word(ptr, 2)
            .store(key_len as u64 | (value_len as u64) << 32, Ordering::Relaxed);
        if total > HEADER {
            let body = self.alloc.resolve(ptr, total);
            // SAFETY: `body` is valid for `total` bytes (just allocated).
            unsafe {
                body.add(HEADER as usize)
                    .write_bytes(key as u8 ^ 0x5A, (total - HEADER) as usize)
            };
        }
        // Publish at the bucket head.
        let bucket = self.store.bucket_of(key) as *const AtomicU64;
        // SAFETY: bucket array outlives all workers (Arc).
        let bucket = unsafe { &*bucket };
        let mut head = bucket.load(Ordering::Acquire);
        loop {
            self.word(ptr, 0).store(head, Ordering::Relaxed);
            match bucket.compare_exchange_weak(
                head,
                ptr.offset(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        self.store.live_entries.fetch_add(1, Ordering::Relaxed);
        // Replace semantics: logically delete the next older entry with
        // the same key, if any.
        self.delete_after(ptr, key, epoch);
        self.store.ebr.unpin(self.slot);
        self.quiesce();
        Ok(())
    }

    /// Reads `key`; returns the value length and touches the value
    /// bytes. Returns `None` if absent.
    pub fn get(&mut self, key: u64) -> Option<u32> {
        let epoch = self.store.ebr.pin(self.slot);
        let mut cursor = self.store.bucket_of(key).load(Ordering::Acquire);
        let mut result = None;
        while let Some(ptr) = OffsetPtr::decode(cursor) {
            let entry = self.read_entry(ptr);
            if !entry.marked && entry.key == key {
                // Model per-object synchronization (cxl-shm refcounts).
                self.alloc.read_barrier(ptr);
                // Touch the value.
                let total = HEADER + entry.key_len as u64 + entry.value_len as u64;
                let body = self.alloc.resolve(ptr, total);
                if entry.value_len > 0 {
                    // SAFETY: entry is valid for `total` bytes.
                    let first = unsafe {
                        *body.add(HEADER as usize + entry.key_len as usize)
                    };
                    std::hint::black_box(first);
                }
                result = Some(entry.value_len);
                break;
            }
            cursor = entry.next;
        }
        let _ = epoch;
        self.store.ebr.unpin(self.slot);
        self.quiesce();
        result
    }

    /// Deletes `key`; returns whether an entry was removed.
    pub fn delete(&mut self, key: u64) -> bool {
        let epoch = self.store.ebr.pin(self.slot);
        let deleted = self.delete_from_bucket(key, epoch);
        self.store.ebr.unpin(self.slot);
        self.quiesce();
        deleted
    }

    /// Marks and retires the first live entry matching `key` in the
    /// bucket (logical delete + best-effort unlink).
    fn delete_from_bucket(&mut self, key: u64, epoch: u64) -> bool {
        let bucket = self.store.bucket_of(key) as *const AtomicU64;
        // SAFETY: bucket array outlives workers.
        let bucket = unsafe { &*bucket };
        let mut cursor = bucket.load(Ordering::Acquire);
        let mut prev: Option<OffsetPtr> = None;
        while let Some(ptr) = OffsetPtr::decode(cursor) {
            let entry = self.read_entry(ptr);
            if !entry.marked && entry.key == key {
                if self.try_mark(ptr, entry.next) {
                    self.unlink(bucket, prev, ptr, entry.next);
                    self.retired.push_back((epoch, ptr));
                    self.store.live_entries.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
                // Lost the race; restart from the head.
                cursor = bucket.load(Ordering::Acquire);
                prev = None;
                continue;
            }
            prev = Some(ptr);
            cursor = entry.next;
        }
        false
    }

    /// Deletes the first live `key` entry strictly *after* `from` (the
    /// replace path of `insert`).
    fn delete_after(&mut self, from: OffsetPtr, key: u64, epoch: u64) {
        let mut prev = from;
        let mut cursor = self.read_entry(from).next;
        while let Some(ptr) = OffsetPtr::decode(cursor) {
            let entry = self.read_entry(ptr);
            if !entry.marked && entry.key == key {
                if self.try_mark(ptr, entry.next) {
                    // Best-effort physical unlink through prev.
                    let prev_word = self.word(prev, 0) as *const AtomicU64;
                    // SAFETY: prev entry remains valid (we hold the epoch).
                    let prev_word = unsafe { &*prev_word };
                    let _ = prev_word.compare_exchange(
                        ptr.offset(),
                        entry.next,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    self.retired.push_back((epoch, ptr));
                    self.store.live_entries.fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
            prev = ptr;
            cursor = entry.next;
        }
    }

    /// CAS-sets the mark bit on `ptr`'s next word.
    fn try_mark(&mut self, ptr: OffsetPtr, next: u64) -> bool {
        self.word(ptr, 0)
            .compare_exchange(next, next | MARK, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Physically unlinks a marked entry (best effort).
    fn unlink(&mut self, bucket: &AtomicU64, prev: Option<OffsetPtr>, ptr: OffsetPtr, next: u64) {
        match prev {
            None => {
                let _ = bucket.compare_exchange(
                    ptr.offset(),
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            Some(prev) => {
                let prev_word = self.word(prev, 0) as *const AtomicU64;
                // SAFETY: prev valid under the epoch.
                let prev_word = unsafe { &*prev_word };
                let _ = prev_word.compare_exchange(
                    ptr.offset(),
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
    }

    /// Periodic housekeeping: pass the epoch token and free retired
    /// entries that two epochs have passed over.
    fn quiesce(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(64) {
            self.store.ebr.tick(self.slot);
        }
        while let Some(&(epoch, ptr)) = self.retired.front() {
            if !self.store.ebr.safe_to_free(epoch) {
                break;
            }
            self.retired.pop_front();
            let _ = self.alloc.dealloc(ptr);
            self.frees += 1;
        }
    }

    /// Drains the retire queue unconditionally (end of run; requires
    /// external quiescence).
    pub fn drain_retired(&mut self) {
        // Force epoch advances: every other worker must be unpinned.
        for _ in 0..self.store.ebr.capacity() * 3 + 3 {
            for s in 0..self.store.ebr.capacity() {
                self.store.ebr.tick(s);
            }
        }
        while let Some((_, ptr)) = self.retired.pop_front() {
            let _ = self.alloc.dealloc(ptr);
            self.frees += 1;
        }
        self.alloc.maintain();
    }

    /// Retired entries this worker has handed back to the allocator
    /// (epoch-safe reclamation plus [`drain_retired`](Self::drain_retired)).
    pub fn frees(&self) -> u64 {
        self.frees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{MiLike, PodAlloc};

    fn store_with(alloc: &dyn PodAlloc) -> (Arc<KvStore>, KvThread) {
        let store = KvStore::new(1024, 8);
        let worker = store.worker(alloc.thread().unwrap());
        (store, worker)
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let alloc = MiLike::new(64 << 20);
        let (_store, mut w) = store_with(&alloc);
        assert_eq!(w.get(42), None);
        w.insert(42, 8, 100).unwrap();
        assert_eq!(w.get(42), Some(100));
        assert!(w.delete(42));
        assert_eq!(w.get(42), None);
        assert!(!w.delete(42));
    }

    #[test]
    fn replace_keeps_latest() {
        let alloc = MiLike::new(64 << 20);
        let (store, mut w) = store_with(&alloc);
        w.insert(7, 8, 10).unwrap();
        w.insert(7, 8, 20).unwrap();
        w.insert(7, 8, 30).unwrap();
        assert_eq!(w.get(7), Some(30));
        // Replacement retired the old versions: live count stays 1.
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn many_keys_coexist() {
        let alloc = MiLike::new(64 << 20);
        let (store, mut w) = store_with(&alloc);
        for key in 0..2000u64 {
            w.insert(key, 8, (key % 200) as u32).unwrap();
        }
        assert_eq!(store.len(), 2000);
        for key in 0..2000u64 {
            assert_eq!(w.get(key), Some((key % 200) as u32), "key {key}");
        }
        for key in (0..2000u64).step_by(2) {
            assert!(w.delete(key));
        }
        assert_eq!(store.len(), 1000);
        for key in 0..2000u64 {
            let expect = (key % 2 == 1).then_some((key % 200) as u32);
            assert_eq!(w.get(key), expect);
        }
    }

    #[test]
    fn retired_entries_are_freed() {
        let alloc = MiLike::new(64 << 20);
        let (_store, mut w) = store_with(&alloc);
        for _ in 0..50u64 {
            w.insert(1, 8, 960).unwrap();
        }
        w.delete(1);
        w.drain_retired();
        let used = alloc.memory_usage().data_bytes;
        // Re-running the same churn must not grow the heap: freed
        // entries are recycled.
        for _ in 0..50u64 {
            w.insert(1, 8, 960).unwrap();
        }
        w.delete(1);
        w.drain_retired();
        assert_eq!(alloc.memory_usage().data_bytes, used);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let alloc = MiLike::new(256 << 20);
        let store = KvStore::new(4096, 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut w = store.worker(alloc.thread().unwrap());
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let key = t * 1_000_000 + i;
                        w.insert(key, 8, 64).unwrap();
                        assert_eq!(w.get(key), Some(64));
                        if i % 3 == 0 {
                            assert!(w.delete(key));
                        }
                    }
                    w.drain_retired();
                });
            }
        });
        let mut w = store.worker(alloc.thread().unwrap());
        for t in 0..4u64 {
            assert_eq!(w.get(t * 1_000_000 + 1), Some(64));
            assert_eq!(w.get(t * 1_000_000), None); // deleted (i % 3 == 0)
        }
    }

    #[test]
    fn concurrent_same_key_contention() {
        let alloc = MiLike::new(256 << 20);
        let store = KvStore::new(64, 8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut w = store.worker(alloc.thread().unwrap());
                s.spawn(move || {
                    for i in 0..1500u64 {
                        match i % 3 {
                            0 => {
                                let _ = w.insert(9, 8, 32);
                            }
                            1 => {
                                let _ = w.get(9);
                            }
                            _ => {
                                let _ = w.delete(9);
                            }
                        }
                    }
                    w.drain_retired();
                });
            }
        });
        // The table survives (no crash/UB); the key is either present or
        // not.
        let mut w = store.worker(alloc.thread().unwrap());
        let _ = w.get(9);
    }

    #[test]
    fn works_with_cxlalloc() {
        use baselines::CxlallocAdapter;
        use cxl_pod::{Pod, PodConfig};
        let pod = Pod::new(PodConfig {
            small_max_slabs: 1024,
            ..PodConfig::small_for_tests()
        })
        .unwrap();
        let alloc = CxlallocAdapter::new(pod, 2, cxl_core::AttachOptions::default());
        let (_store, mut w) = store_with(&alloc);
        for key in 0..500u64 {
            w.insert(key, 8, 960).unwrap();
        }
        for key in 0..500u64 {
            assert_eq!(w.get(key), Some(960));
        }
        for key in 0..500u64 {
            assert!(w.delete(key));
        }
        w.drain_retired();
    }
}
