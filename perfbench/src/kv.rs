//! `kv_ycsb_a`: the paper's modified YCSB-A (25 % insert, 25 % delete,
//! 50 % read, Zipfian keys, 8 B keys, 960 B values) over one shared
//! `KvStore`, on a `RawMemory` pod with two worker threads.
//!
//! The preloaded entries fill about the 105 MiB LLC of the reference
//! machine, and the heap they live in grows to several times that, so
//! reads miss in cache. Reads never call the allocator, which makes
//! them the control: an allocator change should move `insert_*`, not
//! `read_p50_ns`.

use crate::audit::Gate;
use crate::probe::{self, Books, Probe};
use crate::report::{Footprint, Results};
use crate::span::{self, Layer};
use crate::stats::ns_since;
use crate::wall::{self, Host, Mode, Outcome, Tally};
use crate::{pod_config, Args};
use cxl_core::{AttachOptions, Cxlalloc};
use cxl_pod::Pod;
use kvstore::{KvStore, KvThread};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use workloads::{KvOp, OpStream, WorkloadSpec};

/// Value bytes of every YCSB entry.
pub const VALUE_LEN: u32 = 960;
/// Bytes of one entry: 24-byte header, 8-byte key, value (992 B, one
/// small-heap block).
pub const ENTRY_BYTES: u64 = 24 + 8 + VALUE_LEN as u64;

/// Preloaded keys: 98,304 × 992 B ≈ 93 MiB of entries. A slab that
/// took a remote free is reclaimed only once all its blocks are free,
/// so under Zipfian churn the heap settles near 8× the live bytes; a
/// larger key space would not fit this benchmark's memory budget.
const KEYS: u64 = 98_304;
/// Hash buckets (more than keys, so chains stay short).
const BUCKETS: usize = 1 << 18;
/// Worker threads, one per core of the reference machine.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed ops per worker before the timed phases; the heap is read
/// after them.
const WARM_OPS: u64 = 1_000_000;

/// YCSB-A over `keys` keys, all of them preloaded.
fn spec(keys: u64) -> WorkloadSpec {
    WorkloadSpec {
        key_space: keys,
        preload: keys,
        ..WorkloadSpec::ycsb_a()
    }
}

/// Serializes KV ops on one bucket across OS threads.
///
/// `KvThread` unlinks a deleted entry with one best-effort CAS and
/// retires the entry whether or not that CAS succeeded. When two
/// threads work on one bucket the CAS can fail, leaving a retired entry
/// linked; once reclamation frees it, its block is reused while still
/// reachable and the chain can close into a cycle, after which an op
/// never returns. Until the store unlinks reliably, the two-thread
/// workload holds a striped lock on the op's bucket for the op, so no
/// two threads work on one chain at once. Allocator calls still run
/// concurrently, and cross-thread deletes still free remotely.
#[derive(Debug)]
pub struct BucketLocks {
    stripes: Vec<Mutex<()>>,
    buckets: u64,
}

impl BucketLocks {
    /// Locks for a store of `buckets` buckets.
    pub fn new(buckets: usize) -> Arc<Self> {
        Arc::new(BucketLocks {
            stripes: (0..4096).map(|_| Mutex::new(())).collect(),
            buckets: buckets as u64,
        })
    }

    /// Locks the stripe of `key`'s bucket, computed as `KvStore` does.
    fn lock(&self, key: u64) -> MutexGuard<'_, ()> {
        let bucket = crate::splitmix(key) % self.buckets;
        self.stripes[(bucket % self.stripes.len() as u64) as usize]
            .lock()
            .expect("no op panics while holding a bucket lock")
    }
}

/// One KV client: a store worker and its op stream.
#[derive(Debug)]
pub struct KvClient {
    /// The store worker (its allocator handle is a [`Probe`]).
    pub worker: KvThread,
    stream: OpStream<StdRng>,
    locks: Option<Arc<BucketLocks>>,
}

impl KvClient {
    /// A client of `store` allocating through `probe`, drawing ops over
    /// `keys` keys from `seed`.
    /// Clients on different OS threads must share `locks`.
    pub fn new(
        store: &Arc<KvStore>,
        probe: Probe,
        keys: u64,
        seed: u64,
        locks: Option<Arc<BucketLocks>>,
    ) -> Self {
        KvClient {
            worker: store.worker(Box::new(probe)),
            stream: OpStream::new(spec(keys), StdRng::seed_from_u64(seed)),
            locks,
        }
    }

    /// Inserts `key` with a YCSB entry (preload).
    pub fn preload(&mut self, key: u64) -> Result<(), String> {
        let _bucket = self.locks.as_ref().map(|l| l.lock(key));
        self.worker
            .insert(key, 8, VALUE_LEN)
            .map_err(|e| format!("preload of key {key}: {e}"))
    }

    /// Runs one op. Every read's entry is checked by the probe; with
    /// `shadow` (key → present), every result is checked against it.
    pub fn op(
        &mut self,
        mode: Mode,
        tally: &mut Tally,
        shadow: Option<&mut [bool]>,
    ) -> &'static str {
        let start = (mode == Mode::Timed).then(Instant::now);
        let stream = &mut self.stream;
        let op = span::scoped(Layer::Workloads, "next_op", || stream.next_op());
        let (KvOp::Insert { key, .. } | KvOp::Delete { key } | KvOp::Read { key }) = op;
        let _bucket = self.locks.as_ref().map(|l| l.lock(key));
        let w = &mut self.worker;
        let (kind, outcome) = match op {
            KvOp::Insert {
                key,
                key_len,
                value_len,
            } => match span::scoped(Layer::Kvstore, "insert", || {
                w.insert(key, key_len, value_len)
            }) {
                Ok(()) => {
                    if let Some(s) = shadow {
                        s[key as usize] = true;
                    }
                    ("insert", Outcome::Done)
                }
                Err(_) => ("insert", Outcome::Failed),
            },
            KvOp::Delete { key } => {
                let removed = span::scoped(Layer::Kvstore, "delete", || w.delete(key));
                let ok = shadow
                    .is_none_or(|s| std::mem::replace(&mut s[key as usize], false) == removed);
                ("delete", if ok { Outcome::Done } else { Outcome::Wrong })
            }
            KvOp::Read { key } => {
                probe::expect_key(key);
                let found = span::scoped(Layer::Kvstore, "get", || w.get(key));
                let ok = found.is_none_or(|len| len == VALUE_LEN)
                    && shadow.is_none_or(|s| s[key as usize] == found.is_some());
                ("read", if ok { Outcome::Done } else { Outcome::Wrong })
            }
        };
        if let Some(start) = start {
            let ns = ns_since(start);
            tally.op.push(ns);
            match kind {
                "insert" => tally.insert.push(ns),
                "delete" => tally.delete.push(ns),
                _ => tally.read.push(ns),
            }
        }
        tally.note(outcome);
        kind
    }
}

impl Host for KvClient {
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str {
        KvClient::op(self, mode, tally, None)
    }
}

struct Setup {
    pod: Pod,
    heap: Cxlalloc,
    books: Arc<Books>,
    store: Arc<KvStore>,
    clients: Vec<KvClient>,
}

/// Pod, attach, store with one EBR slot per worker, and a preload run
/// by the measured workers themselves, in parallel.
fn setup(seed: u64) -> Result<Setup, String> {
    // Entries take 1 KiB blocks, 32 per slab. The heap settles near
    // 16K slabs (see `KEYS`); twice that keeps every insert succeeding.
    let slabs = 32768;
    let pod = Pod::new(pod_config(8, slabs, 8, 1)).map_err(|e| format!("pod: {e}"))?;
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())
        .map_err(|e| format!("attach: {e}"))?;
    let books = Books::new(pod.layout());
    let store = KvStore::new(BUCKETS, THREADS);
    let locks = BucketLocks::new(BUCKETS);
    let mut clients = Vec::with_capacity(THREADS);
    for t in 0..THREADS {
        let handle = heap
            .register_thread()
            .map_err(|e| format!("register: {e}"))?;
        let probe = Probe::new(handle, books.clone());
        clients.push(KvClient::new(
            &store,
            probe,
            KEYS,
            seed ^ (t as u64 + 1) << 32,
            Some(locks.clone()),
        ));
    }
    std::thread::scope(|s| {
        let loaders: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                s.spawn(move || {
                    (t as u64..KEYS)
                        .step_by(THREADS)
                        .try_for_each(|k| c.preload(k))
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|l| l.join().expect("preload thread panicked"))
    })?;
    Ok(Setup {
        pod,
        heap,
        books,
        store,
        clients,
    })
}

/// Drains every worker's retired entries (each drain ends at a probe
/// quiesce point), then runs the correctness gate and checks that the
/// ledger holds exactly the store's entries.
pub fn settle(
    heap: &Cxlalloc,
    books: &Books,
    store: &KvStore,
    clients: &mut [KvClient],
) -> Result<(Gate, Vec<String>), String> {
    for c in clients.iter_mut() {
        c.worker.drain_retired();
    }
    let gate = crate::audit::check(heap, books)?;
    let mut failures = Vec::new();
    if gate.ledger_live as u64 != store.len() {
        failures.push(format!(
            "ledger holds {} blocks but the store holds {} entries",
            gate.ledger_live,
            store.len()
        ));
    }
    Ok((gate, failures))
}

/// The heap of a store of `entries` YCSB entries and its ledger.
pub fn footprint(heap: &Cxlalloc, books: &Books, entries: u64) -> Footprint {
    let held = books.live().len() as f64;
    Footprint {
        heap: heap.stats(),
        live_bytes: (entries * ENTRY_BYTES) as f64,
        unreclaimed_frac: Some(crate::stats::ratio(held - entries as f64, held)),
    }
}

/// Runs `kv_ycsb_a`.
pub fn run(args: &Args) -> Result<Results, String> {
    let (setup_s, setup) = crate::set_up(SETUPS, |s: &Setup| &s.pod, || setup(args.seed))?;
    let Setup {
        pod: _pod,
        heap,
        books,
        store,
        clients,
    } = setup;

    let timer_floor_ns = crate::stats::timer_floor_ns();
    let (clients, warm) = wall::warm(clients, WARM_OPS);
    let footprint = footprint(&heap, &books, store.len());
    let (mut clients, mut driven) = wall::drive(clients, args.seconds, args.trace, args.seed);
    driven.warm = warm;

    let (gate, failures) = settle(&heap, &books, &store, &mut clients)?;
    let model = crate::sim::kv_model(args.seed, args.trace)?;
    Ok(Results {
        setup_s,
        timer_floor_ns,
        driven,
        footprint,
        model,
        gate,
        failures,
    })
}
