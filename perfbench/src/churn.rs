//! `alloc_churn`: the allocator does nearly all the work.
//!
//! Each host keeps a fixed live set. Each op frees a seeded victim and
//! allocates a replacement whose size is drawn from the Twitter MC-15,
//! MC-31 or MC-12 value distribution (`workloads::SizeDist`); about
//! 38 % of MC-12 draws exceed 1 KiB and go to the large heap. With
//! probability [`HANDOFF`] the replacement is handed to the next host
//! and the slot takes an object that host handed over; handoffs travel
//! in batches of [`BATCH`], so a share of every host's victims were
//! allocated by its peer and their frees are remote. Every object is
//! stamped in its first and last word, and the stamps are checked
//! before it is freed. `kvstore` is not involved.

use crate::audit::Gate;
use crate::probe::{Books, Probe};
use crate::report::{Footprint, Results};
use crate::span::{self, Layer};
use crate::stats::ns_since;
use crate::wall::{self, timed, Host, Mode, Outcome, Tally};
use crate::{pod_config, splitmix, Args};
use baselines::PodAllocThread;
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::Pod;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;
use workloads::{SizeDist, WorkloadSpec};

/// Share of replacements handed to the next host.
pub const HANDOFF: f64 = 0.25;
/// Objects per handoff batch.
pub const BATCH: usize = 64;
/// Smallest object: room for distinct first and last stamp words.
const MIN_SIZE: u32 = 16;
/// Live objects per thread: about 8 MiB each, so both threads' live
/// bytes sit well inside the 105 MiB LLC of the reference machine.
/// With 4096 objects (64 MiB in all) the victim's stamp check flipped
/// between about 100 and 170 ns from run to run, with the LLC share
/// the machine's other tenants left free.
const LIVE: usize = 1024;
/// Threads, one per core of the reference machine.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Untimed ops per thread before the timed phases; the heap is read
/// after them.
const WARM_OPS: u64 = 1_000_000;

/// A live object and the stamp written into it.
#[derive(Debug, Clone, Copy)]
pub struct Obj {
    ptr: OffsetPtr,
    size: u32,
    stamp: u64,
}

/// One churn host: a probe, its live set and its handoff queues.
#[derive(Debug)]
pub struct ChurnHost {
    probe: Probe,
    rng: StdRng,
    dists: [SizeDist; 3],
    live: Vec<Option<Obj>>,
    inbox: VecDeque<Obj>,
    outbox: Vec<Obj>,
    stamps: u64,
    timed_ops: u64,
    /// Bytes this host allocated minus bytes it freed; summed over
    /// hosts, the bytes the application holds.
    pub net_bytes: i64,
}

impl ChurnHost {
    /// Host `id` allocating through `probe`, drawing from `seed`.
    pub fn new(probe: Probe, seed: u64, id: u64) -> Self {
        ChurnHost {
            probe,
            rng: StdRng::seed_from_u64(seed ^ (id + 1) << 40),
            dists: [
                WorkloadSpec::mc15(),
                WorkloadSpec::mc31(),
                WorkloadSpec::mc12(),
            ]
            .map(|w| w.value_size),
            live: Vec::new(),
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            stamps: splitmix(id),
            timed_ops: 0,
            net_bytes: 0,
        }
    }

    fn draw_size(&mut self) -> u32 {
        let d = self.rng.gen_range(0..self.dists.len());
        self.dists[d].sample(&mut self.rng).max(MIN_SIZE)
    }

    /// Fills the live set with `live` objects and the outbox with one
    /// batch, the first handoff to the next host.
    pub fn fill(&mut self, live: usize) -> Result<(), String> {
        for i in 0..live + BATCH {
            let size = self.draw_size();
            let obj = self.alloc_obj(size).map_err(|e| format!("fill: {e}"))?;
            if i < live {
                self.live.push(Some(obj));
            } else {
                self.outbox.push(obj);
            }
        }
        Ok(())
    }

    fn alloc_obj(&mut self, size: u32) -> Result<Obj, baselines::BenchError> {
        let ptr = self.probe.alloc(size as usize)?;
        self.stamps = splitmix(self.stamps);
        let obj = Obj {
            ptr,
            size,
            stamp: self.stamps,
        };
        let (first, last) = self.words(obj);
        // SAFETY: `ptr` is a fresh block of `size` ≥ 16 bytes, 8-aligned,
        // and both words lie inside it.
        unsafe {
            first.write(obj.stamp);
            last.write(obj.stamp ^ u64::from(size));
        }
        self.net_bytes += i64::from(size);
        Ok(obj)
    }

    /// Pointers to the first and last whole words of `obj`.
    fn words(&mut self, obj: Obj) -> (*mut u64, *mut u64) {
        let raw = self.probe.resolve(obj.ptr, u64::from(obj.size)) as *mut u64;
        // SAFETY: the last whole word starts below `size` bytes.
        (raw, unsafe { raw.add(obj.size as usize / 8 - 1) })
    }

    /// Whether `obj`'s stamps are intact.
    fn check(&mut self, obj: Obj) -> bool {
        let (first, last) = self.words(obj);
        // SAFETY: the object is live and held only by this host.
        let (a, b) = unsafe { (first.read(), last.read()) };
        a == obj.stamp && b == obj.stamp ^ u64::from(obj.size)
    }

    /// The outbox, once it holds a full batch.
    pub fn take_batch(&mut self) -> Option<Vec<Obj>> {
        (self.outbox.len() >= BATCH).then(|| std::mem::take(&mut self.outbox))
    }

    /// Accepts a batch handed over by the previous host.
    pub fn receive(&mut self, batch: Vec<Obj>) {
        self.inbox.extend(batch);
    }

    /// Every object the host holds.
    fn held(&self) -> Vec<Obj> {
        let live = self.live.iter().flatten();
        live.chain(&self.inbox)
            .chain(&self.outbox)
            .copied()
            .collect()
    }
}

impl Host for ChurnHost {
    /// Timed ops take turns timing the whole op, the victim's stamp
    /// check (`read`), its free (`delete`) and the replacement's
    /// allocation and stamping (`insert`).
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str {
        let point = if mode == Mode::Timed {
            self.timed_ops += 1;
            Some(self.timed_ops % 4)
        } else {
            None
        };
        let start = (point == Some(0)).then(Instant::now);
        let (v, size, handoff) = span::scoped(Layer::Workloads, "SizeDist::sample", || {
            let v = self.rng.gen_range(0..self.live.len());
            let size = self.draw_size();
            (v, size, self.rng.gen_bool(HANDOFF))
        });
        let mut outcome = Outcome::Done;
        if let Some(victim) = self.live[v].take() {
            let intact = timed(point == Some(1), &mut tally.read, || {
                span::scoped(Layer::Bench, "check_stamps", || self.check(victim))
            });
            let freed = timed(point == Some(2), &mut tally.delete, || {
                self.probe.dealloc(victim.ptr)
            });
            self.net_bytes -= i64::from(victim.size);
            if !intact || freed.is_err() {
                outcome = Outcome::Wrong;
            }
        }
        match timed(point == Some(3), &mut tally.insert, || self.alloc_obj(size)) {
            Ok(obj) => {
                let foreign = if handoff {
                    self.inbox.pop_front()
                } else {
                    None
                };
                if foreign.is_some() {
                    self.outbox.push(obj);
                }
                self.live[v] = Some(foreign.unwrap_or(obj));
            }
            Err(_) => outcome = Outcome::Failed,
        }
        if let Some(start) = start {
            tally.op.push(ns_since(start));
        }
        tally.note(outcome);
        "churn"
    }
}

/// Checks every held object's stamps, quiesces every host, runs the
/// correctness gate, and checks that the ledger holds exactly the
/// objects the hosts hold.
pub fn settle(
    heap: &Cxlalloc,
    books: &Books,
    hosts: &mut [ChurnHost],
) -> Result<(Gate, Vec<String>), String> {
    let mut failures = Vec::new();
    let mut held = 0;
    for h in hosts.iter_mut() {
        let objs = h.held();
        held += objs.len();
        let broken = objs.into_iter().filter(|&o| !h.check(o)).count();
        if broken > 0 {
            failures.push(format!("{broken} held objects lost their stamps"));
        }
        h.probe.quiesce();
    }
    let gate = crate::audit::check(heap, books)?;
    if gate.ledger_live != held {
        failures.push(format!(
            "ledger holds {} blocks but the hosts hold {held}",
            gate.ledger_live
        ));
    }
    Ok((gate, failures))
}

/// A churn host on its own OS thread, handing batches over a channel.
#[derive(Debug)]
struct WallHost {
    host: ChurnHost,
    to_next: Sender<Vec<Obj>>,
    from_prev: Receiver<Vec<Obj>>,
}

impl WallHost {
    fn collect(&mut self) {
        while let Ok(batch) = self.from_prev.try_recv() {
            self.host.receive(batch);
        }
    }
}

impl Host for WallHost {
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str {
        if self.host.inbox.is_empty() {
            self.collect();
        }
        let kind = self.host.op(mode, tally);
        if let Some(batch) = self.host.take_batch() {
            // The receiver lives as long as its host, which outlives
            // the run; a send cannot fail before the hosts are dropped.
            let _ = self.to_next.send(batch);
        }
        kind
    }
}

struct Setup {
    pod: Pod,
    heap: Cxlalloc,
    books: Arc<Books>,
    hosts: Vec<WallHost>,
}

/// Pod, attach, and each thread filling its live set in parallel.
fn setup(seed: u64) -> Result<Setup, String> {
    let pod = Pod::new(pod_config(8, 1024, 1024, 1)).map_err(|e| format!("pod: {e}"))?;
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())
        .map_err(|e| format!("attach: {e}"))?;
    let books = Books::new(pod.layout());
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| channel()).unzip();
    let mut hosts = Vec::with_capacity(THREADS);
    for (t, from_prev) in receivers.into_iter().enumerate() {
        let handle = heap
            .register_thread()
            .map_err(|e| format!("register: {e}"))?;
        hosts.push(WallHost {
            host: ChurnHost::new(Probe::new(handle, books.clone()), seed, t as u64),
            to_next: senders[(t + 1) % THREADS].clone(),
            from_prev,
        });
    }
    std::thread::scope(|s| {
        let fillers: Vec<_> = hosts
            .iter_mut()
            .map(|h| {
                s.spawn(move || {
                    h.host.fill(LIVE)?;
                    let batch = h.host.take_batch().expect("fill leaves one full batch");
                    let _ = h.to_next.send(batch);
                    Ok::<(), String>(())
                })
            })
            .collect();
        fillers
            .into_iter()
            .try_for_each(|f| f.join().expect("fill thread panicked"))
    })?;
    Ok(Setup {
        pod,
        heap,
        books,
        hosts,
    })
}

/// Runs `alloc_churn`.
pub fn run(args: &Args) -> Result<Results, String> {
    let (setup_s, setup) = crate::set_up(SETUPS, |s: &Setup| &s.pod, || setup(args.seed))?;
    let Setup {
        pod: _pod,
        heap,
        books,
        hosts,
    } = setup;

    let timer_floor_ns = crate::stats::timer_floor_ns();
    let (hosts, warm) = wall::warm(hosts, WARM_OPS);
    let footprint = Footprint {
        heap: heap.stats(),
        live_bytes: hosts.iter().map(|h| h.host.net_bytes).sum::<i64>() as f64,
        unreclaimed_frac: None,
    };
    let (mut hosts, mut driven) = wall::drive(hosts, args.seconds, args.trace, args.seed);
    driven.warm = warm;
    for h in &mut hosts {
        h.collect();
    }
    let mut churn_hosts: Vec<ChurnHost> = hosts.into_iter().map(|h| h.host).collect();
    let (gate, failures) = settle(&heap, &books, &mut churn_hosts)?;
    let model = crate::sim::churn_model(args.seed, args.trace)?;
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
