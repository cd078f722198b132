//! Modeled-clock runs on a simulated pod (`SimMemory`, `HwccMode::
//! Limited`, `FabricConfig::congested()`).
//!
//! Simulated hosts sit on distinct cores and are driven interleaved,
//! one op per host per turn, from one OS thread, so every count and
//! every core clock is a pure function of the seed. A run measures a
//! fixed window of ops after untimed warm-up turns: Σ per-core clock
//! delta, each op's own-core clock delta, and `MemStats` deltas.
//!
//! `pod16_sim` is 16 hosts in 4 processes running YCSB-A; the two
//! `RawMemory` workloads take their modeled metrics from a 2-host
//! replay of their own op mix here.

use crate::audit::Gate;
use crate::churn::{self, ChurnHost};
use crate::kv::{self, KvClient};
use crate::probe::{self, Books, Counts, Probe};
use crate::report::{Footprint, Results};
use crate::wall::{self, Host, Mode, Tally};
use crate::{pod_config, Args};
use cxl_core::{AttachOptions, Cxlalloc};
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::{FabricConfig, HwccMode, Pod, PodMemory, SimMemory};
use kvstore::KvStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shape of a simulated pod.
#[derive(Debug, Clone)]
pub struct PodSpec {
    /// Simulated hosts (one registered thread and core each).
    pub hosts: usize,
    /// Simulated processes the hosts are spread over, round-robin.
    pub processes: usize,
    /// Global free-list stripes.
    pub stripes: u32,
    /// Attach options of every process.
    pub options: AttachOptions,
    /// Small-heap capacity in slabs.
    pub small_slabs: u32,
    /// Large-heap capacity in slabs.
    pub large_slabs: u32,
    /// Coherence the pod provides.
    pub mode: HwccMode,
}

/// `pod16_sim`: the paper's largest pod, just past the 8→16-host knee
/// of the congested fabric. Batching remote frees is the one
/// non-default attach option.
pub fn pod16() -> PodSpec {
    PodSpec {
        hosts: 16,
        processes: 4,
        stripes: 16,
        options: AttachOptions {
            remote_free_batch: 64,
            ..AttachOptions::default()
        },
        // Remote frees pin slabs (see `kv::KEYS`): the heap passes 10K
        // slabs within a 10 s run of the wall phases.
        small_slabs: 32768,
        large_slabs: 8,
        mode: HwccMode::Limited,
    }
}

/// A 2-host, 1-process, default-options pod. The `RawMemory` workloads
/// replay on one with `HwccMode::Full`, coherent as `RawMemory` is, so
/// the replay prices the protocol the wall-clock run executes.
pub fn pair(large_slabs: u32, mode: HwccMode) -> PodSpec {
    PodSpec {
        hosts: 2,
        processes: 1,
        stripes: 1,
        options: AttachOptions::default(),
        small_slabs: 2048,
        large_slabs,
        mode,
    }
}

/// Keys of `pod16_sim` (all preloaded).
const POD16_KEYS: u64 = 65_536;
/// Keys of the `kv_ycsb_a` replay.
const PAIR_KEYS: u64 = 16_384;
/// Objects per host of the `alloc_churn` replay.
const PAIR_LIVE: usize = 512;
/// Untimed turns before the window.
const WARMUP_TURNS: u64 = 2048;
/// Turns in the modeled window of `pod16_sim`.
const POD16_WINDOW_TURNS: u64 = 16_384;
/// Turns in the modeled window of the 2-host replays.
const PAIR_WINDOW_TURNS: u64 = 16_384;
/// Set-ups per `pod16_sim` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A simulated pod with its processes and ledger.
#[derive(Debug)]
pub struct SimPod {
    /// The pod.
    pub pod: Pod,
    /// One heap handle per simulated process.
    pub heaps: Vec<Cxlalloc>,
    /// The benchmark's ledger.
    pub books: Arc<Books>,
}

impl SimPod {
    /// Builds the pod and registers one probe per host, in host order,
    /// so host `h` runs on core `h`.
    pub fn build(spec: &PodSpec) -> Result<(SimPod, Vec<Probe>), String> {
        let config = pod_config(
            spec.hosts.max(8) as u32,
            spec.small_slabs,
            spec.large_slabs,
            spec.stripes,
        );
        let pod = Pod::with_simulation_fabric(config, spec.mode, FabricConfig::congested())
            .map_err(|e| format!("pod: {e}"))?;
        let heaps = (0..spec.processes)
            .map(|_| Cxlalloc::attach(pod.spawn_process(), spec.options.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("attach: {e}"))?;
        let books = Books::new(pod.layout());
        let probes = (0..spec.hosts)
            .map(|h| {
                heaps[h % spec.processes]
                    .register_thread()
                    .map(|t| Probe::new(t, books.clone()))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("register: {e}"))?;
        Ok((SimPod { pod, heaps, books }, probes))
    }

    fn sim(&self) -> &SimMemory {
        self.pod
            .memory()
            .as_any()
            .downcast_ref::<SimMemory>()
            .expect("modeled runs use a simulated pod")
    }
}

/// Hosts driven interleaved on one OS thread.
pub trait Turns: Host {
    /// Core of the host the next op runs on.
    fn next_core(&self) -> usize;
}

/// YCSB-A hosts sharing one store, checked against a shadow of which
/// keys are present.
#[derive(Debug)]
pub struct SimKv {
    clients: Vec<KvClient>,
    cores: Vec<usize>,
    shadow: Vec<bool>,
    store: Arc<KvStore>,
    cursor: usize,
}

impl SimKv {
    /// Builds `spec`'s pod and store and preloads `keys` keys through
    /// the hosts, round-robin.
    pub fn build(spec: &PodSpec, keys: u64, seed: u64) -> Result<(SimPod, SimKv), String> {
        let (pod, probes) = SimPod::build(spec)?;
        let store = KvStore::new((keys * 2) as usize, spec.hosts);
        let cores = probes.iter().map(|p| p.core().index()).collect();
        let mut clients: Vec<KvClient> = probes
            .into_iter()
            .enumerate()
            .map(|(h, p)| KvClient::new(&store, p, keys, seed ^ (h as u64 + 1) << 32, None))
            .collect();
        for key in 0..keys {
            let n = clients.len();
            clients[key as usize % n].preload(key)?;
        }
        let load = SimKv {
            clients,
            cores,
            shadow: vec![true; keys as usize],
            store,
            cursor: 0,
        };
        Ok((pod, load))
    }

    /// Entries in the store.
    pub fn entries(&self) -> u64 {
        self.store.len()
    }

    /// Quiesces the hosts and runs the correctness gate.
    pub fn settle(&mut self, pod: &SimPod) -> Result<(Gate, Vec<String>), String> {
        kv::settle(&pod.heaps[0], &pod.books, &self.store, &mut self.clients)
    }
}

impl Host for SimKv {
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str {
        let i = self.cursor;
        self.cursor = (i + 1) % self.clients.len();
        self.clients[i].op(mode, tally, Some(&mut self.shadow))
    }
}

impl Turns for SimKv {
    fn next_core(&self) -> usize {
        self.cores[self.cursor]
    }
}

/// Churn hosts handing batches to the next host in the ring.
#[derive(Debug)]
pub struct SimChurn {
    hosts: Vec<ChurnHost>,
    cores: Vec<usize>,
    cursor: usize,
}

impl SimChurn {
    /// Builds `spec`'s pod and fills each host's live set.
    pub fn build(spec: &PodSpec, live: usize, seed: u64) -> Result<(SimPod, SimChurn), String> {
        let (pod, probes) = SimPod::build(spec)?;
        let cores = probes.iter().map(|p| p.core().index()).collect();
        let mut hosts: Vec<ChurnHost> = probes
            .into_iter()
            .enumerate()
            .map(|(h, p)| ChurnHost::new(p, seed, h as u64))
            .collect();
        for h in &mut hosts {
            h.fill(live)?;
        }
        let mut load = SimChurn {
            hosts,
            cores,
            cursor: 0,
        };
        for i in 0..load.hosts.len() {
            load.pass_on(i);
        }
        Ok((pod, load))
    }

    fn pass_on(&mut self, i: usize) {
        if let Some(batch) = self.hosts[i].take_batch() {
            let next = (i + 1) % self.hosts.len();
            self.hosts[next].receive(batch);
        }
    }
}

impl Host for SimChurn {
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str {
        let i = self.cursor;
        self.cursor = (i + 1) % self.hosts.len();
        let kind = self.hosts[i].op(mode, tally);
        self.pass_on(i);
        kind
    }
}

impl Turns for SimChurn {
    fn next_core(&self) -> usize {
        self.cores[self.cursor]
    }
}

/// What a modeled window measured.
#[derive(Debug, Default)]
pub struct Model {
    /// Window ops and their outcomes.
    pub tally: Tally,
    /// Σ over cores of each core's clock delta (ns).
    pub clock_ns: u64,
    /// Each op's own-core clock delta (ns).
    pub op_clock: Vec<u64>,
    /// `MemStats` delta.
    pub mem: MemStatsSnapshot,
    /// Probe calls in the window.
    pub counts: Counts,
    /// Pod-tracer ns by event category (traced runs only).
    pub trace_ns: BTreeMap<&'static str, u64>,
    /// Correctness failures.
    pub failures: Vec<String>,
}

/// Runs `ops` untimed ops, recording wrong results as failures.
fn warm_up<T: Turns>(load: &mut T, ops: u64, failures: &mut Vec<String>) {
    let mut tally = Tally::default();
    for _ in 0..ops {
        load.op(Mode::Plain, &mut tally);
    }
    if tally.wrong > 0 {
        failures.push(format!("{} wrong results in warm-up", tally.wrong));
    }
}

/// Runs a window of `ops` ops. When `traced`, the pod tracer is armed
/// for the window and its attribution must equal the Σ-clock delta.
pub fn window<T: Turns>(pod: &SimPod, load: &mut T, ops: u64, traced: bool) -> Model {
    let sim = pod.sim();
    let clocks = sim.clocks();
    let sum = || (0..clocks.len()).map(|c| clocks.now(c)).sum::<u64>();
    let tracer = sim.tracer().expect("simulated pods have a tracer");
    if traced {
        tracer.reset();
        tracer.arm();
    }
    let mem0 = pod.pod.memory().stats();
    let (clock0, counts0) = (sum(), probe::counts());
    let mut model = Model {
        op_clock: Vec::with_capacity(ops as usize),
        ..Model::default()
    };
    for _ in 0..ops {
        let core = load.next_core();
        let t = clocks.now(core);
        load.op(Mode::Plain, &mut model.tally);
        model.op_clock.push(clocks.now(core) - t);
    }
    model.clock_ns = sum() - clock0;
    model.mem = pod.pod.memory().stats().since(&mem0);
    model.counts = probe::counts().since(&counts0);
    if traced {
        tracer.disarm();
        let attribution = tracer.attribution();
        for (kind, _, ns) in attribution.by_kind() {
            *model.trace_ns.entry(kind.category()).or_default() += ns;
        }
        if attribution.total_ns() != model.clock_ns {
            model.failures.push(format!(
                "pod trace attributes {} ns but the core clocks advanced {} ns",
                attribution.total_ns(),
                model.clock_ns
            ));
        }
    }
    if model.tally.wrong > 0 {
        model.failures.push(format!(
            "{} wrong results in the modeled window",
            model.tally.wrong
        ));
    }
    model
}

/// `pod16_sim` set-up: pod, 4 attaches, 16 hosts, preload.
pub fn pod16_setup(seed: u64) -> Result<(SimPod, SimKv), String> {
    SimKv::build(&pod16(), POD16_KEYS, seed)
}

/// `pod16_sim`'s modeled window after warm-up, on a fresh pod, with
/// the heap as the window leaves it.
pub fn pod16_model(seed: u64, turns: u64, traced: bool) -> Result<(Model, Footprint), String> {
    let (pod, mut load) = pod16_setup(seed)?;
    let mut failures = Vec::new();
    warm_up(&mut load, WARMUP_TURNS * 16, &mut failures);
    let mut model = window(&pod, &mut load, turns * 16, traced);
    let footprint = kv::footprint(&pod.heaps[0], &pod.books, load.entries());
    crate::release(&pod.pod);
    model.failures.append(&mut failures);
    Ok((model, footprint))
}

/// The modeled replay of `kv_ycsb_a`: its op mix on 2 simulated hosts.
pub fn kv_model(seed: u64, traced: bool) -> Result<Model, String> {
    let (pod, mut load) = SimKv::build(&pair(8, HwccMode::Full), PAIR_KEYS, seed)?;
    replay(&pod, &mut load, traced, |load| load.settle(&pod))
}

/// The modeled replay of `alloc_churn`: its op mix on 2 simulated hosts.
pub fn churn_model(seed: u64, traced: bool) -> Result<Model, String> {
    churn_model_on(&pair(256, HwccMode::Full), seed, traced)
}

/// The `alloc_churn` replay on a pod of shape `spec`.
pub fn churn_model_on(spec: &PodSpec, seed: u64, traced: bool) -> Result<Model, String> {
    let (pod, mut load) = SimChurn::build(spec, PAIR_LIVE, seed)?;
    replay(&pod, &mut load, traced, |load| {
        churn::settle(&pod.heaps[0], &pod.books, &mut load.hosts)
    })
}

fn replay<T: Turns>(
    pod: &SimPod,
    load: &mut T,
    traced: bool,
    settle: impl FnOnce(&mut T) -> Result<(Gate, Vec<String>), String>,
) -> Result<Model, String> {
    let mut failures = Vec::new();
    warm_up(load, WARMUP_TURNS * 2, &mut failures);
    let mut model = window(pod, load, PAIR_WINDOW_TURNS * 2, traced);
    let (gate, mut more) = settle(load)?;
    crate::release(&pod.pod);
    eprintln!("modeled replay gate: {}", gate.render());
    if !gate.ok() {
        more.push(format!("modeled replay gate: {}", gate.render()));
    }
    model.failures.append(&mut failures);
    model.failures.append(&mut more);
    Ok(model)
}

/// Runs `pod16_sim`: the modeled window, whose end fixes the heap
/// footprint, then the wall-clock phases on the same pod (their
/// `ops_per_s` is the simulator's own speed).
pub fn run_pod16(args: &Args) -> Result<Results, String> {
    let (setup_s, (pod, mut load)) = crate::set_up(
        SETUPS,
        |(p, _): &(SimPod, SimKv)| &p.pod,
        || pod16_setup(args.seed),
    )?;
    let mut failures = Vec::new();
    warm_up(&mut load, WARMUP_TURNS * 16, &mut failures);
    let timer_floor_ns = crate::stats::timer_floor_ns();
    let model = window(&pod, &mut load, POD16_WINDOW_TURNS * 16, args.trace);
    let footprint = kv::footprint(&pod.heaps[0], &pod.books, load.entries());

    let (mut loads, driven) = wall::drive(vec![load], args.seconds, args.trace, args.seed);
    let mut load = loads.pop().expect("one load");
    let (gate, mut more) = load.settle(&pod)?;
    failures.append(&mut more);
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
