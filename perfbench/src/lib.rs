//! The repository benchmark: three workloads that time each layer's
//! public calls from outside the program, on the wall clock
//! (`RawMemory`) and on the modeled clock of a simulated pod
//! (`SimMemory` + `pod::fabric`). See `README.md` for the metrics.

mod audit;
mod churn;
mod kv;
mod pace;
mod probe;
mod report;
pub mod sim;
mod span;
mod stats;
mod wall;

use cxl_pod::{Pod, PodConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A over a shared `KvStore`, 2 threads, `RawMemory`.
    KvYcsbA,
    /// Free-and-replace churn over Twitter value sizes, 2 threads,
    /// `RawMemory`.
    AllocChurn,
    /// YCSB-A on 16 simulated hosts of a congested limited-HWcc pod.
    Pod16Sim,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::KvYcsbA, Workload::AllocChurn, Workload::Pod16Sim];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvYcsbA => "kv_ycsb_a",
            Workload::AllocChurn => "alloc_churn",
            Workload::Pod16Sim => "pod16_sim",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock measurement time.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Usage line.
pub const USAGE: &str = "usage: perfbench --workload <kv_ycsb_a|alloc_churn|pod16_sim> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("unknown workload"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
                "--seconds" => {
                    let s = value
                        .parse::<u32>()
                        .map_err(|_| bad("expected whole seconds"))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad("expected 1 to 600"));
                    }
                    seconds = Some(f64::from(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A pod geometry for the benchmark: the given thread, slab and stripe
/// counts, and a minimal huge heap (no workload allocates past 512 KiB).
pub fn pod_config(max_threads: u32, small_slabs: u32, large_slabs: u32, stripes: u32) -> PodConfig {
    PodConfig {
        max_threads,
        small_max_slabs: small_slabs,
        large_max_slabs: large_slabs,
        huge_capacity: 64 << 20,
        huge_regions: 64,
        huge_descs_per_thread: 64,
        hazards_per_thread: 8,
        max_segment_bytes: 4 << 30,
        global_stripes: stripes,
    }
}

/// The 64-bit finalizer of SplitMix64 (the hash `KvStore` buckets by).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lets a pod's memory go once its handles are dropped: the fault
/// handler `Cxlalloc::attach` installs on a process holds the heap,
/// which holds the process, so the segment outlives every handle until
/// the handler is replaced.
pub fn release(pod: &Pod) {
    for process in pod.processes() {
        process.set_fault_handler(std::sync::Arc::new(|_, _| false));
    }
}

/// Sets up `n` times, releasing the previous set-up's pod before each
/// next one, and returns the last set-up with every set-up's duration
/// in seconds at nominal machine speed (see [`pace::timed`]).
///
/// # Errors
///
/// Returns the first set-up error.
pub fn set_up<T>(
    n: usize,
    pod: impl Fn(&T) -> &Pod,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    pace::prepare();
    let mut secs = Vec::with_capacity(n);
    let mut last: Option<T> = None;
    for _ in 0..n {
        if let Some(old) = last.take() {
            release(pod(&old));
        }
        let (made, s) = pace::timed(&mut make);
        last = Some(made?);
        secs.push(s);
    }
    Ok((secs, last.ok_or("no set-up")?))
}

/// A finished run.
#[derive(Debug)]
pub struct Finished {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// The result line.
    pub json: String,
}

/// Runs one workload and checks it. Human-readable tables go to stderr.
///
/// # Errors
///
/// Returns a set-up or census failure.
pub fn run(args: &Args) -> Result<Finished, String> {
    let mut results = match args.workload {
        Workload::KvYcsbA => kv::run(args)?,
        Workload::AllocChurn => churn::run(args)?,
        Workload::Pod16Sim => sim::run_pod16(args)?,
    };
    let mut failures = report::failures(&results, &probe::counts());
    let cost = if args.trace {
        span::calibrate()
    } else {
        span::Cost::default()
    };
    let mut attribution = span::Attribution::new(cost);
    for spans in &results.driven.spans {
        attribution.add(spans);
    }
    for layer in attribution.overcharged() {
        failures.push(format!(
            "the tracer's calibrated cost exceeds the {layer} layer's span time"
        ));
    }
    let metrics = if args.trace {
        report::per_layer(&mut results, &mut attribution)
    } else {
        report::end_to_end(&mut results)
    };

    let d = &results.driven;
    let m = &results.model.tally;
    let phases = [&d.warm, &d.plain, &d.traced];
    let attempted = phases.iter().map(|p| p.tally.ops).sum::<u64>() + m.ops;
    let failed = phases.iter().map(|p| p.tally.failed).sum::<u64>() + m.failed;
    eprintln!(
        "== {} seed {} ({} s, trace {}) ==",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    eprintln!("set-ups (s, nominal speed): {:?}", results.setup_s);
    let p = &d.plain;
    eprintln!(
        "untraced phase: {:.0} ops/s as measured, {:.0} at nominal speed (machine speed {:.3})",
        p.raw_ops_per_s,
        p.ops_per_s,
        crate::stats::ratio(p.raw_ops_per_s, p.ops_per_s)
    );
    eprintln!("gate: {}", results.gate.render());
    if args.trace {
        eprint!("{}", attribution.render());
        let path = format!("perfbench/out/spans-{}.tsv", args.workload.name());
        span::write_tsv(path.as_ref(), &results.driven.spans, 2000)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("spans: {path}");
    }
    eprint!("{}", report::render(&metrics));
    for f in &failures {
        eprintln!("FAILED CHECK: {f}");
    }
    Ok(Finished {
        correct: failures.is_empty(),
        json: report::json(failures.is_empty(), attempted, failed, &metrics),
    })
}
