//! The closed-loop wall-clock load loop shared by every workload.
//!
//! Each host runs on its own OS thread and starts its next op as soon
//! as the previous one returns. The run has an untraced phase, whose
//! numbers are the end-to-end metrics, and in traced runs a second,
//! traced phase of the same length whose spans give the per-layer
//! split. One op in [`TIME_ONE_IN`] is timed with a pair of clock
//! reads; one in [`TRACE_ONE_IN`] of the traced phase records spans.
//! Wall times and rates are reported at nominal machine speed (see
//! [`crate::pace`]).

use crate::probe::{self, Counts};
use crate::span::{self, Span};
use crate::stats::{ns_since, Sampler};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Untraced phase: one op in this many is timed.
pub const TIME_ONE_IN: u64 = 8;
/// Traced phase: one op in this many records spans.
pub const TRACE_ONE_IN: u64 = 16;
/// Traced ops kept per thread (bounds span memory).
pub const TRACE_CAP: u32 = 50_000;

/// How the next op is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Not measured.
    Plain,
    /// Timed with a clock-read pair (the host picks the interval).
    Timed,
    /// Inside a root span; calls record child spans.
    Traced,
}

/// The result of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and, where checked, correct.
    Done,
    /// The allocator refused it.
    Failed,
    /// Its result contradicts the benchmark's shadow of the data.
    Wrong,
}

/// Latency samples by interval, plus op outcomes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops run.
    pub ops: u64,
    /// Ops the allocator refused.
    pub failed: u64,
    /// Ops whose result was wrong.
    pub wrong: u64,
    /// Whole-op latencies (ns).
    pub op: Vec<u64>,
    /// Insert latencies (churn: the allocate-and-stamp step).
    pub insert: Vec<u64>,
    /// Delete latencies (churn: the free step).
    pub delete: Vec<u64>,
    /// Read latencies (churn: the victim's stamp check).
    pub read: Vec<u64>,
}

impl Tally {
    /// Counts an op's outcome.
    pub fn note(&mut self, outcome: Outcome) {
        self.ops += 1;
        match outcome {
            Outcome::Done => {}
            Outcome::Failed => self.failed += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Appends `other`'s ops and samples.
    pub fn merge(&mut self, mut other: Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.op.append(&mut other.op);
        self.insert.append(&mut other.insert);
        self.delete.append(&mut other.delete);
        self.read.append(&mut other.read);
    }
}

/// A closed-loop client: one op per call.
pub trait Host: Send {
    /// Runs one op measured as `mode` asks; returns the op's kind.
    fn op(&mut self, mode: Mode, tally: &mut Tally) -> &'static str;
}

/// Times `f` into `samples` when `timed`.
#[inline]
pub fn timed<T>(timed: bool, samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    if !timed {
        return f();
    }
    let start = Instant::now();
    let out = f();
    samples.push(ns_since(start));
    out
}

/// What one driven phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops and samples of every thread; wall samples are scaled to
    /// nominal machine speed.
    pub tally: Tally,
    /// Σ per-thread ops ÷ seconds at nominal machine speed.
    pub ops_per_s: f64,
    /// Σ per-thread ops ÷ seconds as measured.
    pub raw_ops_per_s: f64,
    /// Probe calls made during the phase, all threads.
    pub counts: Counts,
}

/// Everything [`warm`] and [`drive`] measured.
#[derive(Debug, Default)]
pub struct Driven {
    /// The fixed-length warm-up before the timed phases.
    pub warm: Phase,
    /// The untraced phase.
    pub plain: Phase,
    /// The traced phase (empty when not traced).
    pub traced: Phase,
    /// Each thread's recorded spans.
    pub spans: Vec<Vec<Span>>,
}

/// Runs `ops` untimed ops on each host, one OS thread each, and returns
/// the hosts with what the ops did (no rates).
pub fn warm<H: Host>(hosts: Vec<H>, ops: u64) -> (Vec<H>, Phase) {
    let done: Vec<(H, Tally, Counts)> = std::thread::scope(|s| {
        let workers: Vec<_> = hosts
            .into_iter()
            .map(|mut host| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    for _ in 0..ops {
                        host.op(Mode::Plain, &mut tally);
                    }
                    (host, tally, probe::counts())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let hosts = done
        .into_iter()
        .map(|(host, tally, counts)| {
            phase.tally.merge(tally);
            phase.counts = phase.counts.plus(&counts);
            host
        })
        .collect();
    (hosts, phase)
}

/// Length of one workload slice. Reference slices of `pace::SLICE`
/// separate them.
pub const SLICE: Duration = Duration::from_millis(80);

const PLAIN: u8 = 0;
const TRACED: u8 = 1;
const PACE: u8 = 2;
const STOP: u8 = 3;

/// Runs `hosts`, one OS thread each, for `seconds` untraced, or — if
/// `traced` — for `seconds / 2` untraced and `seconds / 2` traced. The
/// time alternates between workload slices and reference slices (see
/// [`crate::pace`]), starting and ending with a reference slice, and
/// each workload slice is scaled by the mean speed of the reference
/// slices on either side of it. Returns the hosts for the end-of-run
/// checks.
pub fn drive<H: Host>(hosts: Vec<H>, seconds: f64, traced: bool, seed: u64) -> (Vec<H>, Driven) {
    crate::pace::prepare();
    let ctl = AtomicU8::new(PACE);
    let barrier = Barrier::new(hosts.len() + 1);
    let plain_secs = if traced { seconds / 2.0 } else { seconds };
    let results: Vec<(H, Phase, Phase, Vec<Span>)> = std::thread::scope(|s| {
        let workers: Vec<_> = hosts
            .into_iter()
            .enumerate()
            .map(|(t, mut host)| {
                let (ctl, barrier) = (&ctl, &barrier);
                s.spawn(move || {
                    let sampler = Sampler::new(seed.wrapping_mul(0x9E37_79B9) ^ (t as u64 + 1));
                    span::take();
                    barrier.wait();
                    let mut thread = Thread::new(sampler);
                    thread.run(&mut host, ctl);
                    (host, thread.plain, thread.traced, span::take())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        loop {
            let t = start.elapsed().as_secs_f64();
            let phase = match t {
                t if t < plain_secs => PLAIN,
                t if t < seconds => TRACED,
                _ => break,
            };
            std::thread::sleep(crate::pace::SLICE);
            ctl.store(phase, Ordering::Relaxed);
            std::thread::sleep(SLICE);
            ctl.store(PACE, Ordering::Relaxed);
        }
        std::thread::sleep(crate::pace::SLICE);
        ctl.store(STOP, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark thread panicked"))
            .collect()
    });
    let mut driven = Driven::default();
    let mut hosts = Vec::new();
    for (host, plain, traced, spans) in results {
        hosts.push(host);
        fold(&mut driven.plain, plain);
        fold(&mut driven.traced, traced);
        driven.spans.push(spans);
    }
    (hosts, driven)
}

fn fold(into: &mut Phase, from: Phase) {
    into.tally.merge(from.tally);
    into.ops_per_s += from.ops_per_s;
    into.raw_ops_per_s += from.raw_ops_per_s;
    into.counts = into.counts.plus(&from.counts);
}

/// One workload slice, waiting for the reference slice after it.
struct Slice {
    traced: bool,
    tally: Tally,
    secs: f64,
    counts: Counts,
}

/// One driven thread's phases, built slice by slice.
struct Thread {
    sampler: Sampler,
    pace: crate::pace::Pace,
    traced_ops: u32,
    /// Speed of the last reference slice.
    before: Option<f64>,
    pending: Option<Slice>,
    plain: Phase,
    traced: Phase,
    /// Seconds of each phase: (at nominal speed, as measured).
    plain_secs: (f64, f64),
    traced_secs: (f64, f64),
}

impl Thread {
    fn new(sampler: Sampler) -> Self {
        Thread {
            sampler,
            pace: crate::pace::Pace::default(),
            traced_ops: 0,
            before: None,
            pending: None,
            plain: Phase::default(),
            traced: Phase::default(),
            plain_secs: (0.0, 0.0),
            traced_secs: (0.0, 0.0),
        }
    }

    /// Follows `ctl` until it reads [`STOP`].
    fn run<H: Host>(&mut self, host: &mut H, ctl: &AtomicU8) {
        loop {
            match ctl.load(Ordering::Relaxed) {
                STOP => break,
                PACE => {
                    let (chunks, secs) =
                        self.pace.run_while(|| ctl.load(Ordering::Relaxed) == PACE);
                    // A thread descheduled for the whole slice ran no
                    // chunk: its speed is unknown, not zero.
                    let after = (chunks > 0).then(|| crate::pace::speed(chunks, secs));
                    self.close(after);
                    self.before = after.or(self.before);
                }
                phase => {
                    let slice = self.slice(host, ctl, phase);
                    if self
                        .pending
                        .as_ref()
                        .is_some_and(|p| p.traced != slice.traced)
                    {
                        self.close(None);
                    }
                    match &mut self.pending {
                        // Missed a reference slice: one longer slice.
                        Some(p) => {
                            p.tally.merge(slice.tally);
                            p.secs += slice.secs;
                            p.counts = p.counts.plus(&slice.counts);
                        }
                        None => self.pending = Some(slice),
                    }
                }
            }
        }
        self.close(None);
        for (phase, (nominal, measured)) in [
            (&mut self.plain, self.plain_secs),
            (&mut self.traced, self.traced_secs),
        ] {
            let ops = phase.tally.ops as f64;
            phase.ops_per_s = crate::stats::ratio(ops, nominal);
            phase.raw_ops_per_s = crate::stats::ratio(ops, measured);
        }
    }

    /// Scales the pending slice by the mean speed of the reference
    /// slices around it and adds it to its phase.
    fn close(&mut self, after: Option<f64>) {
        let Some(mut slice) = self.pending.take() else {
            return;
        };
        let speeds: Vec<f64> = self.before.into_iter().chain(after).collect();
        let speed = if speeds.is_empty() {
            1.0
        } else {
            speeds.iter().sum::<f64>() / speeds.len() as f64
        };
        let t = &mut slice.tally;
        for samples in [&mut t.op, &mut t.insert, &mut t.delete, &mut t.read] {
            for s in samples.iter_mut() {
                *s = (*s as f64 * speed).round() as u64;
            }
        }
        let (phase, secs) = if slice.traced {
            (&mut self.traced, &mut self.traced_secs)
        } else {
            (&mut self.plain, &mut self.plain_secs)
        };
        phase.tally.merge(slice.tally);
        phase.counts = phase.counts.plus(&slice.counts);
        secs.0 += slice.secs * speed;
        secs.1 += slice.secs;
    }

    /// Runs ops while `ctl` reads `phase`.
    fn slice<H: Host>(&mut self, host: &mut H, ctl: &AtomicU8, phase: u8) -> Slice {
        let traced = phase == TRACED;
        let mut tally = Tally::default();
        let before = probe::counts();
        let start = Instant::now();
        while ctl.load(Ordering::Relaxed) == phase {
            if traced && self.traced_ops < TRACE_CAP && self.sampler.hit(TRACE_ONE_IN) {
                self.traced_ops += 1;
                span::begin_op();
                let kind = host.op(Mode::Traced, &mut tally);
                span::end_op(kind);
            } else if !traced && self.sampler.hit(TIME_ONE_IN) {
                host.op(Mode::Timed, &mut tally);
            } else {
                host.op(Mode::Plain, &mut tally);
            }
        }
        Slice {
            traced,
            tally,
            secs: start.elapsed().as_secs_f64(),
            counts: probe::counts().since(&before),
        }
    }
}
