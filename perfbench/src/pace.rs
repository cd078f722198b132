//! A fixed reference loop that measures how fast the machine runs at
//! the moment, so wall-clock metrics can be reported at one nominal
//! machine speed.
//!
//! On a shared host the speed of a fixed loop drifts by tens of percent
//! within seconds, and every wall metric drifts with it. The driver
//! therefore alternates short slices of the workload with short slices
//! of this loop on the same threads (`wall::drive`), and each set-up is
//! bracketed by two slices of it. A workload slice is then scaled by
//! the loop's speed around it: its seconds are multiplied, and its
//! ops per second divided, by `measured ÷ nominal` chunk rate. The loop
//! is the benchmark's own code and calls nothing of the program under
//! test, so no change to the program can move it.
//!
//! One chunk is [`STEPS`] dependent steps, each a load from a
//! pseudo-random word of a 16 KiB table mixed through SplitMix64. The
//! table fits the L1 data cache, so the loop measures the core time the
//! thread gets and how fast the core runs, and not where the OS placed
//! the table's pages. A 1 MiB table, which lives in the physically
//! indexed L2 cache, ran at speeds that differed by ±25 % from process
//! to process while the workloads did not.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Words in the table (16 KiB).
const WORDS: usize = 1 << 11;
/// Dependent steps per chunk.
const STEPS: usize = 64;
/// Chunks per second of one thread on the reference machine (2-vCPU
/// Xeon, 105 MiB LLC), alone or beside a second one. Any constant
/// would do: it only fixes the unit the scaled metrics are reported
/// in, and was chosen so that scaled and measured figures are close on
/// that machine.
pub const NOMINAL_CHUNKS_PER_S: f64 = 1.7e6;
/// Length of one reference slice.
pub const SLICE: Duration = Duration::from_millis(20);

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..WORDS as u64).map(crate::splitmix).collect())
}

/// Builds the table, outside any timed interval.
pub fn prepare() {
    table();
}

/// One thread's reference loop.
#[derive(Debug, Clone)]
pub struct Pace {
    x: u64,
}

impl Default for Pace {
    fn default() -> Self {
        Pace { x: 1 }
    }
}

impl Pace {
    /// Runs one chunk.
    #[inline(never)]
    pub fn chunk(&mut self) {
        let table = table();
        let mut x = self.x;
        for _ in 0..STEPS {
            x = crate::splitmix(x ^ table[x as usize & (WORDS - 1)]);
        }
        self.x = std::hint::black_box(x);
    }

    /// Runs chunks while `go` holds, checking it between chunks.
    /// Returns chunks run and seconds taken.
    pub fn run_while(&mut self, mut go: impl FnMut() -> bool) -> (u64, f64) {
        let start = Instant::now();
        let mut chunks = 0;
        while go() {
            self.chunk();
            chunks += 1;
        }
        (chunks, start.elapsed().as_secs_f64())
    }

    /// The machine's speed over one [`SLICE`], relative to nominal.
    pub fn speed(&mut self) -> f64 {
        let end = Instant::now() + SLICE;
        let (chunks, secs) = self.run_while(|| Instant::now() < end);
        speed(chunks, secs)
    }
}

/// `chunks` run in `secs`, relative to the nominal rate.
pub fn speed(chunks: u64, secs: f64) -> f64 {
    crate::stats::ratio(chunks as f64, secs) / NOMINAL_CHUNKS_PER_S
}

/// Runs `set_up` and returns its result with its duration in seconds
/// at nominal speed: the measured time times the mean speed of the
/// reference slices just before and just after it.
pub fn timed<T>(set_up: impl FnOnce() -> T) -> (T, f64) {
    let mut pace = Pace::default();
    let before = pace.speed();
    let start = Instant::now();
    let out = set_up();
    let secs = start.elapsed().as_secs_f64();
    let after = pace.speed();
    (out, secs * (before + after) / 2.0)
}
