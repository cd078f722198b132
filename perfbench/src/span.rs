//! Spans recorded around each call into a layer, for the traced run.
//!
//! A traced op opens a root span; every call the benchmark makes into
//! `workloads`, `kvstore` or `cxl_core` while it is open records a
//! child span (name, start, end, parent), and all spans of the op share
//! the op's id. Spans stay in a per-thread buffer until the run ends.
//! Untraced ops pay one thread-local flag read per call.

use crate::stats::Quantiles;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: op dispatch, checks, stamping.
    Bench,
    /// `workloads`: op and size generation.
    Workloads,
    /// `kvstore`: the hash-table index.
    Kvstore,
    /// `cxl_core`: allocator calls.
    Core,
}

impl Layer {
    /// Every layer, outermost first.
    pub const ALL: [Layer; 4] = [Layer::Bench, Layer::Workloads, Layer::Kvstore, Layer::Core];

    /// The crate name the layer stands for.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Workloads => "workloads",
            Layer::Kvstore => "kvstore",
            Layer::Core => "core",
        }
    }
}

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same thread's span buffer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the op the span belongs to (per thread).
    pub op: u32,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer called.
    pub layer: Layer,
    /// Function called (root spans: the op kind).
    pub name: &'static str,
    /// Start, in ns since the thread's recorder was created.
    pub start_ns: u64,
    /// End, in ns since the thread's recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        index
    }

    fn close(&mut self, index: u32) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        self.spans[index as usize].end_ns = self.now();
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        op: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Opens the root span of a traced op on this thread.
pub fn begin_op() {
    REC.with_borrow_mut(|r| {
        r.op += 1;
        r.open(Layer::Bench, "op");
    });
    ACTIVE.set(true);
}

/// Closes the open root span, naming it after the op kind.
pub fn end_op(kind: &'static str) {
    ACTIVE.set(false);
    REC.with_borrow_mut(|r| {
        let root = *r.stack.last().expect("end_op without begin_op");
        r.spans[root as usize].name = kind;
        r.close(root);
    });
}

/// Runs `f` inside a span when a traced op is open on this thread.
#[inline]
pub fn scoped<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ACTIVE.get() {
        return f();
    }
    let index = REC.with_borrow_mut(|r| r.open(layer, name));
    let out = f();
    REC.with_borrow_mut(|r| r.close(index));
    out
}

/// Moves this thread's recorded spans out.
pub fn take() -> Vec<Span> {
    REC.with_borrow_mut(|r| std::mem::take(&mut r.spans))
}

/// What recording a span costs this thread, in ns. The tracer's own
/// work falls inside the spans it records, so it is measured here and
/// taken out of the layers' self times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Recording work inside a child span's own interval (after its
    /// start read, up to its end read).
    pub inner_ns: f64,
    /// Recording work around a child span's interval, which lands in
    /// the enclosing span's self time.
    pub outer_ns: f64,
    /// A root span's own recording work.
    pub root_ns: f64,
}

/// Measures [`Cost`] on this thread: the median over trials of an empty
/// root span and of a root span holding [`CALIBRATION_CHILDREN`] empty
/// child spans. Call it while no traced op is open.
pub fn calibrate() -> Cost {
    const TRIALS: usize = 2001;
    let k = CALIBRATION_CHILDREN as f64;
    let (mut inner, mut outer, mut root) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRIALS {
        begin_op();
        end_op("calibrate");
        begin_op();
        for _ in 0..CALIBRATION_CHILDREN {
            scoped(Layer::Bench, "calibrate", || ());
        }
        end_op("calibrate");
        let spans = take();
        let empty = spans[0].dur() as f64;
        let children: f64 = spans[2..].iter().map(|s| s.dur() as f64).sum();
        root.push(empty);
        inner.push(children / k);
        outer.push(((spans[1].dur() as f64 - children - empty) / k).max(0.0));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    Cost {
        inner_ns: median(&mut inner),
        outer_ns: median(&mut outer),
        root_ns: median(&mut root),
    }
}

/// Empty child spans per calibration trial.
pub const CALIBRATION_CHILDREN: usize = 16;

/// Per-layer self time and per-function durations over traced ops, net
/// of the tracer's own cost.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Cost of recording one span.
    pub cost: Cost,
    /// Traced ops (root spans).
    pub ops: u64,
    /// Σ root-span durations.
    pub root_ns: u64,
    /// Σ self time per layer: each span's duration minus its children's,
    /// minus the tracer's work charged to it.
    pub self_ns: BTreeMap<Layer, f64>,
    /// Σ the tracer's own work, from [`Cost`] and the spans recorded.
    pub tracer_ns: f64,
    /// Durations of every non-root span, by (layer, name).
    pub calls: BTreeMap<(Layer, &'static str), Vec<u64>>,
}

impl Attribution {
    /// An empty attribution that charges `cost` per span.
    pub fn new(cost: Cost) -> Self {
        Attribution {
            cost,
            ..Attribution::default()
        }
    }

    /// Folds one thread's span buffer in.
    pub fn add(&mut self, spans: &[Span]) {
        let c = self.cost;
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                children[s.parent as usize] += s.dur();
            }
        }
        for (s, &child) in spans.iter().zip(&children) {
            *self.self_ns.entry(s.layer).or_default() += (s.dur() - child) as f64;
            if s.parent == ROOT {
                self.ops += 1;
                self.root_ns += s.dur();
                *self.self_ns.entry(s.layer).or_default() -= c.root_ns;
                self.tracer_ns += c.root_ns;
            } else {
                let parent = spans[s.parent as usize].layer;
                *self.self_ns.entry(s.layer).or_default() -= c.inner_ns;
                *self.self_ns.entry(parent).or_default() -= c.outer_ns;
                self.tracer_ns += c.inner_ns + c.outer_ns;
                self.calls
                    .entry((s.layer, s.name))
                    .or_default()
                    .push(s.dur());
            }
        }
    }

    /// Mean self ns per traced op of `layer`.
    pub fn self_per_op(&self, layer: Layer) -> f64 {
        crate::stats::ratio(
            self.self_ns.get(&layer).copied().unwrap_or(0.0),
            self.ops as f64,
        )
    }

    /// Root time no layer accounts for: the tracer's own work, per op.
    pub fn residue_per_op(&self) -> f64 {
        crate::stats::ratio(self.tracer_ns, self.ops as f64)
    }

    /// Layers whose self time is negative once the tracer's work is
    /// taken out: the calibrated cost overstates what the spans hold.
    pub fn overcharged(&self) -> Vec<&'static str> {
        self.self_ns
            .iter()
            .filter(|(_, &ns)| ns < 0.0)
            .map(|(l, _)| l.name())
            .collect()
    }

    /// Mean and p99 of calls to `(layer, name)`, net of the recording
    /// work inside each span.
    pub fn call(&mut self, layer: Layer, name: &str) -> Quantiles {
        let inner = self.cost.inner_ns;
        let mut q = self
            .calls
            .iter_mut()
            .find(|((l, n), _)| *l == layer && *n == name)
            .map(|(_, v)| Quantiles::of(v))
            .unwrap_or_default();
        if q.n > 0 {
            q.mean = (q.mean - inner).max(0.0);
            q.p50 = (q.p50 - inner).max(0.0);
            q.p99 = (q.p99 - inner).max(0.0);
        }
        q
    }

    /// Renders the layer self-time table: each layer's self time, the
    /// tracer's work (the residue), and their sum beside the root spans.
    pub fn render(&self) -> String {
        let share = |ns: f64| 100.0 * crate::stats::ratio(ns, self.root_ns as f64);
        let c = self.cost;
        let mut out = format!(
            "traced ops: {}   span cost (ns): inner {:.1}, outer {:.1}, root {:.1}\n\
             {:<10} {:>14} {:>8}\n",
            self.ops, c.inner_ns, c.outer_ns, c.root_ns, "layer", "self ns/op", "share"
        );
        for layer in Layer::ALL {
            let ns = self.self_ns.get(&layer).copied().unwrap_or(0.0);
            out += &format!(
                "{:<10} {:>14.1} {:>7.1}%\n",
                layer.name(),
                self.self_per_op(layer),
                share(ns)
            );
        }
        let total = self.self_ns.values().sum::<f64>() + self.tracer_ns;
        out += &format!(
            "{:<10} {:>14.1} {:>7.1}%   (residue: the tracer's own work)\n\
             {:<10} {:>14.1} {:>7.1}%   (mean root span {:.1})\n",
            "residue",
            self.residue_per_op(),
            share(self.tracer_ns),
            "sum",
            crate::stats::ratio(total, self.ops as f64),
            share(total),
            crate::stats::ratio(self.root_ns as f64, self.ops as f64),
        );
        out
    }
}

/// Writes the spans of the first `max_ops` traced ops of each thread as
/// tab-separated rows: thread, op, span, parent, layer, name, start_ns,
/// end_ns.
pub fn write_tsv(
    path: &std::path::Path,
    threads: &[Vec<Span>],
    max_ops: u32,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\top\tspan\tparent\tlayer\tname\tstart_ns\tend_ns"
    )?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans
            .iter()
            .enumerate()
            .take_while(|(_, s)| s.op <= max_ops)
        {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{t}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root() {
        begin_op();
        scoped(Layer::Workloads, "next_op", || std::hint::black_box(1));
        scoped(Layer::Kvstore, "insert", || {
            scoped(Layer::Core, "alloc_small", || std::hint::black_box(2))
        });
        end_op("insert");
        // Untraced calls record nothing.
        scoped(Layer::Core, "resolve", || ());
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "insert");
        assert_eq!(spans[3].parent, 2);
        let mut a = Attribution::default();
        a.add(&spans);
        assert_eq!(a.ops, 1);
        assert_eq!(a.self_ns.values().sum::<f64>(), a.root_ns as f64);
        assert_eq!(a.call(Layer::Core, "alloc_small").n, 1);
    }

    #[test]
    fn tracer_cost_moves_from_the_layers_to_the_residue() {
        let cost = calibrate();
        assert!(cost.inner_ns > 0.0 && cost.root_ns > 0.0, "{cost:?}");
        begin_op();
        scoped(Layer::Kvstore, "get", || {
            scoped(Layer::Core, "resolve", || std::hint::black_box(3))
        });
        end_op("read");
        let spans = take();
        let mut a = Attribution::new(cost);
        a.add(&spans);
        let tracer = cost.root_ns + 2.0 * (cost.inner_ns + cost.outer_ns);
        assert!(
            (a.tracer_ns - tracer).abs() < 1e-6,
            "{} vs {tracer}",
            a.tracer_ns
        );
        let total = a.self_ns.values().sum::<f64>() + a.tracer_ns;
        assert!(
            (total - a.root_ns as f64).abs() < 1e-6,
            "{total} vs {}",
            a.root_ns
        );
    }
}
