//! Per-layer timing from outside the program: the benchmark wraps each call
//! it makes into a layer's public functions, so nothing inside the program
//! changes between an untraced and a traced run.
//!
//! Coarse calls (an RL rollout, a policy update, a drain) become spans kept
//! in memory and written out when the run ends. Per-arrival calls (trace
//! decode, `offer`, `advance_before`) run up to a million times a run, so
//! they are kept only as per-layer aggregates: call count, total time, and
//! the same two figures for the first and last tenth of the items, which is
//! how `serve.advance_growth` sees per-request cost rising with run length.

use std::time::{Duration, Instant};

/// A layer boundary the benchmark times. Every layer but [`Layer::RlStep`] is
/// a leaf: leaf spans never overlap, so their durations add up to the timed
/// part of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TinyLm::new`, `PolicyTrainer::new`, `DrafterTrainer::new` and the
    /// other per-run constructors of the RL loop.
    ModelInit,
    /// One RL step; parent of that step's leaf spans.
    RlStep,
    /// `TaskGenerator::generate_batch`.
    Tasks,
    /// `tlt_rollout::speculative_generate`.
    Rollout,
    /// `TrainingSample::from_rollout`.
    DraftFeatures,
    /// `DrafterTrainer::train_iteration`.
    DraftTrain,
    /// `DrafterTrainer::evaluate`.
    DraftEval,
    /// `PolicyTrainer::train_step`.
    RlUpdate,
    /// `TraceReader::next_arrival`.
    TraceDecode,
    /// `offer` on `ServeSim` / `ClusterSim`.
    ServeOffer,
    /// `advance_before` on `ServeSim` / `ClusterSim`.
    ServeAdvance,
    /// `run_until_drained`.
    ServeDrain,
    /// `into_report`.
    ServeReport,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::ModelInit,
        Layer::RlStep,
        Layer::Tasks,
        Layer::Rollout,
        Layer::DraftFeatures,
        Layer::DraftTrain,
        Layer::DraftEval,
        Layer::RlUpdate,
        Layer::TraceDecode,
        Layer::ServeOffer,
        Layer::ServeAdvance,
        Layer::ServeDrain,
        Layer::ServeReport,
    ];

    /// Name used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ModelInit => "model.init",
            Layer::RlStep => "rl.step",
            Layer::Tasks => "workload.tasks",
            Layer::Rollout => "rollout.speculative_generate",
            Layer::DraftFeatures => "draft.from_rollout",
            Layer::DraftTrain => "draft.train_iteration",
            Layer::DraftEval => "draft.evaluate",
            Layer::RlUpdate => "rl.train_step",
            Layer::TraceDecode => "trace.next_arrival",
            Layer::ServeOffer => "serve.offer",
            Layer::ServeAdvance => "serve.advance_before",
            Layer::ServeDrain => "serve.run_until_drained",
            Layer::ServeReport => "serve.into_report",
        }
    }

    /// Whether the layer's time counts toward the timed part of a run (a
    /// parent span's time is already covered by its children and the
    /// untimed remainder).
    pub fn is_leaf(self) -> bool {
        self != Layer::RlStep
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Call count and total time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent in them.
    pub ns: u64,
}

impl Totals {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// One layer's aggregate over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Every call.
    pub all: Totals,
    /// Calls on the first tenth of the items (per-item layers only).
    pub first_decile: Totals,
    /// Calls on the last tenth of the items (per-item layers only).
    pub last_decile: Totals,
}

impl LayerStats {
    /// Seconds spent in the layer.
    pub fn secs(&self) -> f64 {
        self.all.ns as f64 * 1e-9
    }

    /// Per-call cost on the last tenth of the items over the first tenth;
    /// 1.0 means flat, and 0 when the layer saw no items.
    pub fn growth(&self) -> f64 {
        let first = self.first_decile.ns_per_call();
        if first == 0.0 {
            0.0
        } else {
            self.last_decile.ns_per_call() / first
        }
    }
}

/// One timed call, in nanoseconds from the probe's creation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Index of the enclosing span in [`Probe::spans`], if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// Times calls into the program's layers, or only forwards them.
#[derive(Debug)]
pub struct Probe {
    timed: bool,
    delay: Option<(Layer, Duration)>,
    origin: Instant,
    stats: [LayerStats; Layer::ALL.len()],
    spans: Vec<Span>,
    decile: u64,
    items: u64,
}

impl Probe {
    /// A probe that forwards calls without timing them.
    pub fn untimed() -> Self {
        Probe {
            timed: false,
            delay: None,
            origin: Instant::now(),
            stats: [LayerStats::default(); Layer::ALL.len()],
            spans: Vec::new(),
            decile: 0,
            items: 0,
        }
    }

    /// A probe that times every call.
    pub fn timed() -> Self {
        Probe {
            timed: true,
            ..Probe::untimed()
        }
    }

    /// Adds a fixed delay to every call of `layer`, inside its timed region.
    /// The sensitivity self-test uses it to show that a slower layer shows up
    /// against that layer and moves the end-to-end metric.
    pub fn with_delay(mut self, layer: Layer, delay: Duration) -> Self {
        self.delay = Some((layer, delay));
        self
    }

    /// Declares how many items the per-item layers will see, so their calls
    /// can be split into first and last tenths.
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
        self.decile = (items / 10).max(1);
    }

    /// Opens a span and returns its handle; close it with [`Probe::end`].
    pub fn begin(&mut self, layer: Layer, parent: Option<usize>) -> Option<usize> {
        if !self.timed {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Probe::begin`].
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            let end_ns = self.now_ns();
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            let ns = end_ns - span.start_ns;
            self.stats[span.layer.index()].all.add(ns);
        }
    }

    /// Runs one coarse call as a span under `parent`.
    pub fn span<T>(&mut self, layer: Layer, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let handle = self.begin(layer, parent);
        let out = f();
        self.inject(layer);
        self.end(handle);
        out
    }

    /// Runs one per-item call (item `item` of [`Probe::set_items`]) into the
    /// layer's aggregate, without keeping a span.
    pub fn item<T>(&mut self, layer: Layer, item: u64, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            let out = f();
            self.inject(layer);
            return out;
        }
        let start = Instant::now();
        let out = f();
        self.inject(layer);
        let ns = start.elapsed().as_nanos() as u64;
        let stats = &mut self.stats[layer.index()];
        stats.all.add(ns);
        if item < self.decile {
            stats.first_decile.add(ns);
        }
        if item >= self.items.saturating_sub(self.decile) {
            stats.last_decile.add(ns);
        }
        out
    }

    /// The aggregate of one layer.
    pub fn stats(&self, layer: Layer) -> LayerStats {
        self.stats[layer.index()]
    }

    /// Seconds spent in every leaf layer together.
    pub fn leaf_secs(&self) -> f64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_leaf())
            .map(|&l| self.stats(l).secs())
            .sum()
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn inject(&self, layer: Layer) {
        if let Some((delayed, delay)) = self.delay {
            if delayed == layer {
                std::thread::sleep(delay);
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_split_into_first_and_last_tenths() {
        let mut probe = Probe::timed();
        probe.set_items(100);
        for i in 0..100 {
            probe.item(Layer::ServeOffer, i, || ());
        }
        let s = probe.stats(Layer::ServeOffer);
        assert_eq!(s.all.calls, 100);
        assert_eq!(s.first_decile.calls, 10);
        assert_eq!(s.last_decile.calls, 10);
    }

    #[test]
    fn parent_spans_do_not_count_as_timed_leaves() {
        let mut probe = Probe::timed();
        let step = probe.begin(Layer::RlStep, None);
        probe.span(Layer::RlUpdate, step, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        probe.end(step);
        assert_eq!(probe.spans().len(), 2);
        assert_eq!(probe.spans()[1].parent, Some(0));
        let update = probe.stats(Layer::RlUpdate).secs();
        assert!(update >= 0.002);
        assert_eq!(probe.leaf_secs(), update);
    }

    #[test]
    fn untimed_probe_keeps_nothing() {
        let mut probe = Probe::untimed();
        probe.set_items(10);
        let v = probe.span(Layer::Rollout, None, || 7);
        probe.item(Layer::ServeOffer, 0, || ());
        assert_eq!(v, 7);
        assert!(probe.spans().is_empty());
        assert_eq!(probe.stats(Layer::ServeOffer).all.calls, 0);
    }
}
