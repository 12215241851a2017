//! The traced run: a span recorder and the timing/counting decorators it
//! wraps around the trait objects the round loop already accepts.
//!
//! Every span is recorded from the benchmark's side of a public seam —
//! `InteractionSource`, `Adversary`, `ClientModel`, `Detector`,
//! `Aggregator` — or around a public call the benchmark makes itself, so
//! the program under test is unchanged. Spans live in memory (name,
//! start, end, parent) and are reduced when the cell ends: a span's self
//! time is its duration minus the part of its interval its child spans
//! cover (interval coverage), so a nested call — a `user_items` read made
//! inside store materialization, a local round or the eval sweep — is
//! charged to its own layer once and never subtracted twice.
//!
//! Cells step client rounds on one thread (`FedConfig::threads = 1`, the
//! scenario matrix's setting), so a single span stack gives every span
//! its parent.
//!
//! The hottest seam, `InteractionSource::user_items`, is read millions of
//! times per million-user cell (the eval sweep looks up exclusions per
//! item tile). Its calls are *leaf* spans — nothing nests inside them — so
//! instead of storing each one, a leaf's duration is added to its name's
//! totals and to its open parent's covered time when it closes. On one
//! thread that is the same arithmetic as interval coverage (siblings never
//! overlap), without keeping millions of spans in memory.

use crate::clock;
use fedrec_data::InteractionSource;
use fedrec_federated::adversary::RoundCtx;
use fedrec_federated::client::{BenignClient, RoundScratch};
use fedrec_federated::defense::DetectionReport;
use fedrec_federated::server::Aggregator;
use fedrec_federated::{Adversary, ClientModel, Detector, FedConfig};
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span: nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    /// Time covered by folded leaf children.
    leaf_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    /// Folded leaf spans per name: (total ns, calls).
    leaves: BTreeMap<&'static str, (u64, u64)>,
}

/// In-memory span and counter store shared by every decorator of a cell.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.ns();
        let mut g = self.rec.inner.lock().expect("recorder poisoned");
        g.spans[self.idx].end = end;
        let top = g.stack.pop();
        debug_assert_eq!(top, Some(self.idx), "spans must nest");
    }
}

/// Folds its leaf span into the totals and its parent when dropped.
pub struct LeafGuard<'a> {
    rec: &'a Recorder,
    name: &'static str,
    start: u64,
}

impl Drop for LeafGuard<'_> {
    fn drop(&mut self) {
        let ns = self.rec.ns().saturating_sub(self.start);
        let mut g = self.rec.inner.lock().expect("recorder poisoned");
        if let Some(&top) = g.stack.last() {
            g.spans[top].leaf_ns += ns;
        }
        let e = g.leaves.entry(self.name).or_insert((0, 0));
        e.0 += ns;
        e.1 += 1;
    }
}

/// What a traced cell reduced to: per-span-name self time and call
/// count, plus the named counters.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Self time (ms) per span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Number of spans per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Work counters.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Self time of `name` in ms (0 when it never ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Spans recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Counter `name` (0 when never bumped).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time of every span except `root`: the time charged to named
    /// layers.
    pub fn attributed_ms(&self, root: &str) -> f64 {
        let mut total = 0.0;
        for (name, ms) in &self.self_ms {
            if *name != root {
                total += ms;
            }
        }
        total
    }
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: clock::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.ns();
        let mut g = self.inner.lock().expect("recorder poisoned");
        let parent = g.stack.last().copied();
        let idx = g.spans.len();
        g.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            leaf_ns: 0,
        });
        g.stack.push(idx);
        SpanGuard { rec: self, idx }
    }

    /// Open a leaf span: nothing may nest inside it.
    pub fn leaf(&self, name: &'static str) -> LeafGuard<'_> {
        LeafGuard {
            rec: self,
            name,
            start: self.ns(),
        }
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .inner
            .lock()
            .expect("recorder poisoned")
            .counts
            .entry(name)
            .or_insert(0) += n;
    }

    /// Reduce the recorded spans to per-name self time.
    pub fn trace(&self) -> Trace {
        let g = self.inner.lock().expect("recorder poisoned");
        assert!(g.stack.is_empty(), "trace taken with open spans");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = Trace {
            counts: g.counts.clone(),
            ..Trace::default()
        };
        for (s, kids) in g.spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(kids, s.start, s.end) + s.leaf_ns;
            let self_ns = (s.end - s.start).saturating_sub(covered);
            *out.self_ms.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
            *out.calls.entry(s.name).or_insert(0) += 1;
        }
        for (&name, &(ns, calls)) in &g.leaves {
            *out.self_ms.entry(name).or_insert(0.0) += ns as f64 / 1e6;
            *out.calls.entry(name).or_insert(0) += calls;
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// `InteractionSource` decorator: every `user_items` read is a
/// `data.user_items` leaf span (first touches of a lazy shard generate it
/// inside that span).
pub struct TracedSource<S> {
    inner: Arc<S>,
    rec: Arc<Recorder>,
}

impl<S> TracedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<S>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl<S: InteractionSource> InteractionSource for TracedSource<S> {
    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn user_items(&self, u: usize) -> &[u32] {
        let _leaf = self.rec.leaf("data.user_items");
        self.inner.user_items(u)
    }
}

/// `Adversary` decorator: `attack.poison` spans and upload counts.
pub struct TracedAdversary {
    inner: Box<dyn Adversary>,
    rec: Arc<Recorder>,
}

impl TracedAdversary {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Adversary>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Adversary for TracedAdversary {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        let out = {
            let _span = self.rec.span("attack.poison");
            self.inner.poison(items, ctx, rng)
        };
        self.rec.count("attack.uploads", out.len() as u64);
        out
    }

    fn poison_with_shared(
        &mut self,
        items: &Matrix,
        shared: &[f32],
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<(SparseGrad, Vec<f32>)> {
        let out = {
            let _span = self.rec.span("attack.poison");
            self.inner.poison_with_shared(items, shared, ctx, rng)
        };
        self.rec.count("attack.uploads", out.len() as u64);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self, out: &mut Vec<u8>) {
        self.inner.checkpoint_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes)
    }
}

/// `ClientModel` decorator: `federated.local` spans and uploaded rows.
pub struct TracedModel {
    inner: Box<dyn ClientModel>,
    rec: Arc<Recorder>,
}

impl TracedModel {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ClientModel>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl ClientModel for TracedModel {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn shared_len(&self) -> usize {
        self.inner.shared_len()
    }

    fn init_shared(&self, rng: &mut SeededRng) -> Vec<f32> {
        self.inner.init_shared(rng)
    }

    fn local_round(
        &self,
        client: &mut BenignClient,
        items: &Matrix,
        shared: &[f32],
        cfg: &FedConfig,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
        shared_out: &mut Vec<f32>,
    ) -> Option<f32> {
        let loss = {
            let _span = self.rec.span("federated.local");
            self.inner
                .local_round(client, items, shared, cfg, scratch, out, shared_out)
        };
        if loss.is_some() {
            self.rec
                .count("federated.upload_rows", out.nnz_rows() as u64);
        }
        loss
    }
}

/// Pairs a robust rule compares: `n(n-1)/2` for the O(n²) rules
/// (pairwise-cosine detection, Krum's pairwise distances), 0 otherwise.
fn pairs(n: usize, pairwise: bool) -> u64 {
    if pairwise {
        (n as u64) * (n as u64).saturating_sub(1) / 2
    } else {
        0
    }
}

/// `Detector` decorator: `defense.detect` spans, uploads inspected and
/// pairwise comparisons.
pub struct TracedDetector {
    inner: Box<dyn Detector>,
    pairwise: bool,
    rec: Arc<Recorder>,
}

impl TracedDetector {
    /// Wrap `inner`; `pairwise` marks an O(n²) detector.
    pub fn new(inner: Box<dyn Detector>, pairwise: bool, rec: Arc<Recorder>) -> Self {
        Self {
            inner,
            pairwise,
            rec,
        }
    }
}

impl Detector for TracedDetector {
    fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        let report = {
            let _span = self.rec.span("defense.detect");
            self.inner.inspect(updates)
        };
        self.rec
            .count("defense.detect_uploads", updates.len() as u64);
        self.rec
            .count("defense.detect_pairs", pairs(updates.len(), self.pairwise));
        report
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `Aggregator` decorator: `defense.aggregate` spans, uploads and rows
/// aggregated, and pairwise distances for Krum.
pub struct TracedAggregator {
    inner: Box<dyn Aggregator>,
    pairwise: bool,
    rec: Arc<Recorder>,
}

impl TracedAggregator {
    /// Wrap `inner`; `pairwise` marks an O(n²) rule.
    pub fn new(inner: Box<dyn Aggregator>, pairwise: bool, rec: Arc<Recorder>) -> Self {
        Self {
            inner,
            pairwise,
            rec,
        }
    }
}

impl Aggregator for TracedAggregator {
    fn aggregate(&self, updates: &[SparseGrad], num_items: usize, k: usize) -> SparseGrad {
        let out = {
            let _span = self.rec.span("defense.aggregate");
            self.inner.aggregate(updates, num_items, k)
        };
        let mut rows = 0u64;
        for u in updates {
            rows += u.nnz_rows() as u64;
        }
        self.rec
            .count("defense.aggregate_uploads", updates.len() as u64);
        self.rec.count("defense.aggregate_rows_in", rows);
        self.rec.count(
            "defense.aggregate_pairs",
            pairs(updates.len(), self.pairwise),
        );
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn leaves_are_charged_to_their_own_name_once() {
        let rec = Recorder::new();
        {
            let _a = rec.span("outer");
            for _ in 0..3 {
                let _l = rec.leaf("leaf");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = rec.trace();
        assert_eq!(t.calls("leaf"), 3);
        assert!(t.ms("leaf") >= 6.0);
        assert!(t.ms("outer") < t.ms("leaf"));
    }

    #[test]
    fn nested_spans_subtract_children_once() {
        let rec = Recorder::new();
        {
            let _a = rec.span("outer");
            let _b = rec.span("inner");
            let _c = rec.span("leaf");
        }
        let t = rec.trace();
        assert_eq!(t.calls("outer"), 1);
        assert_eq!(t.calls("leaf"), 1);
        // Self times partition the outer span exactly.
        let total: f64 = ["outer", "inner", "leaf"].iter().map(|n| t.ms(n)).sum();
        assert!(total >= 0.0);
        assert!(t.attributed_ms("outer") <= total);
    }
}
