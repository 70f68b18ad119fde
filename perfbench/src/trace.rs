//! Outside-in tracing: wrappers around the library's public seams
//! (`SurrogateTrainer`, `Problem`, `SnapshotStore`) that time every call
//! into them and keep the spans in memory until the run ends.
//!
//! One trainer and one problem wrapper exist per seed or session; the span's
//! request id names it.  Spans inside the library are out of scope: the
//! phases between two seam calls (acquisition, snapshot serialization) are
//! measured as the gaps between them (see `layers`).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nnbo_core::{EvalOutcome, Evaluation, Problem, SurrogateTrainer};
use nnbo_serve::{
    LoadedSession, ServeError, SessionScrub, SessionStore, ShardHealth, SnapshotStore,
};
use rand::rngs::StdRng;

/// The seam a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One model-guided `BayesOpt::step` (timed by the caller, or rebuilt
    /// from its children on the served path).
    Step,
    /// `SurrogateTrainer::fit` / `fit_many`: a full refit of every output.
    Fit,
    /// `SurrogateTrainer::update`: one output's incremental update.
    Update,
    /// `Problem::try_evaluate`: one circuit evaluation (all its corners).
    Eval,
    /// `SnapshotStore::persist`: one durable checkpoint write.
    Persist,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Step => "core.step",
            SpanKind::Fit => "core.fit",
            SpanKind::Update => "core.update",
            SpanKind::Eval => "circuits.eval",
            SpanKind::Persist => "serve.persist",
        }
    }
}

/// One timed call.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub kind: SpanKind,
    /// The seed or session the call served.
    pub request: Arc<str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes (the snapshot size of a persist; 0 elsewhere).
    pub bytes: usize,
    /// The call reported failure (an evaluation that was not `Ok`, a fit,
    /// update or persist that returned an error).
    pub failed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder shared by every wrapper of a run.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }

    /// Runs `call`, recording it as a `kind` span of `request`; `judge`
    /// reads the payload size and the failure flag off the result.
    fn timed<R>(
        &self,
        kind: SpanKind,
        request: &Arc<str>,
        call: impl FnOnce() -> R,
        judge: impl FnOnce(&R) -> (usize, bool),
    ) -> R {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        let (bytes, failed) = judge(&out);
        self.record(Span {
            kind,
            request: Arc::clone(request),
            start_ns,
            end_ns,
            bytes,
            failed,
        });
        out
    }
}

/// Writes `spans` as JSON lines (`id`, `name`, `request`, `start_us`,
/// `end_us`, `parent`, `bytes`, `failed`); `parents[i]` is the index of the
/// step span enclosing span `i`.
pub fn write_spans(path: &Path, spans: &[Span], parents: &[Option<usize>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (span, parent)) in spans.iter().zip(parents).enumerate() {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"request\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"bytes\": {}, \"failed\": {}}}",
            span.kind.name(),
            span.request,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            span.bytes,
            span.failed
        )?;
    }
    out.flush()
}

/// A surrogate trainer whose fits and updates are timed.
pub struct TracedTrainer<T> {
    inner: T,
    tracer: Tracer,
    request: Arc<str>,
}

impl<T> TracedTrainer<T> {
    pub fn new(inner: T, tracer: &Tracer, request: &Arc<str>) -> Self {
        TracedTrainer {
            inner,
            tracer: tracer.clone(),
            request: Arc::clone(request),
        }
    }
}

impl<T: SurrogateTrainer> SurrogateTrainer for TracedTrainer<T> {
    type Model = T::Model;

    fn fit(&self, xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Result<T::Model, String> {
        self.tracer.timed(
            SpanKind::Fit,
            &self.request,
            || self.inner.fit(xs, ys, rng),
            |r| (0, r.is_err()),
        )
    }

    fn fit_many(
        &self,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
        prev: Option<&[&T::Model]>,
        rng: &mut StdRng,
    ) -> Result<Vec<T::Model>, String> {
        self.tracer.timed(
            SpanKind::Fit,
            &self.request,
            || self.inner.fit_many(xs, targets, prev, rng),
            |r| (0, r.is_err()),
        )
    }

    fn update(
        &self,
        prev: &T::Model,
        x: &[f64],
        y: f64,
        rng: &mut StdRng,
    ) -> Option<Result<T::Model, String>> {
        self.tracer.timed(
            SpanKind::Update,
            &self.request,
            || self.inner.update(prev, x, y, rng),
            |r| (0, !matches!(r, Some(Ok(_)))),
        )
    }
}

/// A problem whose evaluations are timed.  Batch evaluation keeps the
/// trait's sequential default, so every point is one timed `try_evaluate`.
pub struct TracedProblem<P> {
    inner: P,
    tracer: Tracer,
    request: Arc<str>,
}

impl<P> TracedProblem<P> {
    pub fn new(inner: P, tracer: &Tracer, request: &Arc<str>) -> Self {
        TracedProblem {
            inner,
            tracer: tracer.clone(),
            request: Arc::clone(request),
        }
    }
}

impl<P: Problem> Problem for TracedProblem<P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.inner.evaluate(x)
    }

    fn try_evaluate(&self, x: &[f64]) -> EvalOutcome {
        self.tracer.timed(
            SpanKind::Eval,
            &self.request,
            || self.inner.try_evaluate(x),
            |outcome| (0, !outcome.is_ok()),
        )
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The served workload's store: a [`SessionStore`] that notes when each
/// session's first checkpoint became durable (the end of its set-up), and
/// times every persist when a tracer is attached.
pub struct ServeStore {
    inner: SessionStore,
    first_persist: Mutex<HashMap<String, Instant>>,
    tracer: Option<Tracer>,
}

impl ServeStore {
    pub fn open(dir: &Path, tracer: Option<&Tracer>) -> Result<Self, ServeError> {
        Ok(ServeStore {
            inner: SessionStore::open(dir)?,
            first_persist: Mutex::new(HashMap::new()),
            tracer: tracer.cloned(),
        })
    }

    /// When `id`'s first checkpoint was acknowledged, if it was.
    pub fn first_persist(&self, id: &str) -> Option<Instant> {
        self.first_persist
            .lock()
            .expect("first-persist map poisoned")
            .get(id)
            .copied()
    }
}

impl SnapshotStore for ServeStore {
    fn persist(&self, id: &str, snapshot_json: &str) -> Result<(), ServeError> {
        let result = match &self.tracer {
            Some(tracer) => tracer.timed(
                SpanKind::Persist,
                &Arc::from(id),
                || self.inner.persist(id, snapshot_json),
                |r| (snapshot_json.len(), r.is_err()),
            ),
            None => self.inner.persist(id, snapshot_json),
        };
        if result.is_ok() {
            let now = Instant::now();
            self.first_persist
                .lock()
                .expect("first-persist map poisoned")
                .entry(id.to_string())
                .or_insert(now);
        }
        result
    }

    fn load(&self, id: &str) -> Result<Option<LoadedSession>, ServeError> {
        self.inner.load(id)
    }

    fn list(&self) -> Result<Vec<String>, ServeError> {
        self.inner.list()
    }

    fn remove(&self, id: &str) -> Result<(), ServeError> {
        self.inner.remove(id)
    }

    fn health_for(&self, id: &str) -> ShardHealth {
        SnapshotStore::health_for(&self.inner, id)
    }

    fn repair_session(&self, id: &str) -> Result<SessionScrub, ServeError> {
        SnapshotStore::repair_session(&self.inner, id)
    }
}
