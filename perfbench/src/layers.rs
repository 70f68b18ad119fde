//! Per-layer metrics and the closure check, computed from the spans of the
//! traced units.
//!
//! A step's children are the seam spans inside it (fits, updates,
//! evaluations, the persist) plus two phases measured as gaps between them:
//! acquisition runs from the end of the last surrogate call to the start of
//! the evaluation, and snapshot serialization from the end of the
//! evaluation to the start of the persist.  A step's self time is the part
//! of its wall time no child covers.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::trace::{Span, SpanKind};

/// One model-guided step and the phases timed inside it, in nanoseconds.
/// Fit, update and persist time are summed from the spans themselves (see
/// [`LayerTotals`]); a step keeps what only its boundaries give.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepPhases {
    pub wall: u64,
    pub fit_calls: usize,
    pub update_calls: usize,
    pub acquisition: Option<u64>,
    pub eval: u64,
    pub serialize: Option<u64>,
    /// Sum of every child's duration (overlapping children count twice).
    pub children: u64,
    /// Wall time no child covers.
    pub self_ns: u64,
}

/// The spans of a traced run arranged into steps.
pub struct Analysis {
    /// The recorded spans followed by any steps reconstructed from them.
    pub spans: Vec<Span>,
    /// Index of the step span enclosing each span (`None` for steps and for
    /// calls outside any step, such as the initial design).
    pub parents: Vec<Option<usize>>,
    pub steps: Vec<StepPhases>,
    /// Time from each persist to the first surrogate call of the same
    /// session's next step (reconstructed steps only).
    pub queue_wait_ns: u64,
}

/// Arranges `spans` into steps.  With `reconstruct`, steps are not timed by
/// the caller but rebuilt per request: a step opens at the first surrogate
/// call after the previous persist and closes when its persist returns.
pub fn analyse(mut spans: Vec<Span>, reconstruct: bool) -> Analysis {
    let mut by_request: BTreeMap<Arc<str>, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_request
            .entry(Arc::clone(&s.request))
            .or_default()
            .push(i);
    }
    for ids in by_request.values_mut() {
        ids.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));
    }

    let mut queue_wait_ns = 0;
    let mut rebuilt = Vec::new();
    if reconstruct {
        for (request, ids) in &by_request {
            let mut open: Option<u64> = None;
            let mut last_close: Option<u64> = None;
            for &i in ids {
                let s = &spans[i];
                match s.kind {
                    SpanKind::Fit | SpanKind::Update if open.is_none() => {
                        if let Some(closed) = last_close {
                            queue_wait_ns += s.start_ns.saturating_sub(closed);
                        }
                        open = Some(s.start_ns);
                    }
                    SpanKind::Persist => {
                        if let Some(start_ns) = open.take() {
                            rebuilt.push(Span {
                                kind: SpanKind::Step,
                                request: Arc::clone(request),
                                start_ns,
                                end_ns: s.end_ns,
                                bytes: 0,
                                failed: false,
                            });
                            last_close = Some(s.end_ns);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    spans.extend(rebuilt);

    // Steps per request, in time order.
    let mut steps_of: BTreeMap<Arc<str>, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == SpanKind::Step {
            steps_of.entry(Arc::clone(&s.request)).or_default().push(i);
        }
    }
    for ids in steps_of.values_mut() {
        ids.sort_by_key(|&i| spans[i].start_ns);
    }

    let mut parents = vec![None; spans.len()];
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == SpanKind::Step {
            continue;
        }
        let Some(candidates) = steps_of.get(&s.request) else {
            continue;
        };
        let enclosing = candidates
            .iter()
            .copied()
            .find(|&p| spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
        if let Some(p) = enclosing {
            parents[i] = Some(p);
            children.entry(p).or_default().push(i);
        }
    }

    let steps = steps_of
        .values()
        .flatten()
        .map(|&p| {
            let kids: Vec<&Span> = children
                .get(&p)
                .map(|ids| ids.iter().map(|&i| &spans[i]).collect())
                .unwrap_or_default();
            step_phases(&spans[p], &kids)
        })
        .collect();

    Analysis {
        spans,
        parents,
        steps,
        queue_wait_ns,
    }
}

/// Splits one step into its timed children and the two gap phases.
fn step_phases(step: &Span, kids: &[&Span]) -> StepPhases {
    let mut phases = StepPhases {
        wall: step.duration_ns(),
        ..StepPhases::default()
    };
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut trainer_end: Option<u64> = None;
    let mut eval_end: Option<u64> = None;
    let mut persist_start: Option<u64> = None;
    for k in kids {
        intervals.push((k.start_ns, k.end_ns));
        match k.kind {
            SpanKind::Fit => {
                phases.fit_calls += 1;
                trainer_end = trainer_end.max(Some(k.end_ns));
            }
            SpanKind::Update => {
                phases.update_calls += 1;
                trainer_end = trainer_end.max(Some(k.end_ns));
            }
            SpanKind::Eval => {
                phases.eval += k.duration_ns();
                eval_end = eval_end.max(Some(k.end_ns));
            }
            SpanKind::Persist => persist_start = Some(k.start_ns),
            SpanKind::Step => {}
        }
    }
    if let Some(from) = trainer_end {
        let first_eval = kids
            .iter()
            .filter(|k| k.kind == SpanKind::Eval && k.start_ns >= from)
            .map(|k| k.start_ns)
            .min();
        if let Some(to) = first_eval {
            phases.acquisition = Some(to - from);
            intervals.push((from, to));
        }
    }
    if let (Some(from), Some(to)) = (eval_end, persist_start) {
        if to >= from {
            phases.serialize = Some(to - from);
            intervals.push((from, to));
        }
    }
    phases.children = intervals.iter().map(|(a, b)| b.saturating_sub(*a)).sum();
    phases.self_ns =
        phases
            .wall
            .saturating_sub(covered(&mut intervals, step.start_ns, step.end_ns));
    phases
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Steps whose children plus self time miss the step's wall time by more
/// than `tolerance` (a share of the wall time) — children that overlap, or
/// a gap phase attributed twice.
pub fn closure_violations(steps: &[StepPhases], tolerance: f64) -> Vec<String> {
    steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let total = (s.children + s.self_ns) as f64;
            let wall = s.wall as f64;
            ((total - wall).abs() > tolerance * wall).then(|| {
                format!(
                    "step {i}: children {:.3} ms + self {:.3} ms vs wall {:.3} ms",
                    s.children as f64 / 1e6,
                    s.self_ns as f64 / 1e6,
                    wall / 1e6
                )
            })
        })
        .collect()
}

/// Totals over every step and span of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub steps: usize,
    pub step_wall_ms: f64,
    pub step_self_ms: f64,
    pub fit_ms: f64,
    pub fit_calls: usize,
    pub update_ms: f64,
    pub update_calls: usize,
    /// Steps with incremental updates and no full fit, over steps with
    /// incremental updates (0 when no step updated).
    pub update_kept_share: f64,
    /// Steps with a full fit, over all steps.
    pub refit_share: f64,
    pub acquisition_ms: f64,
    pub acquisition_calls: usize,
    /// Evaluation time inside steps (the initial design is outside).
    pub step_eval_ms: f64,
    pub eval_ms: f64,
    pub evals: usize,
    pub eval_failed: usize,
    pub serialize_ms: f64,
    pub persist_ms: f64,
    pub persists: usize,
    pub snapshot_kb: f64,
    pub queue_wait_ms: f64,
}

const MS: f64 = 1e6;

impl LayerTotals {
    pub fn from_analysis(a: &Analysis) -> Self {
        let mut t = LayerTotals {
            steps: a.steps.len(),
            queue_wait_ms: a.queue_wait_ns as f64 / MS,
            ..LayerTotals::default()
        };
        let (mut updating, mut kept, mut refitting) = (0usize, 0usize, 0usize);
        for s in &a.steps {
            t.step_wall_ms += s.wall as f64 / MS;
            t.step_self_ms += s.self_ns as f64 / MS;
            if let Some(acq) = s.acquisition {
                t.acquisition_ms += acq as f64 / MS;
                t.acquisition_calls += 1;
            }
            t.serialize_ms += s.serialize.unwrap_or(0) as f64 / MS;
            t.step_eval_ms += s.eval as f64 / MS;
            if s.update_calls > 0 {
                updating += 1;
                kept += usize::from(s.fit_calls == 0);
            }
            refitting += usize::from(s.fit_calls > 0);
        }
        if updating > 0 {
            t.update_kept_share = kept as f64 / updating as f64;
        }
        if t.steps > 0 {
            t.refit_share = refitting as f64 / t.steps as f64;
        }
        let mut snapshot_bytes = 0usize;
        for s in &a.spans {
            let ms = s.duration_ns() as f64 / MS;
            match s.kind {
                SpanKind::Fit => {
                    t.fit_ms += ms;
                    t.fit_calls += 1;
                }
                SpanKind::Update => {
                    t.update_ms += ms;
                    t.update_calls += 1;
                }
                SpanKind::Eval => {
                    t.eval_ms += ms;
                    t.evals += 1;
                    t.eval_failed += usize::from(s.failed);
                }
                SpanKind::Persist => {
                    t.persist_ms += ms;
                    t.persists += 1;
                    snapshot_bytes += s.bytes;
                }
                SpanKind::Step => {}
            }
        }
        if t.persists > 0 {
            t.snapshot_kb = snapshot_bytes as f64 / 1e3 / t.persists as f64;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, request: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            request: Arc::from(request),
            start_ns,
            end_ns,
            bytes: 10,
            failed: false,
        }
    }

    #[test]
    fn timed_step_splits_into_fit_acquisition_eval_and_self() {
        let spans = vec![
            span(SpanKind::Eval, "a", 0, 5),
            span(SpanKind::Step, "a", 10, 100),
            span(SpanKind::Fit, "a", 12, 70),
            span(SpanKind::Eval, "a", 90, 95),
        ];
        let a = analyse(spans, false);
        assert_eq!(a.parents, vec![None, None, Some(1), Some(1)]);
        let s = &a.steps[0];
        assert_eq!((s.wall, s.fit_calls, s.eval), (90, 1, 5));
        assert_eq!(s.acquisition, Some(20));
        assert_eq!(s.serialize, None);
        assert_eq!(s.self_ns, 90 - 58 - 20 - 5);
        assert_eq!(s.children + s.self_ns, s.wall);
        assert!(closure_violations(&a.steps, 0.05).is_empty());
    }

    #[test]
    fn served_steps_are_rebuilt_from_the_seams_with_queue_wait() {
        let spans = vec![
            // Initial design, then step 1 (cold fit) and step 2 (updates).
            span(SpanKind::Eval, "s", 0, 10),
            span(SpanKind::Fit, "s", 20, 60),
            span(SpanKind::Eval, "s", 70, 75),
            span(SpanKind::Persist, "s", 85, 95),
            span(SpanKind::Update, "s", 120, 125),
            span(SpanKind::Update, "s", 125, 130),
            span(SpanKind::Eval, "s", 140, 145),
            span(SpanKind::Persist, "s", 150, 160),
            // The finishing job persists without a step.
            span(SpanKind::Persist, "s", 170, 180),
        ];
        let a = analyse(spans, true);
        assert_eq!(a.steps.len(), 2);
        assert_eq!(a.queue_wait_ns, 120 - 95);
        let (one, two) = (&a.steps[0], &a.steps[1]);
        assert_eq!(one.wall, 75);
        assert_eq!((one.acquisition, one.serialize), (Some(10), Some(10)));
        assert_eq!(one.self_ns, 0);
        assert_eq!((two.update_calls, two.fit_calls), (2, 0));
        assert_eq!((two.acquisition, two.serialize), (Some(10), Some(5)));
        let t = LayerTotals::from_analysis(&a);
        assert_eq!((t.persists, t.fit_calls, t.update_calls), (3, 1, 2));
        assert_eq!(t.update_kept_share, 1.0);
        assert_eq!(t.refit_share, 0.5);
        assert!(closure_violations(&a.steps, 0.05).is_empty());
    }

    #[test]
    fn overlapping_children_break_closure() {
        let spans = vec![
            span(SpanKind::Step, "a", 0, 100),
            span(SpanKind::Fit, "a", 0, 80),
            span(SpanKind::Eval, "a", 20, 100),
        ];
        let a = analyse(spans, false);
        assert_eq!(closure_violations(&a.steps, 0.05).len(), 1);
    }
}
