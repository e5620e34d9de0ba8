//! The thread-local observation context.
//!
//! A worker calls [`observe`] once per question: the guard installs the
//! engine's metrics registry and (when tracing is on) a fresh trace
//! rooted at a `question` span into thread-local storage, and on drop
//! finalises the root span and hands the trace to the flight recorder.
//! Everything below the engine — `dwqa-ir`, `dwqa-warehouse`,
//! `dwqa-core` — records through the free functions here without any
//! handle threading: if no context is installed (a bare library call,
//! a test, the exhaustive reference path) every call is a no-op.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::recorder::Tracer;
use crate::trace::{EventRecord, FieldValue, SpanRecord, Trace};

struct ActiveTrace {
    trace: Trace,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    t0: Instant,
}

#[derive(Default)]
struct Ctx {
    registry: Option<Arc<MetricsRegistry>>,
    trace: Option<ActiveTrace>,
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// Installs `registry` (and, when `tracer.enabled()`, a fresh trace
/// rooted at `root_name`) into this thread's context for the lifetime
/// of the returned guard. Nested `observe` calls are not supported —
/// the guard restores an *empty* context on drop, which is exactly the
/// one-question-per-worker shape the engine uses.
pub fn observe(
    registry: Option<Arc<MetricsRegistry>>,
    tracer: Option<&Tracer>,
    root_name: &'static str,
    label: &str,
) -> ObserveGuard {
    let tracing = crate::COMPILED && tracer.map(|t| t.enabled()).unwrap_or(false);
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ctx.registry = registry;
        ctx.trace = if tracing {
            let id = tracer.map(|t| t.next_trace_id()).unwrap_or(0);
            let root = SpanRecord {
                name: root_name,
                parent: None,
                start_us: 0,
                elapsed_us: 0,
                fields: Vec::new(),
                events: Vec::new(),
            };
            Some(ActiveTrace {
                trace: Trace {
                    id,
                    label: label.to_owned(),
                    spans: vec![root],
                },
                stack: vec![0],
                t0: Instant::now(),
            })
        } else {
            None
        };
    });
    ObserveGuard {
        tracer: if tracing { tracer.cloned() } else { None },
    }
}

/// RAII guard returned by [`observe`]. Dropping it finalises the root
/// span's elapsed time, pushes the completed trace into the tracer's
/// flight recorder, and clears the thread context.
#[must_use = "dropping the guard immediately ends the observation"]
pub struct ObserveGuard {
    tracer: Option<Tracer>,
}

impl ObserveGuard {
    /// Records `key=value` on the root span of the active trace.
    pub fn root_field<V: Into<FieldValue>>(&self, key: &'static str, value: V) {
        root_field(key, value);
    }
}

impl Drop for ObserveGuard {
    fn drop(&mut self) {
        let finished = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            ctx.registry = None;
            ctx.trace.take()
        });
        if let (Some(active), Some(tracer)) = (finished, &self.tracer) {
            let mut trace = active.trace;
            let total = elapsed_us(active.t0);
            if let Some(root) = trace.root_mut() {
                root.elapsed_us = total;
            }
            tracer.recorder().push(trace);
        }
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Opens a child span under the innermost open span of the active
/// trace. A no-op (returning an inert guard) outside any observation
/// or when tracing is disabled. Prefer the [`span!`](crate::span)
/// macro, which also attaches fields.
pub fn enter_span(name: &'static str) -> SpanGuard {
    if !crate::COMPILED {
        return SpanGuard { idx: None };
    }
    let idx = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let active = ctx.trace.as_mut()?;
        let parent = active.stack.last().copied();
        let start_us = elapsed_us(active.t0);
        let idx = active.trace.spans.len();
        active.trace.spans.push(SpanRecord {
            name,
            parent,
            start_us,
            elapsed_us: 0,
            fields: Vec::new(),
            events: Vec::new(),
        });
        active.stack.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

/// RAII guard for a span opened with [`enter_span`]: records fields on
/// *its own* span (safe with nested children open) and stamps the
/// span's elapsed time on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// Arena index of this guard's span; `None` when tracing was off.
    idx: Option<usize>,
}

impl SpanGuard {
    /// Records `key=value` on this span.
    pub fn record<V: Into<FieldValue>>(&self, key: &'static str, value: V) {
        let Some(idx) = self.idx else { return };
        let value = value.into();
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if let Some(active) = ctx.trace.as_mut() {
                if let Some(span) = active.trace.spans.get_mut(idx) {
                    span.set_field(key, value);
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if let Some(active) = ctx.trace.as_mut() {
                let elapsed = elapsed_us(active.t0);
                if let Some(span) = active.trace.spans.get_mut(idx) {
                    span.elapsed_us = elapsed.saturating_sub(span.start_us);
                }
                // Close this span and anything opened under it that
                // leaked past its guard (can't happen with RAII use,
                // but keeps the stack sound under panic-unwind).
                if let Some(pos) = active.stack.iter().rposition(|&i| i == idx) {
                    active.stack.truncate(pos);
                }
            }
        });
    }
}

/// Records a point-in-time event on the innermost open span. A no-op
/// outside any active trace. Prefer the [`event!`](crate::event)
/// macro.
pub fn record_event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !crate::COMPILED {
        return;
    }
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if let Some(active) = ctx.trace.as_mut() {
            let at_us = elapsed_us(active.t0);
            if let Some(&idx) = active.stack.last() {
                if let Some(span) = active.trace.spans.get_mut(idx) {
                    span.events.push(EventRecord {
                        name,
                        at_us,
                        fields,
                    });
                }
            }
        }
    });
}

/// Records `key=value` on the active trace's root span (the
/// per-question span), regardless of which span is innermost.
pub fn root_field<V: Into<FieldValue>>(key: &'static str, value: V) {
    if !crate::COMPILED {
        return;
    }
    let value = value.into();
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if let Some(active) = ctx.trace.as_mut() {
            if let Some(root) = active.trace.root_mut() {
                root.set_field(key, value);
            }
        }
    });
}

/// True when a trace is being collected on this thread right now.
pub fn tracing_active() -> bool {
    crate::COMPILED && CTX.with(|ctx| ctx.borrow().trace.is_some())
}

/// Adds `delta` to the named counter of the installed registry, if one
/// is installed on this thread.
pub fn counter_add(name: &str, delta: u64) {
    CTX.with(|ctx| {
        if let Some(reg) = ctx.borrow().registry.as_ref() {
            reg.counter(name).add(delta);
        }
    });
}

/// Records a histogram sample (µs) into the installed registry, if any.
pub fn histogram_record_us(name: &str, us: u64) {
    CTX.with(|ctx| {
        if let Some(reg) = ctx.borrow().registry.as_ref() {
            reg.histogram(name).record_us(us);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    fn tracer_on() -> Tracer {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t
    }

    #[test]
    #[cfg_attr(feature = "off", ignore = "tracing compiled out")]
    fn observe_collects_a_rooted_trace() {
        let tracer = tracer_on();
        {
            let obs = observe(None, Some(&tracer), "question", "q1");
            obs.root_field("cache", "miss");
            {
                let s = enter_span("retrieve");
                s.record("docs_candidate", 9u64);
                let _inner = enter_span("score");
                crate::context::record_event("retry", vec![("attempt", FieldValue::from(1u64))]);
            }
            root_field("outcome", "ok");
        }
        let trace = tracer.recorder().last().unwrap_or_default();
        assert_eq!(trace.label, "q1");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["question", "retrieve", "score"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(
            trace.spans[1]
                .field("docs_candidate")
                .and_then(|v| v.as_u64()),
            Some(9)
        );
        // The event landed on the innermost span at the time.
        assert_eq!(trace.spans[2].events.len(), 1);
        assert_eq!(
            trace.root_field("outcome").and_then(|v| v.as_str()),
            Some("ok")
        );
        assert_eq!(
            trace.root_field("cache").and_then(|v| v.as_str()),
            Some("miss")
        );
    }

    #[test]
    #[cfg_attr(feature = "off", ignore = "tracing compiled out")]
    fn guard_records_its_own_span_not_top_of_stack() {
        let tracer = tracer_on();
        {
            let _obs = observe(None, Some(&tracer), "question", "q");
            let outer = enter_span("outer");
            let _inner = enter_span("inner");
            outer.record("tag", 7u64); // must land on "outer"
        }
        let trace = tracer.recorder().last().unwrap_or_default();
        let outer = trace.find("outer").cloned().unwrap_or_else(|| SpanRecord {
            name: "missing",
            parent: None,
            start_us: 0,
            elapsed_us: 0,
            fields: vec![],
            events: vec![],
        });
        assert_eq!(outer.field("tag").and_then(|v| v.as_u64()), Some(7));
        assert!(trace
            .find("inner")
            .map(|s| s.field("tag").is_none())
            .unwrap_or(false));
    }

    #[test]
    fn no_context_means_no_ops() {
        assert!(!tracing_active());
        let guard = enter_span("orphan");
        guard.record("x", 1u64);
        drop(guard);
        record_event("nothing", vec![]);
        root_field("y", 2u64);
        counter_add("c", 1);
        histogram_record_us("h", 5);
        assert!(!tracing_active());
    }

    #[test]
    fn disabled_tracer_collects_nothing_but_metrics_flow() {
        let tracer = Tracer::new(8); // disabled
        let reg = registry();
        {
            let _obs = observe(Some(Arc::clone(&reg)), Some(&tracer), "question", "q");
            assert!(!tracing_active());
            let _s = enter_span("retrieve");
            counter_add("retrieval.count", 1);
        }
        assert!(tracer.recorder().is_empty());
        assert_eq!(reg.counter_value("retrieval.count"), 1);
    }

    #[test]
    #[cfg_attr(feature = "off", ignore = "tracing compiled out")]
    fn context_is_cleared_after_observation() {
        let tracer = tracer_on();
        let reg = registry();
        {
            let _obs = observe(Some(Arc::clone(&reg)), Some(&tracer), "question", "q");
            assert!(tracing_active());
        }
        assert!(!tracing_active());
        counter_add("after", 1);
        assert_eq!(reg.counter_value("after"), 0, "registry uninstalled");
    }
}
