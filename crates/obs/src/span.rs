//! Lightweight tracing spans.
//!
//! A [`Span`] is an RAII guard: on drop it records its elapsed time into
//! the histogram `span_duration_ns{span="<name>"}` of the registry that
//! opened it. Opening and closing a span is two `Instant` reads plus one
//! wait-free histogram record.

use crate::metrics::Histogram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open tracing span; see the [module docs](self). Create via
/// [`Registry::span`](crate::Registry::span).
#[derive(Debug)]
pub struct Span {
    name: String,
    histogram: Arc<Histogram>,
    start: Instant,
}

impl Span {
    pub(crate) fn new(name: &str, histogram: Arc<Histogram>) -> Span {
        Span {
            name: name.to_string(),
            histogram,
            start: Instant::now(),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Close explicitly and return the elapsed time (drop does the same
    /// recording; this form surfaces the measurement).
    pub fn close(self) -> Duration {
        let elapsed = self.start.elapsed();
        drop(self);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_into_named_histogram() {
        let reg = Registry::new();
        {
            let span = reg.span("unit.work");
            assert_eq!(span.name(), "unit.work");
        }
        let d = reg.span("unit.work").close();
        assert!(d < Duration::from_secs(1));
        let snap = reg.span_histogram("unit.work").snapshot();
        assert_eq!(snap.count(), 2);
    }
}
