//! The benchmark's span recorder: a wall-clock front over
//! [`mdagent_perfbench::SpanLog`]. When off it never reads the clock.

use std::time::Instant;

use mdagent_perfbench::{SpanLog, SETUP_STEP};

/// Records spans around the benchmark's calls into each crate.
pub struct Tracer {
    log: Option<SpanLog>,
    epoch: Instant,
    step: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            log: None,
            epoch: Instant::now(),
            step: SETUP_STEP,
        }
    }

    /// A tracer that keeps every span in memory.
    pub fn on() -> Self {
        Tracer {
            log: Some(SpanLog::new()),
            ..Tracer::off()
        }
    }

    /// Tags the spans opened from now on with `step`.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Opens a span named `<crate>.<call>`; returns its handle.
    pub fn open(&mut self, name: &'static str) -> usize {
        match &mut self.log {
            Some(log) => {
                let now = self.epoch.elapsed().as_nanos() as u64;
                log.open(name, self.step, now)
            }
            None => usize::MAX,
        }
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, span: usize) {
        if let Some(log) = &mut self.log {
            let now = self.epoch.elapsed().as_nanos() as u64;
            log.close(span, now);
        }
    }

    /// The recorded spans, when on.
    pub fn log(&self) -> Option<&SpanLog> {
        self.log.as_ref()
    }
}
