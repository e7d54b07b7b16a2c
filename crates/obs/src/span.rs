//! RAII stage timers that record into a [`Registry`] histogram.

use crate::metrics::Registry;
use std::time::Instant;

/// An RAII wall-clock timer: records its elapsed nanoseconds into the
/// histogram named after the span when dropped.
///
/// ```
/// let registry = dox_obs::Registry::new();
/// {
///     let _span = dox_obs::StageSpan::enter(&registry, "study.phase.demo");
///     // ... timed work ...
/// }
/// assert_eq!(registry.histogram("study.phase.demo").count(), 1);
/// ```
pub struct StageSpan<'a> {
    registry: &'a Registry,
    name: &'a str,
    start: Instant,
}

impl<'a> StageSpan<'a> {
    /// Start timing `name` into `registry`.
    pub fn enter(registry: &'a Registry, name: &'a str) -> Self {
        Self {
            registry,
            name,
            start: Instant::now(),
        }
    }

    /// The span's histogram name.
    pub fn name(&self) -> &str {
        self.name
    }
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry.histogram(self.name).observe(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_once_on_drop() {
        let registry = Registry::new();
        {
            let _span = StageSpan::enter(&registry, "stage.alpha");
            let _inner = StageSpan::enter(&registry, "stage.beta");
        }
        assert_eq!(registry.histogram("stage.alpha").count(), 1);
        assert_eq!(registry.histogram("stage.beta").count(), 1);
        assert!(registry.histogram("stage.alpha").sum() > 0);
    }
}
