//! Per-node metric counters and the Q-error measure.

use std::ops::AddAssign;
use std::time::Duration;

/// Counters for one plan node, accumulated over every instance a worker
/// sweeps. All counters are additive, so per-worker metric vectors merge
/// by element-wise [`AddAssign`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Wall-clock time spent at this node, children excluded.
    pub wall: Duration,
    /// Index candidates examined by a leaf scan (postings for a positive
    /// atom, the whole instance for a negated one). Zero for joins.
    pub records_scanned: u64,
    /// Candidate pairs the node's operator compared, modelled
    /// deterministically from operand and output sizes (see the engine's
    /// profiling docs for the per-operator formulas).
    pub pairs_compared: u64,
    /// Incidents this node emitted.
    pub incidents_emitted: u64,
    /// Bytes of output storage the node produced (position pool plus
    /// incident refs for batches; positions plus headers classically).
    pub output_bytes: u64,
}

impl NodeMetrics {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        NodeMetrics::default()
    }
}

impl AddAssign<&NodeMetrics> for NodeMetrics {
    fn add_assign(&mut self, other: &NodeMetrics) {
        self.wall += other.wall;
        self.records_scanned += other.records_scanned;
        self.pairs_compared += other.pairs_compared;
        self.incidents_emitted += other.incidents_emitted;
        self.output_bytes += other.output_bytes;
    }
}

/// The Q-error of a cardinality estimate: `max(est/actual, actual/est)`,
/// with both sides clamped to at least 1 so zero-output nodes with
/// near-zero estimates read as perfect rather than undefined. Always
/// `>= 1`; `1.0` means the estimate was exact.
#[must_use]
pub fn q_error(estimate: f64, actual: u64) -> f64 {
    let est = estimate.max(1.0);
    #[allow(clippy::cast_precision_loss)]
    let act = (actual as f64).max(1.0);
    (est / act).max(act / est)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_merge_is_elementwise_addition() {
        let mut a = NodeMetrics {
            wall: Duration::from_millis(2),
            records_scanned: 10,
            pairs_compared: 100,
            incidents_emitted: 5,
            output_bytes: 80,
        };
        let b = NodeMetrics {
            wall: Duration::from_millis(3),
            records_scanned: 1,
            pairs_compared: 9,
            incidents_emitted: 2,
            output_bytes: 20,
        };
        a += &b;
        assert_eq!(a.wall, Duration::from_millis(5));
        assert_eq!(a.records_scanned, 11);
        assert_eq!(a.pairs_compared, 109);
        assert_eq!(a.incidents_emitted, 7);
        assert_eq!(a.output_bytes, 100);
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert!((q_error(10.0, 10) - 1.0).abs() < 1e-12);
        assert!((q_error(20.0, 10) - 2.0).abs() < 1e-12);
        assert!((q_error(5.0, 10) - 2.0).abs() < 1e-12);
        // Both sides clamp at 1: a tiny estimate of a zero actual is
        // perfect, not infinite.
        assert!((q_error(0.001, 0) - 1.0).abs() < 1e-12);
        assert!((q_error(4.0, 0) - 4.0).abs() < 1e-12);
    }
}
