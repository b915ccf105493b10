//! The executor's observation hook.
//!
//! Every executor function ([`Evaluator`](crate::Evaluator)'s `run` and
//! the naive oracle's per-instance recursion) is generic
//! over a [`Probe`] and reports each leaf scan and join it performs to it,
//! keyed by the node's pre-order id. Unprofiled evaluation passes
//! [`NoProbe`], a zero-sized no-op whose methods inline to nothing — the
//! event closures are never called, so the default path compiles to the
//! bare executor. The profiler's metrics probe times and counts the same
//! calls, so a profile measures exactly the code an unprofiled query
//! runs.

use wlq_log::IsLsn;
use wlq_pattern::Op;

use crate::batch::{IncidentBatch, IncidentRef};
use crate::incident::Incident;

/// Receives one [`Event`] per executed plan node per instance.
pub(crate) trait Probe {
    /// A start timestamp, taken before the node's own work (children
    /// excluded).
    type Mark: Copy;

    /// Marks the start of a node's own work.
    fn start(&self) -> Self::Mark;

    /// Reports the work of node `node` started at `mark`; `event` is only
    /// called by probes that keep counters.
    fn record(&mut self, node: usize, mark: Self::Mark, event: impl FnOnce() -> Event);
}

/// The unprofiled probe: records nothing and costs nothing.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    type Mark = ();

    #[inline(always)]
    fn start(&self) {}

    #[inline(always)]
    fn record(&mut self, _node: usize, _mark: (), _event: impl FnOnce() -> Event) {}
}

/// What one node did for one instance.
pub(crate) enum Event {
    /// A leaf scan that examined `scanned` index candidates.
    Scan { scanned: u64, out: Output },
    /// An `op` join of operands of `left` and `right` incidents.
    Join {
        op: Op,
        left: usize,
        right: usize,
        out: Output,
    },
}

/// A node's output: incident count and memory footprint in bytes.
pub(crate) struct Output {
    pub(crate) incidents: usize,
    pub(crate) bytes: u64,
}

impl Output {
    /// A batch: position pool plus refs.
    pub(crate) fn batch(batch: &IncidentBatch) -> Self {
        Output {
            incidents: batch.len(),
            bytes: (batch.pool_len() * std::mem::size_of::<IsLsn>()
                + batch.len() * std::mem::size_of::<IncidentRef>()) as u64,
        }
    }

    /// A classic incident list: positions plus incident headers.
    pub(crate) fn classic(out: &[Incident]) -> Self {
        let positions: usize = out.iter().map(Incident::len).sum();
        Output {
            incidents: out.len(),
            bytes: (positions * std::mem::size_of::<IsLsn>() + std::mem::size_of_val(out)) as u64,
        }
    }
}
