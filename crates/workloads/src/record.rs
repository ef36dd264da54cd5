//! Trace recording and replay.

use pcm_memsim::{MemOp, TraceSource};

/// A pre-recorded, replayable trace.
///
/// Useful for capturing a stochastic generator's output once and feeding
/// the identical access stream to several simulator configurations (true
/// apples-to-apples comparisons), or for loading externally produced
/// traces.
///
/// # Examples
///
/// ```
/// use pcm_workloads::{RecordedTrace, WorkloadId};
/// use pcm_memsim::TraceSource;
///
/// let mut gen = WorkloadId::KvCache.build(1024, 1.0, 9);
/// let recorded = RecordedTrace::capture("kv-snap", &mut gen, 100);
/// assert_eq!(recorded.len(), 100);
/// let mut replay = recorded.clone();
/// assert!(replay.next_op().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    name: String,
    ops: Vec<MemOp>,
    pos: usize,
}

impl RecordedTrace {
    /// Builds a trace from explicit ops.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not nondecreasing.
    pub fn new(name: &str, ops: Vec<MemOp>) -> Self {
        for w in ops.windows(2) {
            assert!(w[0].at <= w[1].at, "recorded trace must be time-ordered");
        }
        Self {
            name: name.to_string(),
            ops,
            pos: 0,
        }
    }

    /// Captures the next `n` ops from a live source.
    pub fn capture(name: &str, source: &mut dyn TraceSource, n: usize) -> Self {
        let ops: Vec<MemOp> = (0..n).filter_map(|_| source.next_op()).collect();
        Self::new(name, ops)
    }

    /// Number of ops in the recording.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The raw ops.
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }
}

impl TraceSource for RecordedTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WorkloadId;
    use pcm_memsim::{LineAddr, SimTime};

    #[test]
    fn capture_and_replay_identical() {
        let mut gen = WorkloadId::DbOltp.build(512, 1.0, 3);
        let rec = RecordedTrace::capture("snap", &mut gen, 50);
        let mut r1 = rec.clone();
        let mut r2 = rec.clone();
        for _ in 0..50 {
            assert_eq!(r1.next_op(), r2.next_op());
        }
        assert!(r1.next_op().is_none(), "exhausted after len ops");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_disordered_recording() {
        RecordedTrace::new(
            "bad",
            vec![
                MemOp::read(SimTime::from_secs(2.0), LineAddr(0)),
                MemOp::read(SimTime::from_secs(1.0), LineAddr(1)),
            ],
        );
    }
}
