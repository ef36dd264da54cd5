//! Memory access traces: the interface between workload generators and the
//! simulation loop.

use scrub_checkpoint::{CheckpointError, Reader, Writer};

use crate::geometry::LineAddr;
use crate::time::SimTime;

/// Kind of demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Line read.
    Read,
    /// Line write.
    Write,
}

/// One timestamped demand access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOp {
    /// When the access is issued.
    pub at: SimTime,
    /// Read or write.
    pub kind: OpKind,
    /// Target line.
    pub addr: LineAddr,
}

impl MemOp {
    /// Convenience constructor for a read.
    pub fn read(at: SimTime, addr: LineAddr) -> Self {
        Self {
            at,
            kind: OpKind::Read,
            addr,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(at: SimTime, addr: LineAddr) -> Self {
        Self {
            at,
            kind: OpKind::Write,
            addr,
        }
    }
}

/// Writes a drawn but not yet issued op as checkpoints store it: a
/// presence flag (`u8`), then the time (`f64`), the kind (`u8`, 0 read,
/// 1 write) and the line (`u32`).
pub fn save_pending_op(w: &mut Writer, op: Option<&MemOp>) {
    match op {
        Some(op) => {
            w.put_u8(1);
            w.put_f64(op.at.secs());
            w.put_u8(match op.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
            });
            w.put_u32(op.addr.0);
        }
        None => w.put_u8(0),
    }
}

/// Reads an op written by [`save_pending_op`] for a demand space of
/// `lines` lines. A bad flag or kind, a time that is negative or not
/// finite, and a line at or past `lines` are `Malformed`.
pub fn load_pending_op(r: &mut Reader<'_>, lines: u32) -> Result<Option<MemOp>, CheckpointError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let at = SimTime::from_secs(r.time_f64("pending-op time")?);
            let kind = match r.u8()? {
                0 => OpKind::Read,
                1 => OpKind::Write,
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "invalid pending-op kind {other}"
                    )))
                }
            };
            let addr = r.u32()?;
            if addr >= lines {
                return Err(CheckpointError::Malformed(format!(
                    "pending-op line {addr} out of range (demand space is {lines})"
                )));
            }
            Ok(Some(MemOp {
                at,
                kind,
                addr: LineAddr(addr),
            }))
        }
        other => Err(CheckpointError::Malformed(format!(
            "invalid pending-op flag {other}"
        ))),
    }
}

/// Anything that produces a time-ordered stream of demand accesses.
///
/// Generators must yield non-decreasing timestamps; the simulation loop
/// asserts this. `Send` is a supertrait so whole simulations (which own
/// their trace) can be fanned out across the `scrub-exec` pool — e.g. one
/// fleet shard per worker in `scrubd`.
pub trait TraceSource: std::fmt::Debug + Send {
    /// Produces the next access, or `None` when the trace is exhausted.
    fn next_op(&mut self) -> Option<MemOp>;

    /// A short name for reports.
    fn name(&self) -> &str;

    /// Serializes the generator's mutable state (RNG position, clock,
    /// pattern cursors) for checkpointing, or `None` if this source does
    /// not support resume. The encoding is the source's own; the
    /// simulator treats it as an opaque block.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by [`TraceSource::save_state`] onto a
    /// freshly constructed source with identical configuration.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "trace source {:?} does not support checkpoint/resume",
            self.name()
        ))
    }

    /// Per-tenant delivered-op accounting as `(tenant, reads, writes)`
    /// rows, for sources that multiplex several demand streams (the
    /// open-loop tenant mix). Single-stream sources report `None`.
    fn tenant_ops(&self) -> Option<Vec<(String, u64, u64)>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemOp::read(SimTime::from_secs(1.0), LineAddr(3));
        assert_eq!(r.kind, OpKind::Read);
        let w = MemOp::write(SimTime::from_secs(2.0), LineAddr(4));
        assert_eq!(w.kind, OpKind::Write);
        assert!(w.at > r.at);
    }

    /// Pending ops round-trip, and each damaged field is a typed error.
    #[test]
    fn pending_op_codec_round_trips_and_rejects_damage() {
        let encode = |op: Option<&MemOp>| {
            let mut w = Writer::new();
            save_pending_op(&mut w, op);
            w.into_bytes()
        };
        let write = MemOp::write(SimTime::from_secs(2.5), LineAddr(63));
        for op in [None, Some(write)] {
            let bytes = encode(op.as_ref());
            let mut r = Reader::new(&bytes);
            assert_eq!(load_pending_op(&mut r, 64).expect("round-trip"), op);
            r.finish().expect("all bytes read");
        }
        let good = encode(Some(&write));
        let damaged = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        for bad in [
            damaged(0, &[2]),
            damaged(1, &(-1.0f64).to_le_bytes()),
            damaged(1, &f64::NAN.to_le_bytes()),
            damaged(9, &[2]),
        ] {
            let err = load_pending_op(&mut Reader::new(&bad), 64).expect_err("damaged");
            assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        }
        // Line 63 fits 64 lines, not 63.
        let err = load_pending_op(&mut Reader::new(&good), 63).expect_err("line past the bound");
        assert!(err.to_string().contains("pending-op line 63"), "{err}");
    }
}
