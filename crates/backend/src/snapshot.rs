//! Periodic machine-state snapshots for fast-forwarded injection trials.
//!
//! The assembly layer of [`flowery_ir::interp::snapshot`]: during one
//! instrumented golden run the [`Machine`](crate::machine::Machine)
//! captures the register file, cycle/instruction counters, optionally the
//! profile accumulator, and a cumulative dirty-page memory overlay on a
//! [`Cadence`](flowery_ir::interp::Cadence). A trial restores the nearest
//! snapshot at-or-before its injection site and executes only the suffix,
//! bit-identical to a scratch run. The recorder, the set and its accessors
//! are the shared core; this module supplies only the layer's state.

use crate::mir::Reg;
use flowery_ir::interp::memory::Memory;
use flowery_ir::interp::snapshot::{Snapshot, SnapshotRecorder, SnapshotSet};

/// The assembly layer (see [`AsmState`]).
#[derive(Debug)]
pub enum AsmLayer {}

/// Machine state at a snapshot.
#[derive(Debug)]
pub struct AsmState {
    /// Modelled cycles accumulated before this point.
    pub(crate) cycles: u64,
    /// Next instruction to execute.
    pub(crate) ip: u32,
    /// The whole register file, flags included.
    pub(crate) regs: [u64; Reg::COUNT],
    /// Output bytes emitted so far (restored from the golden output).
    pub(crate) output_len: usize,
    /// Per-instruction execution counts at this point, when the capture
    /// run profiled. Restoring it is what lets profiled campaigns
    /// fast-forward.
    pub(crate) profile: Option<Vec<u64>>,
}

pub type AsmSnapshot = Snapshot<AsmLayer>;
/// Assembly snapshot set; its first-entry table is `first_exec[ip]`, the
/// `dyn_insts` at each instruction's first execution.
pub type AsmSnapshotSet = SnapshotSet<AsmLayer>;
pub(crate) type AsmSnapshotRecorder = SnapshotRecorder<AsmLayer>;

/// Per-worker reusable buffers for machine trials: the scratch memory
/// image (reset via dirty-page reverts) and the output buffer.
#[derive(Default)]
pub struct AsmScratch {
    pub(crate) mem: Option<Memory>,
    pub(crate) output: Vec<u8>,
}

impl AsmScratch {
    pub fn new() -> AsmScratch {
        AsmScratch::default()
    }

    /// Hand a trial's output buffer back for reuse once it has been
    /// classified.
    pub fn recycle_output(&mut self, mut output: Vec<u8>) {
        output.clear();
        self.output = output;
    }
}
