//! Periodic execution snapshots for fast-forwarded fault-injection trials.
//!
//! A fault-injection trial is bit-identical to the golden run up to its
//! injection site, so re-executing that prefix is pure waste — for late
//! sites, >90% of the trial. During one instrumented golden run the
//! executor captures a snapshot on a [`Cadence`]: its layer's machine state
//! (the IR call stack, or the assembly register file), the output length,
//! optionally the profile accumulator, and the memory image as a
//! *cumulative* dirty-page overlay against the pristine post-init image. A
//! trial then restores the nearest snapshot at-or-before its injection site
//! and executes only the suffix.
//!
//! Both injection layers share this module's core — the recorder's
//! cadence schedule and widening, the set and its accessors — and differ
//! only in their [`SnapLayer`]: the per-snapshot state, the golden result
//! type, and the first-entry table that seeds cross-variant sharing.
//!
//! The invariant (enforced by differential tests): restored execution is
//! **byte-identical** to scratch execution — same status, output bytes,
//! `dyn_insts`, `fault_sites`, injected location, and profile counts —
//! because every counter in the snapshot is absolute and every restored
//! byte equals what a scratch run would have computed at that point.

use crate::interp::codec::Cursor;
use crate::interp::eval::{Frame, FramePool};
use crate::interp::memory::{Memory, PageMap, PageRecorder};
use crate::interp::Profile;
use crate::module::Module;
use crate::value::{BlockId, FuncId};
use std::fmt::Debug;

/// Snapshot cadence from a golden dynamic-instruction count: aim for ~64
/// snapshots per golden run, but never snapshot more often than every 512
/// instructions (capture overhead) or less often than every 2^20 (restore
/// cost for long programs).
pub fn auto_interval(golden_dyn_insts: u64) -> u64 {
    (golden_dyn_insts / 64).clamp(512, 1 << 20)
}

/// When the recorder captures. Trials draw their injection sites uniformly
/// over *fault sites*, not dynamic instructions, so site-spaced snapshots
/// put restore points where the trials actually land — sites cluster late
/// in duplicated code, where uniform instruction spacing leaves long
/// suffixes to re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// Capture every `k` dynamic instructions (the v1 behavior).
    Insts(u64),
    /// Capture every `k` fault sites (adaptive: matches the uniform-over-
    /// sites trial distribution).
    Sites(u64),
}

impl Cadence {
    /// The numeric spacing, whichever axis it is measured on.
    pub fn value(self) -> u64 {
        match self {
            Cadence::Insts(k) | Cadence::Sites(k) => k,
        }
    }

    /// The cadence one budget-widening step coarser (spacing doubled).
    pub fn widened(self) -> Cadence {
        match self {
            Cadence::Insts(k) => Cadence::Insts(k.saturating_mul(2)),
            Cadence::Sites(k) => Cadence::Sites(k.saturating_mul(2)),
        }
    }

    /// The counter value one step past a capture at (`dyn_insts`,
    /// `fault_sites`).
    fn next_after(self, dyn_insts: u64, fault_sites: u64) -> u64 {
        match self {
            Cadence::Insts(k) => dyn_insts + k,
            Cadence::Sites(k) => fault_sites + k,
        }
    }
}

/// Starting cadence for self-tuning captures: every 64 fault sites, widened
/// by [`SnapshotRecorder`] whenever the set exceeds [`AUTO_MAX_SNAPS`].
pub const AUTO_SITE_CADENCE: u64 = 64;

/// Snapshot-count cap for self-tuning captures. Each time the cap is hit
/// the cadence doubles and every other snapshot is dropped, so the final
/// set holds 64..=128 snapshots regardless of run length.
pub const AUTO_MAX_SNAPS: usize = 128;

/// One injection layer's share of the snapshot subsystem: what a snapshot
/// holds beyond the shared counters and page overlay, what the golden run
/// returns, which first-entry table seeds cross-variant sharing, and how
/// each of them is written to and validated on the way back from the
/// on-disk format (see [`crate::interp::codec`]).
pub trait SnapLayer: Sized {
    /// Leading bytes of this layer's snapshot files.
    const MAGIC: &'static [u8; 8];
    /// The golden run's result.
    type Golden: Debug;
    /// Per-snapshot machine state beyond the shared counters and pages.
    type State: Debug;
    /// First-entry `dyn_insts` table (`u64::MAX` = never reached).
    type Entry: Debug;
    /// What a decoded file is validated against: the program it was
    /// captured from.
    type Ctx<'a>: Copy;

    /// The module whose globals seed the base memory image.
    fn module<'a>(ctx: Self::Ctx<'a>) -> &'a Module;
    fn put_golden(w: &mut Vec<u8>, golden: &Self::Golden);
    fn read_golden(c: &mut Cursor, ctx: Self::Ctx<'_>) -> Result<Self::Golden, String>;
    fn put_entry(w: &mut Vec<u8>, entry: &Self::Entry);
    fn read_entry(c: &mut Cursor, ctx: Self::Ctx<'_>) -> Result<Self::Entry, String>;
    fn put_state(w: &mut Vec<u8>, state: &Self::State);
    fn read_state(c: &mut Cursor, ctx: Self::Ctx<'_>, golden: &Self::Golden) -> Result<Self::State, String>;
}

/// One point-in-time capture.
///
/// `pages` is cumulative: it holds every page dirtied since program start,
/// so a restore is `base + pages`, never a walk over earlier snapshots.
/// Pages are `Arc`-shared across snapshots — each snapshot only pays for
/// pages dirtied since the previous one.
#[derive(Debug)]
pub struct Snapshot<L: SnapLayer> {
    /// Dynamic instructions executed before this point (absolute).
    pub dyn_insts: u64,
    /// Fault sites executed before this point (absolute). The site with
    /// this index has *not* yet executed.
    pub fault_sites: u64,
    /// Cumulative dirty-page overlay against the base image.
    pub pages: PageMap,
    /// The layer's machine state at this point.
    pub state: L::State,
}

/// All snapshots from one golden run, plus what a restore needs: the
/// pristine post-init memory image and the golden result. Built once per
/// cached golden, shared read-only across worker threads.
#[derive(Debug)]
pub struct SnapshotSet<L: SnapLayer> {
    pub(crate) base: Memory,
    pub(crate) golden: L::Golden,
    pub(crate) cadence: Cadence,
    pub(crate) snaps: Vec<Snapshot<L>>,
    /// First-entry table recorded by fresh captures; `None` for sets built
    /// by shared-prefix continuation, which therefore cannot themselves
    /// seed further sharing.
    pub(crate) entry: Option<L::Entry>,
    /// Leading snapshots `Arc`-shared with the raw set this set was derived
    /// from (0 for fresh captures).
    pub(crate) shared_snaps: usize,
}

impl<L: SnapLayer> SnapshotSet<L> {
    /// The fault-free result of the capture run.
    pub fn golden(&self) -> &L::Golden {
        &self.golden
    }

    /// Snapshot cadence in dynamic instructions or fault sites.
    pub fn cadence(&self) -> Cadence {
        self.cadence
    }

    /// Numeric cadence spacing (see [`Cadence::value`]).
    pub fn interval(&self) -> u64 {
        self.cadence.value()
    }

    /// Number of captured snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True when no snapshot was captured (program shorter than interval).
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Leading snapshots shared with the raw variant's set.
    pub fn shared_snaps(&self) -> usize {
        self.shared_snaps
    }

    /// True when the set was captured under the given memory geometry —
    /// restoring into a differently-sized image would be unsound, so
    /// callers holding a deserialized set must check before attaching it.
    pub fn matches_geometry(&self, mem_size: u64, stack_size: u64) -> bool {
        self.base.size() == mem_size && self.base.stack_limit() == mem_size - stack_size
    }

    /// The pristine post-init memory image every overlay applies to.
    pub fn base(&self) -> &Memory {
        &self.base
    }

    /// The snapshots, in capture order.
    pub fn snaps(&self) -> &[Snapshot<L>] {
        &self.snaps
    }

    /// The first-entry table, when this set was a fresh capture.
    pub fn first_entry(&self) -> Option<&L::Entry> {
        self.entry.as_ref()
    }

    /// The last snapshot whose fault-site counter has not yet passed
    /// `site_index` — i.e. the injection site is still in the future.
    pub fn nearest(&self, site_index: u64) -> Option<&Snapshot<L>> {
        let i = self.snaps.partition_point(|s| s.fault_sites <= site_index);
        i.checked_sub(1).map(|i| &self.snaps[i])
    }
}

/// Capture-side hook threaded through a golden run.
pub struct SnapshotRecorder<L: SnapLayer> {
    cadence: Cadence,
    next: u64,
    budget: Option<u64>,
    /// Snapshot-count cap for self-tuning captures; `None` preserves the
    /// caller's explicit cadence exactly (only the byte budget may widen).
    max_snaps: Option<usize>,
    pages: PageRecorder,
    /// `None` on continuation captures (the shared prefix's entries are
    /// unknown in variant terms).
    entry: Option<L::Entry>,
    snaps: Vec<Snapshot<L>>,
    /// Continuation captures: the divergence point at or below which
    /// snapshots are the shared prefix.
    shared_upto: Option<u64>,
}

impl<L: SnapLayer> SnapshotRecorder<L> {
    /// A recorder for a fresh capture, filling `entry` (all `u64::MAX`) as
    /// the run first reaches each entry point.
    pub fn new(entry: L::Entry, cadence: Cadence, budget: Option<u64>, max_snaps: Option<usize>) -> Self {
        assert!(cadence.value() > 0, "snapshot cadence must be positive");
        SnapshotRecorder {
            cadence,
            next: cadence.value(),
            budget,
            max_snaps,
            pages: PageRecorder::new(),
            entry: Some(entry),
            snaps: Vec::new(),
            shared_upto: None,
        }
    }

    /// A recorder that continues capturing after a translated shared prefix:
    /// `snaps` are the prefix snapshots (all at or below the divergence
    /// point `diverge`), the cumulative overlay starts from the last of
    /// them, and the next capture is scheduled one cadence step past it.
    /// First entries are not recorded (the prefix's are unknown).
    pub fn from_shared(cadence: Cadence, budget: Option<u64>, snaps: Vec<Snapshot<L>>, diverge: u64) -> Self {
        assert!(cadence.value() > 0, "snapshot cadence must be positive");
        let last = snaps.last().expect("shared prefix must be nonempty");
        SnapshotRecorder {
            cadence,
            next: cadence.next_after(last.dyn_insts, last.fault_sites),
            budget,
            max_snaps: None,
            pages: PageRecorder::from_overlay(&last.pages),
            entry: None,
            snaps,
            shared_upto: Some(diverge),
        }
    }

    /// Called at the top of the dispatch loop, before the next instruction.
    pub fn due(&self, dyn_insts: u64, fault_sites: u64) -> bool {
        match self.cadence {
            Cadence::Insts(_) => dyn_insts >= self.next,
            Cadence::Sites(_) => fault_sites >= self.next,
        }
    }

    /// Record a first entry: `slot` picks the table cell, which keeps the
    /// earliest `dyn_insts` (snapshot-hook convention: the entered code has
    /// not yet started).
    #[inline]
    pub fn note_first(&mut self, dyn_insts: u64, slot: impl FnOnce(&mut L::Entry) -> &mut u64) {
        if let Some(entry) = self.entry.as_mut() {
            let slot = slot(entry);
            if *slot == u64::MAX {
                *slot = dyn_insts;
            }
        }
    }

    pub fn capture(&mut self, dyn_insts: u64, fault_sites: u64, state: L::State, mem: &mut Memory) {
        let pages = self.pages.sync(mem);
        self.snaps.push(Snapshot { dyn_insts, fault_sites, pages, state });
        while self.budget.is_some_and(|b| self.pages.live_bytes() > b) && self.snaps.len() > 1 {
            self.widen();
        }
        while self.max_snaps.is_some_and(|m| self.snaps.len() > m) && self.snaps.len() > 1 {
            self.widen();
        }
        self.next = self.cadence.next_after(dyn_insts, fault_sites);
    }

    /// Double the cadence and keep every other snapshot (starting with the
    /// first, so early injection sites keep a nearby restore point).
    /// Store-heavy runs that rewrite their working set faster than the
    /// budget allows may widen repeatedly; only the page copies freed by
    /// the dropped snapshots are reclaimed, so the floor is the final
    /// overlay itself.
    fn widen(&mut self) {
        self.cadence = self.cadence.widened();
        let mut keep = false;
        self.snaps.retain(|_| {
            keep = !keep;
            keep
        });
    }

    /// The finished set. Its cadence is the one after any widening, so the
    /// reported spacing matches the snapshots it actually holds.
    pub fn finish(self, base: Memory, golden: L::Golden) -> SnapshotSet<L> {
        let shared_snaps = self
            .shared_upto
            .map_or(0, |d| self.snaps.iter().take_while(|s| s.dyn_insts <= d).count());
        SnapshotSet {
            base,
            golden,
            cadence: self.cadence,
            snaps: self.snaps,
            entry: self.entry,
            shared_snaps,
        }
    }
}

/// The IR layer (see [`IrState`]).
#[derive(Debug)]
pub enum IrLayer {}

/// IR-layer machine state at a snapshot.
#[derive(Debug)]
pub struct IrState {
    /// Stack pointer.
    pub(crate) sp: u64,
    /// Output bytes emitted so far; the bytes themselves are a prefix of
    /// the golden output and are restored from there.
    pub(crate) output_len: usize,
    /// The call stack, deep-cloned.
    pub(crate) stack: Vec<Frame>,
    /// Profile accumulator at this point, when the capture run profiled.
    /// Restoring it is what lets profiled campaigns fast-forward.
    pub(crate) profile: Option<Profile>,
}

pub type IrSnapshot = Snapshot<IrLayer>;
/// IR snapshot set; its first-entry table is `block_entry[func][block]`.
pub type IrSnapshotSet = SnapshotSet<IrLayer>;
pub(crate) type IrRecorder = SnapshotRecorder<IrLayer>;

impl IrRecorder {
    /// Record the first entry into `block` (a jump/branch target, a
    /// callee's entry block, or `main`'s entry).
    #[inline]
    pub(crate) fn note_entry(&mut self, func: FuncId, block: BlockId, dyn_insts: u64) {
        self.note_first(dyn_insts, |e| &mut e[func.index()][block.index()]);
    }
}

/// Per-worker reusable buffers for trial execution: the scratch memory
/// image (reset via dirty-page reverts, never reallocated), the output
/// buffer, and a pool of frame value/param vectors.
#[derive(Default)]
pub struct IrScratch {
    pub(crate) mem: Option<Memory>,
    pub(crate) output: Vec<u8>,
    pub(crate) pool: FramePool,
}

impl IrScratch {
    pub fn new() -> IrScratch {
        IrScratch::default()
    }

    /// Hand a trial's output buffer back for reuse once it has been
    /// classified (the `ExecResult` no longer needs it).
    pub fn recycle_output(&mut self, mut output: Vec<u8>) {
        output.clear();
        self.output = output;
    }
}
