//! The evaluation engine: an explicit-stack interpreter over verified IR.

use crate::inst::{Callee, InstKind, Intrinsic, Terminator};
use crate::interp::memory::{align_up, Memory, PageMap, TrapKind, GLOBAL_BASE, PAGE_SIZE};
use crate::interp::ops;
use crate::interp::prefix;
use crate::interp::snapshot::{Cadence, IrRecorder, IrScratch, IrSnapshot, IrSnapshotSet, IrState};
use crate::interp::snapshot::{AUTO_MAX_SNAPS, AUTO_SITE_CADENCE};
use crate::interp::{ExecConfig, ExecResult, ExecStatus, FaultEffect, FaultSpec, Profile, TAG_BYTE, TAG_F64, TAG_I64};
use crate::module::Module;
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Op, Value};

/// One activation record. `Clone` deep-copies the value/param vectors —
/// used when a snapshot captures the call stack.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    /// Index of the next instruction within the block.
    pub(crate) ip: usize,
    /// Result slots, one per instruction-arena entry (canonical bits).
    pub(crate) values: Vec<u64>,
    /// Parameter values.
    pub(crate) params: Vec<u64>,
    /// Stack pointer to restore when this frame returns.
    pub(crate) saved_sp: u64,
    /// Instruction in the *caller* that receives the return value.
    pub(crate) ret_dest: Option<InstId>,
}

/// Recycles frame value/param buffers (and the stack vector itself) across
/// calls and across trials, so steady-state execution allocates nothing.
#[derive(Default)]
pub(crate) struct FramePool {
    bufs: Vec<Vec<u64>>,
    stacks: Vec<Vec<Frame>>,
}

impl FramePool {
    /// An empty buffer, reusing a retired one when available.
    fn take_buf(&mut self) -> Vec<u64> {
        let mut v = self.bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A zero-filled buffer of length `n`.
    fn take_zeroed(&mut self, n: usize) -> Vec<u64> {
        let mut v = self.take_buf();
        v.resize(n, 0);
        v
    }

    /// A copy of `src` in a recycled buffer.
    fn take_copy(&mut self, src: &[u64]) -> Vec<u64> {
        let mut v = self.take_buf();
        v.extend_from_slice(src);
        v
    }

    fn free_frame(&mut self, f: Frame) {
        self.bufs.push(f.values);
        self.bufs.push(f.params);
    }

    fn take_stack(&mut self) -> Vec<Frame> {
        self.stacks.pop().unwrap_or_default()
    }

    fn free_stack(&mut self, mut s: Vec<Frame>) {
        for f in s.drain(..) {
            self.free_frame(f);
        }
        self.stacks.push(s);
    }

    /// Deep-copy a snapshot's call stack into recycled buffers.
    pub(crate) fn clone_stack(&mut self, src: &[Frame]) -> Vec<Frame> {
        let mut s = self.take_stack();
        for f in src {
            let values = self.take_copy(&f.values);
            let params = self.take_copy(&f.params);
            s.push(Frame { values, params, ..*f });
        }
        s
    }
}

/// Everything mutable a run starts from — either fresh program state or a
/// restored snapshot. All counters are absolute, which is what makes
/// restored runs bit-identical to scratch runs.
struct ExecInit {
    mem: Memory,
    sp: u64,
    output: Vec<u8>,
    dyn_insts: u64,
    fault_sites: u64,
    stack: Vec<Frame>,
    /// Profile accumulator restored from a snapshot (`None` starts fresh).
    profile: Option<Profile>,
}

impl ExecInit {
    /// The state a run resumes from at `snap`: `mem` already reset to its
    /// overlay, the golden output up to it (into the recycled `output`
    /// buffer), its stack cloned into `pool` buffers, and `profile`.
    fn resume(
        snap: &IrSnapshot,
        mem: Memory,
        mut output: Vec<u8>,
        golden_output: &[u8],
        pool: &mut FramePool,
        profile: Option<Profile>,
    ) -> ExecInit {
        output.extend_from_slice(&golden_output[..snap.state.output_len]);
        ExecInit {
            mem,
            sp: snap.state.sp,
            output,
            dyn_insts: snap.dyn_insts,
            fault_sites: snap.fault_sites,
            stack: pool.clone_stack(&snap.state.stack),
            profile,
        }
    }
}

/// Interpreter for one module. Reusable across runs; each [`Interpreter::run`]
/// call builds fresh memory.
pub struct Interpreter<'m> {
    module: &'m Module,
    global_addrs: Vec<u64>,
}

impl<'m> Interpreter<'m> {
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter { module, global_addrs: Memory::layout_globals(module) }
    }

    /// Execute `main` to completion under `config`, optionally injecting a
    /// fault.
    pub fn run(&self, config: &ExecConfig, fault: Option<FaultSpec>) -> ExecResult {
        let mut pool = FramePool::default();
        let mem = Memory::new(self.module, config.mem_size, config.stack_size);
        let init = self.fresh_init(mem, Vec::new(), &mut pool);
        self.exec(config, fault, init, None, &mut pool).0
    }

    /// Like [`Interpreter::run`], but reuses `scratch`'s output buffer and
    /// frame pool across trials. Memory is still built fresh — only the
    /// snapshot path ([`Interpreter::run_fast_forward`]) can reuse it.
    pub fn run_scratch(&self, config: &ExecConfig, fault: Option<FaultSpec>, scratch: &mut IrScratch) -> ExecResult {
        let mem = Memory::new(self.module, config.mem_size, config.stack_size);
        let output = std::mem::take(&mut scratch.output);
        let init = self.fresh_init(mem, output, &mut scratch.pool);
        self.exec(config, fault, init, None, &mut scratch.pool).0
    }

    /// One fault-free run that captures a snapshot every `interval` dynamic
    /// instructions (see [`crate::interp::snapshot::auto_interval`]).
    /// Honors `config.profile`: each snapshot then carries the profile
    /// accumulator at that point, so profiled campaigns fast-forward too.
    pub fn capture_snapshots(&self, config: &ExecConfig, interval: u64) -> IrSnapshotSet {
        self.capture_with(config, Cadence::Insts(interval), None)
    }

    /// Self-tuning capture: snapshots every [`AUTO_SITE_CADENCE`] fault
    /// sites (trials sample sites uniformly, so site spacing puts restore
    /// points where trials land — sites cluster late in duplicated code),
    /// with the cadence doubling whenever the set would exceed
    /// [`AUTO_MAX_SNAPS`] snapshots. One run regardless of program length.
    pub fn capture_snapshots_auto(&self, config: &ExecConfig) -> IrSnapshotSet {
        self.capture_with(config, Cadence::Sites(AUTO_SITE_CADENCE), Some(AUTO_MAX_SNAPS))
    }

    fn capture_with(&self, config: &ExecConfig, cadence: Cadence, max_snaps: Option<usize>) -> IrSnapshotSet {
        let base = Memory::new(self.module, config.mem_size, config.stack_size);
        let mut pool = FramePool::default();
        let entry = self.module.functions.iter().map(|f| vec![u64::MAX; f.blocks.len()]).collect();
        let mut rec = IrRecorder::new(entry, cadence, config.snapshot_budget, max_snaps);
        let init = self.fresh_init(base.clone(), Vec::new(), &mut pool);
        let (golden, _mem) = self.exec(config, None, init, Some(&mut rec), &mut pool);
        rec.finish(base, golden)
    }

    /// Build this (variant) module's snapshot set by *sharing* the golden
    /// prefix of `raw_set`, a fresh capture of the `raw` module the variant
    /// was derived from. The raw capture's per-block first-entry profile
    /// pins down the first dynamic instruction at which the two golden
    /// traces can diverge; every raw snapshot at-or-before that point is a
    /// valid variant snapshot (pages `Arc`-shared, value arrays zero-padded
    /// to the variant's arena), and one suffix-only run from the last of
    /// them produces the variant's golden result and its remaining
    /// snapshots. Returns `None` when nothing is shareable — profiling
    /// requested (accumulators are arena-shaped), incompatible configs or
    /// module shells, divergence before the first snapshot — in which case
    /// the caller should fall back to a full capture.
    pub fn capture_snapshots_from(
        &self,
        config: &ExecConfig,
        raw: &Module,
        raw_set: &IrSnapshotSet,
    ) -> Option<IrSnapshotSet> {
        if config.profile {
            return None;
        }
        if !raw_set.matches_geometry(config.mem_size, config.stack_size) {
            return None;
        }
        let entry = raw_set.first_entry()?;
        let d = prefix::divergence_dyn(raw, self.module, entry)?;
        let mut shared = Vec::new();
        for s in raw_set.snaps.iter().take_while(|s| s.dyn_insts <= d) {
            shared.push(IrSnapshot {
                dyn_insts: s.dyn_insts,
                fault_sites: s.fault_sites,
                pages: s.pages.clone(),
                state: IrState {
                    sp: s.state.sp,
                    output_len: s.state.output_len,
                    stack: prefix::translate_stack(&s.state.stack, self.module)?,
                    profile: None,
                },
            });
        }
        if shared.is_empty() {
            return None;
        }
        // The variant may append globals (Flowery's expect/guard cells) in
        // [raw_end, var_end). Those bytes hold their initializers below the
        // divergence point, but a raw overlay page covering them carries
        // raw heap bytes (zeros) instead — restoring it would wipe the
        // variant's initializers, so such sets cannot be shared.
        let raw_end = Memory::globals_end(raw);
        let var_end = Memory::globals_end(self.module);
        if var_end > raw_end {
            let lo = (raw_end / PAGE_SIZE) as u32;
            let hi = ((var_end - 1) / PAGE_SIZE) as u32;
            if shared.last().unwrap().pages.keys().any(|&p| (lo..=hi).contains(&p)) {
                return None;
            }
        }
        let base = Memory::new(self.module, config.mem_size, config.stack_size);
        let last = shared.last().unwrap();
        let mut mem = base.clone();
        mem.reset_to(&base, &last.pages);
        // The overlay pages already live in the recorder's cumulative map;
        // clear the dirty marks `reset_to` left so the first sync does not
        // re-copy them (which would break `Arc` sharing with the raw set).
        mem.drain_dirty_pages();
        let mut pool = FramePool::default();
        let output = Vec::with_capacity(raw_set.golden.output.len());
        let init = ExecInit::resume(last, mem, output, &raw_set.golden.output, &mut pool, None);
        let mut rec = IrRecorder::from_shared(raw_set.cadence, config.snapshot_budget, shared, d);
        let (golden, _mem) = self.exec(config, None, init, Some(&mut rec), &mut pool);
        Some(rec.finish(base, golden))
    }

    /// Run one faulty trial, restoring the nearest snapshot at-or-before
    /// the injection site instead of executing the golden prefix. Returns
    /// the result plus the number of dynamic instructions skipped.
    ///
    /// The result is bit-identical to `run(config, Some(fault))`.
    pub fn run_fast_forward(
        &self,
        config: &ExecConfig,
        fault: FaultSpec,
        set: &IrSnapshotSet,
        scratch: &mut IrScratch,
    ) -> (ExecResult, u64) {
        let mut mem = scratch
            .mem
            .take()
            .filter(|m| m.size() == set.base.size())
            .unwrap_or_else(|| set.base.clone());
        let mut output = std::mem::take(&mut scratch.output);
        output.clear();
        // A profiled trial can only restore a snapshot that carries the
        // profile accumulator; otherwise fall back to a scratch start.
        // Scoped faults index a region-local site counter, which snapshot
        // restore points (keyed by the global counter) cannot seed — they
        // always start from scratch.
        let snap = if fault.scope.is_none() {
            set.nearest(fault.site_index)
        } else {
            None
        };
        let init = match snap {
            Some(snap) if !config.profile || snap.state.profile.is_some() => {
                mem.reset_to(&set.base, &snap.pages);
                let profile = if config.profile { snap.state.profile.clone() } else { None };
                ExecInit::resume(snap, mem, output, &set.golden.output, &mut scratch.pool, profile)
            }
            _ => {
                // Site earlier than the first snapshot: run from the start,
                // but still reuse the scratch image via a dirty-page reset.
                mem.reset_to(&set.base, &PageMap::new());
                self.fresh_init(mem, output, &mut scratch.pool)
            }
        };
        let skipped = init.dyn_insts;
        let (res, mem) = self.exec(config, Some(fault), init, None, &mut scratch.pool);
        scratch.mem = Some(mem);
        (res, skipped)
    }

    fn fresh_init(&self, mem: Memory, mut output: Vec<u8>, pool: &mut FramePool) -> ExecInit {
        let main = self.module.main_func().expect("module has no @main");
        let sp = mem.initial_sp();
        output.clear();
        let mut stack = pool.take_stack();
        stack.push(Frame {
            func: main,
            block: BlockId(0),
            ip: 0,
            values: pool.take_zeroed(self.module.func(main).insts.len()),
            params: pool.take_buf(),
            saved_sp: sp,
            ret_dest: None,
        });
        ExecInit {
            mem,
            sp,
            output,
            dyn_insts: 0,
            fault_sites: 0,
            stack,
            profile: None,
        }
    }

    /// The dispatch loop. Starts from `init` (fresh or restored), optionally
    /// capturing snapshots into `recorder`. Returns the result plus the
    /// memory image so callers can recycle it.
    fn exec(
        &self,
        config: &ExecConfig,
        fault: Option<FaultSpec>,
        init: ExecInit,
        mut recorder: Option<&mut IrRecorder>,
        pool: &mut FramePool,
    ) -> (ExecResult, Memory) {
        let ExecInit {
            mut mem,
            mut sp,
            mut output,
            mut dyn_insts,
            mut fault_sites,
            mut stack,
            profile: init_profile,
        } = init;
        let mut injected_at: Option<(FuncId, InstId)> = None;
        // Region-local site counter for scoped faults (see `FaultSpec::scope`).
        let mut scope_sites: u64 = 0;
        let mut profile = init_profile.or_else(|| {
            config.profile.then(|| Profile {
                counts: self.module.functions.iter().map(|f| vec![0u64; f.insts.len()]).collect(),
            })
        });

        // A fresh capture run records the entry of `main`'s first block.
        if dyn_insts == 0 {
            if let (Some(rec), Some(f)) = (recorder.as_deref_mut(), stack.last()) {
                rec.note_entry(f.func, f.block, 0);
            }
        }

        let status = 'exec: loop {
            // ---- snapshot hook: state here is "dyn_insts executed, the
            // instruction with index dyn_insts not yet started" -----------
            if let Some(rec) = recorder.as_deref_mut() {
                if rec.due(dyn_insts, fault_sites) {
                    let state = IrState {
                        sp,
                        output_len: output.len(),
                        stack: stack.to_vec(),
                        profile: profile.clone(),
                    };
                    rec.capture(dyn_insts, fault_sites, state, &mut mem);
                }
            }

            dyn_insts += 1;
            if dyn_insts > config.max_dyn_insts {
                break 'exec ExecStatus::Trapped(TrapKind::InstLimit);
            }

            let depth = stack.len();
            let frame = stack.last_mut().expect("nonempty call stack");
            let func = self.module.func(frame.func);
            let block = func.block(frame.block);

            if frame.ip < block.insts.len() {
                // ---- ordinary instruction ----------------------------------
                let iid = block.insts[frame.ip];
                frame.ip += 1;
                if let Some(p) = profile.as_mut() {
                    p.counts[frame.func.index()][iid.index()] += 1;
                }
                let inst = func.inst(iid);

                // Pre-read operands (borrow rules: frame is &mut).
                macro_rules! opv {
                    ($op:expr) => {
                        self.op_value(frame, $op)
                    };
                }

                let result: Option<u64> = match &inst.kind {
                    InstKind::Alloca { elem, count } => {
                        let bytes = elem.size() * *count as u64;
                        sp = sp.saturating_sub(bytes);
                        sp &= !(elem.align() - 1);
                        if sp < mem.stack_limit() {
                            break 'exec ExecStatus::Trapped(TrapKind::StackOverflow);
                        }
                        Some(sp)
                    }
                    InstKind::Load { ptr, ty } => {
                        let addr = opv!(*ptr);
                        match mem.load_ty(addr, *ty) {
                            Ok(v) => Some(v),
                            Err(t) => break 'exec ExecStatus::Trapped(t),
                        }
                    }
                    InstKind::Store { val, ptr, ty } => {
                        let v = opv!(*val);
                        let addr = opv!(*ptr);
                        if let Err(t) = mem.store_ty(addr, *ty, v) {
                            break 'exec ExecStatus::Trapped(t);
                        }
                        None
                    }
                    InstKind::Bin { op, ty, lhs, rhs } => {
                        let (a, b) = (opv!(*lhs), opv!(*rhs));
                        match ops::eval_bin(*op, *ty, a, b) {
                            Ok(v) => Some(v),
                            Err(t) => break 'exec ExecStatus::Trapped(t),
                        }
                    }
                    InstKind::ICmp { pred, ty, lhs, rhs } => Some(ops::eval_icmp(*pred, *ty, opv!(*lhs), opv!(*rhs))),
                    InstKind::FCmp { pred, ty, lhs, rhs } => Some(ops::eval_fcmp(*pred, *ty, opv!(*lhs), opv!(*rhs))),
                    InstKind::Cast { kind, from, to, val } => Some(ops::eval_cast(*kind, *from, *to, opv!(*val))),
                    InstKind::Gep { base, index, elem } => {
                        let b = opv!(*base);
                        let i = opv!(*index) as i64;
                        Some(b.wrapping_add_signed(i.wrapping_mul(elem.size() as i64)))
                    }
                    InstKind::Select { cond, t, f, .. } => Some(if opv!(*cond) & 1 == 1 { opv!(*t) } else { opv!(*f) }),
                    InstKind::Call { callee, args } => match callee {
                        Callee::Intrinsic(intr) => match intr {
                            Intrinsic::OutputI64 => {
                                output.push(TAG_I64);
                                output.extend_from_slice(&opv!(args[0]).to_le_bytes());
                                if output.len() > config.max_output {
                                    break 'exec ExecStatus::Trapped(TrapKind::OutputFlood);
                                }
                                None
                            }
                            Intrinsic::OutputF64 => {
                                output.push(TAG_F64);
                                output.extend_from_slice(&opv!(args[0]).to_le_bytes());
                                if output.len() > config.max_output {
                                    break 'exec ExecStatus::Trapped(TrapKind::OutputFlood);
                                }
                                None
                            }
                            Intrinsic::OutputByte => {
                                output.push(TAG_BYTE);
                                output.push(opv!(args[0]) as u8);
                                if output.len() > config.max_output {
                                    break 'exec ExecStatus::Trapped(TrapKind::OutputFlood);
                                }
                                None
                            }
                            Intrinsic::DetectError => break 'exec ExecStatus::Detected,
                            math => {
                                let vals: Vec<u64> = args.iter().map(|a| opv!(*a)).collect();
                                Some(ops::eval_math(*math, &vals))
                            }
                        },
                        Callee::Func(callee_id) => {
                            // Push a frame; the call instruction id receives the
                            // return value when the callee returns.
                            if depth >= config.max_call_depth {
                                break 'exec ExecStatus::Trapped(TrapKind::CallDepth);
                            }
                            let callee = *callee_id;
                            let has_ret = self.module.func(callee).ret_ty.is_some();
                            let mut params = pool.take_buf();
                            for a in args {
                                params.push(opv!(*a));
                            }
                            let values = pool.take_zeroed(self.module.func(callee).insts.len());
                            let new_frame = Frame {
                                func: callee,
                                block: BlockId(0),
                                ip: 0,
                                values,
                                params,
                                saved_sp: sp,
                                ret_dest: has_ret.then_some(iid),
                            };
                            stack.push(new_frame);
                            if let Some(rec) = recorder.as_deref_mut() {
                                rec.note_entry(callee, BlockId(0), dyn_insts);
                            }
                            continue 'exec; // do not fall through to result write
                        }
                    },
                };

                if let Some(mut v) = result {
                    let fr_func = stack.last().unwrap().func;
                    let ty = self.module.result_ty(fr_func, iid).expect("instruction with result has a type");
                    // ---- fault injection hook (IR level) -------------------
                    // LLFI-style site selection: only *compute* results are
                    // fault sites. `alloca` addresses are excluded (frame
                    // bookkeeping, not datapath), as are function-call
                    // returns (handled at `Ret`, also excluded) — matching
                    // the instruction-duplication literature's fault model.
                    let is_site = !matches!(self.module.func(fr_func).inst(iid).kind, InstKind::Alloca { .. });
                    let inject_now = is_site
                        && fault.is_some_and(|spec| match spec.scope {
                            None => fault_sites == spec.site_index,
                            Some(f) => f == fr_func && scope_sites == spec.site_index,
                        });
                    if inject_now {
                        let spec = fault.unwrap();
                        injected_at = Some((fr_func, iid));
                        match spec.effect {
                            FaultEffect::Bits => {
                                v ^= 1u64 << (spec.bit % ty.bits());
                                if let Some(b2) = spec.second_bit {
                                    v ^= 1u64 << (b2 % ty.bits());
                                }
                            }
                            FaultEffect::Burst { width } => {
                                for k in 0..width as u32 {
                                    v ^= 1u64 << ((spec.bit + k) % ty.bits());
                                }
                            }
                            // Condition corruption: the low bit is the one
                            // branches and selects consume.
                            FaultEffect::Flags => v ^= 1,
                            FaultEffect::Mem { offset } => {
                                // The result is intact; a memory cell at a
                                // deterministic address takes the hit.
                                let (lo, hi) = mem_fault_region(self.module, &mem);
                                let addr = lo + offset % (hi - lo);
                                if let Ok(b) = mem.load(addr, 1) {
                                    let _ = mem.store(addr, 1, b ^ (1u64 << (spec.bit % 8)));
                                }
                            }
                            // Applied after the result write, below.
                            FaultEffect::Jump { .. } => {}
                        }
                        v = ty.canon(v);
                    }
                    if is_site {
                        fault_sites += 1;
                        if fault.is_some_and(|spec| spec.scope == Some(fr_func)) {
                            scope_sites += 1;
                        }
                    }
                    let fr = stack.last_mut().unwrap();
                    fr.values[iid.index()] = ty.canon(v);
                    if inject_now {
                        if let Some(FaultSpec { effect: FaultEffect::Jump { target }, .. }) = fault {
                            // Control-flow edge corruption: the (intact)
                            // result is written, then control lands at the
                            // head of an arbitrary block of this function.
                            let fr = stack.last_mut().unwrap();
                            let nblocks = self.module.func(fr.func).blocks.len() as u64;
                            fr.block = BlockId((target % nblocks) as u32);
                            fr.ip = 0;
                        }
                    }
                }
            } else {
                // ---- terminator --------------------------------------------
                match &block.term {
                    Terminator::Jmp { dest } => {
                        frame.block = *dest;
                        frame.ip = 0;
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.note_entry(frame.func, *dest, dyn_insts);
                        }
                    }
                    Terminator::Br { cond, then_bb, else_bb } => {
                        let c = self.op_value(frame, *cond);
                        let dest = if c & 1 == 1 { *then_bb } else { *else_bb };
                        frame.block = dest;
                        frame.ip = 0;
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.note_entry(frame.func, dest, dyn_insts);
                        }
                    }
                    Terminator::Ret { val } => {
                        let rv = val.map(|v| self.op_value(frame, v));
                        let ret_dest = frame.ret_dest;
                        sp = frame.saved_sp;
                        let done = stack.pop().expect("nonempty call stack");
                        pool.free_frame(done);
                        match stack.last_mut() {
                            None => break 'exec ExecStatus::Completed(rv.unwrap_or(0)),
                            Some(caller) => {
                                if let (Some(dest), Some(v)) = (ret_dest, rv) {
                                    let ty = self
                                        .module
                                        .result_ty(caller.func, dest)
                                        .expect("call with ret_dest has result type");
                                    // The call-return write is NOT an IR
                                    // fault site (calls are not duplicable;
                                    // LLFI-style compute-only selection).
                                    caller.values[dest.index()] = ty.canon(v);
                                }
                            }
                        }
                    }
                    Terminator::Unreachable => break 'exec ExecStatus::Trapped(TrapKind::BadControl),
                }
            }
        };

        pool.free_stack(stack);
        (ExecResult { status, output, dyn_insts, fault_sites, injected_at, profile }, mem)
    }

    /// Count fault sites and dynamic instructions of a fault-free run.
    pub fn profile_run(&self, config: &ExecConfig) -> ExecResult {
        let cfg = ExecConfig { profile: true, ..config.clone() };
        self.run(&cfg, None)
    }

    fn op_value(&self, frame: &Frame, op: Op) -> u64 {
        match op {
            Op::Const(c) => c.bits(),
            Op::Global(g) => self.global_addrs[g.index()],
            Op::Value(Value::Param(p)) => frame.params[p as usize],
            Op::Value(Value::Inst(i)) => frame.values[i.index()],
        }
    }
}

/// The address range memory-cell faults land in: the globals segment when
/// the module has one, else the stack segment. Both are a pure function of
/// the module and memory geometry, so the same spec flips the same cell
/// whether a trial runs from scratch or from a restored snapshot.
pub(crate) fn mem_fault_region(module: &Module, mem: &Memory) -> (u64, u64) {
    let globals_end = Memory::globals_end(module);
    if globals_end > GLOBAL_BASE {
        (GLOBAL_BASE, globals_end)
    } else {
        (mem.stack_limit(), mem.size())
    }
}

/// Frame-size helper used by tests to sanity check alloca alignment.
#[allow(dead_code)]
fn frame_bytes(elem: Type, count: u64) -> u64 {
    align_up(elem.size() * count, elem.align())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::inst::{BinOp, IPred};
    use crate::verify::verify_module;

    /// Build: main() { s = 0; for i in 0..10 { s += i } ; output_i64(s); ret s }
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("loop");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let s = fb.alloca(Type::I64, 1);
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(s));
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);
        fb.switch_to(header);
        let iv = fb.load(Type::I64, Op::inst(i));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(10));
        fb.br(Op::inst(c), body, exit);
        fb.switch_to(body);
        let sv = fb.load(Type::I64, Op::inst(s));
        let iv2 = fb.load(Type::I64, Op::inst(i));
        let ns = fb.bin(BinOp::Add, Type::I64, Op::inst(sv), Op::inst(iv2));
        fb.store(Type::I64, Op::inst(ns), Op::inst(s));
        let ni = fb.bin(BinOp::Add, Type::I64, Op::inst(iv2), Op::ci64(1));
        fb.store(Type::I64, Op::inst(ni), Op::inst(i));
        fb.jmp(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, Op::inst(s));
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    #[test]
    fn loop_sums_correctly() {
        let m = loop_module();
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(45));
        assert_eq!(crate::interp::decode_output(&r.output), vec!["i64:45"]);
        assert!(r.dyn_insts > 50);
        assert!(r.fault_sites > 0);
        assert!(r.fault_sites < r.dyn_insts, "stores/branches are not sites");
    }

    #[test]
    fn profile_counts_loop_body() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let r = interp.profile_run(&ExecConfig::default());
        let p = r.profile.unwrap();
        // The loop-body add executes 10 times.
        let f = FuncId(0);
        // find the Add instruction ids
        let adds: Vec<InstId> = m.functions[0]
            .insts
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.kind, InstKind::Bin { op: BinOp::Add, .. }))
            .map(|(i, _)| InstId(i as u32))
            .collect();
        for a in adds {
            assert_eq!(p.count(f, a), 10);
        }
    }

    #[test]
    fn function_calls_and_recursion() {
        // fib(n) recursive
        let mut mb = ModuleBuilder::new("fib");
        let fib = mb.declare_func("fib", vec![Type::I64], Some(Type::I64));
        let mut fb = FuncBuilder::new("fib", vec![Type::I64], Some(Type::I64));
        let base = fb.new_block("base");
        let rec = fb.new_block("rec");
        let c = fb.icmp(IPred::Slt, Type::I64, Op::param(0), Op::ci64(2));
        fb.br(Op::inst(c), base, rec);
        fb.switch_to(base);
        fb.ret(Some(Op::param(0)));
        fb.switch_to(rec);
        let n1 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(1));
        let n2 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(2));
        let f1 = fb.call(fib, vec![Op::inst(n1)]);
        let f2 = fb.call(fib, vec![Op::inst(n2)]);
        let s = fb.bin(BinOp::Add, Type::I64, Op::inst(f1), Op::inst(f2));
        fb.ret(Some(Op::inst(s)));
        mb.define_func(fib, fb.finish());

        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let r = fb.call(fib, vec![Op::ci64(10)]);
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(55));
    }

    #[test]
    fn fault_flips_result_bit() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        // Inject into the very last fault site (the final load of s), bit 1.
        let spec = FaultSpec::single(golden.fault_sites - 1, 1);
        let faulty = interp.run(&ExecConfig::default(), Some(spec));
        assert!(faulty.injected_at.is_some());
        // 45 ^ 2 = 47
        assert_eq!(faulty.status, ExecStatus::Completed(47));
        assert!(!faulty.matches_output(&golden));
    }

    #[test]
    fn fault_can_be_benign() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let golden = interp.run(&ExecConfig::default(), None);
        // Inject into the loop-exit compare's *first* execution, which only
        // affects an intermediate i; flipping a high bit of the bool (mod 1
        // bit width -> bit 0) flips the branch though. Instead flip the
        // *alloca result* high bit? That would corrupt addresses. Use a
        // benign case: flip bit of iv load at final iteration-compare; the
        // simplest reliable benign case is flipping the same site twice is
        // not possible, so instead assert that SOME site is benign.
        let mut any_benign = false;
        for site in 0..golden.fault_sites {
            let r = interp.run(&ExecConfig::default(), Some(FaultSpec::single(site, 0)));
            if r.matches_output(&golden) {
                any_benign = true;
                break;
            }
        }
        assert!(any_benign, "expected at least one benign site");
    }

    #[test]
    fn fault_in_pointer_traps() {
        // A gep result IS a fault site; flipping a high bit yields a wild
        // pointer and the access traps (DUE).
        let mut mb = ModuleBuilder::new("p");
        let g = mb.global_i64("data", &[1, 2, 3]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let p = fb.gep(Op::Global(g), Op::ci64(1), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p));
        fb.ret(Some(Op::inst(v)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), Some(FaultSpec::single(0, 60)));
        assert!(matches!(r.status, ExecStatus::Trapped(TrapKind::OobLoad)), "{:?}", r.status);
    }

    #[test]
    fn allocas_and_call_returns_are_not_fault_sites() {
        // A function whose body is nothing but allocas and a call: the only
        // sites are the callee's compute instructions.
        let mut mb = ModuleBuilder::new("s");
        let callee = mb.declare_func("f", vec![], Some(Type::I64));
        let mut fb = FuncBuilder::new("f", vec![], Some(Type::I64));
        let v = fb.bin(BinOp::Add, Type::I64, Op::ci64(1), Op::ci64(2));
        fb.ret(Some(Op::inst(v)));
        mb.define_func(callee, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let _a = fb.alloca(Type::I64, 4);
        let _b = fb.alloca(Type::I64, 4);
        let r = fb.call(callee, vec![]);
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        let res = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(res.status, ExecStatus::Completed(3));
        assert_eq!(res.fault_sites, 1, "only the callee's add is a site");
    }

    #[test]
    fn inst_limit_catches_livelock() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 20, ..Default::default() };
        let r = interp.run(&cfg, None);
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::InstLimit));
    }

    #[test]
    fn detect_error_halts_with_detected() {
        let mut mb = ModuleBuilder::new("d");
        let mut fb = FuncBuilder::new("main", vec![], None);
        fb.intrinsic(Intrinsic::DetectError, vec![]);
        fb.ret(None);
        mb.add_func(fb.finish());
        let m = mb.finish();
        let interp = Interpreter::new(&m);
        let r = interp.run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Detected);
    }

    #[test]
    fn globals_readable_and_writable() {
        let mut mb = ModuleBuilder::new("g");
        let g = mb.global_i64("data", &[7, 8, 9]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let p1 = fb.gep(Op::Global(g), Op::ci64(2), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p1));
        let p0 = fb.gep(Op::Global(g), Op::ci64(0), Type::I64);
        fb.store(Type::I64, Op::inst(v), Op::inst(p0));
        let v2 = fb.load(Type::I64, Op::inst(p0));
        fb.ret(Some(Op::inst(v2)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        verify_module(&m).unwrap();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Completed(9));
    }

    #[test]
    fn call_depth_trap() {
        let mut mb = ModuleBuilder::new("rec");
        let f = mb.declare_func("inf", vec![], None);
        let mut fb = FuncBuilder::new("inf", vec![], None);
        fb.call(f, vec![]);
        fb.ret(None);
        mb.define_func(f, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], None);
        fb.call(f, vec![]);
        fb.ret(None);
        mb.add_func(fb.finish());
        let m = mb.finish();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, ExecStatus::Trapped(TrapKind::CallDepth));
    }

    #[test]
    fn fast_forward_is_bit_identical() {
        // Every site of the loop module, restored vs scratch, tiny interval
        // so several snapshots exist.
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
        let set = interp.capture_snapshots(&cfg, 16);
        assert!(set.len() > 2, "expected several snapshots");
        let mut scratch = IrScratch::new();
        for site in 0..set.golden().fault_sites {
            for bit in [0u32, 1, 17, 63] {
                let spec = FaultSpec::single(site, bit);
                let scratch_res = interp.run(&cfg, Some(spec));
                let (ff_res, skipped) = interp.run_fast_forward(&cfg, spec, &set, &mut scratch);
                assert_eq!(ff_res.status, scratch_res.status, "site {site} bit {bit}");
                assert_eq!(ff_res.output, scratch_res.output, "site {site} bit {bit}");
                assert_eq!(ff_res.dyn_insts, scratch_res.dyn_insts, "site {site} bit {bit}");
                assert_eq!(ff_res.fault_sites, scratch_res.fault_sites, "site {site} bit {bit}");
                assert_eq!(ff_res.injected_at, scratch_res.injected_at, "site {site} bit {bit}");
                assert!(skipped <= scratch_res.dyn_insts);
                scratch.recycle_output(ff_res.output);
            }
        }
    }

    #[test]
    fn fast_forward_recursion_restores_deep_stacks() {
        // fib(12): snapshots land mid-recursion, so restore must rebuild a
        // multi-frame call stack with correct saved_sp/ret_dest chains.
        let mut mb = ModuleBuilder::new("fib");
        let fib = mb.declare_func("fib", vec![Type::I64], Some(Type::I64));
        let mut fb = FuncBuilder::new("fib", vec![Type::I64], Some(Type::I64));
        let base = fb.new_block("base");
        let rec = fb.new_block("rec");
        let c = fb.icmp(IPred::Slt, Type::I64, Op::param(0), Op::ci64(2));
        fb.br(Op::inst(c), base, rec);
        fb.switch_to(base);
        fb.ret(Some(Op::param(0)));
        fb.switch_to(rec);
        let n1 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(1));
        let n2 = fb.bin(BinOp::Sub, Type::I64, Op::param(0), Op::ci64(2));
        let f1 = fb.call(fib, vec![Op::inst(n1)]);
        let f2 = fb.call(fib, vec![Op::inst(n2)]);
        let s = fb.bin(BinOp::Add, Type::I64, Op::inst(f1), Op::inst(f2));
        fb.ret(Some(Op::inst(s)));
        mb.define_func(fib, fb.finish());
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let r = fb.call(fib, vec![Op::ci64(12)]);
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        let m = mb.finish();

        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 100_000, ..Default::default() };
        let set = interp.capture_snapshots(&cfg, 64);
        assert!(set.snaps.iter().any(|s| s.state.stack.len() > 2), "snapshots should catch deep recursion");
        let mut scratch = IrScratch::new();
        let golden = set.golden();
        for site in (0..golden.fault_sites).step_by(31) {
            let spec = FaultSpec::double(site, 3, 41);
            let scratch_res = interp.run(&cfg, Some(spec));
            let (ff_res, _) = interp.run_fast_forward(&cfg, spec, &set, &mut scratch);
            assert_eq!(ff_res.status, scratch_res.status, "site {site}");
            assert_eq!(ff_res.output, scratch_res.output, "site {site}");
            assert_eq!(ff_res.dyn_insts, scratch_res.dyn_insts, "site {site}");
            assert_eq!(ff_res.fault_sites, scratch_res.fault_sites, "site {site}");
            assert_eq!(ff_res.injected_at, scratch_res.injected_at, "site {site}");
        }
    }

    #[test]
    fn capture_golden_matches_plain_run() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig::default();
        let plain = interp.run(&cfg, None);
        let set = interp.capture_snapshots(&cfg, 32);
        assert_eq!(set.golden().status, plain.status);
        assert_eq!(set.golden().output, plain.output);
        assert_eq!(set.golden().dyn_insts, plain.dyn_insts);
        assert_eq!(set.golden().fault_sites, plain.fault_sites);
    }

    /// A loop that cycles writes through an 8-page global array, so every
    /// snapshot window rewrites pages and the overlay grows without bound
    /// unless capped.
    fn store_heavy_module(iters: i64) -> Module {
        let mut mb = ModuleBuilder::new("stores");
        let g = mb.global_i64("arr", &vec![0i64; 4096]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);
        fb.switch_to(header);
        let iv = fb.load(Type::I64, Op::inst(i));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(iters));
        fb.br(Op::inst(c), body, exit);
        fb.switch_to(body);
        let iv2 = fb.load(Type::I64, Op::inst(i));
        let idx = fb.bin(BinOp::And, Type::I64, Op::inst(iv2), Op::ci64(4095));
        let p = fb.gep(Op::Global(g), Op::inst(idx), Type::I64);
        fb.store(Type::I64, Op::inst(iv2), Op::inst(p));
        let ni = fb.bin(BinOp::Add, Type::I64, Op::inst(iv2), Op::ci64(1));
        fb.store(Type::I64, Op::inst(ni), Op::inst(i));
        fb.jmp(header);
        fb.switch_to(exit);
        let p7 = fb.gep(Op::Global(g), Op::ci64(7), Type::I64);
        let r = fb.load(Type::I64, Op::inst(p7));
        fb.output_i64(Op::inst(r));
        fb.ret(Some(Op::inst(r)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    /// Bytes of distinct page copies held across all snapshots of a set —
    /// the memory the budget bounds.
    fn overlay_bytes(set: &IrSnapshotSet) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0u64;
        for s in &set.snaps {
            for p in s.pages.values() {
                if seen.insert(std::sync::Arc::as_ptr(p)) {
                    total += p.len() as u64;
                }
            }
        }
        total
    }

    #[test]
    fn snapshot_budget_widens_cadence_on_store_heavy_runs() {
        let m = store_heavy_module(8192);
        verify_module(&m).unwrap();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 1_000_000, ..Default::default() };
        let unbounded = interp.capture_snapshots(&cfg, 256);
        assert_eq!(unbounded.interval(), 256);
        let budget = 16 * crate::interp::PAGE_SIZE; // 16 pages; the final overlay alone needs ~9
        assert!(
            overlay_bytes(&unbounded) > budget,
            "workload must be store-heavy enough to blow the budget: {} bytes",
            overlay_bytes(&unbounded)
        );

        let capped_cfg = ExecConfig { snapshot_budget: Some(budget), ..cfg.clone() };
        let capped = interp.capture_snapshots(&capped_cfg, 256);
        assert!(capped.interval() > 256, "budget pressure must widen the cadence");
        assert!(capped.len() < unbounded.len(), "{} vs {}", capped.len(), unbounded.len());
        assert!(capped.len() > 1, "widening must not degenerate to a single snapshot");
        assert!(
            overlay_bytes(&capped) <= budget,
            "{} bytes over a {budget} budget",
            overlay_bytes(&capped)
        );
        assert_eq!(capped.golden().output, unbounded.golden().output, "the budget must not perturb execution");
        assert_eq!(capped.golden().dyn_insts, unbounded.golden().dyn_insts);

        // The thinned set still fast-forwards bit-identically.
        let mut scratch = IrScratch::new();
        for site in (0..capped.golden().fault_sites).step_by(997) {
            let spec = FaultSpec::single(site, 13);
            let scratch_res = interp.run(&cfg, Some(spec));
            let (ff_res, _) = interp.run_fast_forward(&cfg, spec, &capped, &mut scratch);
            assert_eq!(ff_res.status, scratch_res.status, "site {site}");
            assert_eq!(ff_res.output, scratch_res.output, "site {site}");
            assert_eq!(ff_res.dyn_insts, scratch_res.dyn_insts, "site {site}");
            scratch.recycle_output(ff_res.output);
        }
    }

    #[test]
    fn profiled_fast_forward_matches_scratch() {
        // Capture with profiling on: every snapshot carries the accumulator,
        // and a profiled trial restored mid-run must produce counts
        // identical to a profiled scratch run — the profile_sdc path.
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { profile: true, max_dyn_insts: 10_000, ..Default::default() };
        let set = interp.capture_snapshots(&cfg, 16);
        assert!(set.len() > 2, "expected several snapshots");
        assert!(
            set.snaps.iter().all(|s| s.state.profile.is_some()),
            "profiled capture snapshots carry the accumulator"
        );
        assert!(set.golden().profile.is_some());
        let mut scratch = IrScratch::new();
        for site in 0..set.golden().fault_sites {
            let spec = FaultSpec::single(site, 5);
            let scratch_res = interp.run(&cfg, Some(spec));
            let (ff_res, skipped) = interp.run_fast_forward(&cfg, spec, &set, &mut scratch);
            assert_eq!(ff_res, scratch_res, "site {site}");
            assert!(skipped <= scratch_res.dyn_insts);
        }
        // A late site actually fast-forwards (profile restore exercised).
        let late = set.golden().fault_sites - 1;
        let (_, skipped) = interp.run_fast_forward(&cfg, FaultSpec::single(late, 0), &set, &mut scratch);
        assert!(skipped > 0, "late sites must restore a snapshot");
    }

    #[test]
    fn unprofiled_set_falls_back_for_profiled_trials() {
        // An unprofiled capture cannot serve a profiled trial from a
        // snapshot; it must fall back to scratch and still be correct.
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let plain_cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
        let prof_cfg = ExecConfig { profile: true, ..plain_cfg.clone() };
        let set = interp.capture_snapshots(&plain_cfg, 16);
        let mut scratch = IrScratch::new();
        let late = set.golden().fault_sites - 1;
        let spec = FaultSpec::single(late, 1);
        let scratch_res = interp.run(&prof_cfg, Some(spec));
        let (ff_res, skipped) = interp.run_fast_forward(&prof_cfg, spec, &set, &mut scratch);
        assert_eq!(skipped, 0, "no profile in the snapshot: must start from scratch");
        assert_eq!(ff_res, scratch_res);
    }

    #[test]
    fn auto_capture_is_site_spaced_and_capped() {
        let m = store_heavy_module(8192);
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { max_dyn_insts: 1_000_000, ..Default::default() };
        let set = interp.capture_snapshots_auto(&cfg);
        assert!(matches!(set.cadence(), Cadence::Sites(_)), "auto capture spaces by fault sites");
        assert!(set.len() <= AUTO_MAX_SNAPS, "{} snapshots over the cap", set.len());
        assert!(set.len() > AUTO_MAX_SNAPS / 4, "self-tuning should land near the cap, got {}", set.len());
        let plain = interp.run(&cfg, None);
        assert_eq!(set.golden().output, plain.output);
        assert_eq!(set.golden().dyn_insts, plain.dyn_insts);
        // Site-spaced snapshots: consecutive snapshots are close in site
        // index (within the final cadence), even where sites are sparse.
        let k = set.interval();
        for pair in set.snaps.windows(2) {
            assert!(pair[1].fault_sites - pair[0].fault_sites >= k, "cadence respected");
        }
        let mut scratch = IrScratch::new();
        for site in (0..set.golden().fault_sites).step_by(1009) {
            let spec = FaultSpec::single(site, 7);
            let scratch_res = interp.run(&cfg, Some(spec));
            let (ff_res, _) = interp.run_fast_forward(&cfg, spec, &set, &mut scratch);
            assert_eq!(ff_res, scratch_res, "site {site}");
            scratch.recycle_output(ff_res.output);
        }
    }

    /// The loop module plus a "hardened" twin built by the same builder
    /// calls with extra instructions appended in the exit block — the same
    /// arena-append shape the duplication passes produce, so the golden
    /// traces are identical until the exit block's second instruction.
    fn loop_module_variant() -> Module {
        let mut mb = ModuleBuilder::new("loop");
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let s = fb.alloca(Type::I64, 1);
        let i = fb.alloca(Type::I64, 1);
        fb.store(Type::I64, Op::ci64(0), Op::inst(s));
        fb.store(Type::I64, Op::ci64(0), Op::inst(i));
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.jmp(header);
        fb.switch_to(header);
        let iv = fb.load(Type::I64, Op::inst(i));
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(10));
        fb.br(Op::inst(c), body, exit);
        fb.switch_to(body);
        let sv = fb.load(Type::I64, Op::inst(s));
        let iv2 = fb.load(Type::I64, Op::inst(i));
        let ns = fb.bin(BinOp::Add, Type::I64, Op::inst(sv), Op::inst(iv2));
        fb.store(Type::I64, Op::inst(ns), Op::inst(s));
        let ni = fb.bin(BinOp::Add, Type::I64, Op::inst(iv2), Op::ci64(1));
        fb.store(Type::I64, Op::inst(ni), Op::inst(i));
        fb.jmp(header);
        fb.switch_to(exit);
        let r = fb.load(Type::I64, Op::inst(s));
        // Divergence: the variant doubles the result before emitting it.
        let r2 = fb.bin(BinOp::Add, Type::I64, Op::inst(r), Op::inst(r));
        fb.output_i64(Op::inst(r2));
        fb.ret(Some(Op::inst(r2)));
        mb.add_func(fb.finish());
        mb.finish()
    }

    #[test]
    fn shared_prefix_capture_matches_fresh_capture() {
        let raw = loop_module();
        let var = loop_module_variant();
        verify_module(&var).unwrap();
        let cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
        let raw_interp = Interpreter::new(&raw);
        let var_interp = Interpreter::new(&var);
        let raw_set = raw_interp.capture_snapshots(&cfg, 16);
        assert!(raw_set.len() > 2);
        let shared = var_interp
            .capture_snapshots_from(&cfg, &raw, &raw_set)
            .expect("late divergence must allow sharing");
        assert!(shared.shared_snaps() >= 1, "at least one snapshot shared below the divergence");
        assert!(shared.entry.is_none(), "continuation sets cannot seed further sharing");
        // Shared snapshots Arc-share their pages with the raw set.
        for (s, r) in shared.snaps.iter().zip(&raw_set.snaps).take(shared.shared_snaps()) {
            assert_eq!(s.dyn_insts, r.dyn_insts);
            for (k, v) in &s.pages {
                assert!(std::sync::Arc::ptr_eq(v, &r.pages[k]), "page {k} not shared");
            }
        }
        // The continuation golden equals a fresh variant run...
        let fresh = var_interp.run(&cfg, None);
        assert_eq!(shared.golden().status, fresh.status);
        assert_eq!(shared.golden().output, fresh.output);
        assert_eq!(shared.golden().dyn_insts, fresh.dyn_insts);
        assert_eq!(shared.golden().fault_sites, fresh.fault_sites);
        // ... and the variant diverges from the raw golden (i.e. this is a
        // real cross-variant case, not two identical modules).
        assert_ne!(shared.golden().output, raw_set.golden().output);
        // Every fast-forwarded trial on the shared set is bit-identical.
        let mut scratch = IrScratch::new();
        for site in 0..shared.golden().fault_sites {
            for bit in [0u32, 9, 33] {
                let spec = FaultSpec::single(site, bit);
                let scratch_res = var_interp.run(&cfg, Some(spec));
                let (ff_res, _) = var_interp.run_fast_forward(&cfg, spec, &shared, &mut scratch);
                assert_eq!(ff_res, scratch_res, "site {site} bit {bit}");
                scratch.recycle_output(ff_res.output);
            }
        }
    }

    #[test]
    fn shared_prefix_refuses_incompatible_shapes() {
        let raw = loop_module();
        let cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
        let raw_set = Interpreter::new(&raw).capture_snapshots(&cfg, 16);

        // Different globals: nothing shareable.
        let mut mb = ModuleBuilder::new("g");
        mb.global_i64("x", &[1]);
        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        fb.ret(Some(Op::ci64(0)));
        mb.add_func(fb.finish());
        let other = mb.finish();
        assert!(Interpreter::new(&other).capture_snapshots_from(&cfg, &raw, &raw_set).is_none());

        // Profiling requested: sharing declines (accumulators are arena-shaped).
        let var = loop_module_variant();
        let prof = ExecConfig { profile: true, ..cfg.clone() };
        assert!(Interpreter::new(&var).capture_snapshots_from(&prof, &raw, &raw_set).is_none());

        // Mismatched memory geometry: sharing declines.
        let small = ExecConfig { mem_size: 2 << 20, ..cfg.clone() };
        assert!(Interpreter::new(&var).capture_snapshots_from(&small, &raw, &raw_set).is_none());
    }
}
