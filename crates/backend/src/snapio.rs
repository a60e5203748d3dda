//! The assembly layer's part of the snapshot file format (see
//! `flowery_ir::interp::codec` for the shared header, page deltas and
//! checksum): magic `FLSNAPAS`, the golden [`MachResult`], the
//! first-execution table, and each snapshot's cycle count, `ip`, register
//! file, output length and optional profile — every index validated
//! against the program.

use crate::machine::MachResult;
use crate::mir::{AsmProgram, Reg};
use crate::snapshot::{AsmLayer, AsmState};
use flowery_ir::interp::codec::{put_bytes, put_opt, put_status, put_u32, put_u64, put_u64s, Cursor};
use flowery_ir::interp::snapshot::SnapLayer;
use flowery_ir::module::Module;

fn read_counts(c: &mut Cursor, program: &AsmProgram) -> Result<Option<Vec<u64>>, String> {
    c.opt("profile", |c| {
        let v = c.u64s()?;
        if v.len() != program.insts.len() {
            return Err("snapshot file: profile shape does not match program".into());
        }
        Ok(v)
    })
}

impl SnapLayer for AsmLayer {
    const MAGIC: &'static [u8; 8] = b"FLSNAPAS";
    type Golden = MachResult;
    type State = AsmState;
    /// `first_exec[ip]`.
    type Entry = Vec<u64>;
    /// The module (for the memory image) and the program captured from it.
    type Ctx<'a> = (&'a Module, &'a AsmProgram);

    fn module<'a>((m, _): Self::Ctx<'a>) -> &'a Module {
        m
    }

    fn put_golden(w: &mut Vec<u8>, r: &MachResult) {
        put_status(w, r.status);
        put_bytes(w, &r.output);
        put_u64(w, r.dyn_insts);
        put_u64(w, r.fault_sites);
        put_u64(w, r.cycles);
        put_opt(w, r.injected_inst, put_u32);
        put_opt(w, r.profile.as_deref(), put_u64s);
    }

    fn read_golden(c: &mut Cursor, (_, program): Self::Ctx<'_>) -> Result<MachResult, String> {
        Ok(MachResult {
            status: c.status()?,
            output: c.bytes()?,
            dyn_insts: c.u64()?,
            fault_sites: c.u64()?,
            cycles: c.u64()?,
            injected_inst: c.opt("injected_inst", Cursor::u32)?,
            profile: read_counts(c, program)?,
        })
    }

    fn put_entry(w: &mut Vec<u8>, e: &Vec<u64>) {
        put_u64s(w, e);
    }

    fn read_entry(c: &mut Cursor, (_, program): Self::Ctx<'_>) -> Result<Vec<u64>, String> {
        let e = c.u64s()?;
        if e.len() != program.insts.len() {
            return Err("snapshot file: first-exec shape does not match program".into());
        }
        Ok(e)
    }

    fn put_state(w: &mut Vec<u8>, s: &AsmState) {
        put_u64(w, s.cycles);
        put_u32(w, s.ip);
        for &r in &s.regs {
            put_u64(w, r);
        }
        put_u64(w, s.output_len as u64);
        put_opt(w, s.profile.as_deref(), put_u64s);
    }

    fn read_state(c: &mut Cursor, (_, program): Self::Ctx<'_>, golden: &MachResult) -> Result<AsmState, String> {
        let cycles = c.u64()?;
        let ip = c.u32()?;
        if ip as usize > program.insts.len() {
            return Err("snapshot file: snapshot ip out of range".into());
        }
        let mut regs = [0u64; Reg::COUNT];
        for r in regs.iter_mut() {
            *r = c.u64()?;
        }
        let output_len = c.u64()? as usize;
        if output_len > golden.output.len() {
            return Err("snapshot file: snapshot output length exceeds golden output".into());
        }
        let profile = read_counts(c, program)?;
        Ok(AsmState { cycles, ip, regs, output_len, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isel::{compile_module, BackendConfig};
    use crate::machine::{AsmFaultSpec, Machine};
    use crate::snapshot::AsmScratch;
    use crate::snapshot::AsmSnapshotSet;
    use flowery_ir::builder::{FuncBuilder, ModuleBuilder};
    use flowery_ir::hash::fnv1a;
    use flowery_ir::inst::{BinOp, IPred};
    use flowery_ir::interp::ExecConfig;
    use flowery_ir::types::Type;
    use flowery_ir::value::Op;
    use std::sync::Arc;

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
        let c = fb.icmp(IPred::Slt, Type::I64, Op::inst(iv), Op::ci64(25));
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

    const HASH: u64 = 0x0F1E_2D3C_4B5A_6978;

    #[test]
    fn round_trip_is_bit_identical() {
        let m = loop_module();
        let prog = compile_module(&m, &BackendConfig::default());
        let mach = Machine::new(&m, &prog);
        let cfg = ExecConfig { profile: true, max_dyn_insts: 100_000, ..Default::default() };
        let set = mach.capture_snapshots(&cfg, 32);
        assert!(set.len() > 2);
        let bytes = set.to_bytes(HASH);
        let loaded = AsmSnapshotSet::from_bytes(&bytes, (&m, &prog), HASH).unwrap();
        assert_eq!(loaded.golden().status, set.golden().status);
        assert_eq!(loaded.golden().output, set.golden().output);
        assert_eq!(loaded.golden().cycles, set.golden().cycles);
        assert_eq!(loaded.golden().profile, set.golden().profile);
        assert_eq!(loaded.cadence(), set.cadence());
        assert_eq!(loaded.shared_snaps(), set.shared_snaps());
        assert_eq!(loaded.first_entry(), set.first_entry());
        assert_eq!(loaded.len(), set.len());
        for (a, b) in loaded.snaps().iter().zip(set.snaps()) {
            assert_eq!(a.dyn_insts, b.dyn_insts);
            assert_eq!(a.fault_sites, b.fault_sites);
            assert_eq!(a.state.cycles, b.state.cycles);
            assert_eq!(a.state.ip, b.state.ip);
            assert_eq!(a.state.regs, b.state.regs);
            assert_eq!(a.state.output_len, b.state.output_len);
            assert_eq!(a.state.profile, b.state.profile);
            assert_eq!(a.pages.len(), b.pages.len());
            for (k, v) in &a.pages {
                assert_eq!(&b.pages[k][..], &v[..], "page {k} content differs");
            }
        }
        // Arc sharing survives the round trip.
        for (lw, ow) in loaded.snaps().windows(2).zip(set.snaps().windows(2)) {
            for (k, ov) in &ow[0].pages {
                if ow[1].pages.get(k).is_some_and(|ov2| Arc::ptr_eq(ov, ov2)) {
                    let (lv, lv2) = (&lw[0].pages[k], &lw[1].pages[k]);
                    assert!(Arc::ptr_eq(lv, lv2), "page {k} duplicated on load");
                }
            }
        }
        // Fast-forward from the loaded set is bit-identical at every site.
        let mut s1 = AsmScratch::new();
        let mut s2 = AsmScratch::new();
        for site in 0..set.golden().fault_sites {
            let spec = AsmFaultSpec::single(site, 7);
            let (a, ska) = mach.run_fast_forward(&cfg, spec, &set, &mut s1);
            let (b, skb) = mach.run_fast_forward(&cfg, spec, &loaded, &mut s2);
            assert_eq!(a.status, b.status, "site {site}");
            assert_eq!(a.output, b.output, "site {site}");
            assert_eq!(a.dyn_insts, b.dyn_insts, "site {site}");
            assert_eq!(a.cycles, b.cycles, "site {site}");
            assert_eq!(a.profile, b.profile, "site {site}");
            assert_eq!(ska, skb, "site {site}");
        }
    }

    #[test]
    fn rejects_corruption_and_mismatches() {
        let m = loop_module();
        let prog = compile_module(&m, &BackendConfig::default());
        let mach = Machine::new(&m, &prog);
        let cfg = ExecConfig { max_dyn_insts: 100_000, ..Default::default() };
        let set = mach.capture_snapshots(&cfg, 32);
        let bytes = set.to_bytes(HASH);
        assert!(AsmSnapshotSet::from_bytes(&bytes, (&m, &prog), HASH).is_ok());

        for pos in [0usize, 9, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = AsmSnapshotSet::from_bytes(&bad, (&m, &prog), HASH).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic") || err.contains("version"),
                "pos {pos}: {err}"
            );
        }
        for cut in (0..bytes.len()).step_by(7) {
            assert!(AsmSnapshotSet::from_bytes(&bytes[..cut], (&m, &prog), HASH).is_err(), "cut {cut}");
        }
        let err = AsmSnapshotSet::from_bytes(&bytes, (&m, &prog), HASH ^ 1).unwrap_err();
        assert!(err.contains("hash"), "{err}");
        // An IR-layer file is refused by magic even with a valid checksum.
        let mut wrong = bytes.clone();
        wrong[..8].copy_from_slice(b"FLSNAPIR");
        let l = wrong.len();
        let c = fnv1a(&wrong[..l - 8]);
        wrong[l - 8..].copy_from_slice(&c.to_le_bytes());
        let err = AsmSnapshotSet::from_bytes(&wrong, (&m, &prog), HASH).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }
}
