//! The IR layer's part of the snapshot file format (see
//! [`crate::interp::codec`] for the shared header, page deltas and
//! checksum): magic `FLSNAPIR`, the golden [`ExecResult`], the per-block
//! first-entry table, and each snapshot's stack pointer, output length,
//! call stack and optional profile — every index validated against the
//! module.

use crate::interp::codec::{put_bytes, put_opt, put_status, put_u32, put_u64, put_u64s, Cursor};
use crate::interp::eval::Frame;
use crate::interp::snapshot::{IrLayer, IrState, SnapLayer};
use crate::interp::{ExecResult, Profile};
use crate::module::Module;
use crate::value::{BlockId, FuncId, InstId};

fn put_profile(w: &mut Vec<u8>, p: Option<&Profile>) {
    put_opt(w, p, |w, p| {
        put_u64(w, p.counts.len() as u64);
        for v in &p.counts {
            put_u64s(w, v);
        }
    });
}

fn read_profile(c: &mut Cursor, m: &Module) -> Result<Option<Profile>, String> {
    c.opt("profile", |c| {
        let n = c.count(8)?;
        if n != m.functions.len() {
            return Err("snapshot file: profile shape does not match module".into());
        }
        let mut counts = Vec::with_capacity(n);
        for f in &m.functions {
            let v = c.u64s()?;
            if v.len() != f.insts.len() {
                return Err("snapshot file: profile shape does not match module".into());
            }
            counts.push(v);
        }
        Ok(Profile { counts })
    })
}

fn read_frame(c: &mut Cursor, m: &Module) -> Result<Frame, String> {
    let func = FuncId(c.u32()?);
    let block = BlockId(c.u32()?);
    let ip = c.u64()? as usize;
    let saved_sp = c.u64()?;
    let ret_dest = c.opt("ret_dest", |c| Ok(InstId(c.u32()?)))?;
    let values = c.u64s()?;
    let params = c.u64s()?;
    let f = m
        .functions
        .get(func.index())
        .ok_or_else(|| "snapshot file: frame function out of range".to_string())?;
    let b = f
        .blocks
        .get(block.index())
        .ok_or_else(|| "snapshot file: frame block out of range".to_string())?;
    if ip > b.insts.len() || values.len() != f.insts.len() {
        return Err("snapshot file: frame shape does not match module".into());
    }
    Ok(Frame { func, block, ip, values, params, saved_sp, ret_dest })
}

impl SnapLayer for IrLayer {
    const MAGIC: &'static [u8; 8] = b"FLSNAPIR";
    type Golden = ExecResult;
    type State = IrState;
    /// `block_entry[func][block]`.
    type Entry = Vec<Vec<u64>>;
    type Ctx<'a> = &'a Module;

    fn module<'a>(m: Self::Ctx<'a>) -> &'a Module {
        m
    }

    fn put_golden(w: &mut Vec<u8>, r: &ExecResult) {
        put_status(w, r.status);
        put_bytes(w, &r.output);
        put_u64(w, r.dyn_insts);
        put_u64(w, r.fault_sites);
        put_opt(w, r.injected_at, |w, (f, i)| {
            put_u32(w, f.0);
            put_u32(w, i.0);
        });
        put_profile(w, r.profile.as_ref());
    }

    fn read_golden(c: &mut Cursor, m: &Module) -> Result<ExecResult, String> {
        let status = c.status()?;
        let output = c.bytes()?;
        let dyn_insts = c.u64()?;
        let fault_sites = c.u64()?;
        let injected_at = c.opt("injected_at", |c| Ok((FuncId(c.u32()?), InstId(c.u32()?))))?;
        let profile = read_profile(c, m)?;
        Ok(ExecResult { status, output, dyn_insts, fault_sites, injected_at, profile })
    }

    fn put_entry(w: &mut Vec<u8>, e: &Vec<Vec<u64>>) {
        put_u64(w, e.len() as u64);
        for v in e {
            put_u64s(w, v);
        }
    }

    fn read_entry(c: &mut Cursor, m: &Module) -> Result<Vec<Vec<u64>>, String> {
        let n = c.count(8)?;
        if n != m.functions.len() {
            return Err("snapshot file: block-entry shape does not match module".into());
        }
        let mut e = Vec::with_capacity(n);
        for f in &m.functions {
            let v = c.u64s()?;
            if v.len() != f.blocks.len() {
                return Err("snapshot file: block-entry shape does not match module".into());
            }
            e.push(v);
        }
        Ok(e)
    }

    fn put_state(w: &mut Vec<u8>, s: &IrState) {
        put_u64(w, s.sp);
        put_u64(w, s.output_len as u64);
        put_u64(w, s.stack.len() as u64);
        for f in &s.stack {
            put_u32(w, f.func.0);
            put_u32(w, f.block.0);
            put_u64(w, f.ip as u64);
            put_u64(w, f.saved_sp);
            put_opt(w, f.ret_dest, |w, i| put_u32(w, i.0));
            put_u64s(w, &f.values);
            put_u64s(w, &f.params);
        }
        put_profile(w, s.profile.as_ref());
    }

    fn read_state(c: &mut Cursor, m: &Module, golden: &ExecResult) -> Result<IrState, String> {
        let sp = c.u64()?;
        let output_len = c.u64()? as usize;
        if output_len > golden.output.len() {
            return Err("snapshot file: snapshot output length exceeds golden output".into());
        }
        let n_frames = c.count(1)?;
        let mut stack = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            stack.push(read_frame(c, m)?);
        }
        let profile = read_profile(c, m)?;
        Ok(IrState { sp, output_len, stack, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::hash::fnv1a;
    use crate::inst::{BinOp, IPred};
    use crate::interp::IrSnapshotSet;
    use crate::interp::{ExecConfig, FaultSpec, Interpreter, IrScratch};
    use crate::types::Type;
    use crate::value::Op;
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

    const HASH: u64 = 0x1234_5678_9ABC_DEF0;

    #[test]
    fn round_trip_is_bit_identical() {
        let m = loop_module();
        let interp = Interpreter::new(&m);
        let cfg = ExecConfig { profile: true, max_dyn_insts: 10_000, ..Default::default() };
        let set = interp.capture_snapshots(&cfg, 16);
        assert!(set.len() > 2);
        let bytes = set.to_bytes(HASH);
        let loaded = IrSnapshotSet::from_bytes(&bytes, &m, HASH).unwrap();
        assert_eq!(loaded.golden, set.golden);
        assert_eq!(loaded.cadence, set.cadence);
        assert_eq!(loaded.shared_snaps, set.shared_snaps);
        assert_eq!(loaded.entry, set.entry);
        assert_eq!(loaded.snaps.len(), set.snaps.len());
        for (a, b) in loaded.snaps.iter().zip(&set.snaps) {
            assert_eq!(a.dyn_insts, b.dyn_insts);
            assert_eq!(a.fault_sites, b.fault_sites);
            assert_eq!(a.state.sp, b.state.sp);
            assert_eq!(a.state.output_len, b.state.output_len);
            assert_eq!(a.state.profile, b.state.profile);
            assert_eq!(a.pages.len(), b.pages.len());
            for (k, v) in &a.pages {
                assert_eq!(&b.pages[k][..], &v[..], "page {k} content differs");
            }
        }
        // Arc sharing survives the round trip: where the original set shares
        // a page between consecutive snapshots, the loaded set does too.
        for (lw, ow) in loaded.snaps.windows(2).zip(set.snaps.windows(2)) {
            for (k, ov) in &ow[0].pages {
                if ow[1].pages.get(k).is_some_and(|ov2| Arc::ptr_eq(ov, ov2)) {
                    let (lv, lv2) = (&lw[0].pages[k], &lw[1].pages[k]);
                    assert!(Arc::ptr_eq(lv, lv2), "page {k} duplicated on load");
                }
            }
        }
        // Fast-forward from the loaded set is bit-identical at every site.
        let mut s1 = IrScratch::new();
        let mut s2 = IrScratch::new();
        for site in 0..set.golden.fault_sites {
            let spec = FaultSpec::single(site, 3);
            let (a, ska) = interp.run_fast_forward(&cfg, spec, &set, &mut s1);
            let (b, skb) = interp.run_fast_forward(&cfg, spec, &loaded, &mut s2);
            assert_eq!(a, b, "site {site}");
            assert_eq!(ska, skb, "site {site}");
        }
    }

    #[test]
    fn rejects_corruption_and_mismatches() {
        let m = loop_module();
        let cfg = ExecConfig { max_dyn_insts: 10_000, ..Default::default() };
        let set = Interpreter::new(&m).capture_snapshots(&cfg, 16);
        let bytes = set.to_bytes(HASH);
        assert!(IrSnapshotSet::from_bytes(&bytes, &m, HASH).is_ok());

        // Any flipped byte fails the checksum.
        for pos in [0usize, 9, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = IrSnapshotSet::from_bytes(&bad, &m, HASH).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic") || err.contains("version"),
                "pos {pos}: {err}"
            );
        }
        // Truncation is rejected, never a panic, at every length.
        for cut in 0..bytes.len() {
            assert!(IrSnapshotSet::from_bytes(&bytes[..cut], &m, HASH).is_err(), "cut {cut}");
        }
        // Wrong module hash.
        let err = IrSnapshotSet::from_bytes(&bytes, &m, HASH ^ 1).unwrap_err();
        assert!(err.contains("hash"), "{err}");
        // A future format version is refused even with a valid checksum.
        let mut v2 = bytes.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let l = v2.len();
        let c = fnv1a(&v2[..l - 8]);
        v2[l - 8..].copy_from_slice(&c.to_le_bytes());
        let err = IrSnapshotSet::from_bytes(&v2, &m, HASH).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        // A different magic (e.g. an asm set) is refused.
        let mut wrong = bytes.clone();
        wrong[..8].copy_from_slice(b"FLSNAPAS");
        let l = wrong.len();
        let c = fnv1a(&wrong[..l - 8]);
        wrong[l - 8..].copy_from_slice(&c.to_le_bytes());
        let err = IrSnapshotSet::from_bytes(&wrong, &m, HASH).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }
}
