//! Persistence round-trip for snapshot sets: capture → serialize →
//! deserialize → fast-forward must be **bit-identical** to fast-forward
//! off the freshly captured set (and hence to scratch execution, which
//! `snapshot_equivalence.rs` pins) at every sampled fault site, at both
//! layers. Corrupt, truncated, or mismatched files must be rejected with
//! an error — never a panic, never a silently wrong set.

use flowery_ir::interp::{ExecConfig, FaultSpec, Interpreter, IrScratch};
use proptest::prelude::*;

fn program(outer: u32, inner: u32, modulus: u32) -> String {
    format!(
        "global int arr[16] = {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}};\n\
         int work(int x) {{\n\
           int j; int t = x;\n\
           for (j = 0; j < {inner}; j = j + 1) {{\n\
             t = t + arr[((t + j) % 16 + 16) % 16] * (j + 1);\n\
             arr[(t % 16 + 16) % 16] = t % {modulus};\n\
           }}\n\
           return t;\n\
         }}\n\
         int main() {{\n\
           int i; int s = 0;\n\
           for (i = 0; i < {outer}; i = i + 1) {{\n\
             s = s + work(i);\n\
             if (s % 5 == 0) {{ output(s); }}\n\
           }}\n\
           output(s);\n\
           return s & 65535;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, max_shrink_iters: 50, ..ProptestConfig::default() })]

    #[test]
    fn reloaded_sets_fast_forward_bit_identically(
        ((outer, inner), modulus, bit) in ((10u32..60, 4u32..20), 97u32..9973, 0u8..64)
    ) {
        let src = program(outer, inner, modulus);
        let m = flowery_lang::compile("snapio", &src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        let exec = ExecConfig::default();

        // IR layer: every Nth fault site, spanning the whole dynamic range.
        let interp = Interpreter::new(&m);
        let set = interp.capture_snapshots_auto(&exec);
        let hash = 0xD15C0 ^ (u64::from(outer) << 32) ^ u64::from(inner);
        let bytes = set.to_bytes(hash);
        let loaded = flowery_ir::interp::IrSnapshotSet::from_bytes(&bytes, &m, hash);
        prop_assert!(loaded.is_ok(), "round trip must load: {:?}", loaded.err());
        let loaded = loaded.unwrap();
        prop_assert_eq!(loaded.golden(), set.golden(), "golden run survives the round trip");
        prop_assert_eq!(loaded.len(), set.len());
        let sites = set.golden().fault_sites;
        let step = (sites / 24).max(1);
        let mut scratch = IrScratch::new();
        for site in (0..sites).step_by(step as usize) {
            let spec = FaultSpec::single(site, u32::from(bit));
            let (fresh, s1) = interp.run_fast_forward(&exec, spec, &set, &mut scratch);
            let (reload, s2) = interp.run_fast_forward(&exec, spec, &loaded, &mut scratch);
            prop_assert_eq!(s1, s2, "skipped prefix @ site {}", site);
            prop_assert_eq!(&fresh, &reload, "IR trial @ site {} bit {}\n{}", site, bit, &src);
        }

        // Assembly layer.
        let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let mach = flowery_backend::Machine::new(&m, &prog);
        let set = mach.capture_snapshots_auto(&exec);
        let bytes = set.to_bytes(hash);
        let loaded = flowery_backend::AsmSnapshotSet::from_bytes(&bytes, (&m, &prog), hash);
        prop_assert!(loaded.is_ok(), "asm round trip must load: {:?}", loaded.err());
        let loaded = loaded.unwrap();
        prop_assert_eq!(loaded.golden(), set.golden());
        let sites = set.golden().fault_sites;
        let step = (sites / 24).max(1);
        let mut scratch = flowery_backend::AsmScratch::new();
        for site in (0..sites).step_by(step as usize) {
            let spec = flowery_backend::AsmFaultSpec::single(site, u32::from(bit));
            let (fresh, s1) = mach.run_fast_forward(&exec, spec, &set, &mut scratch);
            let (reload, s2) = mach.run_fast_forward(&exec, spec, &loaded, &mut scratch);
            prop_assert_eq!(s1, s2, "asm skipped prefix @ site {}", site);
            prop_assert_eq!(&fresh, &reload, "asm trial @ site {} bit {}\n{}", site, bit, &src);
        }
    }
}

/// The fixed program and explicit cadences the byte-level tests below run
/// on: small files (about 30 KB) that still hold three snapshots with page
/// deltas, profiles, and the first-entry table at each layer.
const PIN_PROGRAM: (u32, u32, u32) = (6, 4, 251);
const IR_CADENCE: u64 = 300;
const ASM_CADENCE: u64 = 800;

fn pinned_sets() -> (flowery_ir::Module, flowery_backend::AsmProgram, ExecConfig) {
    let (outer, inner, modulus) = PIN_PROGRAM;
    let m = flowery_lang::compile("snapio", &program(outer, inner, modulus)).unwrap();
    let prog = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
    (m, prog, ExecConfig { profile: true, ..ExecConfig::default() })
}

/// Every single-byte corruption and every truncation must be rejected by
/// `from_bytes` — it returns `Err`, it never panics and never yields a set.
fn assert_every_flip_and_cut_rejected(bytes: &[u8], load: impl Fn(&[u8]) -> Result<(), String>, layer: &str) {
    assert!(load(bytes).is_ok(), "{layer}: the intact file must load");
    let mut bad = bytes.to_vec();
    for i in 0..bad.len() {
        bad[i] ^= 0x40;
        assert!(load(&bad).is_err(), "{layer}: flip at byte {i} must be rejected");
        bad[i] ^= 0x40;
    }
    for len in 0..bytes.len() {
        assert!(load(&bytes[..len]).is_err(), "{layer}: truncation to {len} bytes must be rejected");
    }
}

#[test]
fn corrupted_and_mismatched_files_are_rejected() {
    let (m, prog, exec) = pinned_sets();
    let set = Interpreter::new(&m).capture_snapshots(&exec, IR_CADENCE);
    assert!(set.len() >= 3, "the IR file must hold at least three snapshots");
    let bytes = set.to_bytes(42);
    assert!(bytes.len() > 3 * 4096, "the IR snapshots must carry page deltas");
    let load_ir = |b: &[u8]| flowery_ir::interp::IrSnapshotSet::from_bytes(b, &m, 42).map(drop);

    // Wrong module hash: the file is intact but belongs to another program.
    assert!(flowery_ir::interp::IrSnapshotSet::from_bytes(&bytes, &m, 43).is_err());
    assert_every_flip_and_cut_rejected(&bytes, load_ir, "IR");

    // A bumped version field (bytes 8..12, after the 8-byte magic) must be
    // rejected even with the checksum recomputed to match.
    let mut vbump = bytes.clone();
    vbump[8] = vbump[8].wrapping_add(1);
    let body_len = vbump.len() - 8;
    let sum = flowery_ir::hash::fnv1a(&vbump[..body_len]);
    vbump[body_len..].copy_from_slice(&sum.to_le_bytes());
    let err = load_ir(&vbump).unwrap_err();
    assert!(err.contains("version"), "want a version error, got: {err}");

    // Same checks on the assembly format.
    let mach = flowery_backend::Machine::new(&m, &prog);
    let set = mach.capture_snapshots(&exec, ASM_CADENCE);
    assert!(set.len() >= 3, "the asm file must hold at least three snapshots");
    let bytes = set.to_bytes(42);
    assert!(bytes.len() > 3 * 4096, "the asm snapshots must carry page deltas");
    assert!(flowery_backend::AsmSnapshotSet::from_bytes(&bytes, (&m, &prog), 43).is_err());
    let load_asm = |b: &[u8]| flowery_backend::AsmSnapshotSet::from_bytes(b, (&m, &prog), 42).map(drop);
    assert_every_flip_and_cut_rejected(&bytes, load_asm, "asm");
}

/// The on-disk format is frozen at version 1: these digests of one fixed
/// program's files at each layer were recorded from the format's first
/// implementation, so any drift in what is written fails here.
#[test]
fn serialized_bytes_are_pinned() {
    let (m, prog, exec) = pinned_sets();
    let ir = Interpreter::new(&m).capture_snapshots(&exec, IR_CADENCE).to_bytes(42);
    assert_eq!((ir.len(), flowery_ir::hash::fnv1a(&ir)), (27649, 0xdad5_160a_f959_bc35));
    let asm = flowery_backend::Machine::new(&m, &prog)
        .capture_snapshots(&exec, ASM_CADENCE)
        .to_bytes(42);
    assert_eq!((asm.len(), flowery_ir::hash::fnv1a(&asm)), (32954, 0x95ca_9e51_e2f2_1799));
}
