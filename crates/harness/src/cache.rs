//! Golden-run and snapshot-set cache keyed by program content.
//!
//! Every campaign needs a fault-free reference execution (the *golden
//! run*) to classify outcomes against and to derive the fault-site count.
//! Golden runs are pure functions of the program text, so the cache keys
//! them by a content hash of the printed IR / machine listing: two units
//! over byte-identical programs share one golden execution, and the
//! pipeline's overhead measurements reuse the campaign goldens for free.
//!
//! Snapshot sets are served the same way, but with two extra sources
//! ahead of a fresh capture run:
//!
//! 1. **the persistent store** — sets saved next to the checkpoint by a
//!    previous run load back without executing anything, so `--resume`
//!    performs zero golden re-executions and zero re-captures;
//! 2. **cross-variant sharing** — a hardened unit that knows its raw twin
//!    reuses the raw set's golden-prefix snapshots below the divergence
//!    point and captures only the suffix.
//!
//! Since the capture run doubles as the golden run (its result seeds the
//! golden maps), enabling snapshots never adds an execution.

use crate::plan::Layer;
use crate::snapstore::SnapshotStore;
use flowery_analysis::statline::{analyze_bits, BitTable};
use flowery_backend::{print_program, AsmProgram, AsmSnapshotSet, MachResult, Machine};
use flowery_ir::hash::fnv1a;
use flowery_ir::interp::{ExecConfig, ExecResult, Interpreter, IrSnapshotSet, Profile};
use flowery_ir::printer::print_module;
use flowery_ir::Module;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Content hash of a module: FNV-1a over its printed IR — stable across
/// runs and platforms, which keeps checkpoint logs portable.
pub fn module_hash(m: &Module) -> u64 {
    fnv1a(print_module(m).as_bytes())
}

/// Content hash of a compiled program (its machine listing).
pub fn program_hash(p: &AsmProgram) -> u64 {
    fnv1a(print_program(p).as_bytes())
}

/// Point-in-time cache counters; how each snapshot set was obtained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory maps.
    pub hits: u64,
    /// Lookups that had to go further (store, sharing, or execution).
    pub misses: u64,
    /// Plain golden executions (not part of a snapshot capture).
    pub goldens_run: u64,
    /// Snapshot capture executions (full or shared-suffix).
    pub snap_captures: u64,
    /// Snapshot sets loaded from the persistent store — zero executions.
    pub snap_loads: u64,
    /// Captures that shared a raw set's golden prefix (subset of
    /// `snap_captures`; these ran only the post-divergence suffix).
    pub snap_shared: u64,
}

/// One map of a [`GoldenCache`]: a per-key single-flight memo. The first
/// lookup of a key installs an empty cell and computes its value with the
/// map lock released; concurrent lookups of the same key find the cell and
/// block on it, so every key is computed exactly once.
type Memo<V> = Mutex<HashMap<u64, Arc<OnceLock<V>>>>;

/// Install `value` for `key` unless the key is already present or being
/// computed (in which case the memo's own value wins). Never blocks on an
/// in-flight computation, so seeding one map from inside another map's
/// computation cannot deadlock.
fn seed<V>(memo: &Memo<V>, key: u64, value: impl FnOnce() -> V) {
    memo.lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Arc::new(OnceLock::from(value())));
}

/// Thread-safe golden-run / snapshot-set cache with provenance accounting.
/// Every lookup is single-flight per content hash, so the counters do not
/// depend on how many threads race for the same unit.
#[derive(Default)]
pub struct GoldenCache {
    ir: Memo<Arc<ExecResult>>,
    asm: Memo<Arc<MachResult>>,
    ir_snaps: Memo<Arc<IrSnapshotSet>>,
    asm_snaps: Memo<Arc<AsmSnapshotSet>>,
    /// Per-instruction execution profiles from a profiled golden run —
    /// the dynamic fault-site masses of the region model.
    ir_profiles: Memo<Arc<Profile>>,
    asm_profiles: Memo<Arc<Vec<u64>>>,
    /// Static bit-verdict tables (the prune oracle's proof side).
    bit_tables: Memo<Arc<BitTable>>,
    /// Golden dynamic-site → static-instruction traces (its lookup side).
    site_maps: Memo<Arc<Vec<u32>>>,
    /// Persistent home for snapshot sets, when the campaign has one.
    store: Option<SnapshotStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    goldens_run: AtomicU64,
    snap_captures: AtomicU64,
    snap_loads: AtomicU64,
    snap_shared: AtomicU64,
}

impl GoldenCache {
    pub fn new() -> GoldenCache {
        GoldenCache::default()
    }

    /// A cache that persists captured snapshot sets to `store` and serves
    /// future lookups from it.
    pub fn with_store(store: SnapshotStore) -> GoldenCache {
        GoldenCache { store: Some(store), ..GoldenCache::default() }
    }

    /// `memo[key]`, computed by `compute` on the first lookup only. The
    /// first lookup counts as a miss, every later one (including those
    /// that wait for the first to finish) as a hit.
    fn lookup<V: Clone>(&self, memo: &Memo<V>, key: u64, compute: impl FnOnce() -> V) -> V {
        let cell = {
            let mut map = memo.lock().unwrap();
            let counter = if map.contains_key(&key) { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
            map.entry(key).or_default().clone()
        };
        cell.get_or_init(compute).clone()
    }

    /// Golden run of `m` at the IR layer, computed at most once per
    /// distinct program content.
    pub fn ir_golden(&self, m: &Module, exec: &ExecConfig) -> Arc<ExecResult> {
        let key = module_hash(m);
        self.lookup(&self.ir, key, || {
            // A persisted snapshot set carries the golden result, so a pure
            // checkpoint replay (`--resume` of a finished run) serves even
            // its merge-time golden lookups without executing anything.
            if let Some(set) = self.load_ir_set(m, key, exec) {
                let golden = Arc::new(set.golden().clone());
                seed(&self.ir_snaps, key, || Arc::new(set));
                return golden;
            }
            self.goldens_run.fetch_add(1, Ordering::Relaxed);
            Arc::new(Interpreter::new(m).run(exec, None))
        })
    }

    /// Golden run of `p` at the assembly layer.
    pub fn asm_golden(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<MachResult> {
        let key = program_hash(p);
        self.lookup(&self.asm, key, || {
            if let Some(set) = self.load_asm_set(m, p, key, exec) {
                let golden = Arc::new(set.golden().clone());
                seed(&self.asm_snaps, key, || Arc::new(set));
                return golden;
            }
            self.goldens_run.fetch_add(1, Ordering::Relaxed);
            Arc::new(Machine::new(m, p).run(exec, None))
        })
    }

    /// Per-instruction execution profile of `m`'s golden run, computed at
    /// most once per distinct program content. This is a separate profiled
    /// execution (the plain golden run skips the counters); region site
    /// masses derive from it.
    pub fn ir_profile(&self, m: &Module, exec: &ExecConfig) -> Arc<Profile> {
        self.lookup(&self.ir_profiles, module_hash(m), || {
            self.goldens_run.fetch_add(1, Ordering::Relaxed);
            let r = Interpreter::new(m).profile_run(exec);
            Arc::new(r.profile.expect("profiled run records a profile"))
        })
    }

    /// Assembly twin of [`GoldenCache::ir_profile`]: per-program-index
    /// execution counts of `p`'s golden run.
    pub fn asm_profile(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<Vec<u64>> {
        self.lookup(&self.asm_profiles, program_hash(p), || {
            self.goldens_run.fetch_add(1, Ordering::Relaxed);
            let r = Machine::new(m, p).profile_run(exec);
            Arc::new(r.profile.expect("profiled run records a profile"))
        })
    }

    /// Upper bound on prunable dynamic sites per program: past this many,
    /// the site trace stops and later sites simply go unpruned (sound —
    /// pruning is an optimization, never a requirement).
    pub const SITE_TRACE_CAP: usize = 1 << 22;

    /// Static bit-verdict table for `p`, computed at most once per
    /// distinct program content. Pure static analysis — no execution.
    pub fn asm_bits(&self, m: &Module, p: &AsmProgram) -> Arc<BitTable> {
        self.lookup(&self.bit_tables, program_hash(p), || Arc::new(analyze_bits(m, p)))
    }

    /// Golden site trace of `p`: static instruction index of each dynamic
    /// fault site, in execution order, capped at
    /// [`GoldenCache::SITE_TRACE_CAP`] entries. A fault-free replay (not a
    /// golden run — it records site indices, nothing else).
    pub fn asm_site_map(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<Vec<u32>> {
        self.lookup(&self.site_maps, program_hash(p), || {
            self.goldens_run.fetch_add(1, Ordering::Relaxed);
            Arc::new(Machine::new(m, p).site_trace(exec, Self::SITE_TRACE_CAP))
        })
    }

    /// Snapshot set for fast-forwarded IR trials over `m` (no raw twin).
    pub fn ir_snapshots(&self, m: &Module, exec: &ExecConfig) -> Arc<IrSnapshotSet> {
        self.ir_snapshots_for(m, None, exec)
    }

    /// Snapshot set for fast-forwarded IR trials over `m`, obtained (in
    /// order of preference) from the in-memory cache, the persistent
    /// store, a shared-prefix capture off `raw`'s set, or a fresh capture.
    /// The set's golden result seeds the golden cache, so subsequent
    /// [`GoldenCache::ir_golden`] calls for the same content are free.
    pub fn ir_snapshots_for(&self, m: &Module, raw: Option<&Module>, exec: &ExecConfig) -> Arc<IrSnapshotSet> {
        let key = module_hash(m);
        self.lookup(&self.ir_snaps, key, || {
            let set = self.load_ir_set(m, key, exec).unwrap_or_else(|| {
                let shared = raw.and_then(|raw_m| {
                    if module_hash(raw_m) == key {
                        return None;
                    }
                    let raw_set = self.ir_snapshots_for(raw_m, None, exec);
                    Interpreter::new(m).capture_snapshots_from(exec, raw_m, &raw_set)
                });
                if shared.is_some() {
                    self.snap_shared.fetch_add(1, Ordering::Relaxed);
                }
                self.snap_captures.fetch_add(1, Ordering::Relaxed);
                let set = shared.unwrap_or_else(|| Interpreter::new(m).capture_snapshots_auto(exec));
                if let Some(st) = &self.store {
                    st.save_ir(&set, key);
                }
                set
            });
            // The capture (or the loaded file) carries the golden result:
            // seed the golden map so no plain golden execution repeats it.
            seed(&self.ir, key, || Arc::new(set.golden().clone()));
            Arc::new(set)
        })
    }

    /// Snapshot set for fast-forwarded assembly trials over `p` (no raw
    /// twin).
    pub fn asm_snapshots(&self, m: &Module, p: &AsmProgram, exec: &ExecConfig) -> Arc<AsmSnapshotSet> {
        self.asm_snapshots_for(m, p, None, exec)
    }

    /// Assembly twin of [`GoldenCache::ir_snapshots_for`].
    pub fn asm_snapshots_for(
        &self,
        m: &Module,
        p: &AsmProgram,
        raw: Option<(&Module, &AsmProgram)>,
        exec: &ExecConfig,
    ) -> Arc<AsmSnapshotSet> {
        let key = program_hash(p);
        self.lookup(&self.asm_snaps, key, || {
            let set = self.load_asm_set(m, p, key, exec).unwrap_or_else(|| {
                let shared = raw.and_then(|(raw_m, raw_p)| {
                    if program_hash(raw_p) == key {
                        return None;
                    }
                    let raw_set = self.asm_snapshots_for(raw_m, raw_p, None, exec);
                    Machine::new(m, p).capture_snapshots_from(exec, (raw_m, raw_p), &raw_set)
                });
                if shared.is_some() {
                    self.snap_shared.fetch_add(1, Ordering::Relaxed);
                }
                self.snap_captures.fetch_add(1, Ordering::Relaxed);
                let set = shared.unwrap_or_else(|| Machine::new(m, p).capture_snapshots_auto(exec));
                if let Some(st) = &self.store {
                    st.save_asm(&set, key);
                }
                set
            });
            seed(&self.asm, key, || Arc::new(set.golden().clone()));
            Arc::new(set)
        })
    }

    /// The persisted IR set for `key`, if the store holds one that loads
    /// and matches `exec`'s memory geometry.
    fn load_ir_set(&self, m: &Module, key: u64, exec: &ExecConfig) -> Option<IrSnapshotSet> {
        let set = self.store.as_ref()?.load_ir(m, key)?;
        set.matches_geometry(exec.mem_size, exec.stack_size).then(|| {
            self.snap_loads.fetch_add(1, Ordering::Relaxed);
            set
        })
    }

    /// Assembly twin of [`GoldenCache::load_ir_set`].
    fn load_asm_set(&self, m: &Module, p: &AsmProgram, key: u64, exec: &ExecConfig) -> Option<AsmSnapshotSet> {
        let set = self.store.as_ref()?.load_asm(m, p, key)?;
        set.matches_geometry(exec.mem_size, exec.stack_size).then(|| {
            self.snap_loads.fetch_add(1, Ordering::Relaxed);
            set
        })
    }

    /// True when some thread is still computing a value this cache holds
    /// for content `key` at `layer` (a golden, profile, snapshot set, bit
    /// table or site map): a lookup of it now would block until that
    /// computation finishes. Lets the engine's workers take other work
    /// instead of waiting.
    pub(crate) fn computing(&self, layer: Layer, key: u64) -> bool {
        fn pending<V>(memo: &Memo<V>, key: u64) -> bool {
            memo.lock().unwrap().get(&key).is_some_and(|cell| cell.get().is_none())
        }
        match layer {
            Layer::Ir => pending(&self.ir, key) || pending(&self.ir_snaps, key) || pending(&self.ir_profiles, key),
            Layer::Asm => {
                pending(&self.asm, key)
                    || pending(&self.asm_snaps, key)
                    || pending(&self.asm_profiles, key)
                    || pending(&self.bit_tables, key)
                    || pending(&self.site_maps, key)
            }
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Sample every counter at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            goldens_run: self.goldens_run.load(Ordering::Relaxed),
            snap_captures: self.snap_captures.load(Ordering::Relaxed),
            snap_loads: self.snap_loads.load(Ordering::Relaxed),
            snap_shared: self.snap_shared.load(Ordering::Relaxed),
        }
    }

    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        flowery_lang::compile("t", src).unwrap()
    }

    const LOOP_SRC: &str =
        "int main() { int i; int s = 0; for (i = 0; i < 900; i = i + 1) { s = s + i; } output(s); return 0; }";

    #[test]
    fn identical_content_hits_distinct_content_misses() {
        let a = module("int main() { output(7); return 0; }");
        let b = module("int main() { output(7); return 0; }");
        let c = module("int main() { output(8); return 0; }");
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let g1 = cache.ir_golden(&a, &exec);
        let g2 = cache.ir_golden(&b, &exec);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(Arc::ptr_eq(&g1, &g2), "same content must share one golden run");
        let _ = cache.ir_golden(&c, &exec);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.stats().goldens_run, 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn in_flight_computations_are_visible_without_blocking() {
        let m = module(LOOP_SRC);
        let key = module_hash(&m);
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        assert!(!cache.computing(Layer::Ir, key));
        let (started, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                cache.lookup(&cache.ir, key, || {
                    started.wait();
                    release.wait();
                    Arc::new(Interpreter::new(&m).run(&exec, None))
                })
            });
            started.wait();
            assert!(cache.computing(Layer::Ir, key), "another thread holds the golden open");
            assert!(!cache.computing(Layer::Asm, key), "layers keep separate memos");
            release.wait();
        });
        assert!(!cache.computing(Layer::Ir, key), "a finished value is no longer in flight");
        let _ = cache.ir_golden(&m, &exec);
        assert_eq!(cache.stats().goldens_run, 0, "the lookup reuses the value computed above");
    }

    #[test]
    fn snapshot_sets_are_shared_by_content() {
        let a = module(LOOP_SRC);
        let b = module(LOOP_SRC);
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let s1 = cache.ir_snapshots(&a, &exec);
        let s2 = cache.ir_snapshots(&b, &exec);
        assert!(Arc::ptr_eq(&s1, &s2), "same content must share one snapshot set");
        assert!(!s1.is_empty(), "a multi-thousand-instruction run must snapshot");
        assert_eq!(s1.golden().dyn_insts, cache.ir_golden(&a, &exec).dyn_insts);
        // The capture seeded the golden map: that lookup was a hit, and no
        // plain golden execution ever ran.
        let st = cache.stats();
        assert_eq!(st.snap_captures, 1);
        assert_eq!(st.goldens_run, 0, "capture run doubles as the golden run");
    }

    #[test]
    fn layers_are_cached_independently() {
        let m = module("int main() { output(3); return 0; }");
        let p = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let cache = GoldenCache::new();
        let exec = ExecConfig::default();
        let _ = cache.ir_golden(&m, &exec);
        let _ = cache.asm_golden(&m, &p, &exec);
        assert_eq!(cache.misses(), 2, "IR and assembly goldens are distinct entries");
        let _ = cache.asm_golden(&m, &p, &exec);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn store_backed_cache_loads_instead_of_recapturing() {
        let dir = std::env::temp_dir().join(format!("flcache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = module(LOOP_SRC);
        let p = flowery_backend::compile_module(&m, &flowery_backend::BackendConfig::default());
        let exec = ExecConfig::default();

        // First campaign: captures and persists.
        let first = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s1 = first.ir_snapshots(&m, &exec);
        let a1 = first.asm_snapshots(&m, &p, &exec);
        let st = first.stats();
        assert_eq!(st.snap_captures, 2);
        assert_eq!(st.snap_loads, 0);

        // Resumed campaign: loads both sets, executes nothing.
        let resumed = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s2 = resumed.ir_snapshots(&m, &exec);
        let a2 = resumed.asm_snapshots(&m, &p, &exec);
        let st = resumed.stats();
        assert_eq!(st.snap_loads, 2, "resume must load from the store");
        assert_eq!(st.snap_captures, 0, "resume must not re-capture");
        assert_eq!(st.goldens_run, 0, "resume must not re-run goldens");
        assert_eq!(s2.golden(), s1.golden());
        assert_eq!(a2.golden(), a1.golden());
        // The loaded sets also seeded the golden maps.
        assert_eq!(resumed.ir_golden(&m, &exec).dyn_insts, s1.golden().dyn_insts);
        assert_eq!(resumed.stats().goldens_run, 0);

        // A geometry mismatch refuses the file and recaptures.
        let small = ExecConfig { mem_size: 2 << 20, ..ExecConfig::default() };
        let strict = GoldenCache::with_store(SnapshotStore::at(&dir));
        let s3 = strict.ir_snapshots(&m, &small);
        assert!(s3.matches_geometry(small.mem_size, small.stack_size));
        assert_eq!(strict.stats().snap_captures, 1, "wrong geometry must recapture");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
