//! The traced repetition: the same work as the untraced one, driven
//! through the public calls each monolithic entry point is built from, with
//! a span around every call into a layer. No code inside the program
//! changes; the spans live here, in the benchmark's own files.
//!
//! * `build_matrix` → workload compile, `profile_sdc`, the protection
//!   passes and `compile_module`, in `build_matrix`'s order;
//! * `run_units` → `UnitRunner::new`/`run_batch` over the engine's
//!   claiming order, `GoldenCache::{ir,asm}_snapshots_for`, the checkpoint
//!   log, `region_records` and `compact`;
//! * `explore` → a pre-warmed `GoldenCache` and
//!   `AsmTrialRunner::run_trial_model` per (unit, model) job;
//! * `run_diff` → `plan_diff`, `run_region_task` and `compose_units`.
//!
//! The result file must equal the untraced one byte for byte.

use crate::spans::Tracer;
use crate::untraced::write_report;
use crate::workload::{explore_matrix_spec, explore_spec, harness_cfg, matrix_spec, Workload, THREADS};
use flowery::backend::compile_module;
use flowery::faultmodel::{any_catches, classify_asm_fault, detector_overhead_permille, flip_count};
use flowery::harness::progress::{merge_region_counts, UnitProgress};
use flowery::harness::{
    compact, compose_units, fold_task_result, module_hash, plan_diff, program_hash, region_records, run_region_task,
    write_canonical_full, Baseline, CheckpointLog, DesignPoint, ExploreReport, ExploreSpec, GoldenCache, HarnessConfig,
    Layer, MatrixSpec, ModelFrontier, RegionRecord, SnapshotStore, TrialUnit, UnitKey, UnitResult, UnitRunner, Variant,
    WorkloadReport,
};
use flowery::inject::campaign::AsmTrialRunner;
use flowery::inject::{CampaignConfig, Coverage, DetectorSpec, Estimate, ModelSpec, Outcome, OutcomeCounts};
use flowery::ir::interp::ExecConfig;
use flowery::passes::{apply_flowery, choose_protection, duplicate_module, DupConfig, FloweryConfig, ProtectionPlan};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Trials and instructions executed by one layer's engine.
#[derive(Default)]
pub struct LayerWork {
    pub trials: AtomicU64,
    pub exec_insts: AtomicU64,
    pub ff_insts: AtomicU64,
}

impl LayerWork {
    fn add(&self, trials: u64, exec_insts: u64, ff_insts: u64) {
        self.trials.fetch_add(trials, Ordering::Relaxed);
        self.exec_insts.fetch_add(exec_insts, Ordering::Relaxed);
        self.ff_insts.fetch_add(ff_insts, Ordering::Relaxed);
    }

    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.trials.load(Ordering::Relaxed),
            self.exec_insts.load(Ordering::Relaxed),
            self.ff_insts.load(Ordering::Relaxed),
        )
    }
}

/// Everything the traced repetition counted besides its spans.
#[derive(Default)]
pub struct Counters {
    pub wall_s: f64,
    pub result: PathBuf,
    pub units: Vec<TrialUnit>,
    pub exec: ExecConfig,
    pub ir: LayerWork,
    pub asm: LayerWork,
    /// Trials executed, including those an early stop discarded.
    pub trials_run: u64,
    /// Trials in the final answer.
    pub trials_kept: u64,
    pub pruned: u64,
    pub cache_hit_rate: f64,
    pub diff_trials_run: u64,
    pub diff_trials_saved: u64,
}

/// [`flowery::harness::build_matrix`], one span per layer call.
pub fn build_matrix(spec: &MatrixSpec, tr: &Tracer, parent: u64) -> Vec<TrialUnit> {
    let p = Some(parent);
    let names: Vec<&str> = if spec.benches.is_empty() && spec.sources.is_empty() {
        flowery::workloads::NAMES.to_vec()
    } else {
        spec.benches.iter().map(|s| s.as_str()).collect()
    };
    let mut programs: Vec<(String, Arc<flowery::ir::Module>)> = names
        .iter()
        .map(|&name| {
            let m = tr.span("lang.compile", p, 0, |_| flowery::workloads::workload(name, spec.scale).compile());
            (name.to_string(), Arc::new(m))
        })
        .collect();
    for (name, src) in &spec.sources {
        let m = tr.span("lang.compile", p, 0, |_| flowery::lang::compile(name, src));
        let m = m.unwrap_or_else(|e| panic!("matrix source '{name}' does not compile: {e}"));
        programs.push((name.clone(), Arc::new(m)));
    }
    let codegen =
        |m: &flowery::ir::Module| Arc::new(tr.span("backend.codegen", p, 0, |_| compile_module(m, &spec.backend)));
    let mut units = Vec::new();
    for (name, raw) in &programs {
        let name = name.as_str();
        let raw_prog = codegen(raw);
        units.push(TrialUnit::ir(UnitKey::new(name, Variant::Raw, 0.0, Layer::Ir), raw.clone()));
        units.push(TrialUnit::asm(
            UnitKey::new(name, Variant::Raw, 0.0, Layer::Asm),
            raw.clone(),
            raw_prog.clone(),
        ));
        let needs_profile = spec.levels.iter().any(|&l| (l - 1.0).abs() >= 1e-9);
        let profile = needs_profile.then(|| {
            tr.span("inject.profile", p, 0, |_| {
                let mut cfg = CampaignConfig::with_trials(spec.profile_trials);
                cfg.seed = spec.profile_seed;
                cfg.threads = spec.threads;
                flowery::inject::profile_sdc(raw, &cfg)
            })
        });
        for &level in &spec.levels {
            let (id, fl) = tr.span("passes.protect", p, 0, |_| {
                let plan = if (level - 1.0).abs() < 1e-9 {
                    ProtectionPlan::full(raw)
                } else {
                    choose_protection(raw, profile.as_ref().expect("partial levels are profiled"), level)
                };
                let mut id = (**raw).clone();
                duplicate_module(&mut id, &plan, &DupConfig::default());
                let mut fl = id.clone();
                apply_flowery(&mut fl, &FloweryConfig::default());
                (Arc::new(id), Arc::new(fl))
            });
            let id_prog = codegen(&id);
            let fl_prog = codegen(&fl);
            units.push(
                TrialUnit::ir(UnitKey::new(name, Variant::Id, level, Layer::Ir), id.clone())
                    .with_raw(raw.clone(), None),
            );
            units.push(
                TrialUnit::asm(UnitKey::new(name, Variant::Id, level, Layer::Asm), id, id_prog)
                    .with_raw(raw.clone(), Some(raw_prog.clone())),
            );
            units.push(
                TrialUnit::asm(UnitKey::new(name, Variant::Flowery, level, Layer::Asm), fl, fl_prog)
                    .with_raw(raw.clone(), Some(raw_prog.clone())),
            );
        }
    }
    units
}

/// Run `work(tid)` on [`THREADS`] workers (tids 1..) and join them.
fn on_workers(work: impl Fn(usize) + Sync) {
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let work = &work;
            scope.spawn(move || work(w + 1));
        }
    });
}

struct UnitState {
    cursor: AtomicU64,
    done: AtomicBool,
    progress: Mutex<UnitProgress>,
}

/// [`flowery::harness::run_units`] plus the CLI's finalize: the engine's
/// claiming order and early stop, with checkpoint lines appended as
/// batches finish.
fn campaign(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    ckpt: &Path,
    cache: &GoldenCache,
    tr: &Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let header = cfg.header();
    let model = cfg.effective_model();
    let max_batches = cfg.max_batches();
    let states: Vec<UnitState> = units
        .iter()
        .map(|_| UnitState {
            cursor: AtomicU64::new(0),
            done: AtomicBool::new(false),
            progress: Mutex::new(UnitProgress::new(max_batches)),
        })
        .collect();
    let stop = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);
    let (trials_run, pruned) = (AtomicU64::new(0), AtomicU64::new(0));

    let log = tr.span("run.execute", None, 0, |eid| -> Result<CheckpointLog, String> {
        let p = Some(eid);
        let log = tr.span("checkpoint.create", p, 0, |_| CheckpointLog::create(ckpt, &header))?;
        // Seeding order: with static pruning, densest vulnerable-bit
        // programs first (the engine's rule; scheduling only).
        let order: Vec<usize> = if cfg.static_prune {
            let density: Vec<f64> = tr.span("analysis.bits", p, 0, |_| {
                units
                    .iter()
                    .map(|u| match (&u.key.layer, u.program.as_ref()) {
                        (Layer::Asm, Some(prog)) => cache.asm_bits(&u.module, prog).mean_vulnerable(),
                        _ => 1.0,
                    })
                    .collect()
            });
            let mut order: Vec<usize> = (0..units.len()).collect();
            order.sort_by(|&a, &b| {
                density[b]
                    .partial_cmp(&density[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order
        } else {
            (0..units.len()).collect()
        };
        let n = units.len();
        on_workers(|tid| {
            let mut runners: HashMap<usize, UnitRunner<'_>> = HashMap::new();
            loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let mut claimed = None;
                'scan: for off in 0..n {
                    let ui = order[(tid - 1 + off) % n];
                    let st = &states[ui];
                    if st.done.load(Ordering::Relaxed) {
                        continue;
                    }
                    let b = st.cursor.fetch_add(1, Ordering::Relaxed);
                    if b < max_batches {
                        claimed = Some((ui, b));
                        break 'scan;
                    }
                }
                let Some((ui, b)) = claimed else { return };
                let u = &units[ui];
                let runner = runners.entry(ui).or_insert_with(|| {
                    if cfg.snapshots {
                        tr.span("cache.capture", p, tid, |_| match (&u.key.layer, u.program.as_deref()) {
                            (Layer::Asm, Some(prog)) => {
                                let raw = u.raw.as_deref().zip(u.raw_program.as_deref());
                                drop(cache.asm_snapshots_for(&u.module, prog, raw, &cfg.exec));
                            }
                            _ => drop(cache.ir_snapshots_for(&u.module, u.raw.as_deref(), &cfg.exec)),
                        });
                    }
                    if let (true, Layer::Asm, Some(prog)) = (cfg.static_prune, u.key.layer, u.program.as_deref()) {
                        tr.span("prior.site_map", p, tid, |_| drop(cache.asm_site_map(&u.module, prog, &cfg.exec)));
                    }
                    tr.span("harness.runner_new", p, tid, |_| UnitRunner::new(u, cache, cfg))
                });
                let (name, work) = match u.key.layer {
                    Layer::Ir => ("ir.batch", &c.ir),
                    Layer::Asm => ("asm.batch", &c.asm),
                };
                let data = tr.span(name, p, tid, |_| runner.run_batch(cfg, b));
                work.add(data.counts.total(), data.exec_insts, data.ff_insts);
                trials_run.fetch_add(data.counts.total(), Ordering::Relaxed);
                pruned.fetch_add(data.pruned, Ordering::Relaxed);
                let rec = data.to_record(u.key.clone(), b, model);
                if let Err(e) = tr.span("checkpoint.append", p, tid, |_| log.record_batch(&rec)) {
                    error.lock().expect("no worker panicked").get_or_insert(e);
                    stop.store(true, Ordering::Relaxed);
                }
                let st = &states[ui];
                if st.progress.lock().expect("no worker panicked").insert(b, data, &header) {
                    st.done.store(true, Ordering::Relaxed);
                }
            }
        });
        Ok(log)
    })?;
    if let Some(e) = error.into_inner().expect("no worker panicked") {
        return Err(e);
    }

    tr.span("run.finalize", None, 0, |fid| -> Result<(), String> {
        let p = Some(fid);
        let results = tr.span("harness.merge", p, 0, |_| merge(units, &states, cfg))?;
        c.trials_kept = results.iter().map(|r| r.trials).sum();
        let records = tr.span("regions.records", p, 0, |_| region_records(units, &results, cache, cfg));
        tr.span("checkpoint.regions", p, 0, |_| records.iter().try_for_each(|r| log.record_regions(r)))?;
        drop(log);
        tr.span("checkpoint.compact", p, 0, |_| compact(ckpt))
    })?;
    c.trials_run = trials_run.into_inner();
    c.pruned = pruned.into_inner();
    c.cache_hit_rate = cache.hit_rate();
    Ok(())
}

/// The engine's merge: fold each unit's decided batch prefix in order.
fn merge(units: &[TrialUnit], states: &[UnitState], cfg: &HarnessConfig) -> Result<Vec<UnitResult>, String> {
    let mut results = Vec::new();
    for (unit, st) in units.iter().zip(states) {
        let p = st.progress.lock().expect("no worker panicked");
        let k = p.decided().ok_or_else(|| format!("{} undecided", unit.key))?;
        let mut counts = OutcomeCounts::default();
        let mut sdc_by_inst = HashMap::new();
        let mut sdc_insts = Vec::new();
        let mut region_counts = Vec::new();
        let mut pruned = 0;
        for b in 0..k {
            let data = p.batch(b).expect("decided prefix is complete");
            counts.merge(&data.counts);
            pruned += data.pruned;
            for (loc, n) in &data.sdc_by_inst {
                *sdc_by_inst.entry(*loc).or_insert(0) += n;
            }
            sdc_insts.extend_from_slice(&data.sdc_insts);
            merge_region_counts(&mut region_counts, &data.region_counts);
        }
        let trials = (k * cfg.batch_size).min(cfg.max_trials);
        results.push(UnitResult {
            key: unit.key.clone(),
            trials,
            counts,
            sdc: Estimate::proportion(counts.sdc, trials),
            stopped_early: trials < cfg.max_trials,
            sdc_by_inst,
            sdc_insts,
            region_counts,
            pruned,
            // Not part of the checkpoint.
            golden_dyn_insts: 0,
            golden_sites: 0,
            golden_cycles: 0,
        });
    }
    Ok(results)
}

/// `explore`'s detector sets: the empty (baseline) set first, then each
/// listed non-empty set once.
pub fn canonical_detector_sets(spec: &ExploreSpec) -> Vec<Vec<DetectorSpec>> {
    let mut sets: Vec<Vec<DetectorSpec>> = vec![Vec::new()];
    for ds in &spec.detector_sets {
        if !ds.is_empty() && !sets.contains(ds) {
            sets.push(ds.clone());
        }
    }
    sets
}

/// One (model, unit) explore job, scored against every detector set.
pub struct JobResult {
    pub counts_per_set: Vec<OutcomeCounts>,
    pub golden_cycles: u64,
    pub exec_insts: u64,
    pub ff_insts: u64,
}

/// `explore`'s job: `spec.trials` detector-free trials, each would-be SDC
/// post-classified against every detector set.
pub fn run_job(
    unit: &TrialUnit,
    model: ModelSpec,
    sets: &[Vec<DetectorSpec>],
    spec: &ExploreSpec,
    cache: &GoldenCache,
) -> JobResult {
    let program = unit.program.as_ref().expect("explore sweeps assembly units");
    let exec = &spec.exec;
    let mut runner = if spec.snapshots {
        let raw = unit.raw.as_deref().zip(unit.raw_program.as_deref());
        let set = cache.asm_snapshots_for(&unit.module, program, raw, exec);
        let mut r = AsmTrialRunner::with_golden(&unit.module, program, set.golden().clone(), exec);
        r.attach_snapshots(set);
        r
    } else {
        let g = cache.asm_golden(&unit.module, program, exec);
        AsmTrialRunner::with_golden(&unit.module, program, (*g).clone(), exec)
    };
    let sites = runner.sites();
    let mut out = JobResult {
        counts_per_set: vec![OutcomeCounts::default(); sets.len()],
        golden_cycles: runner.golden().cycles,
        exec_insts: 0,
        ff_insts: 0,
    };
    for i in 0..spec.trials {
        let t = runner.run_trial_model(spec.seed, i, model, &[]);
        out.exec_insts += t.exec_insts;
        out.ff_insts += t.ff_insts;
        if t.outcome != Outcome::Sdc {
            for c in &mut out.counts_per_set {
                c.record(t.outcome);
            }
            continue;
        }
        let fspec = model.sample_asm(spec.seed, i, sites);
        let flips = flip_count(fspec.second_bit, fspec.effect);
        let class = t
            .injected_inst
            .map(|idx| classify_asm_fault(fspec.effect, program.insts[idx as usize].kind.fault_dest()));
        for (c, ds) in out.counts_per_set.iter_mut().zip(sets) {
            let caught = class.is_some_and(|cl| any_catches(ds, cl, flips));
            c.record(if caught { Outcome::Detected } else { Outcome::Sdc });
        }
    }
    out
}

fn cycle_overhead_permille(raw: u64, prot: u64) -> i64 {
    if raw == 0 {
        return 0;
    }
    ((prot as i128 - raw as i128) * 1000 / raw as i128) as i64
}

fn pareto(points: &mut [DesignPoint]) -> Vec<DesignPoint> {
    points.sort_by(|a, b| {
        a.cost_permille
            .cmp(&b.cost_permille)
            .then(b.coverage.total_cmp(&a.coverage))
            .then(a.label().cmp(&b.label()))
    });
    let mut frontier = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for p in points.iter_mut() {
        p.on_frontier = p.coverage > best;
        if p.on_frontier {
            best = p.coverage;
            frontier.push(p.clone());
        }
    }
    frontier
}

/// `explore`'s reduction of job results to per-workload frontiers.
/// `jobs[ui * models + mi]` holds unit `ui`'s job under model `mi`.
fn explore_report(
    spec: &ExploreSpec,
    units: &[TrialUnit],
    sets: &[Vec<DetectorSpec>],
    jobs: &[JobResult],
) -> ExploreReport {
    let nm = spec.models.len();
    let mut benches: Vec<&str> = Vec::new();
    for u in units {
        if !benches.contains(&u.key.bench.as_str()) {
            benches.push(&u.key.bench);
        }
    }
    let workloads = benches
        .iter()
        .map(|&bench| {
            let ids: Vec<usize> = (0..units.len()).filter(|&ui| units[ui].key.bench == bench).collect();
            let raw_ui = *ids
                .iter()
                .find(|&&ui| units[ui].key.variant == Variant::Raw)
                .expect("matrix always contains the raw unit");
            let raw_cycles = jobs[raw_ui * nm].golden_cycles;
            let models = spec
                .models
                .iter()
                .enumerate()
                .map(|(mi, &model)| {
                    let baseline = jobs[raw_ui * nm + mi].counts_per_set[0];
                    let mut points = Vec::new();
                    for &ui in &ids {
                        let job = &jobs[ui * nm + mi];
                        let overhead = cycle_overhead_permille(raw_cycles, job.golden_cycles);
                        for (si, ds) in sets.iter().enumerate() {
                            let counts = job.counts_per_set[si];
                            let cov = Coverage::compute(&baseline, &counts);
                            points.push(DesignPoint {
                                variant: units[ui].key.variant,
                                level_permille: units[ui].key.level_permille,
                                detectors: ds.clone(),
                                cost_permille: overhead + detector_overhead_permille(ds) as i64,
                                coverage: cov.coverage,
                                sdc: cov.sdc_prot,
                                counts,
                                golden_cycles: job.golden_cycles,
                                on_frontier: false,
                            });
                        }
                    }
                    let frontier = pareto(&mut points);
                    ModelFrontier {
                        fault_model: model,
                        baseline_sdc: Estimate::proportion(baseline.sdc, baseline.total()),
                        points,
                        frontier,
                    }
                })
                .collect();
            WorkloadReport { bench: bench.to_string(), raw_cycles, models }
        })
        .collect();
    ExploreReport {
        trials: spec.trials,
        seed: spec.seed,
        levels_permille: spec.levels.iter().map(|&l| (l * 1000.0).round() as u32).collect(),
        models: spec.models.clone(),
        detector_sets: sets.to_vec(),
        workloads,
    }
}

/// [`flowery::harness::explore`]: matrix build, snapshot pre-warm, jobs on
/// the workers, report.
fn explore(spec: &ExploreSpec, path: &Path, cache: &GoldenCache, tr: &Tracer, c: &mut Counters) -> Result<(), String> {
    let sets = canonical_detector_sets(spec);
    let nm = spec.models.len();
    let jobs = tr.span("run.execute", None, 0, |eid| {
        let p = Some(eid);
        let units: Vec<TrialUnit> = build_matrix(&explore_matrix_spec(spec), tr, eid)
            .into_iter()
            .filter(|u| u.key.layer == Layer::Asm)
            .collect();
        c.units = units;
        let units = &c.units;
        if spec.snapshots {
            let next = AtomicUsize::new(0);
            on_workers(|tid| {
                while let Some(u) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let program = u.program.as_deref().expect("explore sweeps assembly units");
                    let raw = u.raw.as_deref().zip(u.raw_program.as_deref());
                    tr.span("cache.capture", p, tid, |_| {
                        drop(cache.asm_snapshots_for(&u.module, program, raw, &spec.exec))
                    });
                }
            });
        }
        let results: Vec<Mutex<Option<JobResult>>> = (0..units.len() * nm).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        on_workers(|tid| loop {
            let j = next.fetch_add(1, Ordering::Relaxed);
            if j >= results.len() {
                return;
            }
            let job = tr.span("asm.job", p, tid, |_| run_job(&units[j / nm], spec.models[j % nm], &sets, spec, cache));
            c.asm.add(spec.trials, job.exec_insts, job.ff_insts);
            *results[j].lock().expect("no worker panicked") = Some(job);
        });
        results
            .into_iter()
            .map(|r| r.into_inner().expect("no worker panicked").expect("every job ran"))
            .collect::<Vec<JobResult>>()
    });
    tr.span("run.finalize", None, 0, |fid| {
        let report = tr.span("harness.report", Some(fid), 0, |_| explore_report(spec, &c.units, &sets, &jobs));
        tr.span("harness.write", Some(fid), 0, |_| write_report(path, &report))
    })?;
    c.trials_run = c.units.len() as u64 * nm as u64 * spec.trials;
    c.trials_kept = c.trials_run;
    c.cache_hit_rate = cache.hit_rate();
    Ok(())
}

/// [`flowery::harness::run_diff`] and the composed checkpoint write.
fn diff(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    baseline: &Baseline,
    out: &Path,
    cache: &GoldenCache,
    tr: &Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let (mut reports, done) = tr.span("run.execute", None, 0, |eid| {
        let p = Some(eid);
        let (reports, tasks) = tr.span("diff.plan", p, 0, |_| plan_diff(units, cfg, cache, baseline, &HashMap::new()));
        let done = Mutex::new(Vec::new());
        let next = AtomicUsize::new(0);
        on_workers(|tid| {
            while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                let unit = &units[task.unit_index];
                let (name, work) = match unit.key.layer {
                    Layer::Ir => ("ir.region_task", &c.ir),
                    Layer::Asm => ("asm.region_task", &c.asm),
                };
                let r = tr.span(name, p, tid, |_| {
                    run_region_task(unit, cache, cfg, &task.region, task.seed, task.mass, 0..task.trials)
                });
                if let Some(r) = r {
                    work.add(r.counts.total(), r.exec_insts, r.ff_insts);
                    done.lock()
                        .expect("no worker panicked")
                        .push((task.unit_index, task.region_index, r));
                }
            }
        });
        (reports, done.into_inner().expect("no worker panicked"))
    });
    tr.span("run.finalize", None, 0, |fid| {
        let p = Some(fid);
        tr.span("diff.compose", p, 0, |_| {
            for (ui, ri, r) in &done {
                fold_task_result(&mut reports[*ui].regions[*ri].profile, r);
            }
            compose_units(&mut reports);
        });
        let records: Vec<RegionRecord> = reports
            .iter()
            .map(|u| RegionRecord {
                unit: u.key.clone(),
                schema: flowery::regions::REGION_SCHEMA_VERSION,
                regions: u.regions.iter().map(|r| r.profile.clone()).collect(),
            })
            .collect();
        tr.span("checkpoint.write", p, 0, |_| write_canonical_full(out, &cfg.header(), &[], &records))
    })?;
    c.diff_trials_run = reports.iter().map(|u| u.trials_run).sum();
    c.diff_trials_saved = reports.iter().map(|u| u.trials_saved).sum();
    c.trials_run = c.diff_trials_run;
    c.trials_kept = c.diff_trials_run;
    c.cache_hit_rate = cache.hit_rate();
    Ok(())
}

/// One traced repetition of `w`. Returns the counters; the spans stay in
/// `tr`.
pub fn run(w: Workload, seed: u64, dir: &Path, baseline: Option<&Path>, tr: &Tracer) -> Result<Counters, String> {
    let mut c = Counters::default();
    match w {
        Workload::CampaignNative | Workload::CampaignLevels => {
            let cfg = harness_cfg(w, seed);
            let spec = matrix_spec(w, seed, &cfg, false)?;
            let units = tr.span("run.setup", None, 0, |sid| build_matrix(&spec, tr, sid));
            let t0 = tr.now();
            c.result = dir.join("campaign.jsonl");
            // The cache outlives the timed window, as in the untraced run.
            let cache = GoldenCache::with_store(SnapshotStore::for_checkpoint(&c.result));
            campaign(&units, &cfg, &c.result.clone(), &cache, tr, &mut c)?;
            c.wall_s = tr.now() - t0;
            c.units = units;
            c.exec = cfg.exec;
        }
        Workload::ExploreNative => {
            let spec = explore_spec(seed);
            // Set-up is timed as in the untraced run; `explore` itself
            // builds the matrix again, inside its wall time.
            tr.span("run.setup", None, 0, |sid| drop(build_matrix(&explore_matrix_spec(&spec), tr, sid)));
            let t0 = tr.now();
            c.result = dir.join("explore.json");
            let cache = GoldenCache::new();
            explore(&spec, &c.result.clone(), &cache, tr, &mut c)?;
            c.wall_s = tr.now() - t0;
            c.exec = spec.exec;
        }
        Workload::DiffEdit => {
            let base = baseline.ok_or("diff-edit needs --baseline")?;
            let cfg = harness_cfg(w, seed);
            let spec = matrix_spec(w, seed, &cfg, true)?;
            let (baseline, units) = tr.span("run.setup", None, 0, |sid| -> Result<_, String> {
                let b = tr.span("checkpoint.load", Some(sid), 0, |_| Baseline::load(base, &cfg.header()))?;
                Ok((b, build_matrix(&spec, tr, sid)))
            })?;
            let t0 = tr.now();
            c.result = dir.join("composed.jsonl");
            let cache = GoldenCache::new();
            diff(&units, &cfg, &baseline, &c.result.clone(), &cache, tr, &mut c)?;
            c.wall_s = tr.now() - t0;
            c.units = units;
            c.exec = cfg.exec;
        }
    }
    Ok(c)
}

/// Distinct program contents among the units: the snapshot sets a
/// duplicate-free cache would capture.
pub fn distinct_sets(units: &[TrialUnit]) -> u64 {
    let keys: HashSet<(bool, u64)> = units
        .iter()
        .map(|u| match u.program.as_deref() {
            Some(p) => (true, program_hash(p)),
            None => (false, module_hash(&u.module)),
        })
        .collect();
    keys.len() as u64
}
