//! Independent checks of a workload's outputs. Every check counts into
//! the result's `attempted`/`failed`.
//!
//! * golden outputs: every unit's fault-free run prints the workload's
//!   hand-pinned output (`expected_outputs.tsv`);
//! * reference re-execution: a seeded sample of the recorded batches,
//!   explore jobs and region tasks is re-run on the reference path
//!   (`interp` engine, snapshots off) and compared field for field.

use crate::traced::{canonical_detector_sets, run_job};
use crate::workload::{bench_of, explore_matrix_spec, explore_spec, harness_cfg, matrix_spec, mix, Workload};
use flowery::backend::ExecMode;
use flowery::harness::{
    build_matrix, load_checkpoint, load_checkpoint_full, plan_diff, run_region_task, Baseline, BatchRecord,
    ExploreReport, GoldenCache, HarnessConfig, Layer, TrialUnit, UnitRunner,
};
use flowery::ir::interp::{decode_output, ExecConfig};
use std::collections::HashMap;
use std::path::Path;

const EXPECTED: &str = include_str!("../expected_outputs.tsv");

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {}", what());
        }
    }

    /// Every unit's golden run (served by `cache`) must print the pinned
    /// output of the workload it was built from.
    pub fn golden_outputs(&mut self, units: &[TrialUnit], cache: &GoldenCache, exec: &ExecConfig) {
        for u in units {
            let output = match (&u.key.layer, u.program.as_deref()) {
                (Layer::Asm, Some(p)) => cache.asm_golden(&u.module, p, exec).output.clone(),
                _ => cache.ir_golden(&u.module, exec).output.clone(),
            };
            let got = decode_output(&output).join(" | ");
            let want = expected_output(bench_of(&u.key.bench));
            self.check(want == Some(got.as_str()), || {
                format!("{}: golden output {got:?}, pinned {want:?}", u.key)
            });
        }
    }
}

fn expected_output(bench: &str) -> Option<&'static str> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .find(|(name, _)| *name == bench)
        .map(|(_, out)| out)
}

/// `k` distinct indices below `n`, drawn from `seed`.
fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut state = seed;
    while picked.len() < k.min(n) {
        state = mix(state);
        let i = (state % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// The reference path of a schedule: the `interp` engine with snapshots
/// off, everything else unchanged.
fn reference_cfg(cfg: &HarnessConfig) -> HarnessConfig {
    HarnessConfig {
        snapshots: false,
        exec: ExecConfig { executor: ExecMode::Interp, ..cfg.exec.clone() },
        ..cfg.clone()
    }
}

/// Names of the fields in which two batch records differ.
fn differing_fields(a: &BatchRecord, b: &BatchRecord) -> Vec<&'static str> {
    let mut out = Vec::new();
    let mut cmp = |same: bool, name| {
        if !same {
            out.push(name);
        }
    };
    cmp(a.unit == b.unit, "unit");
    cmp(a.batch == b.batch, "batch");
    cmp(a.counts == b.counts, "counts");
    cmp(a.sdc_by_inst == b.sdc_by_inst, "sdc_by_inst");
    cmp(a.sdc_insts == b.sdc_insts, "sdc_insts");
    cmp(a.fault_model == b.fault_model, "fault_model");
    cmp(a.region_counts == b.region_counts, "region_counts");
    cmp(a.prune_table == b.prune_table, "prune_table");
    cmp(a.pruned == b.pruned, "pruned");
    out
}

/// Re-execute a sample of `w`'s recorded work, drawn from the workload
/// seed, on the reference path and compare it with `result`, the file the
/// repetition wrote.
pub fn reference(
    w: Workload,
    seed: u64,
    result: &Path,
    baseline: Option<&Path>,
    checks: &mut Checks,
) -> Result<(), String> {
    match w {
        Workload::CampaignNative | Workload::CampaignLevels => {
            let cfg = harness_cfg(w, seed);
            let units = build_matrix(&matrix_spec(w, seed, &cfg, false)?);
            let (_, records) = load_checkpoint(result)?;
            let kept: u64 = records.iter().map(|r| r.counts.total()).sum();
            checks.check(!records.is_empty() && kept > 0, || format!("{}: no batches", result.display()));
            let rcfg = reference_cfg(&cfg);
            let cache = GoldenCache::new();
            for i in sample(seed, records.len(), 4) {
                let rec = &records[i];
                let unit = units
                    .iter()
                    .find(|u| u.key == rec.unit)
                    .ok_or_else(|| format!("checkpoint names unknown unit {}", rec.unit))?;
                let got = UnitRunner::new(unit, &cache, &rcfg).run_batch(&rcfg, rec.batch).to_record(
                    rec.unit.clone(),
                    rec.batch,
                    rcfg.effective_model(),
                );
                checks.check(got == *rec, || {
                    format!(
                        "{} batch {}: reference run differs in {:?}",
                        rec.unit,
                        rec.batch,
                        differing_fields(&got, rec)
                    )
                });
            }
        }
        Workload::ExploreNative => {
            let spec = explore_spec(seed);
            let units: Vec<TrialUnit> = build_matrix(&explore_matrix_spec(&spec))
                .into_iter()
                .filter(|u| u.key.layer == Layer::Asm)
                .collect();
            let text = std::fs::read_to_string(result).map_err(|e| format!("read {}: {e}", result.display()))?;
            let report: ExploreReport = flowery::serde_json::from_str(&text).map_err(|e| format!("{e:?}"))?;
            let rspec = flowery::harness::ExploreSpec {
                snapshots: false,
                exec: ExecConfig { executor: ExecMode::Interp, ..spec.exec.clone() },
                ..spec.clone()
            };
            let sets = canonical_detector_sets(&spec);
            let cache = GoldenCache::new();
            for j in sample(seed, units.len() * spec.models.len(), 3) {
                let (unit, model) = (&units[j / spec.models.len()], spec.models[j % spec.models.len()]);
                let job = run_job(unit, model, &sets, &rspec, &cache);
                let frontier = report
                    .workloads
                    .iter()
                    .find(|r| r.bench == unit.key.bench)
                    .and_then(|r| r.models.iter().find(|m| m.fault_model == model));
                for (set, counts) in sets.iter().zip(&job.counts_per_set) {
                    let point = frontier.and_then(|f| {
                        f.points.iter().find(|p| {
                            p.variant == unit.key.variant
                                && p.level_permille == unit.key.level_permille
                                && p.detectors == *set
                        })
                    });
                    checks.check(
                        point.is_some_and(|p| p.counts == *counts && p.golden_cycles == job.golden_cycles),
                        || format!("{} under {model} with {set:?}: reference run differs", unit.key),
                    );
                }
            }
        }
        Workload::DiffEdit => {
            let base = baseline.ok_or("diff-edit needs --baseline")?;
            let cfg = harness_cfg(w, seed);
            let units = build_matrix(&matrix_spec(w, seed, &cfg, true)?);
            let baseline = Baseline::load(base, &cfg.header())?;
            let cache = GoldenCache::new();
            let (reports, tasks) = plan_diff(&units, &cfg, &cache, &baseline, &HashMap::new());
            let (_, _, written) = load_checkpoint_full(result)?;
            checks.check(written.len() == reports.len(), || {
                format!("{} region records written for {} units", written.len(), reports.len())
            });
            let rcfg = reference_cfg(&cfg);
            for t in sample(seed, tasks.len(), 2) {
                let task = &tasks[t];
                let unit = &units[task.unit_index];
                let Some(got) =
                    run_region_task(unit, &cache, &rcfg, &task.region, task.seed, task.mass, 0..task.trials)
                else {
                    continue;
                };
                let profile = written
                    .iter()
                    .find(|r| r.unit == unit.key)
                    .and_then(|r| r.regions.iter().find(|p| p.name == task.region));
                checks.check(
                    profile.is_some_and(|p| {
                        p.trials == task.trials
                            && p.counts == got.counts
                            && p.sdc_by_inst == got.sdc_by_inst
                            && p.sdc_insts == got.sdc_insts
                    }),
                    || format!("{} region {}: reference run differs", unit.key, task.region),
                );
            }
        }
    }
    Ok(())
}
