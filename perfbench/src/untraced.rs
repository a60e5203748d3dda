//! One untraced repetition of a workload: the public entry points the CLI
//! commands call, timed from the end of set-up to the final result being
//! written.

use crate::check::Checks;
use crate::workload::{explore_matrix_spec, explore_spec, harness_cfg, matrix_spec, Workload};
use flowery::backend::jit_stats;
use flowery::harness::{
    build_matrix, compact, explore, region_records, run_diff, run_units, write_canonical_full, Baseline,
    CampaignReport, CheckpointLog, ExploreReport, GoldenCache, HarnessConfig, Layer, RunOptions, SnapshotStore,
    TrialUnit,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one repetition measured and produced.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// The final result file; its bytes are the workload's answer.
    pub result: PathBuf,
    /// Counters that vary with thread interleaving (reported min–max).
    pub snap_captures: u64,
    pub jit_programs: u64,
    pub trials_run: u64,
}

/// `flowery campaign --checkpoint FILE` after its matrix build: run every
/// unit, record region profiles, leave the checkpoint canonical.
pub fn run_campaign(
    units: &[TrialUnit],
    cfg: &HarnessConfig,
    ckpt: &Path,
) -> Result<(CampaignReport, GoldenCache), String> {
    let log = CheckpointLog::create(ckpt, &cfg.header())?;
    let cache = GoldenCache::with_store(SnapshotStore::for_checkpoint(ckpt));
    let report = run_units(units, cfg, &cache, RunOptions { checkpoint: Some(&log), ..RunOptions::default() });
    if let Some(e) = &report.error {
        return Err(e.clone());
    }
    if report.interrupted || !report.pending.is_empty() {
        return Err(format!("campaign left {} unit(s) unfinished", report.pending.len()));
    }
    for rec in region_records(units, &report.units, &cache, cfg) {
        log.record_regions(&rec)?;
    }
    drop(log);
    compact(ckpt)?;
    Ok((report, cache))
}

/// Write an explore report as `flowery explore --out DIR` writes
/// `explore.json`.
pub fn write_report(path: &Path, report: &ExploreReport) -> Result<(), String> {
    let json = flowery::serde_json::to_string_pretty(report).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run `setup` and time it. The set-up is repeated, up to 50 calls or
/// 1 s in all, and the median call time is reported, so that a set-up of
/// a few milliseconds still reads steadily; the last call's value is
/// returned.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == 50 || times.iter().sum::<f64>() >= 1.0 {
            times.sort_by(f64::total_cmp);
            return Ok((times[times.len() / 2], value));
        }
    }
}

/// The untimed input of diff-edit: a finished campaign over the unedited
/// programs, whose checkpoint serves as the diff's baseline.
pub fn fixture(seed: u64, dir: &Path, checks: &mut Checks) -> Result<PathBuf, String> {
    let cfg = harness_cfg(Workload::DiffEdit, seed);
    let units = build_matrix(&matrix_spec(Workload::DiffEdit, seed, &cfg, false)?);
    let path = dir.join("baseline.jsonl");
    let (_, cache) = run_campaign(&units, &cfg, &path)?;
    checks.golden_outputs(&units, &cache, &cfg.exec);
    Ok(path)
}

pub fn rep(w: Workload, seed: u64, dir: &Path, baseline: Option<&Path>, checks: &mut Checks) -> Result<Rep, String> {
    match w {
        Workload::CampaignNative | Workload::CampaignLevels => {
            let cfg = harness_cfg(w, seed);
            let spec = matrix_spec(w, seed, &cfg, false)?;
            let (setup_s, units) = timed_setup(|| Ok(build_matrix(&spec)))?;
            let ckpt = dir.join("campaign.jsonl");
            let t1 = Instant::now();
            let (report, cache) = run_campaign(&units, &cfg, &ckpt)?;
            let wall_s = t1.elapsed().as_secs_f64();
            let jit_programs = jit_stats().programs;
            checks.golden_outputs(&units, &cache, &cfg.exec);
            Ok(Rep {
                setup_s,
                wall_s,
                result: ckpt,
                snap_captures: report.metrics.snap_captures,
                jit_programs,
                trials_run: report.metrics.trials,
            })
        }
        Workload::ExploreNative => {
            let spec = explore_spec(seed);
            // `explore` builds the same matrix again inside; its wall time
            // therefore includes one matrix build.
            let (setup_s, units) = timed_setup(|| {
                let units = build_matrix(&explore_matrix_spec(&spec));
                Ok(units.into_iter().filter(|u| u.key.layer == Layer::Asm).collect::<Vec<_>>())
            })?;
            let path = dir.join("explore.json");
            let t1 = Instant::now();
            let cache = GoldenCache::new();
            let report = explore(&spec, &cache);
            write_report(&path, &report)?;
            let wall_s = t1.elapsed().as_secs_f64();
            let jit_programs = jit_stats().programs;
            checks.golden_outputs(&units, &cache, &spec.exec);
            Ok(Rep {
                setup_s,
                wall_s,
                result: path,
                snap_captures: cache.stats().snap_captures,
                jit_programs,
                trials_run: units.len() as u64 * spec.models.len() as u64 * spec.trials,
            })
        }
        Workload::DiffEdit => {
            let base = baseline.ok_or("diff-edit needs --baseline (see `perfbench fixture`)")?;
            let cfg = harness_cfg(w, seed);
            let spec = matrix_spec(w, seed, &cfg, true)?;
            let (setup_s, (baseline, units)) = timed_setup(|| {
                let baseline = Baseline::load(base, &cfg.header())?;
                if baseline.pre_region {
                    return Err(format!("{}: baseline has no region records", base.display()));
                }
                Ok((baseline, build_matrix(&spec)))
            })?;
            let out = dir.join("composed.jsonl");
            let t1 = Instant::now();
            let cache = GoldenCache::new();
            let report = run_diff(&units, &cfg, &cache, &baseline, &HashMap::new());
            write_canonical_full(&out, &cfg.header(), &[], &report.records())?;
            let wall_s = t1.elapsed().as_secs_f64();
            let jit_programs = jit_stats().programs;
            // The edits preserve output: every edited unit must still print
            // its unedited workload's pinned output.
            checks.golden_outputs(&units, &cache, &cfg.exec);
            Ok(Rep {
                setup_s,
                wall_s,
                result: out,
                snap_captures: cache.stats().snap_captures,
                jit_programs,
                trials_run: report.metrics.trials,
            })
        }
    }
}
