//! The four workloads: their parameters, and the inputs each one derives
//! from the workload seed.
//!
//! The seed is passed on as the campaign seed, the explore seed, the
//! profile seed of selective protection and the diff-edit's constant.
//! Sizes are fixed here so that one repetition takes a few seconds on a
//! 2-core host; `run.py` repeats it for the requested run length.

use flowery::backend::ExecMode;
use flowery::harness::{ExploreSpec, HarnessConfig, MatrixSpec};
use flowery::ir::interp::ExecConfig;
use flowery::workloads::{workload, Scale};

/// Worker threads of every workload (the measuring host has two cores).
pub const THREADS: usize = 2;

/// The multi-function workloads: each has at least one function besides
/// `main` for the diff-edit to change.
pub const DIFF_BENCHES: [&str; 8] = [
    "backprop",
    "pathfinder",
    "needle",
    "cg",
    "quicksort",
    "basicmath",
    "stringsearch",
    "patricia",
];

/// Suffix of the out-of-tree program names (`--src` programs may not
/// reuse a built-in workload's name).
const SRC_SUFFIX: &str = "_src";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CampaignNative,
    ExploreNative,
    CampaignLevels,
    DiffEdit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignNative,
        Workload::ExploreNative,
        Workload::CampaignLevels,
        Workload::DiffEdit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignNative => "campaign-native",
            Workload::ExploreNative => "explore-native",
            Workload::CampaignLevels => "campaign-levels",
            Workload::DiffEdit => "diff-edit",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}'"))
    }
}

/// The campaign schedule of a harness workload (`campaign`/`diff` flags);
/// explore's schedule is [`explore_spec`].
pub fn harness_cfg(w: Workload, seed: u64) -> HarnessConfig {
    let (max_trials, batch_size, min_trials, ci_target, static_prune, executor) = match w {
        // Fixed trial count, native engine.
        Workload::CampaignNative => (600, 100, 100, None, false, ExecMode::Native),
        // Adaptive stop, static prune, default engine.
        Workload::CampaignLevels => (400, 50, 100, Some(0.04), true, ExecMode::Compiled),
        // Default engine; the baseline fixture uses the same schedule.
        Workload::DiffEdit => (200, 50, 50, None, false, ExecMode::Compiled),
        Workload::ExploreNative => unreachable!("explore runs on explore_spec, not a harness schedule"),
    };
    HarnessConfig {
        max_trials,
        batch_size,
        min_trials,
        ci_target,
        seed,
        threads: THREADS,
        snapshots: true,
        static_prune,
        exec: ExecConfig { executor, ..ExecConfig::default() },
        ..HarnessConfig::default()
    }
}

/// The matrix of a harness workload, built as `flowery campaign` builds it
/// from its flags (explore's is [`explore_matrix_spec`]). `edited` selects
/// diff-edit's changed programs.
pub fn matrix_spec(w: Workload, seed: u64, cfg: &HarnessConfig, edited: bool) -> Result<MatrixSpec, String> {
    let (levels, sources) = match w {
        Workload::CampaignLevels => (vec![0.5], Vec::new()),
        Workload::DiffEdit => (vec![1.0], diff_sources(seed, edited)?),
        Workload::CampaignNative => (vec![1.0], Vec::new()),
        Workload::ExploreNative => unreachable!("explore builds its matrix from explore_spec"),
    };
    Ok(MatrixSpec {
        benches: Vec::new(),
        sources,
        scale: Scale::Standard,
        levels,
        profile_trials: (cfg.max_trials / 3).max(100),
        profile_seed: seed,
        threads: THREADS,
        ..MatrixSpec::default()
    })
}

/// The explore sweep: every workload, every registered fault model, the
/// four default detector sets, full protection only.
pub fn explore_spec(seed: u64) -> ExploreSpec {
    let trials = 300;
    ExploreSpec {
        scale: Scale::Standard,
        levels: vec![1.0],
        trials,
        seed,
        profile_trials: (trials * 2).clamp(100, 2000),
        threads: THREADS,
        snapshots: true,
        exec: ExecConfig { executor: ExecMode::Native, ..ExecConfig::default() },
        ..ExploreSpec::default()
    }
}

/// The matrix `explore` builds internally for `spec`.
pub fn explore_matrix_spec(spec: &ExploreSpec) -> MatrixSpec {
    MatrixSpec {
        benches: spec.benches.clone(),
        scale: spec.scale,
        levels: spec.levels.clone(),
        profile_trials: spec.profile_trials,
        threads: spec.threads,
        ..MatrixSpec::default()
    }
}

/// The built-in workload a (possibly out-of-tree) program name stands for.
pub fn bench_of(name: &str) -> &str {
    name.strip_suffix(SRC_SUFFIX).unwrap_or(name)
}

/// Diff-edit's programs as `(name, MiniC source)`: the multi-function
/// workloads, unedited for the baseline or with one seeded edit each.
pub fn diff_sources(seed: u64, edited: bool) -> Result<Vec<(String, String)>, String> {
    DIFF_BENCHES
        .iter()
        .map(|&bench| {
            let src = workload(bench, Scale::Standard).source;
            let src = if edited { edit_source(&src, bench, seed)? } else { src };
            Ok((format!("{bench}{SRC_SUFFIX}"), src))
        })
        .collect()
}

/// SplitMix64: a seeded stream for the benchmark's own choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_hash(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The function defined on a top-level line such as
/// `int min2(int a, int b) {`, if any.
fn defined_function(line: &str) -> Option<&str> {
    let (ty, rest) = line.split_once(' ')?;
    let ty = ty.trim_end_matches('*');
    if !matches!(ty, "int" | "float" | "void" | "byte") || !line.contains('{') {
        return None;
    }
    let (name, _) = rest.trim_start_matches('*').split_once('(')?;
    let name = name.trim();
    (!name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')).then_some(name)
}

/// One output-preserving statement edit: a dead local, initialised to a
/// seeded constant, declared at the top of the program's first non-`main`
/// function. It changes exactly that function's region and nothing the
/// program prints. The function is fixed so that every seed re-runs the
/// same regions and does the same amount of work; the seed picks the edit.
pub fn edit_source(src: &str, bench: &str, seed: u64) -> Result<String, String> {
    let mut lines: Vec<String> = src.split('\n').map(str::to_string).collect();
    let line = lines
        .iter_mut()
        .find(|l| defined_function(l).is_some_and(|f| f != "main"))
        .ok_or_else(|| format!("{bench}: no function besides main to edit"))?;
    let brace = line.find('{').expect("a function definition line opens its body");
    let constant = mix(seed ^ name_hash(bench)) % 997 + 1;
    line.insert_str(brace + 1, &format!(" int pb_edit = {constant};"));
    Ok(lines.join("\n"))
}
