//! `perfbench` — the measuring process of flowery's benchmark of record.
//!
//! `run.py` starts a fresh process for every repetition, so process-wide
//! state (the golden cache, the JIT counters, peak RSS) never carries over
//! from one repetition to the next:
//!
//! ```text
//! perfbench fixture --workload W --seed S --dir D            untimed inputs (diff-edit's baseline)
//! perfbench rep     --workload W --seed S --dir D [--baseline F]
//!                                                            one untraced repetition
//! perfbench verify  --workload W --seed S --result F [--baseline F]
//!                                                            reference re-execution of a sample
//! perfbench trace   --workload W --seed S --dir D --trace-out F [--baseline F]
//!                                                            one traced repetition + per-layer metrics
//! ```
//!
//! Each prints one JSON object as its last line of standard output and
//! exits nonzero on an error.

mod check;
mod spans;
mod traced;
mod untraced;
mod workload;

use check::Checks;
use spans::{self_by_layer, self_times, total, Span, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, THREADS};

struct Args {
    argv: Vec<String>,
    workload: Workload,
    seed: u64,
}

impl Args {
    fn opt(&self, name: &str) -> Option<&str> {
        let i = self.argv.iter().position(|a| a == name)?;
        self.argv.get(i + 1).map(String::as_str)
    }

    /// A path option the command cannot do without.
    fn path(&self, name: &str) -> Result<&Path, String> {
        self.opt(name).map(Path::new).ok_or(format!("{} needs {name}", self.argv[0]))
    }

    fn baseline(&self) -> Option<&Path> {
        self.opt("--baseline").map(Path::new)
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err("usage: perfbench <fixture|rep|verify|trace> --workload W --seed S ...".into());
    }
    let mut a = Args { argv, workload: Workload::CampaignNative, seed: 0 };
    a.workload = Workload::parse(a.opt("--workload").ok_or("missing --workload")?)?;
    let seed = a.opt("--seed").ok_or("missing --seed")?;
    a.seed = seed.parse().map_err(|_| format!("bad --seed '{seed}'"))?;
    Ok(a)
}

/// A JSON number; non-finite values (an empty ratio) and -0 print as 0.
fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", string(k))).collect();
    format!("{{{}}}", body.join(","))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| file_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Golden runs of every distinct assembly program through the workload's
/// own engine, with no harness around them: (instructions, seconds) of a
/// second run, after the first compiled the program and built the memory
/// image.
fn pure_asm(c: &traced::Counters) -> (u64, f64) {
    let mut seen = std::collections::HashSet::new();
    let (mut insts, mut secs) = (0u64, 0.0);
    for u in &c.units {
        let Some(p) = u.program.as_deref() else { continue };
        if !seen.insert(p as *const _) {
            continue;
        }
        let mach = flowery::backend::Machine::new(&u.module, p);
        let mut scratch = flowery::backend::AsmScratch::new();
        std::hint::black_box(mach.run_scratch(&c.exec, None, &mut scratch));
        let t = Instant::now();
        let r = std::hint::black_box(mach.run_scratch(&c.exec, None, &mut scratch));
        secs += t.elapsed().as_secs_f64();
        insts += r.dyn_insts;
    }
    (insts, secs)
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(spans: &[Span], c: &traced::Counters, checks: &mut Checks) -> BTreeMap<String, f64> {
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let in_setup = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.and_then(|p| names.get(&p)) == Some(&"run.setup"))
            .map(Span::dur)
            .sum()
    };
    let sum_of = |names: &[&str]| -> f64 { names.iter().map(|n| total(spans, n)).sum() };
    let jit = flowery::backend::jit_stats();
    let wall = c.wall_s;
    let (ir_trials, ir_exec, ir_ff) = c.ir.get();
    let (asm_trials, asm_exec, asm_ff) = c.asm.get();
    let ir_busy = sum_of(&["ir.batch", "ir.region_task"]);
    let asm_busy = sum_of(&["asm.batch", "asm.job", "asm.region_task"]);
    let region_busy = sum_of(&["ir.region_task", "asm.region_task"]);
    let worker_busy: f64 = spans.iter().filter(|s| s.tid > 0).map(Span::dur).sum();
    let (pure_insts, pure_secs) = pure_asm(c);
    let asm_mips = ratio(asm_exec as f64, asm_busy) / 1e6;
    let pure_mips = ratio(pure_insts as f64, pure_secs) / 1e6;
    // The part of the traced wall time that some layer span covers: the
    // top-level spans of the timed window (`run.execute`, `run.finalize`)
    // minus their self time, which no layer call accounts for.
    let selfs = self_times(spans);
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name != "run.setup")
        .map(|s| s.dur() - selfs[&s.id])
        .sum();
    let coverage = ratio(covered, wall);
    checks.check(coverage >= 0.95, || {
        format!("layer spans cover only {:.1}% of the traced wall time", coverage * 100.0)
    });
    let result_bytes = if c.result.extension().is_some_and(|e| e == "jsonl") {
        file_bytes(&c.result)
    } else {
        0
    };
    let mut snaps = c.result.clone().into_os_string();
    snaps.push(".snaps");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("lang.compile_s", in_setup("lang.compile"));
    put("inject.profile_s", in_setup("inject.profile"));
    put("passes.protect_s", in_setup("passes.protect"));
    put("backend.codegen_s", in_setup("backend.codegen"));
    put(
        "backend.code_insts",
        c.units
            .iter()
            .filter_map(|u| u.program.as_ref())
            .map(|p| p.insts.len() as f64)
            .sum(),
    );
    put("backend.jit_compile_ms", jit.compile_ms);
    put("backend.jit_fallbacks", jit.fallbacks as f64);
    put("cache.capture_s", total(spans, "cache.capture"));
    put("cache.hit_rate", c.cache_hit_rate);
    put("ir.busy_s", ir_busy);
    put("ir.trial_us", ratio(ir_busy, ir_trials as f64) * 1e6);
    put("ir.mips", ratio(ir_exec as f64, ir_busy) / 1e6);
    put("ir.ff_ratio", ratio(ir_ff as f64, (ir_ff + ir_exec) as f64));
    put("asm.busy_s", asm_busy);
    put("asm.trial_us", ratio(asm_busy, asm_trials as f64) * 1e6);
    put("asm.mips", asm_mips);
    put("asm.ff_ratio", ratio(asm_ff as f64, (asm_ff + asm_exec) as f64));
    put("asm.pure_mips", pure_mips);
    put("asm.harness_ratio", ratio(pure_mips, asm_mips));
    put("harness.useful_frac", ratio(c.trials_kept as f64, c.trials_run as f64));
    put("harness.idle_frac", 1.0 - ratio(worker_busy, THREADS as f64 * wall));
    put("harness.trials_per_s", ratio(c.trials_run as f64, wall));
    put("analysis.bits_s", total(spans, "analysis.bits"));
    put("prior.pruned_frac", ratio(c.pruned as f64, c.trials_run as f64));
    put("checkpoint.append_s", total(spans, "checkpoint.append"));
    put("checkpoint.compact_s", total(spans, "checkpoint.compact"));
    put("checkpoint.bytes", result_bytes as f64);
    put("snapstore.bytes", dir_bytes(Path::new(&snaps)) as f64);
    put("checkpoint.load_s", in_setup("checkpoint.load"));
    put("diff.plan_s", total(spans, "diff.plan"));
    put("diff.trial_us", ratio(region_busy, c.diff_trials_run as f64) * 1e6);
    let (region_ff, region_exec) = if c.diff_trials_run > 0 {
        (ir_ff + asm_ff, ir_exec + asm_exec)
    } else {
        (0, 0)
    };
    put("diff.ff_ratio", ratio(region_ff as f64, (region_ff + region_exec) as f64));
    put(
        "diff.saved_frac",
        ratio(c.diff_trials_saved as f64, (c.diff_trials_saved + c.diff_trials_run) as f64),
    );
    put("diff.compose_s", total(spans, "diff.compose"));
    put("trace.coverage", coverage);
    // One self time per layer that has spans in this workload.
    for (layer, secs) in self_by_layer(spans) {
        put(&format!("self.{layer}_s"), secs);
    }
    m
}

fn run(a: &Args) -> Result<String, String> {
    let mut checks = Checks::default();
    let counts = |checks: &Checks| [("attempted", checks.attempted.to_string()), ("failed", checks.failed.to_string())];
    match a.argv[0].as_str() {
        "fixture" => {
            let path = untraced::fixture(a.seed, a.path("--dir")?, &mut checks)?;
            let [x, y] = counts(&checks);
            Ok(object(&[("baseline", string(&path.display().to_string())), x, y]))
        }
        "rep" => {
            let r = untraced::rep(a.workload, a.seed, a.path("--dir")?, a.baseline(), &mut checks)?;
            let [x, y] = counts(&checks);
            Ok(object(&[
                ("setup_s", num(r.setup_s)),
                ("wall_s", num(r.wall_s)),
                ("result", string(&r.result.display().to_string())),
                ("snap_captures", r.snap_captures.to_string()),
                ("jit_programs", r.jit_programs.to_string()),
                ("trials_run", r.trials_run.to_string()),
                x,
                y,
            ]))
        }
        "verify" => {
            check::reference(a.workload, a.seed, a.path("--result")?, a.baseline(), &mut checks)?;
            let [x, y] = counts(&checks);
            Ok(object(&[x, y]))
        }
        "trace" => {
            let out = a.path("--trace-out")?;
            let tr = Tracer::new();
            let c = traced::run(a.workload, a.seed, a.path("--dir")?, a.baseline(), &tr)?;
            let spans = tr.into_spans();
            let setup_s = total(&spans, "run.setup");
            let run_id = format!("{}-seed{}", a.workload.name(), a.seed);
            std::fs::write(out, spans::chrome_json(&spans, &run_id))
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            let metrics = layer_metrics(&spans, &c, &mut checks);
            let [x, y] = counts(&checks);
            let metrics: Vec<(&str, String)> = metrics.iter().map(|(k, v)| (k.as_str(), num(*v))).collect();
            Ok(object(&[
                ("setup_s", num(setup_s)),
                ("wall_s", num(c.wall_s)),
                ("result", string(&c.result.display().to_string())),
                ("distinct_sets", traced::distinct_sets(&c.units).to_string()),
                x,
                y,
                ("metrics", object(&metrics)),
            ]))
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::FAILURE
        }
    }
}
