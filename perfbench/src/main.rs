//! FormAD benchmark: cold prove, warm serve traffic and gradient
//! execution, end to end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <prove-cold|serve-mixed|gradient> --seed N \
//!           --seconds S --trace <0|1> [--formad PATH] [--tiny]
//! perfbench --workload all --seed N --seconds S [--formad PATH]
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run's record (host metadata, seed, corpus, sample counts, failures).
//! See `perfbench/README.md` for the metric definitions.

mod checks;
mod corpus;
mod gradient;
mod prove_cold;
mod serve_mixed;
mod spans;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use formad_serve::Json;

use crate::spans::Spans;
use crate::util::{median, Outcome};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["prove-cold", "serve-mixed", "gradient"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("serial_p50_ms", "ms"),
    ("proved_ratio", "1"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced runs report.
pub const LAYERS: [&str; 9] = [
    "ir", "analysis", "core", "smt", "ad", "machine", "runtime", "serve", "client",
];

/// Per-layer metrics, with units. A workload that does not exercise a
/// layer reports 0 for it (listed in its record as `not_exercised`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("ir.parse_ms", "ms"),
        ("analysis.activity_ms", "ms"),
        ("core.extract_ms", "ms"),
        ("core.validate_ms", "ms"),
        ("core.prove_ms", "ms"),
        ("core.fp_served_ratio", "1"),
        ("smt.queries", "count"),
        ("smt.query_ms", "ms"),
        ("smt.presolve_ratio", "1"),
        ("smt.lia_calls", "count"),
        ("smt.conflicts", "count"),
        ("smt.cache_hit_ratio", "1"),
        ("smt.disk_writes", "count"),
        ("ad.adjoint_ms", "ms"),
        ("ad.emit_ms", "ms"),
        ("ad.atomic_sites", "count"),
        ("machine.lower_ms", "ms"),
        ("machine.bytecode_ms", "ms"),
        ("machine.aot_codegen_ms", "ms"),
        ("machine.aot_build_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for (stem, unit) in [
        ("machine.grad_ms", "ms"),
        ("machine.grad_serial_ms", "ms"),
        ("machine.atomic_ops", "count"),
        ("machine.regions", "count"),
        ("machine.computed_bytes", "bytes"),
    ] {
        for k in gradient::KERNELS {
            v.push((format!("{stem}.{k}"), unit));
        }
    }
    v.push(("runtime.dispatch_us".into(), "us"));
    for k in gradient::KERNELS {
        v.push((format!("runtime.dispatch_share.{k}"), "1"));
    }
    for kind in serve_mixed::KINDS {
        v.push((format!("serve.{kind}_ms"), "ms"));
    }
    for kind in serve_mixed::KINDS {
        v.push((format!("serve.handle_ms.{kind}"), "ms"));
    }
    v.push(("serve.wire_ms".into(), "ms"));
    v.push(("serve.shed_ratio".into(), "1"));
    for layer in LAYERS {
        v.push((format!("self.{layer}_ms"), "ms"));
    }
    v.push(("trace.unattributed_share".into(), "1"));
    v.push(("trace.overhead_ratio".into(), "1"));
    v
}

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CI-scale inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Repository checkout the program is built from.
    pub root: PathBuf,
    /// Scratch directory of this run (AOT artifacts, cache dirs),
    /// removed at exit.
    pub work: PathBuf,
    /// Where span dumps and records are kept.
    pub out_dir: PathBuf,
    /// The `formad` binary serve-mixed spawns.
    pub formad: Option<PathBuf>,
    pub nproc: usize,
    /// Set-up times measured by probe processes before this one's own.
    pub probes: Vec<f64>,
}

impl Ctx {
    /// Median of the probes' set-up times and this process's own.
    pub fn setup_median(&self, own: f64) -> f64 {
        let mut all = self.probes.clone();
        all.push(own);
        median(&all)
    }

    pub fn setup_samples(&self, own: f64) -> Json {
        let mut all = self.probes.clone();
        all.push(own);
        Json::Arr(all.into_iter().map(Json::Num).collect())
    }

    /// Write the traced run's spans, one JSON object per line.
    pub fn write_spans(&self, sp: &Spans) -> Result<(), String> {
        let path = self
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed));
        sp.write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// A fresh directory under this run's scratch space.
    pub fn fresh_dir(&self, what: &str) -> Result<PathBuf, String> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let d = self.work.join(format!("{what}-{nanos}"));
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }
}

/// Per-layer self time, ms per op, from the spans' name prefixes.
pub fn layer_self_times(out: &mut Outcome, sp: &Spans, ops: u64) {
    let selfs = sp.self_ms();
    for layer in LAYERS {
        let total: f64 = selfs
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, ms)| ms)
            .sum();
        out.metric(format!("self.{layer}_ms"), total / ops.max(1) as f64, "ms");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    setup_only: bool,
    formad: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        setup_only: false,
        formad: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        let val = |k: usize| {
            argv.get(k + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[k]))
        };
        match argv[k].as_str() {
            "--workload" => a.workload = val(k)?,
            "--seed" => a.seed = val(k)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val(k)?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val(k)? == "1",
            "--formad" => a.formad = Some(PathBuf::from(val(k)?)),
            "--tiny" => {
                a.tiny = true;
                k += 1;
                continue;
            }
            "--setup-only" => {
                a.setup_only = true;
                k += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        k += 2;
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, got `{}`",
            a.workload
        ));
    }
    Ok(a)
}

/// The checkout the benchmark was built in: the parent of its package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn out_dir(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    target.join("perfbench")
}

/// Run the same binary with `extra` arguments and return its stdout.
fn run_self(args: &Args, workload: &str, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(f) = &args.formad {
        cmd.arg("--formad").arg(f);
    }
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("spawn probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} child exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Number of set-up probe processes run before the measuring process's
/// own set-up; `setup_s` is the median over all of them.
const SETUP_PROBES: usize = 2;

fn run_one(args: &Args, ctx: &mut Ctx) -> Result<(Outcome, Vec<(String, Json)>), String> {
    if args.setup_only {
        let s = match ctx.workload.as_str() {
            "prove-cold" => prove_cold::setup_only(ctx)?,
            "serve-mixed" => serve_mixed::setup_only(ctx)?,
            _ => gradient::setup_only(ctx)?,
        };
        println!("setup_s {s:?}");
        return Ok((Outcome::default(), Vec::new()));
    }
    for _ in 0..SETUP_PROBES {
        let stdout = run_self(args, &ctx.workload, &["--setup-only"])?;
        let s = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("setup_s "))
            .next_back()
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("set-up probe printed no time")?;
        ctx.probes.push(s);
    }
    let out = match ctx.workload.as_str() {
        "prove-cold" => prove_cold::run(ctx)?,
        "serve-mixed" => serve_mixed::run(ctx)?,
        _ => gradient::run_workload(ctx)?,
    };
    let mut record: Vec<(String, Json)> = vec![
        ("workload".into(), ctx.workload.as_str().into()),
        ("seed".into(), ctx.seed.into()),
        ("seconds".into(), ctx.seconds.into()),
        ("trace".into(), ctx.trace.into()),
        ("tiny".into(), ctx.tiny.into()),
    ];
    for (k, v) in util::host_metadata(&ctx.root) {
        record.push((k.to_string(), v));
    }
    Ok((out, record))
}

/// `--workload all`: each workload in its own process, one row each,
/// every end-to-end metric plus `fail_ratio`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut header = format!("{:<12}", "workload");
    for (name, unit) in END_TO_END {
        header.push_str(&format!(" {:>20}", format!("{name} [{unit}]")));
    }
    header.push_str(&format!(" {:>20}", "fail_ratio [1]"));
    let mut rows = vec![header];
    let mut all_ok = true;
    for w in WORKLOADS {
        let stdout = run_self(args, w, &["--trace", "0"])?;
        let last = stdout.lines().last().unwrap_or_default();
        let v = Json::parse(last).map_err(|e| format!("{w}: result line: {e}"))?;
        let metrics = v.get("metrics").ok_or("no metrics")?;
        let mut row = format!("{w:<12}");
        for (name, _) in END_TO_END {
            let x = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            row.push_str(&format!(" {x:>20.6}"));
        }
        let attempted = v.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        let failed = v.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        row.push_str(&format!(" {:>20.6}", failed / attempted.max(1.0)));
        all_ok &= v.get("correct").and_then(Json::as_bool) == Some(true);
        rows.push(row);
    }
    for r in rows {
        println!("{r}");
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let root = repo_root();
    let out_dir = out_dir(&root);
    let work = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    // In-process AOT builds land in this run's own, fresh directory.
    std::env::set_var("FORMAD_AOT_DIR", work.join("aot"));
    let mut ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        root,
        work: work.clone(),
        out_dir,
        formad: args.formad.clone(),
        nproc: util::nproc(),
        probes: Vec::new(),
    };
    let res = run_one(&args, &mut ctx);
    let _ = std::fs::remove_dir_all(&work);
    match res {
        Ok(_) if args.setup_only => ExitCode::SUCCESS,
        Ok((out, mut record)) => {
            let names: Vec<(String, &str)> = if ctx.trace {
                per_layer()
            } else {
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            };
            let missing: Vec<Json> = names
                .iter()
                .filter(|(n, _)| out.get(n).is_none())
                .map(|(n, _)| Json::from(n.as_str()))
                .collect();
            record.push(("attempted".into(), out.attempted.into()));
            record.push(("failed".into(), out.failed.into()));
            record.push((
                "failures".into(),
                Json::Arr(
                    out.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ));
            record.push(("not_exercised".into(), Json::Arr(missing)));
            record.extend(out.record.iter().cloned());
            let record = Json::Obj(record).render();
            let path = ctx.out_dir.join(format!(
                "record-{}-seed{}-trace{}.json",
                ctx.workload,
                ctx.seed,
                u8::from(ctx.trace)
            ));
            let _ = std::fs::write(&path, &record);
            println!("{record}");
            let refs: Vec<(&str, &str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
            println!("{}", util::result_line(&out, &refs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
