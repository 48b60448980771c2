//! `gradient`: the adjoints `differentiate` emits for the five
//! executable kernels at the `bench-kernels` full sizes, executed on the
//! AOT backend round-robin in a closed loop at T=nproc, interleaved with
//! the same loop at T=1.
//!
//! The end-to-end metrics are the T=1 loop's. At T=nproc every parallel
//! region waits for a second worker, and on a host whose cores are shared
//! with other tenants that wait, not the kernel, set the time: over ten
//! runs the T=nproc median ranged over 67% and its p90 over 2.6×, while
//! T=1 stayed within 9%. The T=nproc figures are kept in the record
//! (`parallel_*`) and per kernel in the traced run (`machine.grad_ms.*`).

use std::sync::Arc;
use std::time::Instant;

use formad::{Formad, FormadOptions, IncMode};
use formad_ir::{parse_any, program_to_string, Program};
use formad_kernels::{GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::aot::generate_source;
use formad_machine::{
    compile, dot_product_test_with, load_or_compile, lower, run, run_native, AotKernel, BcProgram,
    Bindings, Machine, NativeEngine,
};

use crate::checks::{self, FD_TOL};
use crate::spans::Spans;
use crate::util::{geomean, median, percentile, Outcome, Rng};
use crate::Ctx;
use formad_serve::Json;

/// Metric suffixes of the five kernels, in round-robin order.
pub const KERNELS: [&str; 5] = ["stencil1", "stencil8", "gfmc", "green_gauss", "lbm"];

/// Rounds (every kernel once at each thread count) per statistics window.
const ROUNDS_PER_WINDOW: usize = 20;

/// A kernel as the program receives it: primal source text, input
/// bindings, and the differentiation variables.
struct Input {
    name: &'static str,
    source: String,
    base: Bindings,
    wrt: Vec<String>,
    of: Vec<String>,
}

fn owned(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

fn inputs(ctx: &Ctx) -> Vec<Input> {
    let (st_n, st_sweeps, gf_ns, gf_reps, gg_nodes, gg_reps) = if ctx.tiny {
        (512, 1, 16, 1, 512, 1)
    } else {
        (100_000, 2, 96, 2, 50_000, 2)
    };
    let seed = ctx.seed;
    let st1 = StencilCase::small(st_n, st_sweeps);
    let st8 = StencilCase::large(st_n, st_sweeps);
    let gf = GfmcCase::new(gf_ns, gf_reps);
    let gg = GreenGaussCase::linear(gg_nodes, gg_reps);
    let lbm = if ctx.tiny {
        LbmExecCase::smoke()
    } else {
        LbmExecCase::full()
    };
    let st_io = (
        owned(StencilCase::independents()),
        owned(StencilCase::dependents()),
    );
    vec![
        Input {
            name: "stencil1",
            source: program_to_string(&st1.ir()),
            base: st1.bindings(seed),
            wrt: st_io.0.clone(),
            of: st_io.1.clone(),
        },
        Input {
            name: "stencil8",
            source: program_to_string(&st8.ir()),
            base: st8.bindings(seed),
            wrt: st_io.0,
            of: st_io.1,
        },
        Input {
            name: "gfmc",
            source: program_to_string(&gf.ir()),
            base: gf.bindings_split(seed),
            wrt: owned(GfmcCase::independents()),
            of: owned(GfmcCase::dependents()),
        },
        Input {
            name: "green_gauss",
            source: program_to_string(&gg.ir()),
            base: gg.bindings(seed),
            wrt: owned(GreenGaussCase::independents()),
            of: owned(GreenGaussCase::dependents()),
        },
        Input {
            name: "lbm",
            source: lbm.source(),
            base: lbm.bindings(seed),
            wrt: owned(LbmExecCase::independents()),
            of: owned(LbmExecCase::dependents()),
        },
    ]
}

/// One kernel after set-up: everything a timed gradient needs.
struct Built {
    name: &'static str,
    primal: Program,
    adjoint: Program,
    /// Adjoint bindings: seeded output weights, zeroed input adjoints.
    bind: Bindings,
    bc: BcProgram,
    kernel: Arc<AotKernel>,
    /// Adjoint arrays analyzed / without atomics.
    arrays: usize,
    proved: usize,
    atomic_sites: usize,
}

/// Output weights drawn from the seed; input adjoints start at zero.
fn adjoint_bindings(input: &Input, adjoint: &Program, seed: u64) -> Bindings {
    let mut b = input.base.clone();
    let mut rng = Rng::new(seed ^ 0xad);
    for d in &input.of {
        let len = input.base.real_arrays[d].len();
        let w = (0..len).map(|_| rng.unit() * 2.0 - 1.0).collect();
        b.real_arrays.insert(format!("{d}b"), w);
    }
    for p in &adjoint.params {
        if p.is_array() && p.ty == formad_ir::Ty::Real && !b.real_arrays.contains_key(&p.name) {
            if let Some(stem) = p.name.strip_suffix('b') {
                if let Some(a) = input.base.real_arrays.get(stem) {
                    b.real_arrays.insert(p.name.clone(), vec![0.0; a.len()]);
                }
            }
        }
    }
    b
}

/// Run `f`, as a span when tracing.
fn timed<T>(sp: &mut Option<&mut Spans>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    match sp.as_deref_mut() {
        Some(s) => s.time(name, op, None, f),
        None => f(),
    }
}

/// analyze + AD + lower + compile + load_or_compile for every kernel
/// (the AOT directory is fresh, so every build is a cold `rustc`).
/// With `sp`, each public call is a span.
fn setup(ctx: &Ctx, mut sp: Option<&mut Spans>) -> Result<Vec<Built>, String> {
    let mut built = Vec::new();
    for (k, input) in inputs(ctx).into_iter().enumerate() {
        let op = k as u64 + 1;
        let primal = timed(&mut sp, "ir.parse", op, || parse_any(&input.source))
            .map_err(|e| format!("{}: parse: {e}", input.name))?;
        let wrt: Vec<&str> = input.wrt.iter().map(String::as_str).collect();
        let of: Vec<&str> = input.of.iter().map(String::as_str).collect();
        let diff = timed(&mut sp, "core.differentiate", op, || {
            Formad::new(FormadOptions::new(&wrt, &of)).differentiate(&primal)
        })
        .map_err(|e| format!("{}: {e}", input.name))?;
        let bind = adjoint_bindings(&input, &diff.adjoint, ctx.seed);
        let lp = timed(&mut sp, "machine.lower", op, || lower(&diff.adjoint, &bind))
            .map_err(|e| format!("{}: lower: {e}", input.name))?;
        let bc = timed(&mut sp, "machine.bytecode", op, || {
            compile(&lp, &diff.adjoint)
        })
        .map_err(|e| format!("{}: bytecode: {e}", input.name))?;
        if sp.is_some() {
            // Codegen alone, for its own figure; the build below repeats it.
            let _ = timed(&mut sp, "machine.aot_codegen", op, || {
                generate_source(&lp, &bc)
            });
        }
        let kernel = timed(&mut sp, "machine.aot_build", op, || {
            load_or_compile(&lp, &bc)
        })
        .map_err(|e| format!("{}: aot: {e}", input.name))?;
        let modes = diff.analysis.discipline_map();
        built.push(Built {
            name: input.name,
            primal,
            arrays: modes.len(),
            proved: modes
                .iter()
                .filter(|(_, _, m)| *m != IncMode::Atomic)
                .count(),
            atomic_sites: program_to_string(&diff.adjoint)
                .matches("!$omp atomic")
                .count(),
            adjoint: diff.adjoint,
            bind,
            bc,
            kernel,
        });
    }
    Ok(built)
}

pub fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    let t0 = Instant::now();
    setup(ctx, None)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// The verified gradient of one kernel per engine, and what the
/// simulated run at T=nproc counted.
struct Verified {
    /// Simulated-interpreter result at each engine's thread count.
    references: Vec<Bindings>,
    /// True when the adjoint has no atomic increments, so every thread
    /// count must reproduce its reference bit for bit.
    deterministic_parallel: bool,
    stats: formad_machine::ExecStats,
}

impl Verified {
    /// Check an executed gradient against the reference for its engine.
    fn check(&self, name: &str, engine: usize, threads: usize, got: &Bindings) -> Option<String> {
        let det = self.deterministic_parallel || threads == 1;
        checks::same_gradient(&self.references[engine], got, det)
            .map(|e| format!("{name} T={threads}: {e}"))
    }
}

/// Check one built kernel against the simulated interpreter at every
/// engine's thread count, and against finite differences.
fn verify(
    b: &Built,
    engines: &mut [NativeEngine],
    seed: u64,
    out: &mut Outcome,
) -> Option<Verified> {
    let mut references = Vec::new();
    let mut stats = None;
    for engine in engines.iter() {
        let mut sim = b.bind.clone();
        match run(
            &b.adjoint,
            &mut sim,
            &Machine::with_threads(engine.threads()),
        ) {
            Ok(r) => {
                stats.get_or_insert(r.stats);
                references.push(sim);
            }
            Err(e) => {
                out.check(Some(format!("{}: simulated run: {e}", b.name)));
                return None;
            }
        }
    }
    let v = Verified {
        references,
        deterministic_parallel: b.atomic_sites == 0,
        stats: stats.unwrap_or_default(),
    };
    for (k, engine) in engines.iter_mut().enumerate() {
        let mut got = b.bind.clone();
        let err = match engine.run_with(&b.bc, Some(&b.kernel), &mut got) {
            Err(e) => Some(format!("{}: aot run: {e}", b.name)),
            Ok(()) => v.check(b.name, k, engine.threads(), &got),
        };
        out.check(err);
    }
    out.check(fd_check(b, seed));
    Some(v)
}

/// One finite-difference dot-product test: ⟨ȳ, J·v⟩ against ⟨x̄, v⟩.
fn fd_check(b: &Built, seed: u64) -> Option<String> {
    let mut rng = Rng::new(seed ^ 0xfd);
    let mut base = b.bind.clone();
    base.real_arrays
        .retain(|name, _| b.primal.params.iter().any(|p| &p.name == name));
    let mut dirs = Vec::new();
    let mut weights = Vec::new();
    for p in &b.adjoint.params {
        let Some(stem) = p.name.strip_suffix('b') else {
            continue;
        };
        let Some(arr) = base.real_arrays.get(stem) else {
            continue;
        };
        let w = &b.bind.real_arrays[&p.name];
        if w.iter().any(|x| *x != 0.0) {
            weights.push((stem.to_string(), w.clone()));
        } else {
            let v: Vec<f64> = (0..arr.len()).map(|_| rng.unit() * 2.0 - 1.0).collect();
            dirs.push((stem.to_string(), v));
        }
    }
    let dirs_ref: Vec<(&str, Vec<f64>)> =
        dirs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let weights_ref: Vec<(&str, Vec<f64>)> = weights
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    match dot_product_test_with(
        &b.primal,
        &b.adjoint,
        &base,
        &dirs_ref,
        &weights_ref,
        1e-6,
        "b",
        |p, bind| run_native(p, bind, 1),
    ) {
        Ok(t) if t.passes(FD_TOL) => None,
        Ok(t) => Some(format!(
            "{}: dot-product test fd {} vs adjoint {} (rel {:.3e})",
            b.name, t.fd_value, t.adjoint_value, t.rel_error
        )),
        Err(e) => Some(format!("{}: dot-product test: {e}", b.name)),
    }
}

pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut sp = Spans::new(origin);
    let t0 = Instant::now();
    let built = setup(ctx, ctx.trace.then_some(&mut sp))?;
    let own_setup = t0.elapsed().as_secs_f64();
    out.note("setup_samples_s", ctx.setup_samples(own_setup));
    let setup_s = ctx.setup_median(own_setup);
    out.note(
        "corpus_why",
        "the five executable kernels of the paper's figures at bench-kernels full \
         sizes; inputs drawn from the seed",
    );
    out.note("corpus_programs", built.len());
    let texts: Vec<String> = built
        .iter()
        .map(|b| program_to_string(&b.adjoint))
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    out.note("corpus_digest", crate::util::digest(&refs));

    let nproc = ctx.nproc;
    let mut engines = vec![NativeEngine::new(nproc), NativeEngine::new(1)];
    let mut verified = Vec::new();
    for b in &built {
        verified.push(verify(b, &mut engines, ctx.seed, &mut out));
    }

    // Closed loop: kernel by kernel, T=nproc then T=1, until time is up.
    // Throughput is taken per round (every kernel once at each thread
    // count), and its median reported, so one stalled gradient does not
    // move it.
    let mut par: Vec<Vec<f64>> = vec![Vec::new(); built.len()];
    let mut ser: Vec<Vec<f64>> = vec![Vec::new(); built.len()];
    let mut round_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds || round_rates[0].is_empty() {
        let mut round_ms = [0.0; 2];
        for (k, b) in built.iter().enumerate() {
            for (e, engine) in engines.iter_mut().enumerate() {
                let mut bind = b.bind.clone();
                ops += 1;
                let op = ctx.trace.then(|| sp.begin("op", ops, None));
                let exec = op.map(|op| sp.begin("machine.exec", ops, Some(op)));
                let t = Instant::now();
                let res = engine.run_with(&b.bc, Some(&b.kernel), &mut bind);
                let dt = t.elapsed().as_secs_f64() * 1e3;
                if let (Some(op), Some(exec)) = (op, exec) {
                    sp.end(exec);
                    sp.end(op);
                }
                round_ms[e] += dt;
                if e == 0 {
                    par[k].push(dt);
                } else {
                    ser[k].push(dt);
                }
                out.check(match (res, &verified[k]) {
                    (Err(err), _) => Some(format!("{}: {err}", b.name)),
                    (Ok(()), None) => Some(format!("{}: no verified reference", b.name)),
                    (Ok(()), Some(v)) => v.check(b.name, e, engine.threads(), &bind),
                });
            }
        }
        for (rates, ms) in round_rates.iter_mut().zip(round_ms) {
            rates.push(built.len() as f64 / (ms / 1e3));
        }
    }
    // Per window of ROUNDS_PER_WINDOW rounds: each kernel's percentile,
    // geomean over kernels. The metrics are medians over windows (a
    // trailing short window is dropped when others exist).
    let windows = (round_rates[0].len() / ROUNDS_PER_WINDOW).max(1);
    let per_window = |times: &[Vec<f64>], q: f64| -> Vec<f64> {
        (0..windows)
            .map(|w| {
                let per_kernel: Vec<f64> = times
                    .iter()
                    .map(|t| {
                        let lo = (w * ROUNDS_PER_WINDOW).min(t.len());
                        let hi = if windows == 1 {
                            t.len()
                        } else {
                            (lo + ROUNDS_PER_WINDOW).min(t.len())
                        };
                        percentile(&t[lo..hi], q)
                    })
                    .collect();
                geomean(&per_kernel)
            })
            .collect()
    };
    let window_p50 = per_window(&ser, 0.5);
    let parallel_p50 = per_window(&par, 0.5);
    let list = |xs: &[f64]| Json::Arr(xs.iter().map(|x| Json::Num(*x)).collect());
    out.note("window_p50_ms", list(&window_p50));
    out.note("parallel_window_p50_ms", list(&parallel_p50));
    out.note("parallel_threads", nproc);
    out.note("parallel_ops_per_s", median(&round_rates[0]));
    out.note("parallel_p50_ms", median(&parallel_p50));
    out.note("parallel_p90_ms", median(&per_window(&par, 0.9)));
    let grads: usize = par.iter().map(Vec::len).sum();
    out.note("samples_per_kernel", par[0].len());
    out.note("samples", grads);
    out.note("rounds", round_rates[0].len());
    out.note("windows", windows);
    let (proved, arrays) = built
        .iter()
        .fold((0, 0), |(p, a), b| (p + b.proved, a + b.arrays));
    if !ctx.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", median(&round_rates[1]), "1/s");
        out.metric("latency_p50_ms", median(&window_p50), "ms");
        out.metric("latency_p90_ms", median(&per_window(&ser, 0.9)), "ms");
        // The measured loop is already the one-thread loop.
        out.metric("serial_p50_ms", median(&window_p50), "ms");
        out.metric("proved_ratio", proved as f64 / arrays.max(1) as f64, "1");
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(None), "MB");
        return Ok(out);
    }

    // Per-layer figures.
    let setup_ms = |name: &str| -> f64 { sp.durations(name).iter().sum() };
    out.metric("machine.lower_ms", setup_ms("machine.lower"), "ms");
    out.metric("machine.bytecode_ms", setup_ms("machine.bytecode"), "ms");
    out.metric(
        "machine.aot_codegen_ms",
        setup_ms("machine.aot_codegen"),
        "ms",
    );
    out.metric("machine.aot_build_ms", setup_ms("machine.aot_build"), "ms");
    out.metric(
        "ad.atomic_sites",
        built.iter().map(|b| b.atomic_sites).sum::<usize>() as f64,
        "count",
    );
    let dispatch_us = dispatch_us(nproc);
    out.metric("runtime.dispatch_us", dispatch_us, "us");
    for (k, b) in built.iter().enumerate() {
        let g = median(&par[k]);
        out.metric(format!("machine.grad_ms.{}", b.name), g, "ms");
        out.metric(
            format!("machine.grad_serial_ms.{}", b.name),
            median(&ser[k]),
            "ms",
        );
        let stats = verified[k].as_ref().map(|v| v.stats).unwrap_or_default();
        out.metric(
            format!("machine.atomic_ops.{}", b.name),
            stats.atomic_ops as f64,
            "count",
        );
        out.metric(
            format!("machine.regions.{}", b.name),
            stats.parallel_regions as f64,
            "count",
        );
        out.metric(
            format!("machine.computed_bytes.{}", b.name),
            8.0 * (stats.reads + stats.writes) as f64,
            "bytes",
        );
        out.metric(
            format!("runtime.dispatch_share.{}", b.name),
            stats.parallel_regions as f64 * dispatch_us / 1e3 / g,
            "1",
        );
    }
    crate::layer_self_times(&mut out, &sp, ops);
    out.metric("trace.unattributed_share", sp.unattributed_share("op"), "1");
    out.metric(
        "trace.overhead_ratio",
        overhead_ratio(&built, &mut engines[0]),
        "1",
    );
    ctx.write_spans(&sp)?;
    Ok(out)
}

/// Median wall time of one `ThreadPool::run(nproc, no-op)`, in µs.
fn dispatch_us(nproc: usize) -> f64 {
    let pool = formad_runtime::pool::ThreadPool::new(nproc);
    let noop = |_t: usize| {};
    for _ in 0..200 {
        pool.run(nproc, &noop);
    }
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        pool.run(nproc, &noop);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Span-recording cost: median gradient time with a span around each
/// call over the median without, at T=nproc.
fn overhead_ratio(built: &[Built], engine: &mut NativeEngine) -> f64 {
    let mut sp = Spans::new(Instant::now());
    let mut with = Vec::new();
    let mut without = Vec::new();
    for round in 0..20u64 {
        for b in built {
            let mut bind = b.bind.clone();
            let t = Instant::now();
            let _ = engine.run_with(&b.bc, Some(&b.kernel), &mut bind);
            without.push(t.elapsed().as_secs_f64());
            let mut bind = b.bind.clone();
            let t = Instant::now();
            let id = sp.begin("machine.exec", round, None);
            let _ = engine.run_with(&b.bc, Some(&b.kernel), &mut bind);
            sp.end(id);
            with.push(t.elapsed().as_secs_f64());
        }
    }
    crate::util::sum(&with) / crate::util::sum(&without)
}
