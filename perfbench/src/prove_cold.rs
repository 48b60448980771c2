//! `prove-cold`: one closed-loop caller turns source text into verdicts
//! and an emitted adjoint, each program on a fresh engine with no cache
//! directory (the `formad adjoint --jobs 1` path): `parse_any` →
//! `differentiate` → printing.
//!
//! Proving runs in-line on the caller's thread (`jobs = 1`), as each
//! daemon request does. With a prover thread per core, every program
//! hands work to a second thread, and on a host whose cores are shared
//! with other tenants that handoff, not the analysis, set the tail: over
//! ten seeds the p90 spread (IQR over median) was 0.44 with a thread per
//! core, and 0.04–0.06 in-line over the next two sets of ten.

use std::time::Instant;

use formad::{full_report, Formad, FormadOptions, TraceEvent, TraceSink};
use formad_ir::{parse_any, program_to_string, Program};
use formad_serve::Json;

use crate::checks;
use crate::corpus::{self, proved_counts, verdict_lines, Entry};
use crate::spans::Spans;
use crate::util::{median, sum, windowed, Outcome, Rng};
use crate::Ctx;

/// Generated programs drawn per seed (beside the six Table-1 kernels).
pub fn generated_count(ctx: &Ctx) -> usize {
    if ctx.tiny {
        6
    } else {
        800
    }
}

/// One program's checked output from the untimed warm-up pass.
struct Reference {
    adjoint: String,
    verdicts: Vec<String>,
    /// Why the reference checks failed, if they did.
    failure: Option<String>,
}

fn options(entry: &Entry) -> FormadOptions {
    let wrt: Vec<&str> = entry.wrt.iter().map(String::as_str).collect();
    let of: Vec<&str> = entry.of.iter().map(String::as_str).collect();
    let mut o = FormadOptions::new(&wrt, &of);
    o.region.jobs = 1;
    o
}

/// The timed operation: source text in, verdicts and adjoint text out.
fn prove(entry: &Entry) -> Result<(Program, formad::DiffResult, String), String> {
    let prog = parse_any(&entry.source).map_err(|e| format!("{}: parse: {e}", entry.name))?;
    let diff = Formad::new(options(entry))
        .differentiate(&prog)
        .map_err(|e| format!("{}: {e}", entry.name))?;
    let text = program_to_string(&diff.adjoint);
    Ok((prog, diff, text))
}

fn reference(entry: &Entry) -> Reference {
    match prove(entry) {
        Err(e) => Reference {
            adjoint: String::new(),
            verdicts: Vec::new(),
            failure: Some(e),
        },
        Ok((prog, diff, adjoint)) => {
            let verdicts = verdict_lines(&full_report(&prog.name, &diff.analysis));
            let failure = checks::golden_verdicts(entry, &verdicts)
                .or_else(|| checks::footprints(entry, &prog, &diff.analysis));
            Reference {
                adjoint,
                verdicts,
                failure,
            }
        }
    }
}

struct Setup {
    corpus: Vec<Entry>,
    refs: Vec<Reference>,
}

/// Build the corpus and run the untimed warm-up pass, which also checks
/// every output against its reference.
fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let mut corpus = corpus::table1(&ctx.root)?;
    corpus.extend(corpus::generated(ctx.seed, 0, generated_count(ctx)));
    let refs = corpus.iter().map(reference).collect();
    Ok(Setup { corpus, refs })
}

pub fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    let t0 = Instant::now();
    setup(ctx)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// A timed op's output against the checked reference.
fn compare(entry: &Entry, r: &Reference, verdicts: &[String], adjoint: &str) -> Option<String> {
    if let Some(f) = &r.failure {
        return Some(f.clone());
    }
    if verdicts != r.verdicts {
        return Some(format!("{}: verdicts changed between runs", entry.name));
    }
    (adjoint != r.adjoint).then(|| format!("{}: adjoint text changed between runs", entry.name))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let s = setup(ctx)?;
    let own_setup = t0.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    out.note("setup_samples_s", ctx.setup_samples(own_setup));
    let setup_s = ctx.setup_median(own_setup);
    out.note("corpus_programs", s.corpus.len());
    out.note("corpus_table1", 6usize);
    out.note("corpus_generated", s.corpus.len() - 6);
    out.note("corpus_digest", corpus::corpus_digest(&s.corpus));
    out.note(
        "corpus_why",
        "the six Table-1 kernels are the paper's analysis benchmark; the seeded \
         fuzz-grammar draw varies footprint shapes around the provable boundary",
    );
    for r in &s.refs {
        out.check(r.failure.clone());
    }
    let (proved, arrays) = s
        .refs
        .iter()
        .map(|r| proved_counts(&r.verdicts))
        .fold((0, 0), |(a, b), (p, n)| (a + p, b + n));

    // Visit order: a seeded shuffle, repeated pass after pass.
    let mut order: Vec<usize> = (0..s.corpus.len()).collect();
    let mut rng = Rng::new(ctx.seed ^ 0x5eed);
    for k in (1..order.len()).rev() {
        order.swap(k, rng.below(k + 1));
    }
    if ctx.trace {
        return traced(ctx, &s, &order, out);
    }
    // Latencies per complete pass: a pass visits every program once, so
    // each window has the same mix; a pass cut short by the clock is
    // dropped.
    let mut lat: Vec<Vec<f64>> = Vec::new();
    let mut pass_rates = Vec::new();
    let start = Instant::now();
    'passes: loop {
        let (mut pl, mut pass_s) = (Vec::new(), 0.0);
        for &k in &order {
            if start.elapsed().as_secs_f64() >= ctx.seconds && !pass_rates.is_empty() {
                break 'passes;
            }
            let (e, r) = (&s.corpus[k], &s.refs[k]);
            let t = Instant::now();
            let res = prove(e);
            let dt = t.elapsed().as_secs_f64();
            pl.push(dt * 1e3);
            pass_s += dt;
            out.check(match res {
                Err(err) => Some(err),
                Ok((prog, diff, text)) => {
                    let v = verdict_lines(&full_report(&prog.name, &diff.analysis));
                    compare(e, r, &v, &text)
                }
            });
        }
        lat.push(pl);
        pass_rates.push(order.len() as f64 / pass_s);
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.note("samples", lat.iter().map(Vec::len).sum::<usize>());
    out.note("passes", pass_rates.len());
    out.note(
        "pass_rates",
        Json::Arr(pass_rates.iter().map(|r| Json::Num(*r)).collect()),
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", median(&pass_rates), "1/s");
    out.metric("latency_p50_ms", windowed(&lat, 0.5), "ms");
    out.metric("latency_p90_ms", windowed(&lat, 0.9), "ms");
    // The loop is already one caller on one thread.
    out.metric("serial_p50_ms", windowed(&lat, 0.5), "ms");
    out.metric("proved_ratio", proved as f64 / arrays.max(1) as f64, "1");
    out.metric("peak_rss_mb", crate::util::peak_rss_mb(None), "MB");
    Ok(out)
}

/// Program-reported phase durations, named by layer.
fn phases(events: &[TraceEvent]) -> Vec<(&'static str, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Phase { id, dur_us } => {
                let layer = match id.rsplit('/').next() {
                    Some("validate") if id.starts_with("phase/") => "ir.validate",
                    Some("activity") => "analysis.activity",
                    Some("extract") => "core.extract",
                    Some("validate") => "core.validate",
                    Some("prove") => "core.prove",
                    _ => return None,
                };
                Some((layer, *dur_us))
            }
            _ => None,
        })
        .collect()
}

/// Traced run: every program once per pass untraced (for the overhead
/// figure) and once traced, with `differentiate` split into `analyze`
/// plus `adjoint_with(plan)` and a `TraceSink` attached.
fn traced(ctx: &Ctx, s: &Setup, order: &[usize], mut out: Outcome) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut sp = Spans::new(origin);
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut ops = 0u64;
    let (mut queries, mut presolved, mut lia, mut conflicts) = (0u64, 0u64, 0u64, 0u64);
    let mut query_ms = Vec::new();
    let mut atomic_sites = 0usize;
    let mut passes = 0usize;
    let start = Instant::now();
    'passes: loop {
        for &k in order {
            if start.elapsed().as_secs_f64() >= ctx.seconds && passes > 0 {
                break 'passes;
            }
            let (e, r) = (&s.corpus[k], &s.refs[k]);
            let t = Instant::now();
            let _ = prove(e);
            untraced_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            ops += 1;
            let op = sp.begin("op", ops, None);
            let prog = sp.time("ir.parse", ops, Some(op), || parse_any(&e.source));
            let Ok(prog) = prog else {
                sp.end(op);
                out.check(Some(format!("{}: parse failed", e.name)));
                continue;
            };
            let sink = TraceSink::new();
            let mut opts = options(e);
            opts.region.trace = Some(sink.clone());
            let tool = Formad::new(opts);
            let an = sp.begin("core.analyze", ops, Some(op));
            let analysis = tool.analyze(&prog);
            sp.end(an);
            let events = sink.snapshot();
            sp.derived(an, &phases(&events));
            let Ok(analysis) = analysis else {
                sp.end(op);
                out.check(Some(format!("{}: analysis failed", e.name)));
                continue;
            };
            let adj = sp.time("ad.adjoint", ops, Some(op), || {
                tool.adjoint_with(&prog, analysis.plan.clone())
            });
            let text = match adj {
                Ok(a) => sp.time("ad.emit", ops, Some(op), || program_to_string(&a)),
                Err(err) => {
                    sp.end(op);
                    out.check(Some(format!("{}: {err}", e.name)));
                    continue;
                }
            };
            sp.end(op);
            traced_s += t.elapsed().as_secs_f64();
            // The traced split must emit exactly the untraced text.
            let v = verdict_lines(&full_report(&prog.name, &analysis));
            out.check(compare(e, r, &v, &text));
            atomic_sites += text.matches("!$omp atomic").count();
            let mut op_query_ms = 0.0;
            for ev in &events {
                if let TraceEvent::Query { perf, .. } = ev {
                    queries += 1;
                    presolved += u64::from(perf.cache == formad::CacheAttr::Off);
                    lia += perf.lia_calls;
                    conflicts += perf.conflicts;
                    op_query_ms += perf.dur_us as f64 / 1e3;
                }
            }
            query_ms.push(op_query_ms);
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    // Counts per corpus pass, from the ops run (the last pass may be cut).
    let per_pass = |x: u64| x as f64 * order.len() as f64 / ops.max(1) as f64;
    let mean = |xs: &[f64]| sum(xs) / xs.len().max(1) as f64;
    let by_name = |name: &str| -> Vec<f64> { sp.durations(name) };
    // Sum a per-op quantity of the derived phases (several regions per op).
    let per_op = |name: &str| -> Vec<f64> {
        let mut acc = vec![0.0; ops as usize + 1];
        for s in sp.spans.iter().filter(|s| s.name == name) {
            acc[s.op as usize] += s.ms();
        }
        acc.into_iter().skip(1).collect()
    };
    out.note("traced_ops", ops);
    out.note("passes", passes);
    out.metric("ir.parse_ms", median(&by_name("ir.parse")), "ms");
    out.metric(
        "analysis.activity_ms",
        median(&by_name("analysis.activity")),
        "ms",
    );
    out.metric("core.extract_ms", median(&per_op("core.extract")), "ms");
    out.metric("core.validate_ms", median(&per_op("core.validate")), "ms");
    out.metric("core.prove_ms", mean(&per_op("core.prove")), "ms");
    out.metric("smt.queries", per_pass(queries), "count");
    out.metric("smt.query_ms", mean(&query_ms), "ms");
    out.metric(
        "smt.presolve_ratio",
        presolved as f64 / queries.max(1) as f64,
        "1",
    );
    out.metric("smt.lia_calls", per_pass(lia), "count");
    out.metric("smt.conflicts", per_pass(conflicts), "count");
    out.metric("ad.adjoint_ms", median(&by_name("ad.adjoint")), "ms");
    out.metric("ad.emit_ms", median(&by_name("ad.emit")), "ms");
    out.metric("ad.atomic_sites", per_pass(atomic_sites as u64), "count");
    crate::layer_self_times(&mut out, &sp, ops);
    out.metric("trace.unattributed_share", sp.unattributed_share("op"), "1");
    out.metric("trace.overhead_ratio", traced_s / untraced_s, "1");
    ctx.write_spans(&sp)?;
    Ok(out)
}
