//! `serve-mixed`: a child `formad serve` process with a fresh
//! `--cache-dir` and `--workers nproc` answers `nproc` closed-loop HTTP
//! clients. About 3/5 of requests re-prove a program already proved,
//! 1/10 prove a unique one-loop edit of a corpus program, 1/10 prove a
//! generated program not yet seen, and 1/5 execute an adjoint built
//! during warm-up on the AOT backend.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use formad::{full_report, Formad, FormadOptions};
use formad_ir::{parse_any, program_to_string, Program};
use formad_machine::{bind_params, output_lines, Machine};
use formad_serve::http::Request;
use formad_serve::{Json, Service, ServiceConfig};

use crate::checks;
use crate::corpus::{self, proved_counts, verdict_lines, Entry};
use crate::spans::Spans;
use crate::util::{median, windowed, Outcome, Rng};
use crate::Ctx;

/// Request kinds, in metric order.
pub const KINDS: [&str; 4] = ["repeat", "edit", "new", "exec"];

/// Generated programs in the repeat pool (beside the Table-1 kernels),
/// and how many of their adjoints the exec requests run.
fn pool_sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.tiny {
        (4, 2)
    } else {
        (64, 6)
    }
}

/// First case id of never-seen generated programs.
const NEW_BASE: u64 = 1_000_000;

// ---- HTTP ----

/// One request on a fresh connection (the daemon closes every
/// connection after its response). Returns status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The `formad serve` child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(ctx: &Ctx) -> Result<Daemon, String> {
        let bin = ctx
            .formad
            .as_ref()
            .ok_or("serve-mixed needs --formad <path to the formad binary>")?;
        let cache = ctx.fresh_dir("serve-cache")?;
        let aot = ctx.fresh_dir("serve-aot")?;
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &ctx.nproc.to_string()])
            .arg("--cache-dir")
            .arg(&cache)
            .env("FORMAD_AOT_DIR", &aot)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report an address: {line:?}"))
            }
        }
    }

    fn status(&self) -> Result<Json, String> {
        let (code, body) = http(self.addr, "GET", "/v1/status", "")?;
        if code != 200 {
            return Err(format!("/v1/status answered {code}"));
        }
        Json::parse(&body)
    }

    /// Ask for a drain, then make sure the process is gone.
    fn stop(mut self) {
        let _ = http(self.addr, "POST", "/v1/shutdown", "{}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---- requests ----

fn names(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|s| Json::from(s.as_str())).collect())
}

fn prove_body(source: &str, e: &Entry) -> String {
    formad_serve::json::obj(vec![
        ("program", source.into()),
        ("wrt", names(&e.wrt)),
        ("of", names(&e.of)),
    ])
    .render()
}

fn exec_body(adjoint: &str, e: &Entry) -> String {
    let sets = Json::Obj(
        e.sets
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect(),
    );
    formad_serve::json::obj(vec![
        ("program", adjoint.into()),
        ("sets", sets),
        ("seed", e.fill_seed.into()),
        ("backend", "aot".into()),
        ("threads", 1usize.into()),
    ])
    .render()
}

/// What a request asked for, so its answer can be checked afterwards.
#[derive(Debug, Clone)]
enum Ask {
    /// Repeat-pool index.
    Repeat(usize),
    /// Repeat-pool index and unique edit tag.
    Edit(usize, u64),
    /// Case id of a never-seen generated program.
    New(u64),
    /// Exec-pool index.
    Exec(usize),
}

impl Ask {
    fn kind(&self) -> usize {
        match self {
            Ask::Repeat(_) => 0,
            Ask::Edit(..) => 1,
            Ask::New(_) => 2,
            Ask::Exec(_) => 3,
        }
    }
}

/// The parts of an answer the checks read.
#[derive(Debug, Default, Clone)]
struct Answer {
    degraded: bool,
    verdicts: Vec<String>,
    adjoint: String,
    outputs: Vec<String>,
    error: Option<String>,
}

fn decode(status: u16, body: &str) -> Answer {
    let mut a = Answer::default();
    match Json::parse(body) {
        Err(e) => a.error = Some(format!("bad response JSON: {e}")),
        Ok(v) => {
            a.degraded = v.get("degraded").and_then(Json::as_bool).unwrap_or(false)
                || v.get("aot_fallback")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
            if let Some(r) = v.get("report").and_then(Json::as_str) {
                a.verdicts = verdict_lines(r);
            }
            if let Some(adj) = v.get("adjoint").and_then(Json::as_str) {
                a.adjoint = adj.to_string();
            }
            if let Some(outs) = v.get("outputs").and_then(Json::as_arr) {
                a.outputs = outs
                    .iter()
                    .filter_map(|o| o.as_str().map(str::to_string))
                    .collect();
            }
            if status != 200 {
                a.error = Some(format!("HTTP {status}: {body}"));
            }
        }
    }
    a
}

/// Everything the clients draw requests from.
struct Pool {
    repeat: Vec<Entry>,
    parsed: Vec<Program>,
    /// Exec-pool adjoint source text, indexed like `repeat[..exec.len()]`.
    exec: Vec<String>,
}

impl Pool {
    fn build(ctx: &Ctx) -> Result<Pool, String> {
        let (generated, _) = pool_sizes(ctx);
        let mut repeat = corpus::table1(&ctx.root)?;
        // Generated programs first, so exec-pool indices are pool indices.
        let mut all = corpus::generated(ctx.seed, 0, generated);
        all.append(&mut repeat);
        let parsed = all
            .iter()
            .map(|e| parse_any(&e.source).map_err(|err| format!("{}: {err}", e.name)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pool {
            repeat: all,
            parsed,
            exec: Vec::new(),
        })
    }

    /// The request body for `ask`.
    fn body(&self, ctx: &Ctx, ask: &Ask) -> (&'static str, String) {
        match ask {
            Ask::Repeat(i) => (
                "/v1/prove",
                prove_body(&self.repeat[*i].source, &self.repeat[*i]),
            ),
            Ask::Edit(i, tag) => {
                let edited = corpus::edit_one_loop(&self.parsed[*i], *tag)
                    .expect("every corpus program has a parallel loop");
                (
                    "/v1/prove",
                    prove_body(&program_to_string(&edited), &self.repeat[*i]),
                )
            }
            Ask::New(id) => {
                let e = &corpus::generated(ctx.seed, *id, 1)[0];
                ("/v1/prove", prove_body(&e.source, e))
            }
            Ask::Exec(i) => ("/v1/exec", exec_body(&self.exec[*i], &self.repeat[*i])),
        }
    }
}

/// Warm-up: prove the repeat pool once and build the exec adjoints'
/// AOT kernels. Returns the exec-pool adjoint texts.
fn warm(daemon: &Daemon, pool: &Pool, exec_n: usize) -> Result<Vec<String>, String> {
    let mut exec = Vec::new();
    for (i, e) in pool.repeat.iter().enumerate() {
        let (code, body) = http(daemon.addr, "POST", "/v1/prove", &prove_body(&e.source, e))?;
        let a = decode(code, &body);
        if let Some(err) = a.error {
            return Err(format!("warm-up prove of {}: {err}", e.name));
        }
        if i < exec_n {
            exec.push(a.adjoint);
        }
    }
    for (i, adj) in exec.iter().enumerate() {
        let (code, body) = http(
            daemon.addr,
            "POST",
            "/v1/exec",
            &exec_body(adj, &pool.repeat[i]),
        )?;
        if let Some(err) = decode(code, &body).error {
            return Err(format!("warm-up exec of {}: {err}", pool.repeat[i].name));
        }
    }
    Ok(exec)
}

pub fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    let mut pool = Pool::build(ctx)?;
    let t0 = Instant::now();
    let daemon = Daemon::spawn(ctx)?;
    pool.exec = warm(&daemon, &pool, pool_sizes(ctx).1)?;
    let s = t0.elapsed().as_secs_f64();
    daemon.stop();
    Ok(s)
}

// ---- closed-loop clients ----

/// A client's request stream: its own seeded generator and counters,
/// so edit tags and new-program ids are unique across clients.
struct Client {
    rng: Rng,
    index: u64,
    stride: u64,
    sent: u64,
}

impl Client {
    fn next(&mut self, pool: &Pool) -> Ask {
        let n = self.index + self.sent * self.stride;
        self.sent += 1;
        let u = self.rng.unit();
        if u < 0.6 {
            Ask::Repeat(self.rng.below(pool.repeat.len()))
        } else if u < 0.7 {
            Ask::Edit(self.rng.below(pool.repeat.len()), n)
        } else if u < 0.8 {
            Ask::New(NEW_BASE + n)
        } else {
            Ask::Exec(self.rng.below(pool.exec.len()))
        }
    }
}

/// One answered request.
struct Done {
    ask: Ask,
    ms: f64,
    /// Slice the request ran in.
    round: usize,
    serial: bool,
    traced: bool,
    answer: Answer,
    /// Request body, kept in traced runs for the in-process replay.
    body: Option<(&'static str, String)>,
}

/// Run `clients` closed-loop clients until `until`; returns the slice's
/// wall time.
#[allow(clippy::too_many_arguments)]
fn slice(
    ctx: &Ctx,
    addr: SocketAddr,
    pool: &Pool,
    clients: &mut [Client],
    round: usize,
    serial: bool,
    traced: bool,
    until: Instant,
    done: &Mutex<Vec<Done>>,
    spans: &Mutex<Spans>,
    origin: Instant,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || {
                let mut sp = Spans::new(origin);
                let mut mine = Vec::new();
                while Instant::now() < until {
                    let ask = client.next(pool);
                    let op_id = client.index + client.sent * client.stride;
                    let op = traced.then(|| sp.begin("op", op_id, None));
                    let (path, body) = match op {
                        Some(op) => {
                            sp.time("client.encode", op_id, Some(op), || pool.body(ctx, &ask))
                        }
                        None => pool.body(ctx, &ask),
                    };
                    let rt = Instant::now();
                    let res = match op {
                        Some(op) => sp.time("serve.roundtrip", op_id, Some(op), || {
                            http(addr, "POST", path, &body)
                        }),
                        None => http(addr, "POST", path, &body),
                    };
                    let ms = rt.elapsed().as_secs_f64() * 1e3;
                    let answer = match (res, op) {
                        (Ok((code, text)), Some(op)) => {
                            sp.time("client.decode", op_id, Some(op), || decode(code, &text))
                        }
                        (Ok((code, text)), None) => decode(code, &text),
                        (Err(e), _) => Answer {
                            error: Some(e),
                            ..Answer::default()
                        },
                    };
                    if let Some(op) = op {
                        sp.end(op);
                    }
                    mine.push(Done {
                        ask,
                        ms,
                        round,
                        serial,
                        traced,
                        answer,
                        body: traced.then_some((path, body)),
                    });
                }
                done.lock().expect("no client panicked").extend(mine);
                spans.lock().expect("no client panicked").absorb(sp);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

// ---- checks ----

/// In-process cold reference: verdict lines and adjoint text, checked
/// against the golden report or the footprint oracle.
struct Reference {
    verdicts: Vec<String>,
    adjoint: String,
    failure: Option<String>,
}

fn reference(e: &Entry) -> Reference {
    let fail = |m: String| Reference {
        verdicts: Vec::new(),
        adjoint: String::new(),
        failure: Some(m),
    };
    let prog = match parse_any(&e.source) {
        Ok(p) => p,
        Err(err) => return fail(format!("{}: {err}", e.name)),
    };
    let wrt: Vec<&str> = e.wrt.iter().map(String::as_str).collect();
    let of: Vec<&str> = e.of.iter().map(String::as_str).collect();
    match Formad::new(FormadOptions::new(&wrt, &of)).differentiate(&prog) {
        Err(err) => fail(format!("{}: {err}", e.name)),
        Ok(d) => {
            let verdicts = verdict_lines(&full_report(&prog.name, &d.analysis));
            let failure = checks::golden_verdicts(e, &verdicts)
                .or_else(|| checks::footprints(e, &prog, &d.analysis));
            Reference {
                verdicts,
                adjoint: program_to_string(&d.adjoint),
                failure,
            }
        }
    }
}

/// Expected `exec` output: the simulated interpreter on the same
/// adjoint and bindings.
fn sim_outputs(adjoint: &str, e: &Entry) -> Result<Vec<String>, String> {
    let prog = parse_any(adjoint).map_err(|err| err.to_string())?;
    let mut bind = bind_params(&prog, &e.sets, e.fill_seed).map_err(|err| err.to_string())?;
    formad_machine::run(&prog, &mut bind, &Machine::with_threads(1))
        .map_err(|err| err.to_string())?;
    Ok(output_lines(&prog, &bind))
}

struct Checker<'a> {
    ctx: &'a Ctx,
    pool: &'a Pool,
    repeat: HashMap<usize, Reference>,
    fresh: HashMap<u64, (Entry, Reference)>,
    exec: HashMap<usize, Result<Vec<String>, String>>,
}

impl Checker<'_> {
    fn check(&mut self, d: &Done) -> Option<String> {
        let a = &d.answer;
        if let Some(e) = &a.error {
            return Some(e.clone());
        }
        if a.degraded {
            return Some(format!("degraded answer to {:?}", d.ask));
        }
        let pool = self.pool;
        match &d.ask {
            Ask::Repeat(i) | Ask::Edit(i, _) => {
                let r = self
                    .repeat
                    .entry(*i)
                    .or_insert_with(|| reference(&pool.repeat[*i]));
                if let Some(f) = &r.failure {
                    return Some(f.clone());
                }
                let name = &pool.repeat[*i].name;
                if a.verdicts != r.verdicts {
                    return Some(format!(
                        "{name} {:?}: serve verdicts differ from cold",
                        d.ask
                    ));
                }
                (matches!(d.ask, Ask::Repeat(_)) && a.adjoint != r.adjoint)
                    .then(|| format!("{name}: serve adjoint differs from cold"))
            }
            Ask::New(id) => {
                let ctx = self.ctx;
                let (e, r) = self.fresh.entry(*id).or_insert_with(|| {
                    let e = corpus::generated(ctx.seed, *id, 1).remove(0);
                    let r = reference(&e);
                    (e, r)
                });
                if let Some(f) = &r.failure {
                    return Some(f.clone());
                }
                (a.verdicts != r.verdicts || a.adjoint != r.adjoint)
                    .then(|| format!("{}: serve answer differs from cold", e.name))
            }
            Ask::Exec(i) => {
                let want = self
                    .exec
                    .entry(*i)
                    .or_insert_with(|| sim_outputs(&pool.exec[*i], &pool.repeat[*i]));
                match want {
                    Err(e) => Some(format!("simulated exec: {e}")),
                    Ok(w) => (*w != a.outputs).then(|| {
                        format!(
                            "{}: exec outputs {:?} differ from simulated {:?}",
                            pool.repeat[*i].name, a.outputs, w
                        )
                    }),
                }
            }
        }
    }
}

// ---- status counters ----

fn counter(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    counter(after, path) - counter(before, path)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---- the workload ----

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (_, exec_n) = pool_sizes(ctx);
    let mut pool = Pool::build(ctx)?;
    let t0 = Instant::now();
    let daemon = Daemon::spawn(ctx)?;
    pool.exec = warm(&daemon, &pool, exec_n)?;
    let own_setup = t0.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    out.note("setup_samples_s", ctx.setup_samples(own_setup));
    out.note("corpus_programs", pool.repeat.len());
    out.note("corpus_table1", 6usize);
    out.note("corpus_generated", pool.repeat.len() - 6);
    out.note("exec_pool", pool.exec.len());
    out.note("corpus_digest", corpus::corpus_digest(&pool.repeat));
    out.note(
        "corpus_why",
        "the Table-1 kernels and a seeded fuzz-grammar draw form the warm repeat \
         pool; edits and unseen programs exercise the write path; exec runs \
         adjoints whose AOT kernels were built in warm-up",
    );
    out.note("clients", ctx.nproc);

    let origin = Instant::now();
    let spans = Mutex::new(Spans::new(origin));
    let done = Mutex::new(Vec::new());
    let mut clients: Vec<Client> = (0..ctx.nproc as u64)
        .map(|c| Client {
            rng: Rng::new(ctx.seed ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            index: c,
            stride: ctx.nproc as u64,
            sent: 0,
        })
        .collect();
    let before = daemon.status()?;
    // Slices: nproc clients, then one client (untraced runs), or an
    // untraced and a traced nproc-client slice (traced runs).
    let start = Instant::now();
    // Requests per second of each `nproc`-client slice, untraced and traced.
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut round = 0usize;
    // At least one slice of each kind, however short the run.
    while start.elapsed().as_secs_f64() < ctx.seconds || round < 2 {
        let (len, serial, traced): (f64, bool, bool) = match (ctx.trace, round % 2) {
            (false, 0) => (2.0, false, false),
            (false, _) => (1.0, true, false),
            (true, 0) => (1.5, false, false),
            (true, _) => (1.5, false, true),
        };
        let until = Instant::now() + Duration::from_secs_f64(len.min(ctx.seconds / 2.0));
        let cs = if serial {
            &mut clients[..1]
        } else {
            &mut clients[..]
        };
        let before_n = done.lock().expect("no client panicked").len();
        let wall = slice(
            ctx,
            daemon.addr,
            &pool,
            cs,
            round,
            serial,
            traced,
            until,
            &done,
            &spans,
            origin,
        );
        if !serial {
            let n = done.lock().expect("no client panicked").len() - before_n;
            rates[usize::from(traced)].push(n as f64 / wall);
        }
        round += 1;
    }
    let after = daemon.status()?;
    let rss = crate::util::peak_rss_mb(Some(daemon.child.id()));
    daemon.stop();

    let done = done.into_inner().expect("clients joined");
    let mut checker = Checker {
        ctx,
        pool: &pool,
        repeat: HashMap::new(),
        fresh: HashMap::new(),
        exec: HashMap::new(),
    };
    // Latencies per slice; percentiles are medians over slices.
    let mut lat: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut serial: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut counts = [0usize; 2];
    // proved_ratio counts each distinct program once, from its first
    // answer (an edit is its base program), so it does not hang on how
    // often the seeded mix happened to repeat a guarded kernel.
    let mut first_answer: BTreeMap<(bool, u64), (usize, usize)> = BTreeMap::new();
    for d in &done {
        out.check(checker.check(d));
        let program = match d.ask {
            Ask::Repeat(i) | Ask::Edit(i, _) => Some((false, i as u64)),
            Ask::New(id) => Some((true, id)),
            Ask::Exec(_) => None,
        };
        if let Some(key) = program {
            first_answer
                .entry(key)
                .or_insert_with(|| proved_counts(&d.answer.verdicts));
        }
        if d.serial {
            serial.entry(d.round).or_default().push(d.ms);
        } else if d.traced {
            counts[1] += 1;
            by_kind[d.ask.kind()].push(d.ms);
        } else {
            counts[0] += 1;
            lat.entry(d.round).or_default().push(d.ms);
        }
    }
    let mut per_kind = Vec::new();
    for (k, kind) in KINDS.iter().enumerate() {
        let n = done.iter().filter(|d| d.ask.kind() == k).count();
        per_kind.push((kind.to_string(), Json::from(n)));
    }
    out.note("requests_by_kind", Json::Obj(per_kind));
    let lat: Vec<Vec<f64>> = lat.into_values().collect();
    let serial: Vec<Vec<f64>> = serial.into_values().collect();
    out.note("samples", counts[0]);
    out.note("serial_samples", serial.iter().map(Vec::len).sum::<usize>());
    out.note("slices", lat.len() + serial.len());
    out.note(
        "status_delta",
        formad_serve::json::obj(vec![
            (
                "analyze",
                delta(&before, &after, &["requests", "analyze"]).into(),
            ),
            ("exec", delta(&before, &after, &["requests", "exec"]).into()),
            (
                "fp_hits",
                delta(&before, &after, &["fingerprints", "hits"]).into(),
            ),
            (
                "fp_misses",
                delta(&before, &after, &["fingerprints", "misses"]).into(),
            ),
            (
                "cache_hits",
                delta(&before, &after, &["cache", "hits"]).into(),
            ),
            (
                "cache_misses",
                delta(&before, &after, &["cache", "misses"]).into(),
            ),
            (
                "aot_compiles",
                delta(&before, &after, &["aot", "compiles"]).into(),
            ),
        ]),
    );

    if !ctx.trace {
        out.metric("setup_s", ctx.setup_median(own_setup), "s");
        out.metric("ops_per_s", median(&rates[0]), "1/s");
        out.metric("latency_p50_ms", windowed(&lat, 0.5), "ms");
        out.metric("latency_p90_ms", windowed(&lat, 0.9), "ms");
        out.metric("serial_p50_ms", windowed(&serial, 0.5), "ms");
        let (proved, arrays) = first_answer
            .values()
            .fold((0, 0), |(p, a), (dp, da)| (p + dp, a + da));
        out.metric("proved_ratio", ratio(proved as f64, arrays as f64), "1");
        out.metric("peak_rss_mb", rss, "MB");
        return Ok(out);
    }

    // Per-layer figures.
    let d = |p: &[&str]| delta(&before, &after, p);
    let fp_served = d(&["fingerprints", "hits"]) + d(&["fingerprints", "disk_hits"]);
    out.metric(
        "core.fp_served_ratio",
        ratio(fp_served, fp_served + d(&["fingerprints", "misses"])),
        "1",
    );
    let hits = d(&["cache", "hits"]);
    out.metric(
        "smt.cache_hit_ratio",
        ratio(hits, hits + d(&["cache", "misses"])),
        "1",
    );
    out.metric(
        "smt.disk_writes",
        d(&["cache", "disk", "flushed_entries"]),
        "count",
    );
    let shed = d(&["shed", "shed_at_admission"])
        + d(&["shed", "admitted_reduced"])
        + d(&["responses", "rejected_429"]);
    let requests = d(&["requests", "analyze"]) + d(&["requests", "exec"]);
    out.metric("serve.shed_ratio", ratio(shed, requests), "1");
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(format!("serve.{kind}_ms"), median(&by_kind[k]), "ms");
    }
    let handle = replay(ctx, &pool, &done)?;
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(format!("serve.handle_ms.{kind}"), median(&handle[k]), "ms");
    }
    out.metric(
        "serve.wire_ms",
        median(&by_kind[0]) - median(&handle[0]),
        "ms",
    );
    let sp = spans.into_inner().expect("clients joined");
    let ops = counts[1] as u64;
    crate::layer_self_times(&mut out, &sp, ops);
    out.metric("trace.unattributed_share", sp.unattributed_share("op"), "1");
    out.metric(
        "trace.overhead_ratio",
        median(&rates[0]) / median(&rates[1]),
        "1",
    );
    ctx.write_spans(&sp)?;
    Ok(out)
}

/// In-process `Service::handle` on the traced slices' requests, in the
/// order they were answered, on a service warmed like the daemon.
fn replay(ctx: &Ctx, pool: &Pool, done: &[Done]) -> Result<Vec<Vec<f64>>, String> {
    let cache = ctx.fresh_dir("replay-cache")?;
    let service = Service::new(ServiceConfig {
        workers: ctx.nproc,
        cache_dir: Some(cache),
        ..ServiceConfig::default()
    });
    let handle = |path: &str, body: String| {
        service.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            body,
        })
    };
    for (i, e) in pool.repeat.iter().enumerate() {
        let _ = handle("/v1/prove", prove_body(&e.source, e));
        if i < pool.exec.len() {
            let _ = handle("/v1/exec", exec_body(&pool.exec[i], e));
        }
    }
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    for d in done.iter().filter(|d| d.traced) {
        let Some((path, body)) = &d.body else {
            continue;
        };
        let t = Instant::now();
        let resp = handle(path, body.clone());
        out[d.ask.kind()].push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("in-process replay answered {}", resp.status));
        }
    }
    Ok(out)
}
