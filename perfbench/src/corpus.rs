//! The seeded program corpus: the six Table-1 kernels plus a draw from
//! the `formad-fuzz` grammar, handed to the program as source text.

use std::path::Path;

use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::{program_to_string, BinOp, Expr, ForLoop, Program, Stmt};
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, StencilCase};

use crate::util::digest;

/// One program of the corpus, as the program under test receives it.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Table-1 golden stem, or `gen-<id>` for generated programs.
    pub name: String,
    pub source: String,
    pub wrt: Vec<String>,
    pub of: Vec<String>,
    /// Table-1 kernels: the verdict lines of the committed golden report.
    pub golden: Option<Vec<String>>,
    /// Generated programs: scalar settings and fill seed for the
    /// footprint oracle's bindings.
    pub sets: Vec<(String, String)>,
    pub fill_seed: u64,
}

impl Entry {
    pub fn is_table1(&self) -> bool {
        self.golden.is_some()
    }
}

fn owned(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// The Table-1 kernels at the sizes of their golden reports, with the
/// golden verdict lines read from `crates/kernels/tests/golden`.
pub fn table1(root: &Path) -> Result<Vec<Entry>, String> {
    let gf = GfmcCase::new(16, 1);
    let kernels: Vec<(&str, Program, Vec<String>, Vec<String>)> = vec![
        (
            "stencil1",
            StencilCase::small(64, 1).ir(),
            owned(StencilCase::independents()),
            owned(StencilCase::dependents()),
        ),
        (
            "stencil8",
            StencilCase::large(128, 1).ir(),
            owned(StencilCase::independents()),
            owned(StencilCase::dependents()),
        ),
        (
            "gfmc",
            gf.ir(),
            owned(GfmcCase::independents()),
            owned(GfmcCase::dependents()),
        ),
        (
            "gfmc_star",
            gf.ir_star(),
            owned(GfmcCase::independents()),
            owned(GfmcCase::dependents()),
        ),
        (
            "lbm",
            lbm::lbm_ir(),
            owned(lbm::independents()),
            owned(lbm::dependents()),
        ),
        (
            "green_gauss",
            GreenGaussCase::linear(64, 1).ir(),
            owned(GreenGaussCase::independents()),
            owned(GreenGaussCase::dependents()),
        ),
    ];
    let dir = root.join("crates/kernels/tests/golden");
    kernels
        .into_iter()
        .map(|(stem, prog, wrt, of)| {
            let path = dir.join(format!("{stem}.txt"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("golden report {}: {e}", path.display()))?;
            Ok(Entry {
                name: stem.to_string(),
                source: program_to_string(&prog),
                wrt,
                of,
                golden: Some(verdict_lines(&text)),
                sets: Vec::new(),
                fill_seed: 0,
            })
        })
        .collect()
}

/// `count` programs from the fuzz grammar, case ids `first..first+count`
/// of the campaign named by `seed`.
pub fn generated(seed: u64, first: u64, count: usize) -> Vec<Entry> {
    (first..first + count as u64)
        .map(|id| {
            let case = campaign_case(seed, id, &GenConfig::default());
            Entry {
                name: format!("gen-{id}"),
                source: case.source(),
                wrt: case.wrt.clone(),
                of: case.of.clone(),
                golden: None,
                sets: case.sets.clone(),
                fill_seed: case.fill_seed,
            }
        })
        .collect()
}

/// Digest of the corpus text, so a grammar change that alters the
/// traffic shows in the record.
pub fn corpus_digest(entries: &[Entry]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for e in entries {
        parts.push(e.source.clone());
        parts.push(e.wrt.join(","));
        parts.push(e.of.join(","));
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    digest(&refs)
}

/// The per-array verdict lines of a report (`  adjoint of `x`: …`).
pub fn verdict_lines(report: &str) -> Vec<String> {
    report
        .lines()
        .filter(|l| l.trim_start().starts_with("adjoint of `"))
        .map(|l| l.trim().to_string())
        .collect()
}

/// (arrays without atomics, arrays analyzed) over verdict lines.
pub fn proved_counts(verdicts: &[String]) -> (usize, usize) {
    let proved = verdicts
        .iter()
        .filter(|l| l.contains(": shared") || l.contains(": transposed"))
        .count();
    (proved, verdicts.len())
}

/// A one-loop edit that keeps the semantics and is unique per `tag`:
/// the first parallel loop's upper bound `hi` becomes
/// `hi + (tag - tag)`. The iteration space and every verdict are
/// unchanged, but the printed region, and so its fingerprint, is new.
pub fn edit_one_loop(p: &Program, tag: u64) -> Option<Program> {
    /// Apply `f` to the first parallel loop in pre-order; false if none.
    fn first_parallel(body: &mut [Stmt], f: &mut dyn FnMut(&mut ForLoop)) -> bool {
        body.iter_mut().any(|s| match s {
            Stmt::For(l) if l.parallel.is_some() => {
                f(l);
                true
            }
            Stmt::For(l) => first_parallel(&mut l.body, f),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => first_parallel(then_body, f) || first_parallel(else_body, f),
            _ => false,
        })
    }
    let tag = tag as i64 + 1;
    let mut edited = p.clone();
    let found = first_parallel(&mut edited.body, &mut |l| {
        let old = std::mem::replace(&mut l.hi, Expr::IntLit(0));
        let zero = Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(Expr::IntLit(tag)),
            rhs: Box::new(Expr::IntLit(tag)),
        };
        l.hi = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(old),
            rhs: Box::new(zero),
        };
    });
    found.then_some(edited)
}
