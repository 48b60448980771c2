//! Reference checks. Each returns `Some(reason)` on a mismatch; the
//! caller counts it in `failed`. The references never come from the
//! code path being timed: committed golden reports, the concrete
//! footprint oracle, the simulated interpreter, and finite differences.

use formad::FormadAnalysis;
use formad_ir::Program;
use formad_machine::{bind_params, Bindings};

use crate::corpus::Entry;

/// Relative tolerance for cells whose float accumulation order is
/// scheduling-dependent: colliding atomic increments at T>1. The same
/// classification and bound `repro bench-kernels` applies.
pub const REL_TOL: f64 = 1e-9;

/// Relative tolerance of the finite-difference dot-product test.
/// The repository's kernel tests use the same bound for their nonlinear
/// kernels.
pub const FD_TOL: f64 = 1e-4;

/// Table-1 verdicts against the committed golden report.
pub fn golden_verdicts(entry: &Entry, verdicts: &[String]) -> Option<String> {
    let golden = entry.golden.as_ref()?;
    (golden != verdicts).then(|| {
        format!(
            "{}: verdicts {:?} differ from golden {:?}",
            entry.name, verdicts, golden
        )
    })
}

/// Every `Shared`/`Transposed` verdict of a generated program against
/// its concrete adjoint footprints.
pub fn footprints(entry: &Entry, prog: &Program, analysis: &FormadAnalysis) -> Option<String> {
    if entry.is_table1() {
        return None;
    }
    let bind = match bind_params(prog, &entry.sets, entry.fill_seed) {
        Ok(b) => b,
        Err(e) => return Some(format!("{}: bindings: {e}", entry.name)),
    };
    formad_fuzz::footprint::check_footprints(prog, &bind, analysis, &entry.wrt, &entry.of)
        .err()
        .map(|e| format!("{}: footprint oracle: {e}", entry.name))
}

/// Compare an executed gradient with the verified one: bitwise for
/// deterministic cells, within [`REL_TOL`] otherwise.
pub fn same_gradient(reference: &Bindings, got: &Bindings, deterministic: bool) -> Option<String> {
    for (name, want) in &reference.real_arrays {
        let Some(have) = got.real_arrays.get(name) else {
            return Some(format!("array `{name}` missing"));
        };
        if want.len() != have.len() {
            return Some(format!(
                "array `{name}` length {} vs {}",
                have.len(),
                want.len()
            ));
        }
        for (k, (a, b)) in want.iter().zip(have).enumerate() {
            let ok = if deterministic {
                a.to_bits() == b.to_bits()
            } else {
                (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
            };
            if !ok {
                return Some(format!("`{name}`[{k}]: {b} vs reference {a}"));
            }
        }
    }
    for (name, want) in &reference.real_scalars {
        match got.real_scalars.get(name) {
            Some(b) if b.to_bits() == want.to_bits() => {}
            Some(b) if !deterministic && (want - b).abs() <= REL_TOL * want.abs().max(1.0) => {}
            other => return Some(format!("scalar `{name}`: {other:?} vs reference {want}")),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn a_wrong_verdict_fails_the_golden_check() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let kernels = corpus::table1(&root).expect("golden reports readable");
        let gfmc = kernels.iter().find(|e| e.name == "gfmc").unwrap();
        let good = gfmc.golden.clone().unwrap();
        assert!(golden_verdicts(gfmc, &good).is_none());
        let mut wrong = good.clone();
        wrong[0] = wrong[0].replace("shared (no atomics needed)", "guarded");
        assert_ne!(wrong, good, "the flip must change a verdict");
        assert!(golden_verdicts(gfmc, &wrong).is_some());
    }

    #[test]
    fn a_wrong_shared_verdict_fails_the_footprint_oracle() {
        use formad::{Formad, FormadOptions};
        // `y(i) = x(1)`: every iteration increments `xb(1)` in the adjoint,
        // so a `Shared` verdict for `x` is unsound.
        let src = "subroutine race(n, x, y)\n  integer, intent(in) :: n\n  \
                   real, intent(in) :: x(n)\n  real, intent(inout) :: y(n)\n  \
                   integer :: i\n  !$omp parallel do shared(x, y)\n  do i = 1, n\n    \
                   y(i) = x(1) * 2.0\n  end do\nend subroutine\n";
        let prog = formad_ir::parse_any(src).unwrap();
        let entry = Entry {
            name: "race".into(),
            source: src.into(),
            wrt: vec!["x".into()],
            of: vec!["y".into()],
            golden: None,
            sets: vec![("n".into(), "8".into())],
            fill_seed: 1,
        };
        let mut analysis = Formad::new(FormadOptions::new(&["x"], &["y"]))
            .analyze(&prog)
            .unwrap();
        assert!(footprints(&entry, &prog, &analysis).is_none());
        for d in analysis.regions[0].decisions.values_mut() {
            *d = formad::Decision::Shared;
        }
        assert!(footprints(&entry, &prog, &analysis).is_some());
    }

    #[test]
    fn a_perturbed_gradient_fails_both_classes() {
        let reference = Bindings::new().real_array("xb", vec![1.0, 2.0, 3.0]);
        let mut got = reference.clone();
        assert!(same_gradient(&reference, &got, true).is_none());
        // One ulp passes only where reassociation is allowed ...
        got.real_arrays.get_mut("xb").unwrap()[1] = f64::from_bits(2.0f64.to_bits() + 1);
        assert!(same_gradient(&reference, &got, true).is_some());
        assert!(same_gradient(&reference, &got, false).is_none());
        // ... and a real perturbation fails everywhere.
        got.real_arrays.get_mut("xb").unwrap()[1] = 2.0 + 1e-6;
        assert!(same_gradient(&reference, &got, false).is_some());
    }
}
