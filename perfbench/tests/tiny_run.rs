//! A tiny-size run of every workload, untraced and traced, must print
//! every metric `BENCHMARK.json` names, with its unit, and pass its own
//! reference checks.
//!
//! serve-mixed spawns the `formad` binary: set `FORMAD_BIN`, or build it
//! first (`cargo build --release -p formad-cli`) into the target
//! directory this test runs from.

use std::path::{Path, PathBuf};
use std::process::Command;

use formad_serve::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn formad_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("FORMAD_BIN") {
        return PathBuf::from(p);
    }
    // The benchmark binary sits in <target>/release or <target>/debug;
    // `run.sh` builds `formad` into the same target directory.
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_formad-perfbench"));
    let target = exe.parent().and_then(Path::parent).expect("target dir");
    for profile in ["release", "debug"] {
        let p = target.join(profile).join("formad");
        if p.exists() {
            return p;
        }
    }
    let p = root().join("target/release/formad");
    assert!(
        p.exists(),
        "no formad binary: set FORMAD_BIN or run `cargo build --release -p formad-cli`"
    );
    p
}

/// (name, unit) of every metric in one section of BENCHMARK.json.
fn contract(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = Json::parse(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_formad-perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", trace, "--tiny", "--formad"])
        .arg(formad_bin())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let res = run(workload, trace);
        let keys: Vec<&str> = res.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            res.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}: {res}"
        );
        let metrics = res.get("metrics").unwrap();
        let want = contract(section);
        assert_eq!(
            metrics.fields().len(),
            want.len(),
            "{workload}: metric count"
        );
        for (name, unit) in want {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            let v = m.get("value").and_then(Json::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{workload}: `{name}` = {v:?}"
            );
        }
    }
}

#[test]
fn prove_cold_prints_every_metric() {
    check("prove-cold");
}

#[test]
fn serve_mixed_prints_every_metric() {
    check("serve-mixed");
}

#[test]
fn gradient_prints_every_metric() {
    check("gradient");
}
