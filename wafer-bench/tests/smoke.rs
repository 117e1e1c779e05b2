//! Smoke test of the benchmark itself: every workload at a tiny size
//! prints every metric `BENCHMARK.json` names, with its unit, and a failed
//! output check exits non-zero.
//!
//! ```text
//! cargo test --release --manifest-path wafer-bench/Cargo.toml
//! ```

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["paper-suite", "paper-rowact", "serve-steady", "serve-mixed"];

/// Runs by hand only: its host time is too unsteady for the benchmark's
/// bounds (see the README).
const UNLISTED: &str = "paper-rowact";

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wafer-bench")).args(args).output().expect("the benchmark binary runs")
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec!["--workload", workload, "--size", "tiny", "--seconds", "0", "--trace", trace];
    args.extend_from_slice(extra);
    bench(&args)
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("the section closes")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry.find(&format!("\"{name}\": \"")).unwrap_or_else(|| panic!("{key} entry lacks {name}"));
        let rest = &entry[at + name.len() + 5..];
        rest[..rest.find('"').expect("the string closes")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn spec() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn assert_prints(out: &Output, metrics: &[(String, String)], what: &str) {
    let line = last_line(out);
    assert!(out.status.success(), "{what} failed: {}\n{line}", String::from_utf8_lossy(&out.stderr));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{what}: {line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{what}: {line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&key).unwrap_or_else(|| panic!("{what} does not print {name}: {line}"));
        let rest = &line[at + key.len()..];
        let (value, tail) = rest.split_once(", ").expect("a value then its unit");
        assert!(value.parse::<f64>().is_ok(), "{what}: {name} is not a number: {value}");
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{what}: {name} lacks unit {unit}: {line}"
        );
    }
    assert_eq!(line.matches("\"unit\": ").count(), metrics.len(), "{what} prints extra metrics: {line}");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let (end_to_end, per_layer) = (section(&spec, "end_to_end"), section(&spec, "per_layer"));
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for w in WORKLOADS {
        let listed = spec.contains(&format!("{{\"name\": \"{w}\""));
        assert_eq!(listed, w != UNLISTED, "BENCHMARK.json lists {w}: {listed}");
        assert_prints(&tiny(w, "0", &[]), &end_to_end, &format!("{w} --trace 0"));
        assert_prints(&tiny(w, "1", &[]), &per_layer, &format!("{w} --trace 1"));
    }
}

#[test]
fn a_failed_output_check_exits_non_zero() {
    for w in WORKLOADS {
        let out = tiny(w, "0", &["--inject-failure"]);
        assert_eq!(out.status.code(), Some(1), "{w}: {}", String::from_utf8_lossy(&out.stderr));
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{w}: {line}");
    }
}

#[test]
fn bad_arguments_exit_2() {
    for args in [&["--workload", "nope"][..], &["--seconds", "-1", "--workload", "serve-steady"], &[]] {
        assert_eq!(bench(args).status.code(), Some(2), "{args:?}");
    }
}
