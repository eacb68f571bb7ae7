//! Smoke runs of every workload at a tiny size, traced and untraced,
//! through the built binary: each must print a correct result line with
//! every metric its mode promises.

use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: &str) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

fn metric_names(key: &str) -> Vec<String> {
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = manifest
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present")
        .split(']')
        .next()
        .expect("section closes")
        .to_string();
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted").to_string())
        .collect()
}

#[test]
fn every_workload_is_correct_and_complete() {
    for workload in [
        "comparator_cold",
        "many_classes_cold",
        "campaign_warm",
        "serve_jobs",
    ] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload} trace={trace}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            for name in metric_names(key) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace}: {name} missing"
                );
            }
        }
    }
}
