//! Sharded-campaign validation: runs the `campaign` binary once
//! single-process and once as a coordinator with two shard workers
//! (`--workers 2`), both against fresh store trees, then asserts the
//! tentpole byte-identity contract:
//!
//! * every per-macro report **fingerprint** is identical,
//! * every canonical `journal/<macro>.jnl` is **byte-identical**
//!   (`cmp`-level, after the merge replay),
//! * the Fig. 4 panels and the **solver-accounting totals** are
//!   identical, and
//! * the deterministic **store occupancy** line (sorted walk: entry
//!   count, bytes, name digest) is identical — the two trees hold the
//!   same content-addressed entries.
//!
//! This is an identity gate only; the wall clock of sharded campaigns is
//! measured end to end by `perfbench`.
//!
//! The standard campaign knobs pass through to both runs; when unset, the
//! smoke sizes (`DOTM_DEFECTS=2000`, `DOTM_MAX_CLASSES=8`, 2×2 good
//! space) are pinned explicitly.
//!
//! Exits non-zero on any identity violation or a failed child process.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Shard workers of the sharded run.
const WORKERS: usize = 2;

/// Smoke-size defaults pinned into both children when the caller left
/// them unset, so the gate is reproducible regardless of the invoking
/// shell.
const PINNED: &[(&str, &str)] = &[
    ("DOTM_DEFECTS", "2000"),
    ("DOTM_MAX_CLASSES", "8"),
    ("DOTM_GS_COMMON", "2"),
    ("DOTM_GS_MM", "2"),
];

fn campaign_exe() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("bin directory");
    let exe = dir.join(format!("campaign{}", std::env::consts::EXE_SUFFIX));
    if !exe.is_file() {
        eprintln!(
            "[dotm] campaign binary not found at {} — build it first \
             (cargo build --release -p dotm-bench --bin campaign)",
            exe.display()
        );
        std::process::exit(2);
    }
    exe
}

/// Runs one campaign invocation against `store_dir`, returning its
/// stdout. Stderr passes through.
fn run_campaign(exe: &Path, store_dir: &Path, extra_args: &[String]) -> String {
    let mut cmd = Command::new(exe);
    cmd.args(extra_args)
        .env("DOTM_STORE_DIR", store_dir)
        .env_remove("DOTM_ABORT_AFTER")
        .env_remove("DOTM_EXPECT_WARM")
        .env_remove("DOTM_SHARD")
        .env_remove("DOTM_SHARDS");
    for (k, v) in PINNED {
        if std::env::var_os(k).is_none() {
            cmd.env(k, v);
        }
    }
    let out = cmd.output().unwrap_or_else(|e| {
        eprintln!("[dotm] failed to spawn {}: {e}", exe.display());
        std::process::exit(2);
    });
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        eprintln!(
            "[dotm] campaign {:?} exited with {}",
            extra_args, out.status
        );
        std::process::exit(1);
    }
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `(macro name, fingerprint)` pairs from the per-macro campaign lines.
fn fingerprints(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|l| {
            let fp = l.split("fingerprint=").nth(1)?.trim().to_string();
            let name = l.split_whitespace().next()?.to_string();
            Some((name, fp))
        })
        .collect()
}

/// Everything from the Fig. 4 header onward: panels plus the
/// solver-accounting block — deterministic output, no effort counters.
fn accounting_tail(stdout: &str) -> String {
    match stdout.find("Fig 4") {
        Some(at) => stdout[at..].to_string(),
        None => String::new(),
    }
}

fn occupancy_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("campaign store occupancy:"))
        .unwrap_or("")
        .to_string()
}

fn main() {
    let exe = campaign_exe();
    let root = std::env::temp_dir().join(format!("dotm-shard-speedup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir_single = root.join("single");
    let dir_sharded = root.join("sharded");

    println!("sharded campaign vs single process ({WORKERS} workers)");
    let out_single = run_campaign(&exe, &dir_single, &[]);
    let out_sharded = run_campaign(
        &exe,
        &dir_sharded,
        &["--workers".into(), WORKERS.to_string()],
    );

    // Identity check 1: per-macro report fingerprints.
    let fp_single = fingerprints(&out_single);
    let fp_sharded = fingerprints(&out_sharded);
    let fingerprints_identical = !fp_single.is_empty() && fp_single == fp_sharded;
    for ((name, a), (_, b)) in fp_single.iter().zip(&fp_sharded) {
        if a != b {
            eprintln!("  FINGERPRINT MISMATCH {name}: single {a} vs sharded {b}");
        }
    }

    // Identity check 2: canonical journal bytes, macro by macro.
    let mut journals_identical = !fp_single.is_empty();
    for (name, _) in &fp_single {
        let a = std::fs::read(dir_single.join("journal").join(format!("{name}.jnl")));
        let b = std::fs::read(dir_sharded.join("journal").join(format!("{name}.jnl")));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => {
                eprintln!("  JOURNAL MISMATCH {name}: merged bytes differ from single-process");
                journals_identical = false;
            }
        }
    }

    // Identity check 3: Fig 4 panels + solver-accounting totals.
    let accounting_identical = !accounting_tail(&out_single).is_empty()
        && accounting_tail(&out_single) == accounting_tail(&out_sharded);
    if !accounting_identical {
        eprintln!("  ACCOUNTING MISMATCH: Fig 4 / solver totals differ");
    }

    // Identity check 4: deterministic store occupancy (sorted walk).
    let occ_single = occupancy_line(&out_single);
    let occupancy_identical = !occ_single.is_empty() && occ_single == occupancy_line(&out_sharded);
    if !occupancy_identical {
        eprintln!("  OCCUPANCY MISMATCH: the two store trees differ");
    }

    println!(
        "  fingerprints identical: {fingerprints_identical}   journals identical: \
         {journals_identical}   accounting identical: {accounting_identical}   \
         occupancy identical: {occupancy_identical}"
    );

    let _ = std::fs::remove_dir_all(&root);

    if !(fingerprints_identical
        && journals_identical
        && accounting_identical
        && occupancy_identical)
    {
        eprintln!("[dotm] FAIL: sharded campaign is not byte-identical to single-process");
        std::process::exit(1);
    }
}
