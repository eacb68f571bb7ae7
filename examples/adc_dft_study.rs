//! A miniature DfT study on the comparator macro: run the full
//! defect-oriented test path on the production comparator and on the
//! DfT-hardened variant (redesigned flipflop + reordered bias trunks),
//! then compare coverage — the paper's Fig. 3 → Fig. 5 move, at example
//! scale.
//!
//! Run with: `cargo run --release --example adc_dft_study`
//! (a few minutes; set DOTM_DEFECTS, default 8000 here, to shrink the
//! run).

use dotm::core::harnesses::ComparatorHarness;
use dotm::core::{
    check_trunk_order, detectability, run_macro_path, GoodSpaceConfig, MacroHarness, PipelineConfig,
};
use dotm::faults::Severity;

fn main() {
    // The example's own default is smaller than the library's 25 000.
    let defects = match std::env::var_os("DOTM_DEFECTS") {
        Some(_) => dotm::core::env::defects(),
        None => 8_000,
    };
    let cfg = PipelineConfig {
        defects,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 4,
            mismatch_samples: 3,
            seed: 7,
        },
        non_catastrophic: false,
        ..PipelineConfig::default()
    };

    println!("defect-oriented test path, {defects} defects per variant");
    println!();
    for (label, harness) in [
        ("production", ComparatorHarness::production()),
        ("with DfT measures", ComparatorHarness::dft()),
    ] {
        let t0 = std::time::Instant::now();
        let report = run_macro_path(&harness, &cfg).expect("path runs");
        let d = detectability(&report, Severity::Catastrophic);
        println!(
            "{label:<18} {:>4} faults / {:>3} classes  ({:.0}s)",
            report.total_faults,
            report.class_count,
            t0.elapsed().as_secs_f64()
        );
        println!(
            "    missing-code {:5.1}%   current {:5.1}%   coverage {:5.1}%",
            d.missing_code_pct, d.current_pct, d.coverage_pct
        );
        let undetected: Vec<_> = report
            .outcomes_of(Severity::Catastrophic)
            .filter(|o| !o.detection.detected())
            .collect();
        if undetected.is_empty() {
            println!("    no undetected classes");
        } else {
            println!("    undetected classes:");
            for o in undetected {
                println!("      {:>4}x {}", o.count, o.key);
            }
        }
        println!();
    }
    println!("the DfT variant removes the similar-signal bias adjacency and the");
    println!("flipflop's sampling-phase current spread — coverage rises accordingly");
    println!();
    // The paper's §4 design rule, checked mechanically on both layouts.
    for (label, lcfg) in [
        ("production", dotm::adc::layouts::LayoutConfig::default()),
        (
            "with DfT",
            dotm::adc::layouts::LayoutConfig {
                dft_bias_order: true,
            },
        ),
    ] {
        let order = dotm::adc::layouts::comparator_trunk_order(lcfg);
        let nl = ComparatorHarness::production().testbench();
        let is_static = |net: &str| matches!(net, "vbn" | "vbnc" | "vbp" | "vaz" | "vref");
        match check_trunk_order(&nl, &order, &is_static) {
            Ok(advisories) if advisories.is_empty() => {
                println!("DfT advisor ({label}): no similar-signal adjacencies")
            }
            Ok(advisories) => {
                println!("DfT advisor ({label}):");
                for a in advisories {
                    println!("  - {a}");
                }
            }
            Err(e) => println!("DfT advisor ({label}): {e}"),
        }
    }
}
