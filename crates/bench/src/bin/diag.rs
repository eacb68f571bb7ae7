//! Diagnostic: lists every fault class of a macro path with its
//! signature and detections, then the undetected classes — the input to
//! the paper's DfT analysis ("the methodology used makes it easy to
//! investigate the reasons for the undetectability of faults").
//!
//! Runs the comparator, or each macro named in `DOTM_MACROS` (in
//! campaign order; an unknown name exits 2). `DOTM_DFT=1` selects the
//! comparator's DfT variant.

use dotm_bench::{print_macro_accounting, run_with_progress};
use dotm_core::harnesses;
use dotm_core::MacroReport;
use dotm_faults::Severity;

fn main() {
    let selection = dotm_core::env::macros().unwrap_or_else(|| vec!["comparator".into()]);
    let selected = harnesses::select(Some(&selection), dotm_core::env::dft()).unwrap_or_else(|e| {
        eprintln!("diag: DOTM_MACROS: {e}");
        std::process::exit(dotm_serve::exit::USAGE);
    });
    for harness in &selected {
        let report = run_with_progress(harness.as_ref());
        // Several listings are told apart by a name line; a lone one
        // needs none.
        if selected.len() > 1 {
            println!();
            println!("##### {} #####", report.name);
        }
        print_classes(&report);
        print_macro_accounting(&report);
    }
}

fn print_classes(report: &MacroReport) {
    for severity in [Severity::Catastrophic, Severity::NonCatastrophic] {
        println!();
        println!("=== {severity:?} ===");
        let total = report.weight_of(severity);
        let mut undetected = 0.0;
        for o in report.outcomes_of(severity) {
            let mark = if o.detection.detected() { " " } else { "!" };
            println!(
                "{mark} {:>5}x {:<20} v={:<13} mc={} i=({},{},{}) sh={} {}",
                o.count,
                o.mechanism.to_string(),
                format!("{:?}", o.voltage),
                o.detection.missing_code as u8,
                o.currents.ivdd as u8,
                o.currents.iddq as u8,
                o.currents.iinput as u8,
                o.shared as u8,
                &o.key[..o.key.len().min(70)]
            );
            if !o.detection.detected() {
                undetected += o.count as f64;
            }
        }
        println!(
            "undetected: {:.1}% of {total} weighted faults",
            100.0 * undetected / total.max(1.0)
        );
    }
}
