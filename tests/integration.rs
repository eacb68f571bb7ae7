//! Workspace-level integration tests: the full defect-oriented test path
//! exercised across every crate boundary, on populations small enough for
//! CI.

use dotm::core::harnesses::{ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness};
use dotm::core::{detectability, run_macro_path, GlobalReport, GoodSpaceConfig, PipelineConfig};
use dotm::faults::Severity;

fn fast_config(defects: usize) -> PipelineConfig {
    PipelineConfig {
        defects,
        seed: 2026,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 5,
        },
        non_catastrophic: true,
        ..PipelineConfig::default()
    }
}

#[test]
fn ladder_path_end_to_end() {
    let report = run_macro_path(&LadderHarness, &fast_config(20_000)).expect("ladder path");
    assert!(report.total_faults > 100);
    let d = detectability(&report, Severity::Catastrophic);
    // Tap shorts lose codes: the ladder is overwhelmingly voltage-testable.
    // (Band sits below the ~69.5 % this seed produces under the in-tree
    // PRNG; the exact figure moves with the sampled fault population.)
    assert!(
        d.missing_code_pct > 65.0,
        "ladder missing-code {:.1}%",
        d.missing_code_pct
    );
    assert!(
        d.coverage_pct > 80.0,
        "ladder coverage {:.1}%",
        d.coverage_pct
    );
}

#[test]
fn clockgen_path_end_to_end() {
    let report =
        run_macro_path(&ClockgenHarness::default(), &fast_config(20_000)).expect("clockgen path");
    assert!(report.total_faults > 100);
    let d = detectability(&report, Severity::Catastrophic);
    // The paper: 93.8 % of clock-generator faults are current-detectable.
    assert!(
        d.current_pct > 75.0,
        "clockgen current detectability {:.1}%",
        d.current_pct
    );
    assert!(d.coverage_pct > 85.0);
}

#[test]
fn decoder_path_end_to_end() {
    let report =
        run_macro_path(&DecoderHarness::default(), &fast_config(20_000)).expect("decoder path");
    let d = detectability(&report, Severity::Catastrophic);
    // A digital cell: near-complete coverage through bitline observation
    // plus IDDQ.
    assert!(
        d.coverage_pct > 95.0,
        "decoder coverage {:.1}%",
        d.coverage_pct
    );
}

#[test]
fn comparator_path_smoke_with_truncated_classes() {
    let mut cfg = fast_config(4_000);
    cfg.max_classes = Some(12);
    cfg.non_catastrophic = false;
    let report = run_macro_path(&ComparatorHarness::production(), &cfg).expect("comparator path");
    let d = detectability(&report, Severity::Catastrophic);
    // The dominant classes are trunk bridges; most are detectable.
    assert!(d.coverage_pct > 55.0, "coverage {:.1}%", d.coverage_pct);
    assert!(
        d.current_pct > 40.0,
        "current detectability {:.1}%",
        d.current_pct
    );
}

#[test]
fn global_compilation_weighs_macros() {
    let ladder = run_macro_path(&LadderHarness, &fast_config(10_000)).expect("ladder");
    let clock = run_macro_path(&ClockgenHarness::default(), &fast_config(10_000)).expect("clock");
    let global = GlobalReport::new(vec![ladder, clock]);
    let d = global.detectability(Severity::Catastrophic);
    assert!(d.coverage_pct > 50.0 && d.coverage_pct <= 100.0);
    // The weighted average must sit between the per-macro extremes.
    let per: Vec<f64> = global
        .macros()
        .iter()
        .map(|r| r.coverage(Severity::Catastrophic))
        .collect();
    let lo = per.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = per.iter().cloned().fold(0.0f64, f64::max);
    assert!(d.coverage_pct >= lo - 1e-9 && d.coverage_pct <= hi + 1e-9);
}

#[test]
fn umbrella_crate_reexports_whole_stack() {
    // Compile-time check that the umbrella exposes every layer.
    let _nl = dotm::netlist::Netlist::new("x");
    let _lo = dotm::layout::Layout::new("x");
    let _stats = dotm::defects::DefectStatistics::default();
    let _inj = dotm::faults::Injector::default();
    let _adc = dotm::adc::behavior::FlashAdc::ideal();
    let _tt = dotm::core::TestTimeModel::default();
}

#[test]
fn fault_dictionary_diagnoses_ladder_outcomes() {
    use dotm::core::{compact_current_tests, FaultDictionary};

    let report = run_macro_path(&LadderHarness, &fast_config(15_000)).expect("ladder path");
    let dict = FaultDictionary::from_report(&report, Severity::Catastrophic);
    assert!(dict.len() > 20);
    // Diagnose the most common outcome pattern: pick a detected class and
    // feed its own prediction back in — it must rank at the top of its
    // exact-match group, and scores must normalise.
    let probe = report
        .outcomes_of(Severity::Catastrophic)
        .filter(|o| o.detection.detected())
        .max_by_key(|o| o.count)
        .expect("some detected class");
    let ranked = dict.diagnose(probe.detection);
    assert!(!ranked.is_empty());
    assert_eq!(ranked[0].mismatches, 0, "top candidate must match exactly");
    let sum: f64 = ranked.iter().map(|c| c.score).sum();
    assert!((sum - 1.0).abs() < 1e-9);
    // The four-bit outcome pattern cannot distinguish the hundreds of
    // tap-to-tap short classes (they all read "missing codes only"), so
    // the ladder's dictionary resolution is genuinely low — diagnosing a
    // ladder fault needs the *identity* of the missing code, not just the
    // pass/fail pattern. The resolution metric must reflect that honestly.
    let res = dict.resolution();
    assert!(res > 0.0 && res < 0.5, "resolution {res}");

    // And the current-test compaction runs on the same report.
    let compacted = compact_current_tests(&LadderHarness, &report, Severity::Catastrophic);
    assert!(compacted.selected_count() <= compacted.available);
    if let Some(last) = compacted.steps.last() {
        assert!((last.cumulative_coverage - 1.0).abs() < 1e-9);
    }
}

#[test]
fn injection_succeeds_for_every_sprinkled_class() {
    // Completeness: every fault class the sprinkler extracts from the
    // comparator layout must be injectable into the comparator testbench
    // (net names and device names line up end to end).
    use dotm::core::harnesses::ComparatorHarness;
    use dotm::core::MacroHarness;
    use dotm::defects::{sprinkle_collapsed, DefectStatistics, Sprinkler};
    use dotm::faults::Injector;

    let harness = ComparatorHarness::production();
    let layout = harness.layout();
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let collapsed = sprinkle_collapsed(&sprinkler, 30_000, 77);
    assert!(collapsed.class_count() > 50);
    let injector = Injector::default();
    let base = harness.testbench();
    let mut failures = Vec::new();
    for class in &collapsed.classes {
        let effect = &class.representative.effect;
        for variant in 0..injector.variant_count(effect) {
            let mut nl = base.clone();
            if let Err(e) = injector.inject(&mut nl, effect, Severity::Catastrophic, variant, "flt")
            {
                failures.push(format!("{}: {e}", class.key));
            }
        }
    }
    assert!(failures.is_empty(), "injection failures: {failures:#?}");
}
