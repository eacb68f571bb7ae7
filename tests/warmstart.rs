//! Warm-start equivalence, end to end: seeding Newton from the
//! fault-free nominal operating points may change solver effort, never a
//! verdict. Two inputs:
//!
//! * the comparator — nonlinear devices, transient analyses and
//!   fault-injected topologies, the hardest case — with the measurement
//!   cache off, which isolates the warm-start effect;
//! * the full fixed-seed ladder anchor (seed 2026, 645 faults in 417
//!   classes) with warm start and the measurement cache on together, as
//!   campaigns run them.
//!
//! Each warm run is compared with its cold run class by class on
//! everything the methodology reports (detection set, voltage
//! signature, current flags). On the anchor the warm run must also save
//! Newton iterations. On this comparator input it does not (505 493
//! warm vs 503 220 cold), so there only the verdicts are checked.

use dotm::core::harnesses::{ComparatorHarness, LadderHarness};
use dotm::core::{run_macro_path, GoodSpaceConfig, MacroReport, PipelineConfig};

fn run_comparator(warm_start: bool) -> MacroReport {
    let cfg = PipelineConfig {
        defects: 3_000,
        seed: 1995,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 1995 ^ 0xD07,
            ..GoodSpaceConfig::default()
        },
        max_classes: Some(10),
        non_catastrophic: true,
        warm_start,
        measure_cache: false,
        ..PipelineConfig::default()
    };
    run_macro_path(&ComparatorHarness::production(), &cfg).expect("comparator path")
}

fn run_anchor(warm: bool) -> MacroReport {
    let cfg = PipelineConfig {
        defects: 20_000,
        seed: 2026,
        goodspace: GoodSpaceConfig {
            common_samples: 3,
            mismatch_samples: 2,
            seed: 5,
            ..GoodSpaceConfig::default()
        },
        non_catastrophic: true,
        warm_start: warm,
        measure_cache: warm,
        ..PipelineConfig::default()
    };
    let report = run_macro_path(&LadderHarness, &cfg).expect("ladder path");
    assert_eq!(report.class_count, 417, "anchor population drifted");
    report
}

#[test]
fn warm_start_never_flips_a_detection_verdict() {
    check_warm_against_cold("comparator", run_comparator, false);
    check_warm_against_cold("ladder anchor", run_anchor, true);
}

fn check_warm_against_cold(input: &str, run: fn(bool) -> MacroReport, saves_iterations: bool) {
    let cold = run(false);
    let warm = run(true);

    // The warm run must actually have taken the seeded path…
    let ws = warm.solver_totals();
    let cs = cold.solver_totals();
    assert!(
        ws.warm_hits + ws.warm_misses > 0,
        "{input}: warm run never attempted a seeded solve"
    );
    assert_eq!(
        cs.warm_hits + cs.warm_misses,
        0,
        "{input}: cold run must not touch the seed table"
    );
    assert!(
        !saves_iterations || ws.nr_iterations < cs.nr_iterations,
        "{input}: warm start must save Newton iterations: {} (warm) vs {} (cold)",
        ws.nr_iterations,
        cs.nr_iterations
    );

    // …and may differ from the cold run only in solver effort.
    assert_eq!(cold.total_faults, warm.total_faults, "{input}");
    assert_eq!(cold.outcomes.len(), warm.outcomes.len(), "{input}");
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        let class = format!("{input} class {}", a.key);
        assert_eq!(a.key, b.key, "{input}: class order diverged");
        assert_eq!(a.count, b.count, "{class}");
        assert_eq!(a.severity, b.severity, "{class}");
        assert_eq!(a.detection, b.detection, "verdict flipped in {class}");
        assert_eq!(a.voltage, b.voltage, "voltage signature flipped in {class}");
        assert_eq!(a.currents, b.currents, "current flags flipped in {class}");
        assert_eq!(a.flagged, b.flagged, "compaction flags flipped in {class}");
        assert_eq!(a.sim_failed, b.sim_failed, "{class}");
        assert_eq!(a.excluded, b.excluded, "{class}");
    }
}
