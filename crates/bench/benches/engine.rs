//! Performance benches for the engineering substrate, including the
//! ablations DESIGN.md calls out (spatial index vs linear scan, dense LU,
//! collapsing, simulator throughput, behavioural conversion).
//!
//! Hand-rolled harness (`harness = false`, zero dependencies): each case
//! is warmed up, then timed over enough iterations to fill a fixed
//! budget, and reported as ns/iter with the spread of per-batch means.
//! Run with `cargo bench -p dotm-bench`, or pass a substring filter:
//! `cargo bench -p dotm-bench --bench engine -- sprinkle`.

use dotm_adc::behavior::FlashAdc;
use dotm_adc::comparator::{comparator_testbench, ComparatorConfig, ComparatorStimulus};
use dotm_adc::layouts::{comparator_layout, LayoutConfig};
use dotm_core::MacroHarness;
use dotm_defects::{collapse, DefectStatistics, Sprinkler};
use dotm_layout::{Layer, Rect, ShapeId, SpatialIndex};
use dotm_rng::rngs::StdRng;
use dotm_rng::{Rng, SeedableRng};
use dotm_sim::{DenseMatrix, LuFactors, Simulator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` and prints a criterion-style summary line.
fn bench<R>(filter: &Option<String>, name: &str, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat.as_str()) {
            return;
        }
    }
    // Warm-up: run until 50 ms have passed (at least once).
    let warm_start = Instant::now();
    let mut warm_iters = 0u32;
    loop {
        black_box(f());
        warm_iters += 1;
        if warm_start.elapsed() > Duration::from_millis(50) {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters;
    // Aim for ~10 batches of ~50 ms each.
    let batch_iters = (Duration::from_millis(50).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, 1_000_000) as u32;
    let mut batch_means = Vec::with_capacity(10);
    for _ in 0..10 {
        let t0 = Instant::now();
        for _ in 0..batch_iters {
            black_box(f());
        }
        batch_means.push(t0.elapsed().as_nanos() as f64 / batch_iters as f64);
    }
    batch_means.sort_by(|a, b| a.total_cmp(b));
    let median = batch_means[batch_means.len() / 2];
    let lo = batch_means[0];
    let hi = batch_means[batch_means.len() - 1];
    println!(
        "{name:<42} {median:>14.1} ns/iter   [{lo:.1} .. {hi:.1}]  ({batch_iters} iters/batch)"
    );
}

/// A 50-unknown system with the comparator testbench's MNA pattern: 40
/// node rows carrying conductance and transconductance stamps, then 10
/// voltage-source branch rows whose structurally zero diagonals force
/// row interchanges. It has 210 nonzeros, which partial pivoting fills
/// to 779; captured comparator matrices average about 230 and 770.
fn mna_pattern_system() -> DenseMatrix {
    const NODES: usize = 40;
    const SOURCES: usize = 10;
    let mut seed = 0x1234_5678_9abc_def0u64;
    let mut unit = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = DenseMatrix::zeros(NODES + SOURCES);
    for p in 0..NODES {
        // A conductance to a nearby node (or to ground past the last).
        let g = 10f64.powf(-6.0 + 5.0 * unit());
        let q = p + 1 + (unit() * 4.0) as usize;
        m.add(p, p, g);
        if q < NODES {
            m.add(q, q, g);
            m.add(p, q, -g);
            m.add(q, p, -g);
        }
        // A transconductance controlled by (gate, source) elsewhere in
        // the cell.
        let gm = 10f64.powf(-5.0 + 3.0 * unit());
        let gate = (unit() * NODES as f64) as usize;
        let src = (unit() * NODES as f64) as usize;
        if gate != p {
            m.add(p, gate, gm);
        }
        if src != p {
            m.add(p, src, -gm);
        }
    }
    for b in 0..SOURCES {
        let (row, node) = (NODES + b, b * NODES / SOURCES);
        m.add(row, node, 1.0);
        m.add(node, row, 1.0);
    }
    m
}

fn bench_dense_lu(filter: &Option<String>) {
    // The production path: every Newton iteration refactors and solves.
    let m = mna_pattern_system();
    let n = m.dim();
    let rhs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut lu = LuFactors::new();
    bench(filter, &format!("dense_lu/refactor_solve_mna_{n}"), || {
        lu.refactor(&m).expect("regular MNA system");
        let mut x = rhs.clone();
        lu.solve(&mut x);
        x
    });
}

fn bench_sprinkle(filter: &Option<String>) {
    let layout = comparator_layout(ComparatorConfig::default(), LayoutConfig::default());
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/classify_1k_defects_indexed", || {
        let mut faults = 0usize;
        for _ in 0..1000 {
            let d = sprinkler.sample_defect(&mut rng);
            if sprinkler.classify(&d).is_some() {
                faults += 1;
            }
        }
        faults
    });
    // Ablation: the same bridging query answered by a linear scan over all
    // shapes instead of the grid index.
    let bbox = layout.bbox().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/bridge_query_linear_scan_1k", || {
        let mut hits = 0usize;
        for _ in 0..1000 {
            let x = rng.gen_range(bbox.x0..=bbox.x1);
            let y = rng.gen_range(bbox.y0..=bbox.y1);
            let spot = Rect::square(x, y, 1200);
            let mut nets: Vec<_> = layout
                .shapes()
                .iter()
                .filter(|s| s.layer == Layer::Metal2 && s.rect.touches(&spot))
                .map(|s| s.net)
                .collect();
            nets.sort_unstable();
            nets.dedup();
            if nets.len() >= 2 {
                hits += 1;
            }
        }
        hits
    });
    let idx = SpatialIndex::build(&layout);
    let mut rng = StdRng::seed_from_u64(7);
    bench(filter, "sprinkle/bridge_query_indexed_1k", || {
        let mut hits = 0usize;
        for _ in 0..1000 {
            let x = rng.gen_range(bbox.x0..=bbox.x1);
            let y = rng.gen_range(bbox.y0..=bbox.y1);
            let spot = Rect::square(x, y, 1200);
            let shapes: Vec<ShapeId> = idx.query(&layout, Layer::Metal2, &spot);
            let mut nets: Vec<_> = shapes.iter().map(|&s| layout.shape(s).net).collect();
            nets.sort_unstable();
            nets.dedup();
            if nets.len() >= 2 {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_collapse(filter: &Option<String>) {
    let layout = comparator_layout(ComparatorConfig::default(), LayoutConfig::default());
    let sprinkler = Sprinkler::new(&layout, DefectStatistics::default());
    let report = sprinkler.sprinkle(50_000, 3);
    bench(filter, "collapse/collapse_50k_defect_faults", || {
        collapse(50_000, report.faults.clone())
    });
}

fn bench_simulator(filter: &Option<String>) {
    let stim = ComparatorStimulus::dc_offset(2.5, 0.02);
    let nl = comparator_testbench(ComparatorConfig::default(), &stim);
    bench(filter, "simulator/comparator_decision_transient", || {
        let mut sim = Simulator::new(&nl);
        sim.transient(dotm_adc::comparator::decision_sim_time(), 0.25e-9)
            .expect("must converge")
    });
    let ladder = dotm_adc::ladder::ladder_testbench();
    bench(filter, "simulator/ladder_dc_op_273_nodes", || {
        let mut sim = Simulator::new(&ladder);
        sim.dc_op().expect("must converge")
    });
}

fn bench_behavioral_adc(filter: &Option<String>) {
    let adc = FlashAdc::ideal();
    bench(filter, "behavioral_adc/convert_1k_samples", || {
        let mut acc = 0u32;
        for s in 0..1000 {
            let vin = 1.5 + 2.0 * (s as f64) / 999.0;
            acc += adc.convert(vin, s) as u32;
        }
        acc
    });
    bench(filter, "behavioral_adc/missing_code_test_1k", || {
        adc.missing_codes(1000)
    });
}

fn bench_goodspace_measure(filter: &Option<String>) {
    let harness = dotm_core::harnesses::LadderHarness;
    let nl = harness.testbench();
    bench(filter, "macro_measure/ladder_full_measurement", || {
        harness.measure(&nl).expect("must measure")
    });
}

fn main() {
    // `cargo bench -- <substring>` filters cases; flag-style arguments
    // from the cargo invocation are ignored.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    println!("{:<42} {:>14}", "bench", "median");
    bench_dense_lu(&filter);
    bench_sprinkle(&filter);
    bench_collapse(&filter);
    bench_simulator(&filter);
    bench_behavioral_adc(&filter);
    bench_goodspace_measure(&filter);
}
