//! The campaign benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--ablate DOTM_FACTOR_REUSE|DOTM_BATCH_ASSEMBLY|DOTM_VARIANT_LOCKSTEP|DOTM_WARM_START]
//!           [--smoke]
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`).

mod calib;
mod campaign;
mod probe;
mod serve;
mod spans;
mod stats;

use campaign::{CampaignCfg, MacroId, Rep};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed whose reports are pinned below (the campaign CLI's default).
const COMMITTED_SEED: u64 = 1995;

/// Solver knobs the ablation mode may turn off. Each is bitwise
/// invisible in every report.
const ABLATABLE: [&str; 4] = [
    "DOTM_FACTOR_REUSE",
    "DOTM_BATCH_ASSEMBLY",
    "DOTM_VARIANT_LOCKSTEP",
    "DOTM_WARM_START",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Every repetition on an empty store.
    Cold,
    /// Every repetition re-runs against a store an untimed run filled.
    Warm,
    /// The campaign service over HTTP.
    Serve,
}

/// Reports of the committed seed, measured with the campaign CLI.
struct Pinned {
    macros: &'static [(&'static str, u64, usize)],
    fig4: [&'static str; 6],
}

struct Workload {
    name: &'static str,
    kind: Kind,
    cfg: CampaignCfg,
    /// A tiny configuration of the same shape for `--smoke`.
    smoke: CampaignCfg,
    pinned: Pinned,
}

const ALL5: &[&str] = &[
    "comparator",
    "ladder",
    "bias_gen",
    "clock_gen",
    "decoder_slice",
];

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "comparator_cold",
            kind: Kind::Cold,
            cfg: CampaignCfg {
                macros: &["comparator"],
                defects: 5000,
                max_classes: Some(3),
                gs: (2, 2),
                // Which classes are the three most frequent changes with
                // the sprinkle seed, and comparator classes differ in cost
                // by up to half; a fixed population keeps the work the
                // same at every seed, which still redraws the good space,
                // the thresholds and every verdict.
                defect_seed: Some(COMMITTED_SEED),
            },
            smoke: CampaignCfg {
                macros: &["comparator"],
                defects: 500,
                max_classes: Some(1),
                gs: (1, 1),
                defect_seed: None,
            },
            pinned: Pinned {
                macros: &[("comparator", 0xe2746ba1aa87d770, 73)],
                fig4: [
                    "  voltage detectable:    54.0%",
                    "  current detectable:   100.0%",
                    "  total fault coverage: 100.0%",
                    "  voltage detectable:    30.0%",
                    "  current detectable:   100.0%",
                    "  total fault coverage: 100.0%",
                ],
            },
        },
        Workload {
            name: "many_classes_cold",
            kind: Kind::Cold,
            cfg: CampaignCfg {
                macros: &["ladder", "clock_gen", "decoder_slice"],
                defects: 20000,
                max_classes: Some(60),
                gs: (2, 2),
                defect_seed: None,
            },
            smoke: CampaignCfg {
                macros: &["ladder", "clock_gen"],
                defects: 300,
                max_classes: Some(6),
                gs: (1, 1),
                defect_seed: None,
            },
            pinned: Pinned {
                macros: &[
                    ("ladder", 0x8a0ca1b9d4941967, 473),
                    ("clock_gen", 0xa31e8c256aa75aae, 128),
                    ("decoder_slice", 0xe6e11de6e67bf556, 151),
                ],
                fig4: [
                    "  voltage detectable:    73.5%",
                    "  current detectable:    45.7%",
                    "  total fault coverage:  99.9%",
                    "  voltage detectable:    58.4%",
                    "  current detectable:    45.3%",
                    "  total fault coverage:  98.8%",
                ],
            },
        },
        Workload {
            name: "campaign_warm",
            kind: Kind::Warm,
            cfg: CampaignCfg {
                macros: ALL5,
                defects: 8000,
                max_classes: Some(3),
                gs: (2, 2),
                // As for the comparator: with three classes per macro the
                // seed would decide how many costly bias-generator
                // classifications a repetition runs.
                defect_seed: Some(COMMITTED_SEED),
            },
            smoke: CampaignCfg {
                macros: &["ladder", "bias_gen"],
                defects: 300,
                max_classes: Some(3),
                gs: (1, 1),
                defect_seed: None,
            },
            pinned: Pinned {
                macros: &[
                    ("comparator", 0x70858db770369242, 91),
                    ("ladder", 0x668e9886f2cfa836, 221),
                    ("bias_gen", 0x28c42b1b6dad67f3, 37),
                    ("clock_gen", 0x9c5988b77d46abf7, 73),
                    ("decoder_slice", 0xe28411344f85e2be, 84),
                ],
                fig4: [
                    "  voltage detectable:    51.7%",
                    "  current detectable:    72.4%",
                    "  total fault coverage:  99.9%",
                    "  voltage detectable:    51.6%",
                    "  current detectable:    72.4%",
                    "  total fault coverage:  99.9%",
                ],
            },
        },
        Workload {
            name: "serve_jobs",
            kind: Kind::Serve,
            cfg: CampaignCfg {
                macros: &["ladder", "clock_gen", "decoder_slice"],
                defects: 3000,
                max_classes: Some(20),
                gs: (2, 2),
                defect_seed: None,
            },
            smoke: CampaignCfg {
                macros: &["ladder"],
                defects: 300,
                max_classes: Some(3),
                gs: (1, 1),
                defect_seed: None,
            },
            pinned: Pinned {
                macros: &[
                    ("ladder", 0xc80a0112a3e8b253, 101),
                    ("clock_gen", 0x4e242c6ef5e1d064, 37),
                    ("decoder_slice", 0xa2efebf9caf7cf2f, 46),
                ],
                fig4: [
                    "  voltage detectable:    69.2%",
                    "  current detectable:    49.6%",
                    "  total fault coverage:  99.9%",
                    "  voltage detectable:    59.3%",
                    "  current detectable:    47.5%",
                    "  total fault coverage:  99.5%",
                ],
            },
        },
    ]
}

/// End-to-end metrics, measured with tracing off, in `BENCHMARK.json`
/// order.
const END_TO_END: [(&str, &str); 7] = [
    ("campaign_s", "s"),
    ("campaign_cpu_s", "s"),
    ("setup_s", "s"),
    ("classes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 37] = [
    ("host.speed_factor", "ratio"),
    ("defects.sprinkle_s", "s"),
    ("defects.faults", "count"),
    ("defects.classes", "count"),
    ("goodspace.s", "s"),
    ("sim.measure_s", "s"),
    ("sim.measure_calls", "count"),
    ("sim.measure_errors", "count"),
    ("sim.nr_iterations", "count"),
    ("sim.nr_solves", "count"),
    ("sim.tran_steps", "count"),
    ("sim.iters_per_solve", "ratio"),
    ("sim.lu_s", "s"),
    ("sim.lu_calls", "count"),
    ("sim.assembly_s", "s"),
    ("sim.lockstep_s", "s"),
    ("harness.classify_s", "s"),
    ("harness.classify_calls", "count"),
    ("harness.perturb_s", "s"),
    ("store.write_s", "s"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("store.load_s", "s"),
    ("store.loads", "count"),
    ("store.hit_ratio", "ratio"),
    ("journal.record_s", "s"),
    ("journal.records", "count"),
    ("pipeline.self_s", "s"),
    ("pipeline.class_ms_p50", "ms"),
    ("pipeline.class_ms_tail", "ms"),
    ("pipeline.escalated_classes", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.report_ms", "ms"),
    ("serve.events", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ablate: Option<String>,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--ablate <{}>] [--smoke]",
        workloads()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|"),
        ABLATABLE.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: COMMITTED_SEED,
        seconds: 10.0,
        trace: false,
        ablate: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed: expected an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds: expected a non-negative number"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: expected 0 or 1"),
                }
            }
            "--ablate" => {
                let knob = value();
                if !ABLATABLE.contains(&knob.as_str()) {
                    usage(&format!("--ablate: unknown knob {knob}"));
                }
                args.ablate = Some(knob);
            }
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    if args.ablate.is_some() && args.trace {
        usage("--ablate compares untraced runs; use it with --trace 0");
    }
    args
}

/// Peak resident set of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one benchmark run found.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON line.
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("perfbench: INCORRECT: {why}");
        self.notes.push(format!("INCORRECT: {why}"));
        self.correct = false;
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_line(o: &Outcome, defs: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Checks a repetition against itself and the program's own counters.
fn cross_check(rep: &Rep, kind: Kind) -> Vec<String> {
    let mut errs = rep.errors.clone();
    let c = rep.counters();
    let t = &rep.tally;
    let mut expect = |what: &str, ours: u64, theirs: u64| {
        if ours != theirs {
            errs.push(format!(
                "{what}: benchmark counted {ours}, program {theirs}"
            ));
        }
    };
    expect("store loads vs StoreCounters.loads", t.loads, c.loads);
    expect(
        "store writes vs StoreCounters.computed",
        t.writes,
        c.computed,
    );
    expect(
        "class-phase measure calls vs StoreCounters.computed",
        t.measure_calls,
        c.computed,
    );
    expect(
        "journal records vs evaluated classes",
        t.records,
        rep.evaluated() as u64,
    );
    expect("store write errors", c.write_errors, 0);
    match kind {
        Kind::Warm => {
            expect("warm run: measure calls", t.measure_calls, 0);
            expect("warm run: store writes", t.writes, 0);
            expect("warm run: load hits vs loads", t.load_hits, t.loads);
        }
        _ => expect("store entries vs writes", rep.entries, t.writes),
    }
    errs
}

/// The pinned identities of a workload at the committed seed, if any.
fn pinned_ids(p: &Pinned) -> Option<(Vec<MacroId>, Vec<String>)> {
    (!p.macros.is_empty()).then(|| {
        (
            p.macros
                .iter()
                .map(|&(name, fingerprint, classes)| MacroId {
                    name: name.into(),
                    fingerprint,
                    classes,
                })
                .collect(),
            p.fig4.iter().map(|s| s.to_string()).collect(),
        )
    })
}

fn describe(ids: &[MacroId]) -> String {
    ids.iter()
        .map(|m| format!("{} {:016x} ({} classes)", m.name, m.fingerprint, m.classes))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The reference every report of this run must equal: the pinned one at
/// the committed seed (full size), else the first report seen.
struct Reference {
    expect: Option<(Vec<MacroId>, Vec<String>)>,
    source: &'static str,
}

impl Reference {
    fn check(&mut self, what: &str, ids: &[MacroId], fig4: &[String], out: &mut Outcome) {
        match &self.expect {
            None => {
                self.expect = Some((ids.to_vec(), fig4.to_vec()));
                self.source = "the first report of this run";
            }
            Some((want, want_fig4)) => {
                if want.as_slice() != ids {
                    out.fail(format!(
                        "{what}: reports {} differ from {}: {}",
                        describe(ids),
                        self.source,
                        describe(want)
                    ));
                } else if want_fig4.as_slice() != fig4 {
                    out.fail(format!(
                        "{what}: Fig 4 lines {fig4:?} differ from {}: {want_fig4:?}",
                        self.source
                    ));
                }
            }
        }
    }
}

fn set_ablation(knob: Option<&str>, off: bool) {
    if let Some(k) = knob {
        if off {
            std::env::set_var(k, "0");
        } else {
            std::env::remove_var(k);
        }
    }
}

/// A repetition's times in reference-host units: each interval scaled by
/// the host speed the sampler measured over that interval.
struct Normalised {
    /// Host speed over the whole repetition.
    speed: f64,
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    /// First store call to pipeline return, summed over macros.
    class_s: f64,
    gaps_ms: Vec<f64>,
}

fn normalise(r: &Rep, sampler: &calib::Sampler) -> Normalised {
    let speed = sampler.factor(r.interval.0, r.interval.1);
    Normalised {
        speed,
        wall_s: r.wall_s * speed,
        cpu_s: r.cpu_s * speed,
        setup_s: sampler.seconds(&r.setup_intervals),
        class_s: sampler.seconds(&r.class_intervals),
        gaps_ms: r
            .class_gaps
            .iter()
            .map(|&iv| 1e3 * sampler.seconds(&[iv]))
            .collect(),
    }
}

/// A repetition with its normalised times.
type Measured<'a> = (&'a Rep, &'a Normalised);

/// End-to-end values of one repetition.
fn rep_metrics((r, n): Measured) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("campaign_s", n.wall_s),
        ("campaign_cpu_s", n.cpu_s),
        ("setup_s", n.setup_s),
        ("classes_per_s", r.evaluated() as f64 / n.class_s.max(1e-9)),
        ("request_ms_p50", stats::median(&n.gaps_ms)),
        ("request_ms_tail", stats::tail(&n.gaps_ms).value),
    ])
}

/// Each end-to-end metric: the median over repetitions, except
/// `request_ms_p50`, the median of all class gaps of the run. The tail
/// stays per repetition: a few slow classes per repetition (the bias
/// generator's) would otherwise put a pooled percentile wherever the
/// repetition count happens to place it.
fn end_to_end_of(reps: &[Measured]) -> BTreeMap<&'static str, f64> {
    let per_rep: Vec<_> = reps.iter().map(|&m| rep_metrics(m)).collect();
    let mut m = BTreeMap::new();
    for (name, _) in END_TO_END {
        let v: Vec<f64> = per_rep
            .iter()
            .filter_map(|x| x.get(name).copied())
            .collect();
        if !v.is_empty() {
            m.insert(name, stats::median(&v));
        }
    }
    let gaps: Vec<f64> = reps.iter().flat_map(|(_, n)| n.gaps_ms.clone()).collect();
    m.insert("request_ms_p50", stats::median(&gaps));
    m
}

/// The repetition with the median normalised wall time.
fn median_rep<'a>(reps: &[Measured<'a>]) -> Option<Measured<'a>> {
    let mut v = reps.to_vec();
    v.sort_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s));
    v.get(v.len().saturating_sub(1) / 2).copied()
}

fn layers_of((rep, n): Measured) -> BTreeMap<&'static str, f64> {
    let t = &rep.tally;
    let l = rep.layers.clone().unwrap_or_default();
    let s = rep.solver();
    let f = n.speed;
    let ns = |x: u64| x as f64 * 1e-9 * f;
    let gaps = &n.gaps_ms;
    let mut m = BTreeMap::new();
    m.insert("host.speed_factor", f);
    m.insert("defects.sprinkle_s", l.sprinkle_s * f);
    m.insert(
        "defects.faults",
        rep.macros.iter().map(|x| x.faults).sum::<usize>() as f64,
    );
    m.insert(
        "defects.classes",
        rep.macros.iter().map(|x| x.id.classes).sum::<usize>() as f64,
    );
    m.insert("goodspace.s", l.goodspace_s * f);
    m.insert("sim.measure_s", ns(t.measure_ns));
    m.insert("sim.measure_calls", t.measure_calls as f64);
    m.insert("sim.measure_errors", t.measure_errors as f64);
    m.insert("sim.nr_iterations", s.nr_iterations as f64);
    m.insert("sim.nr_solves", s.nr_solves as f64);
    m.insert("sim.tran_steps", s.tran_steps as f64);
    m.insert(
        "sim.iters_per_solve",
        s.nr_iterations as f64 / (s.nr_solves.max(1)) as f64,
    );
    m.insert("sim.lu_s", l.lu_s * f);
    m.insert("sim.lu_calls", l.lu_calls as f64);
    m.insert("sim.assembly_s", l.assembly_s * f);
    m.insert("sim.lockstep_s", l.lockstep_s * f);
    m.insert("harness.classify_s", ns(t.classify_ns));
    m.insert("harness.classify_calls", t.classify_calls as f64);
    m.insert("harness.perturb_s", ns(t.perturb_ns));
    m.insert("store.write_s", ns(t.write_ns));
    m.insert("store.writes", t.writes as f64);
    m.insert("store.bytes", rep.bytes_written as f64);
    m.insert("store.load_s", ns(t.load_ns + t.contains_ns));
    m.insert("store.loads", t.loads as f64);
    m.insert(
        "store.hit_ratio",
        if t.loads == 0 {
            0.0
        } else {
            t.load_hits as f64 / t.loads as f64
        },
    );
    m.insert("journal.record_s", ns(t.record_ns));
    m.insert("journal.records", t.records as f64);
    m.insert("pipeline.self_s", l.pipeline_self_s * f);
    m.insert("pipeline.class_ms_p50", stats::median(gaps));
    m.insert("pipeline.class_ms_tail", stats::tail(gaps).value);
    m.insert(
        "pipeline.escalated_classes",
        rep.macros.iter().map(|x| x.escalated).sum::<usize>() as f64,
    );
    m
}

fn campaign_workload(
    wl: &Workload,
    cfg: &CampaignCfg,
    args: &Args,
    work: &Path,
    sampler: &calib::Sampler,
) -> Outcome {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let mut reference = Reference {
        expect: (args.seed == COMMITTED_SEED && !args.smoke)
            .then(|| pinned_ids(&wl.pinned))
            .flatten(),
        source: "the pinned reports of the committed seed",
    };
    let warm_store = work.join("store");
    if wl.kind == Kind::Warm {
        let fill = campaign::run(cfg, args.seed, &warm_store, false, epoch, 0);
        for e in cross_check(&fill, Kind::Cold) {
            out.fail(format!("fill run: {e}"));
        }
        reference.check("fill run", &fill.ids(), &fill.fig4, &mut out);
    }

    // Arms alternate so a slow stretch of the host hits both alike.
    let arms: &[&str] = if args.trace {
        &["untraced", "traced"]
    } else if args.ablate.is_some() {
        &["default", "ablated"]
    } else {
        &["untraced"]
    };
    let mut reps: Vec<(usize, Rep, Normalised)> = Vec::new();
    let knob = args.ablate.as_deref();
    let t_start = Instant::now();
    for i in 0.. {
        let arm = i % arms.len();
        let done = t_start.elapsed().as_secs_f64() >= args.seconds;
        if done && arm == 0 && i > 0 {
            break;
        }
        set_ablation(knob, arms[arm] == "ablated");
        let dir = match wl.kind {
            Kind::Warm => warm_store.clone(),
            _ => work.join(format!("rep-{i}")),
        };
        let traced = arms[arm] == "traced";
        let rep = campaign::run(cfg, args.seed, &dir, traced, epoch, i as u32 + 1);
        let norm = normalise(&rep, sampler);
        set_ablation(knob, false);
        if wl.kind != Kind::Warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        out.attempted += rep.evaluated() as u64;
        let errs = cross_check(&rep, wl.kind);
        let label = format!("repetition {} ({})", i + 1, arms[arm]);
        for e in &errs {
            out.fail(format!("{label}: {e}"));
        }
        if arms[arm] == "ablated" {
            check_ablated(&mut out, &label, knob.unwrap_or_default(), &rep, &reps);
        } else {
            reference.check(&label, &rep.ids(), &rep.fig4, &mut out);
        }
        out.failed += rep.failed() as u64;
        reps.push((arm, rep, norm));
    }
    if !out.correct {
        out.failed = out.attempted;
    }

    let arm_reps = |a: usize| -> Vec<Measured> {
        reps.iter()
            .filter(|(x, _, _)| *x == a)
            .map(|(_, r, n)| (r, n))
            .collect()
    };
    let base = arm_reps(0);
    out.metrics = end_to_end_of(&base);
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{}: {} repetitions; seed {}; reports: {}",
        wl.name,
        reps.len(),
        args.seed,
        reference
            .expect
            .as_ref()
            .map_or("none".into(), |(ids, _)| describe(ids))
    ));
    if let Some((r, n)) = median_rep(&base) {
        out.notes.push(format!(
            "median repetition: {:.3} s measured x {:.3} host speed = {:.3} reference s",
            r.wall_s, n.speed, n.wall_s,
        ));
    }
    if let Some(t) = base.first().map(|(_, n)| stats::tail(&n.gaps_ms)) {
        out.notes.push(format!(
            "request (one class) latency tail per repetition: p{:.1}, {} of {} samples beyond",
            t.pct, t.beyond, t.samples
        ));
    }

    if args.trace {
        let traced = arm_reps(1);
        if let Some(best) = median_rep(&traced) {
            let untraced = out.metrics.get("campaign_s").copied().unwrap_or(0.0);
            let traced_s = end_to_end_of(&traced)
                .get("campaign_s")
                .copied()
                .unwrap_or(0.0);
            let mut m = layers_of(best);
            m.insert(
                "obs.trace_overhead_pct",
                100.0 * (traced_s / untraced.max(1e-9) - 1.0),
            );
            // BiasHarness::classify_voltage runs its own transients, which
            // SimStats does not count: shown side by side, not fixed here.
            out.notes.push(format!(
                "harness.classify_s {:.4} s beside sim.tran_steps {}",
                m["harness.classify_s"], m["sim.tran_steps"]
            ));
            out.metrics = m;
            let spans: Vec<spans::Span> =
                traced.iter().flat_map(|(r, _)| r.spans.clone()).collect();
            let path = PathBuf::from("perfbench/out")
                .join(format!("{}-seed{}.spans.ndjson", wl.name, args.seed));
            let written = std::fs::create_dir_all("perfbench/out")
                .and_then(|()| std::fs::write(&path, spans::to_ndjson(&spans)));
            match written {
                Ok(()) => out.notes.push(format!(
                    "{} spans of {} traced repetitions: {}",
                    spans.len(),
                    traced.len(),
                    path.display()
                )),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            for (name, secs) in spans::self_seconds_by_name(&best.0.spans) {
                out.notes
                    .push(format!("  self time {name:<20} {:>9.4} s", secs));
            }
        }
    }

    if let Some(k) = knob {
        ablation_table(&mut out, k, &base, &arm_reps(1));
    }
    out
}

/// What a knob must leave unchanged, per macro: the whole report for the
/// bitwise solver paths, the report without the factor cache's own
/// counters for `DOTM_FACTOR_REUSE`, and every verdict for
/// `DOTM_WARM_START`, which changes the Newton work but no detection.
fn ablation_identity(rep: &Rep, knob: &str) -> Vec<(String, u64)> {
    rep.macros
        .iter()
        .map(|m| {
            let digest = match knob {
                "DOTM_FACTOR_REUSE" => m.reuse_free,
                "DOTM_WARM_START" => m.verdicts,
                _ => m.id.fingerprint,
            };
            (m.id.name.clone(), digest)
        })
        .collect()
}

/// Compares an ablated repetition with the first default one.
fn check_ablated(
    out: &mut Outcome,
    label: &str,
    knob: &str,
    rep: &Rep,
    reps: &[(usize, Rep, Normalised)],
) {
    let Some((_, base, _)) = reps.iter().find(|(arm, _, _)| *arm == 0) else {
        return;
    };
    if ablation_identity(rep, knob) != ablation_identity(base, knob) || rep.fig4 != base.fig4 {
        out.fail(format!(
            "{label}: {knob}=0 changed the reports: {} vs {}",
            describe(&rep.ids()),
            describe(&base.ids())
        ));
    }
}

fn ablation_table(out: &mut Outcome, knob: &str, base: &[Measured], ablated: &[Measured]) {
    let on = end_to_end_of(base);
    let off = end_to_end_of(ablated);
    out.notes.push(format!(
        "ablation {knob}=0: {} default and {} ablated repetitions, reports {}",
        base.len(),
        ablated.len(),
        if out.correct { "unchanged" } else { "CHANGED" }
    ));
    out.notes.push(format!(
        "  {:<18} {:>12} {:>12} {:>9} {:>16}",
        "metric", "default", "ablated", "delta", "default spread"
    ));
    let per_rep: Vec<_> = base.iter().map(|&m| rep_metrics(m)).collect();
    for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
        let a = on.get(name).copied().unwrap_or(0.0);
        let b = off.get(name).copied().unwrap_or(0.0);
        let samples: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        out.notes.push(format!(
            "  {name:<18} {a:>12.4} {b:>12.4} {:>8.1}% {:>15.1}%",
            100.0 * (b / a.max(1e-12) - 1.0),
            100.0 * stats::spread(&samples)
        ));
    }
}

fn serve_workload(
    wl: &Workload,
    cfg: &CampaignCfg,
    args: &Args,
    work: &Path,
    sampler: &calib::Sampler,
) -> Outcome {
    let mut out = Outcome::new();
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("campaign")))
        .filter(|p| p.is_file());
    let Some(exe) = exe else {
        out.fail("the campaign binary is not next to perfbench; build the package".into());
        return out;
    };
    let mut reference = Reference {
        expect: (args.seed == COMMITTED_SEED && !args.smoke)
            .then(|| pinned_ids(&wl.pinned))
            .flatten(),
        source: "the pinned reports of the committed seed",
    };
    // The in-process run the served reports must equal.
    let local = campaign::run(
        cfg,
        args.seed,
        &work.join("local"),
        false,
        Instant::now(),
        0,
    );
    for e in cross_check(&local, Kind::Cold) {
        out.fail(format!("in-process run: {e}"));
    }
    reference.check("in-process run", &local.ids(), &local.fig4, &mut out);

    let mut jobs: Vec<serve::JobRun> = Vec::new();
    let t_start = Instant::now();
    for i in 0.. {
        if i > 0 && t_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let dir = work.join(format!("cycle-{i}"));
        let job = serve::cycle(cfg, args.seed, &dir, &exe);
        let _ = std::fs::remove_dir_all(&dir);
        let label = format!("served job {}", i + 1);
        for e in &job.errors {
            out.fail(format!("{label}: {e}"));
        }
        if job.request_failures > 0 {
            out.fail(format!(
                "{label}: {} requests got a wrong answer",
                job.request_failures
            ));
        }
        reference.check(&label, &job.ids, &job.fig4, &mut out);
        if job.store[1] != local.counters().computed {
            out.fail(format!(
                "{label}: computed={} but the in-process run computed {}",
                job.store[1],
                local.counters().computed
            ));
        }
        out.attempted += 1 + job.request_ms.len() as u64;
        out.failed += job.request_failures as u64 + u64::from(!job.errors.is_empty());
        jobs.push(job);
    }

    let requests: Vec<f64> = jobs.iter().flat_map(|j| j.request_ms.clone()).collect();
    let setups: Vec<f64> = jobs.iter().flat_map(|j| j.setup_s.clone()).collect();
    // Job times in reference-host seconds; the requests mostly wait on
    // the server's accept-loop poll, so they stay as measured.
    let speed: Vec<f64> = jobs
        .iter()
        .map(|j| j.interval.map_or(1.0, |(a, b)| sampler.factor(a, b)))
        .collect();
    let per_job = |f: &dyn Fn(&serve::JobRun, f64) -> f64| {
        stats::median(
            &jobs
                .iter()
                .zip(&speed)
                .map(|(j, &s)| f(j, s))
                .collect::<Vec<_>>(),
        )
    };
    let m = &mut out.metrics;
    m.insert("campaign_s", per_job(&|j, s| j.job_s * s));
    m.insert("campaign_cpu_s", per_job(&|j, s| j.cpu_s * s));
    m.insert(
        "classes_per_s",
        per_job(&|j, s| j.classes as f64 / (j.job_s * s).max(1e-9)),
    );
    m.insert("setup_s", stats::median(&setups));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("request_ms_p50", stats::median(&requests));
    let t = stats::tail(&requests);
    m.insert("request_ms_tail", t.value);
    out.notes.push(format!(
        "{}: {} served jobs, {} requests; seed {}; reports: {}",
        wl.name,
        jobs.len(),
        requests.len(),
        args.seed,
        describe(&local.ids())
    ));
    out.notes.push(format!(
        "request latency tail: p{:.1} with {} of {} samples beyond",
        t.pct, t.beyond, t.samples
    ));

    if args.trace {
        let mut l = BTreeMap::new();
        l.insert("host.speed_factor", stats::median(&speed));
        l.insert("serve.submit_ms", per_job(&|j, _| j.submit_ms));
        l.insert("serve.queue_wait_s", per_job(&|j, _| j.queue_wait_s));
        l.insert("serve.run_s", per_job(&|j, s| j.run_s * s));
        l.insert("serve.report_ms", per_job(&|j, _| j.report_ms));
        l.insert("serve.events", per_job(&|j, _| j.events as f64));
        if let Some(j) = jobs.first() {
            l.insert(
                "defects.classes",
                j.ids.iter().map(|x| x.classes).sum::<usize>() as f64,
            );
            l.insert("sim.nr_iterations", j.solver[0] as f64);
            l.insert("sim.nr_solves", j.solver[1] as f64);
            l.insert("sim.tran_steps", j.solver[2] as f64);
            l.insert(
                "sim.iters_per_solve",
                j.solver[0] as f64 / j.solver[1].max(1) as f64,
            );
            l.insert("store.loads", j.store[0] as f64);
            l.insert("store.writes", j.store[1] as f64);
        }
        out.metrics = l;
    }
    if !out.correct {
        out.failed = out.attempted;
    }
    out
}

fn main() {
    let args = parse_args();
    let all = workloads();
    let Some(wl) = all.iter().find(|w| w.name == args.workload) else {
        usage(&format!("unknown workload {}", args.workload));
    };
    if args.ablate.is_some() && wl.kind == Kind::Serve {
        usage("--ablate runs campaign workloads only");
    }
    // The run depends on its arguments alone: no inherited knob may
    // change what the program computes, and every campaign runs on one
    // thread.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DOTM_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("DOTM_THREADS", "1");

    let cfg = if args.smoke { wl.smoke } else { wl.cfg };
    let sampler = calib::Sampler::start();
    let work = PathBuf::from("perfbench/work").join(format!("{}-{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let outcome = match wl.kind {
        Kind::Serve => serve_workload(wl, &cfg, &args, &work, &sampler),
        _ => campaign_workload(wl, &cfg, &args, &work, &sampler),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir("perfbench/work");

    for line in &outcome.notes {
        println!("{line}");
    }
    let defs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in defs {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<28} {v:>14.6} {unit}");
    }
    println!("{}", result_line(&outcome, defs));
}
