//! One campaign repetition, run in this process the way the `campaign`
//! CLI runs it (single mode, no resume): per macro, layout, sprinkle and
//! collapse, open the store and journal, then the hooked pipeline. The
//! harness, store and journal observer are the probe's decorators.

use crate::probe::{JournalObserver, Probe, Tally, TimedHarness, TimedStore};
use crate::spans::Span;
use dotm_core::harnesses::{
    BiasHarness, ClockgenHarness, ComparatorHarness, DecoderHarness, LadderHarness,
};
use dotm_core::{
    run_macro_path_with_faults_hooked, GlobalReport, MacroHarness, MacroReport, PipelineConfig,
    PipelineHooks,
};
use dotm_defects::{sprinkle_collapsed, Sprinkler};
use dotm_faults::Severity;
use dotm_sim::SimStats;
use dotm_store::{pipeline_context, DiskStore, JournalHeader, JournalWriter, StoreCounters};
use std::path::Path;
use std::time::Instant;

/// What a campaign workload runs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCfg {
    /// Macro names, in campaign order.
    pub macros: &'static [&'static str],
    /// Defects sprinkled per macro.
    pub defects: usize,
    /// Most frequent classes evaluated per macro (`None`: all).
    pub max_classes: Option<usize>,
    /// Good-space common and mismatch sample counts.
    pub gs: (usize, usize),
    /// Sprinkle seed, when it does not follow the run's seed.
    pub defect_seed: Option<u64>,
}

impl CampaignCfg {
    /// The pipeline configuration the campaign CLI builds for the same
    /// knobs: `DOTM_DEFECTS`, `DOTM_SEED`, `DOTM_GS_COMMON`, `DOTM_GS_MM`,
    /// `DOTM_MAX_CLASSES`, with the measurement cache off. Solver knobs
    /// (`DOTM_FACTOR_REUSE`, ...) come from the environment, as in the
    /// CLI. `seed` seeds the good space, and the sprinkle too unless
    /// `defect_seed` pins it.
    pub fn pipeline(&self, seed: u64) -> PipelineConfig {
        let mut cfg = dotm_bench::standard_config();
        cfg.defects = self.defects;
        cfg.seed = self.defect_seed.unwrap_or(seed);
        cfg.goodspace.common_samples = self.gs.0;
        cfg.goodspace.mismatch_samples = self.gs.1;
        cfg.goodspace.seed = seed ^ 0xD07;
        cfg.max_classes = self.max_classes;
        cfg.measure_cache = false;
        cfg
    }
}

/// The harness for a campaign macro name.
pub fn harness(name: &str) -> Box<dyn MacroHarness> {
    match name {
        "comparator" => Box::new(ComparatorHarness::production()),
        "ladder" => Box::new(LadderHarness),
        "bias_gen" => Box::new(BiasHarness::default()),
        "clock_gen" => Box::new(ClockgenHarness::default()),
        "decoder_slice" => Box::new(DecoderHarness::default()),
        other => panic!("unknown macro {other}"),
    }
}

/// One macro's identity in a report: what the correctness gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroId {
    /// Macro name.
    pub name: String,
    /// Report fingerprint.
    pub fingerprint: u64,
    /// Collapsed class count.
    pub classes: usize,
}

/// One macro's run.
#[derive(Debug, Clone)]
pub struct MacroRun {
    /// Identity.
    pub id: MacroId,
    /// Faults before collapsing.
    pub faults: usize,
    /// Classes evaluated (after `max_classes`).
    pub evaluated: usize,
    /// Evaluated classes with a sim-failed, inject-failed or excluded
    /// outcome.
    pub failed: usize,
    /// Classes that needed solver escalation.
    pub escalated: usize,
    /// The store's own counters.
    pub counters: StoreCounters,
    /// Solver totals of the report.
    pub solver: SimStats,
    /// Fingerprint with the LU factor-reuse counters zeroed: what
    /// `DOTM_FACTOR_REUSE` must leave unchanged.
    pub reuse_free: u64,
    /// Digest of every class verdict (signatures, detections, failure
    /// flags) without solver telemetry: what `DOTM_WARM_START` must leave
    /// unchanged.
    pub verdicts: u64,
}

/// Layer timings of a traced repetition (seconds).
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `sprinkle_collapsed`.
    pub sprinkle_s: f64,
    /// Pipeline entry to first store call, summed over macros.
    pub goodspace_s: f64,
    /// Self time of the class phase (pipeline minus measure, classify,
    /// store and journal).
    pub pipeline_self_s: f64,
    /// `dotm_obs` LU phase.
    pub lu_s: f64,
    /// `dotm_obs` LU calls.
    pub lu_calls: u64,
    /// `dotm_obs` assembly phase.
    pub assembly_s: f64,
    /// `dotm_obs` lockstep pre-pass phase.
    pub lockstep_s: f64,
}

/// One repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// When the repetition started and ended.
    pub interval: (Instant, Instant),
    /// Wall seconds, first layout call to last journal seal.
    pub wall_s: f64,
    /// CPU seconds of this thread over the same interval.
    pub cpu_s: f64,
    /// Per macro, its start until its first store call.
    pub setup_intervals: Vec<(Instant, Instant)>,
    /// Per macro, its first store call until the pipeline returned.
    pub class_intervals: Vec<(Instant, Instant)>,
    /// Per macro.
    pub macros: Vec<MacroRun>,
    /// The six Fig 4 coverage lines, as the CLI prints them.
    pub fig4: Vec<String>,
    /// Decorator counts.
    pub tally: Tally,
    /// Intervals between in-order class completions.
    pub class_gaps: Vec<(Instant, Instant)>,
    /// Store entries and bytes on disk after the run.
    pub entries: u64,
    /// Entry bytes this repetition added to the store.
    pub bytes_written: u64,
    /// Traced repetitions only.
    pub layers: Option<LayerTimes>,
    /// Spans (traced only).
    pub spans: Vec<Span>,
    /// Problems the repetition found in itself.
    pub errors: Vec<String>,
}

impl Rep {
    /// The identities the correctness gate compares.
    pub fn ids(&self) -> Vec<MacroId> {
        self.macros.iter().map(|m| m.id.clone()).collect()
    }

    /// Classes evaluated.
    pub fn evaluated(&self) -> usize {
        self.macros.iter().map(|m| m.evaluated).sum()
    }

    /// Failed classes.
    pub fn failed(&self) -> usize {
        self.macros.iter().map(|m| m.failed).sum()
    }

    /// Store counters summed over macros.
    pub fn counters(&self) -> StoreCounters {
        let mut t = StoreCounters::default();
        for m in &self.macros {
            t.loads += m.counters.loads;
            t.mem_hits += m.counters.mem_hits;
            t.disk_hits += m.counters.disk_hits;
            t.misses += m.counters.misses;
            t.computed += m.counters.computed;
            t.write_errors += m.counters.write_errors;
        }
        t
    }

    /// Solver totals summed over macros.
    pub fn solver(&self) -> SimStats {
        let mut t = SimStats::default();
        for m in &self.macros {
            t.merge(&m.solver);
        }
        t
    }
}

/// CPU seconds this thread has run (user and system).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// The Fig 4 coverage lines, formatted exactly as the campaign CLI
/// prints them.
pub fn fig4_lines(reports: Vec<MacroReport>) -> Vec<String> {
    let global = GlobalReport::new(reports);
    let mut out = Vec::new();
    for severity in [Severity::Catastrophic, Severity::NonCatastrophic] {
        let d = global.detectability(severity);
        out.push(format!("  voltage detectable:   {:>5.1}%", d.voltage_pct));
        out.push(format!("  current detectable:   {:>5.1}%", d.current_pct));
        out.push(format!("  total fault coverage: {:>5.1}%", d.coverage_pct));
    }
    out
}

/// The report fingerprint with the factor-reuse occupancy counters
/// zeroed, as the repository's own invisibility test scrubs them.
fn reuse_free_fingerprint(report: &MacroReport) -> u64 {
    let mut r = report.clone();
    for o in &mut r.outcomes {
        o.solver.factor_reuse_hits = 0;
        o.solver.factor_refactor_fallbacks = 0;
    }
    r.goodspace_solver.factor_reuse_hits = 0;
    r.goodspace_solver.factor_refactor_fallbacks = 0;
    r.fingerprint()
}

fn verdict_digest(report: &MacroReport) -> u64 {
    let text: String = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}|{:?}|{:?}|{:?}|{:?}|{}{}{}\n",
                o.key,
                o.severity,
                o.voltage,
                o.currents,
                o.detection,
                o.sim_failed,
                o.inject_failed,
                o.excluded
            )
        })
        .collect();
    dotm_store::fnv64(text.as_bytes())
}

fn is_failed(report: &MacroReport, class_key: &str) -> bool {
    report
        .outcomes
        .iter()
        .filter(|o| o.key == class_key)
        .any(|o| o.sim_failed || o.inject_failed || o.excluded)
}

/// Runs one campaign repetition against the store under `store_dir`.
/// With `trace`, the `dotm_obs` recorder is on for the repetition and
/// every decorator call is timed.
pub fn run(
    cfg: &CampaignCfg,
    seed: u64,
    store_dir: &Path,
    trace: bool,
    epoch: Instant,
    run_id: u32,
) -> Rep {
    let pcfg = cfg.pipeline(seed);
    let probe = Probe::new(trace, epoch, run_id);
    dotm_obs::set_enabled(trace);
    dotm_obs::reset();
    let mut errors = Vec::new();
    let mut macros = Vec::new();
    let mut reports = Vec::new();
    let mut setup_intervals = Vec::new();
    let mut class_intervals = Vec::new();
    let mut sprinkle_s = 0.0;
    let mut goodspace_s = 0.0;

    let bytes_before = dotm_store::occupancy(store_dir).map_or(0, |o| o.bytes);
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let root = probe.open("campaign");
    for name in cfg.macros {
        let raw = harness(name);
        let timed = TimedHarness {
            inner: raw.as_ref(),
            probe: &probe,
        };
        let macro_span = probe.open("macro");
        let t_macro = Instant::now();
        let layout = timed.layout();
        let (collapsed, ns) = probe.call("defects.sprinkle", || {
            let sprinkler = Sprinkler::new(&layout, pcfg.stats.clone());
            sprinkle_collapsed(&sprinkler, pcfg.defects, pcfg.seed)
        });
        sprinkle_s += ns as f64 * 1e-9;
        let area = layout
            .bbox()
            .map(|b| b.expanded(pcfg.stats.size.xmax / 2))
            .map(|b| b.area() as f64)
            .unwrap_or(0.0);
        let context = pipeline_context(&timed, &pcfg);
        if context != pipeline_context(raw.as_ref(), &pcfg) {
            errors.push(format!(
                "{name}: the harness decorator moved pipeline_context"
            ));
        }
        let evaluated = pcfg
            .max_classes
            .map_or(collapsed.class_count(), |n| collapsed.class_count().min(n));
        let header = JournalHeader {
            context,
            macro_name: name.to_string(),
            classes: evaluated,
        };
        let opened = DiskStore::open(store_dir, context).and_then(|store| {
            let path = store_dir.join("journal").join(format!("{name}.jnl"));
            Ok((store, JournalWriter::create(&path, &header)?))
        });
        let (store, writer) = match opened {
            Ok(x) => x,
            Err(e) => {
                errors.push(format!("{name}: cannot open the store or journal: {e}"));
                probe.close(macro_span);
                continue;
            }
        };
        let timed_store = TimedStore {
            inner: &store,
            probe: &probe,
        };
        let observer = JournalObserver::new(writer, &probe);
        let hooks = PipelineHooks {
            store: Some(&timed_store),
            observer: Some(&observer),
            completed: Vec::new(),
            shard: None,
        };
        let pipe_span = probe.open("pipeline");
        let t_pipe = Instant::now();
        probe.begin_pipeline();
        let result = run_macro_path_with_faults_hooked(&timed, &pcfg, &collapsed, area, &hooks);
        let first_store = probe.end_pipeline();
        probe.close(pipe_span);
        let t_end = Instant::now();
        let first_store = first_store.unwrap_or(t_end);
        setup_intervals.push((t_macro, first_store));
        class_intervals.push((first_store, t_end));
        goodspace_s += first_store.duration_since(t_pipe).as_secs_f64();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("{name}: pipeline failed: {e}"));
                probe.close(macro_span);
                continue;
            }
        };
        if let Err(e) = observer.finish(report.fingerprint()) {
            errors.push(format!("{name}: journal seal failed: {e}"));
        }
        let failed = collapsed
            .classes
            .iter()
            .take(evaluated)
            .filter(|c| is_failed(&report, &c.key))
            .count();
        macros.push(MacroRun {
            id: MacroId {
                name: name.to_string(),
                fingerprint: report.fingerprint(),
                classes: report.class_count,
            },
            faults: report.total_faults,
            evaluated,
            failed,
            escalated: report.escalated_classes(),
            counters: store.counters(),
            solver: report.solver_totals(),
            reuse_free: 0,
            verdicts: 0,
        });
        reports.push(report);
        probe.close(macro_span);
    }
    probe.close(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;
    for (m, r) in macros.iter_mut().zip(&reports) {
        m.reuse_free = reuse_free_fingerprint(r);
        m.verdicts = verdict_digest(r);
    }

    let layers = trace.then(|| {
        let phase = |name: &str| {
            dotm_obs::phase_totals()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map_or((0, 0.0), |(_, calls, ns)| (calls, ns as f64 * 1e-9))
        };
        LayerTimes {
            sprinkle_s,
            goodspace_s,
            pipeline_self_s: 0.0,
            lu_s: phase("lu").1,
            lu_calls: phase("lu").0,
            assembly_s: phase("assembly").1,
            lockstep_s: phase("variant_lockstep").1,
        }
    });
    dotm_obs::set_enabled(false);
    let occ = dotm_store::occupancy(store_dir).unwrap_or_default();
    let tally = probe.tally();
    let class_gaps = probe.class_gaps();
    let spans = probe.into_spans();
    let layers = layers.map(|mut l| {
        let own = crate::spans::self_seconds_by_name(&spans);
        l.pipeline_self_s = own.get("classes").copied().unwrap_or(0.0);
        l
    });
    Rep {
        interval: (t0, t0 + std::time::Duration::from_secs_f64(wall_s)),
        wall_s,
        cpu_s,
        setup_intervals,
        class_intervals,
        macros,
        fig4: fig4_lines(reports),
        tally,
        class_gaps,
        entries: occ.entries,
        bytes_written: occ.bytes.saturating_sub(bytes_before),
        layers,
        spans,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_core::{CurrentKind, ProcessModel};
    use dotm_rng::rngs::StdRng;
    use dotm_rng::SeedableRng;
    use std::path::PathBuf;

    const ALL: [&str; 5] = [
        "comparator",
        "ladder",
        "bias_gen",
        "clock_gen",
        "decoder_slice",
    ];

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn harness_decorator_forwards_every_method() {
        let probe = Probe::new(false, Instant::now(), 0);
        let cfg = CampaignCfg {
            macros: &[],
            defects: 100,
            max_classes: Some(1),
            gs: (1, 1),
            defect_seed: None,
        }
        .pipeline(3);
        let model = ProcessModel::default();
        for name in ALL {
            let raw = harness(name);
            let timed = TimedHarness {
                inner: raw.as_ref(),
                probe: &probe,
            };
            assert_eq!(timed.name(), raw.name());
            assert_eq!(timed.instance_count(), raw.instance_count());
            assert_eq!(timed.sim_options(), raw.sim_options());
            assert_eq!(timed.lockstep_dc(), raw.lockstep_dc());
            assert_eq!(timed.plan().labels, raw.plan().labels);
            assert_eq!(timed.shared_nets(), raw.shared_nets());
            let population = |h: &dyn MacroHarness| {
                let layout = h.layout();
                let c = sprinkle_collapsed(&Sprinkler::new(&layout, cfg.stats.clone()), 200, 1);
                let keys: Vec<String> = c.classes.into_iter().map(|k| k.key).collect();
                (c.total_faults, keys)
            };
            assert_eq!(population(&timed), population(raw.as_ref()));
            assert_eq!(
                timed.testbench().content_digest(),
                raw.testbench().content_digest()
            );
            for kind in CurrentKind::ALL {
                assert_eq!(timed.current_floor(kind), raw.current_floor(kind));
            }
            let perturbed = |h: &dyn MacroHarness| {
                let mut rng = StdRng::seed_from_u64(11);
                let common = model.sample_common(&mut rng);
                let mut nl = h.testbench();
                h.perturb(&mut nl, &model, &common, &mut rng);
                nl.content_digest()
            };
            assert_eq!(perturbed(&timed), perturbed(raw.as_ref()));
            assert_eq!(
                pipeline_context(&timed, &cfg),
                pipeline_context(raw.as_ref(), &cfg)
            );
        }
        assert_eq!(probe.tally().perturb_calls, 5);
    }

    #[test]
    fn decorated_runs_equal_undecorated_ones() {
        let cfg = CampaignCfg {
            macros: &["ladder", "bias_gen"],
            defects: 300,
            max_classes: Some(3),
            gs: (1, 1),
            defect_seed: None,
        };
        let seed = 5;
        let pcfg = cfg.pipeline(seed);
        let plain_dir = scratch("plain");
        let plain: Vec<MacroId> = cfg
            .macros
            .iter()
            .map(|name| {
                let h = harness(name);
                let layout = h.layout();
                let collapsed =
                    sprinkle_collapsed(&Sprinkler::new(&layout, pcfg.stats.clone()), 300, seed);
                let area = layout
                    .bbox()
                    .map(|b| b.expanded(pcfg.stats.size.xmax / 2))
                    .map(|b| b.area() as f64)
                    .unwrap_or(0.0);
                let store = DiskStore::open(&plain_dir, pipeline_context(h.as_ref(), &pcfg))
                    .expect("store opens");
                let hooks = PipelineHooks {
                    store: Some(&store),
                    ..PipelineHooks::default()
                };
                let r =
                    run_macro_path_with_faults_hooked(h.as_ref(), &pcfg, &collapsed, area, &hooks)
                        .expect("pipeline runs");
                MacroId {
                    name: name.to_string(),
                    fingerprint: r.fingerprint(),
                    classes: r.class_count,
                }
            })
            .collect();
        let _ = std::fs::remove_dir_all(&plain_dir);
        for trace in [false, true] {
            let dir = scratch(&format!("decorated-{trace}"));
            let rep = run(&cfg, seed, &dir, trace, Instant::now(), 1);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(rep.errors.is_empty(), "{:?}", rep.errors);
            assert_eq!(rep.ids(), plain, "trace={trace}");
            assert_eq!(rep.tally.writes, rep.counters().computed);
            assert_eq!(rep.tally.loads, rep.counters().loads);
            assert_eq!(rep.tally.measure_calls, rep.counters().computed);
            assert_eq!(rep.tally.records, 6);
            assert_eq!(rep.entries, rep.tally.writes);
            assert_eq!(rep.layers.is_some(), trace);
            assert_eq!(!rep.spans.is_empty(), trace);
        }
    }
}
