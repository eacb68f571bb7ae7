//! Thin forwarding decorators around the program's public seams. Each
//! one counts every call (always) and, when tracing, times it and
//! records a span. None of them changes an argument or a result.

use crate::spans::{Span, SpanLog};
use dotm_core::{
    Batch, CachedMeasurement, ClassObserver, ClassOutcome, CommonSample, CurrentKind, MacroHarness,
    MeasurementPlan, MeasurementStore, ProcessModel, VoltageSignature, Warm,
};
use dotm_layout::Layout;
use dotm_netlist::Netlist;
use dotm_rng::rngs::StdRng;
use dotm_serve::{Job, JobRunner, RunOutcome};
use dotm_sim::{SimError, SimOptions, SimStats};
use dotm_store::JournalWriter;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Calls and busy nanoseconds per layer boundary for one repetition.
/// Times stay 0 with tracing off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// `measure_with` calls after the first store call (class phase).
    pub measure_calls: u64,
    /// Class-phase `measure_with` calls that returned an error.
    pub measure_errors: u64,
    /// Class-phase `measure_with` nanoseconds.
    pub measure_ns: u64,
    /// `classify_voltage` calls, both phases.
    pub classify_calls: u64,
    /// `classify_voltage` nanoseconds.
    pub classify_ns: u64,
    /// `perturb` calls.
    pub perturb_calls: u64,
    /// `perturb` nanoseconds.
    pub perturb_ns: u64,
    /// Store `load` calls.
    pub loads: u64,
    /// Store `load` calls that returned an entry.
    pub load_hits: u64,
    /// Store `load` nanoseconds.
    pub load_ns: u64,
    /// Store `store` calls.
    pub writes: u64,
    /// Store `store` nanoseconds.
    pub write_ns: u64,
    /// Store `contains` nanoseconds.
    pub contains_ns: u64,
    /// Journal records written.
    pub records: u64,
    /// Journal `record_class` nanoseconds.
    pub record_ns: u64,
}

struct State {
    tally: Tally,
    spans: SpanLog,
    /// The open good-space or class-phase span of the current macro.
    phase_span: Option<usize>,
    first_store: Option<Instant>,
    last_class: Option<Instant>,
    class_gaps: Vec<(Instant, Instant)>,
}

/// Shared accumulator behind every decorator of one repetition.
pub struct Probe {
    trace: bool,
    state: Mutex<State>,
}

impl Probe {
    /// A probe for repetition `run`; spans count from `epoch`.
    pub fn new(trace: bool, epoch: Instant, run: u32) -> Probe {
        Probe {
            trace,
            state: Mutex::new(State {
                tally: Tally::default(),
                spans: SpanLog::new(epoch, run),
                phase_span: None,
                first_store: None,
                last_class: None,
                class_gaps: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("probe state is never poisoned")
    }

    /// Runs `f` inside a span named `name` (tracing only) and returns its
    /// result with the nanoseconds it took (0 with tracing off).
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.trace {
            return (f(), 0);
        }
        let id = self.lock().spans.open(name);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.lock().spans.close(id);
        (out, ns)
    }

    /// Opens a span (tracing only).
    pub fn open(&self, name: &'static str) -> Option<usize> {
        self.trace.then(|| self.lock().spans.open(name))
    }

    /// Closes a span opened with [`Probe::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            self.lock().spans.close(id);
        }
    }

    /// Marks the entry into `run_macro_path_with_faults_hooked`: the
    /// good-space phase lasts until the macro's first store call.
    pub fn begin_pipeline(&self) {
        let mut s = self.lock();
        s.first_store = None;
        s.last_class = None;
        if self.trace {
            s.phase_span = Some(s.spans.open("goodspace"));
        }
    }

    /// Marks the return from the pipeline; returns the instant of the
    /// macro's first store call, if there was one.
    pub fn end_pipeline(&self) -> Option<Instant> {
        let mut s = self.lock();
        if let Some(id) = s.phase_span.take() {
            s.spans.close(id);
        }
        s.first_store
    }

    fn touch_store(&self) {
        let mut s = self.lock();
        if s.first_store.is_some() {
            return;
        }
        let now = Instant::now();
        s.first_store = Some(now);
        s.last_class = Some(now);
        if let Some(id) = s.phase_span.take() {
            s.spans.close(id);
            s.phase_span = Some(s.spans.open("classes"));
        }
    }

    fn in_class_phase(&self) -> bool {
        self.lock().first_store.is_some()
    }

    /// The counts and times so far.
    pub fn tally(&self) -> Tally {
        self.lock().tally.clone()
    }

    /// Intervals between consecutive in-order class completions (the
    /// first class of a macro counts from the macro's first store call).
    pub fn class_gaps(&self) -> Vec<(Instant, Instant)> {
        self.lock().class_gaps.clone()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.state
            .into_inner()
            .expect("probe state is never poisoned")
            .spans
            .into_spans()
    }
}

/// [`MacroHarness`] decorator: forwards every method, the defaulted
/// ones included, and times `measure_with`, `classify_voltage` and
/// `perturb`.
pub struct TimedHarness<'a> {
    /// The decorated harness.
    pub inner: &'a dyn MacroHarness,
    /// Where calls are counted.
    pub probe: &'a Probe,
}

impl MacroHarness for TimedHarness<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }

    fn testbench(&self) -> Netlist {
        self.inner.testbench()
    }

    fn plan(&self) -> MeasurementPlan {
        self.inner.plan()
    }

    fn sim_options(&self) -> SimOptions {
        self.inner.sim_options()
    }

    fn lockstep_dc(&self) -> bool {
        self.inner.lockstep_dc()
    }

    fn measure(&self, nl: &Netlist) -> Result<Vec<f64>, SimError> {
        self.inner.measure(nl)
    }

    fn measure_with(
        &self,
        nl: &Netlist,
        opts: &SimOptions,
        stats: &mut SimStats,
        warm: Warm<'_>,
        batch: Batch<'_>,
    ) -> Result<Vec<f64>, SimError> {
        let class_phase = self.probe.in_class_phase();
        let name = if class_phase {
            "sim.measure"
        } else {
            "goodspace.measure"
        };
        let (out, ns) = self.probe.call(name, || {
            self.inner.measure_with(nl, opts, stats, warm, batch)
        });
        if class_phase {
            let mut s = self.probe.lock();
            s.tally.measure_calls += 1;
            s.tally.measure_errors += u64::from(out.is_err());
            s.tally.measure_ns += ns;
        }
        out
    }

    fn perturb(
        &self,
        nl: &mut Netlist,
        model: &ProcessModel,
        common: &CommonSample,
        rng: &mut StdRng,
    ) {
        let ((), ns) = self.probe.call("harness.perturb", || {
            self.inner.perturb(nl, model, common, rng)
        });
        let mut s = self.probe.lock();
        s.tally.perturb_calls += 1;
        s.tally.perturb_ns += ns;
    }

    fn classify_voltage(&self, nominal: &[f64], faulty: &[f64]) -> VoltageSignature {
        let (out, ns) = self.probe.call("harness.classify", || {
            self.inner.classify_voltage(nominal, faulty)
        });
        let mut s = self.probe.lock();
        s.tally.classify_calls += 1;
        s.tally.classify_ns += ns;
        out
    }

    fn shared_nets(&self) -> Vec<&'static str> {
        self.inner.shared_nets()
    }

    fn current_floor(&self, kind: CurrentKind) -> f64 {
        self.inner.current_floor(kind)
    }
}

/// [`MeasurementStore`] decorator: forwards `load`, `store` and
/// `contains` (the lockstep pre-pass depends on the backend's cheap
/// `contains`), timing each.
pub struct TimedStore<'a> {
    /// The decorated store.
    pub inner: &'a dyn MeasurementStore,
    /// Where calls are counted.
    pub probe: &'a Probe,
}

impl MeasurementStore for TimedStore<'_> {
    fn load(&self, key: u128) -> Option<CachedMeasurement> {
        self.probe.touch_store();
        let (out, ns) = self.probe.call("store.load", || self.inner.load(key));
        let mut s = self.probe.lock();
        s.tally.loads += 1;
        s.tally.load_hits += u64::from(out.is_some());
        s.tally.load_ns += ns;
        out
    }

    fn store(&self, key: u128, value: &CachedMeasurement) {
        self.probe.touch_store();
        let ((), ns) = self
            .probe
            .call("store.write", || self.inner.store(key, value));
        let mut s = self.probe.lock();
        s.tally.writes += 1;
        s.tally.write_ns += ns;
    }

    fn contains(&self, key: u128) -> bool {
        self.probe.touch_store();
        let (out, ns) = self
            .probe
            .call("store.contains", || self.inner.contains(key));
        let mut s = self.probe.lock();
        s.tally.contains_ns += ns;
        out
    }
}

/// [`ClassObserver`] around the journal writer: records every class the
/// way the campaign CLI does and times the write.
pub struct JournalObserver<'a> {
    writer: Mutex<Option<JournalWriter>>,
    error: Mutex<Option<std::io::Error>>,
    probe: &'a Probe,
}

impl<'a> JournalObserver<'a> {
    /// Journals into `writer`.
    pub fn new(writer: JournalWriter, probe: &'a Probe) -> Self {
        JournalObserver {
            writer: Mutex::new(Some(writer)),
            error: Mutex::new(None),
            probe,
        }
    }

    /// Seals the journal with the report fingerprint.
    pub fn finish(self, fingerprint: u64) -> std::io::Result<()> {
        if let Some(e) = self.error.into_inner().expect("never poisoned") {
            return Err(e);
        }
        match self.writer.into_inner().expect("never poisoned") {
            Some(w) => w.finish(fingerprint),
            None => Ok(()),
        }
    }
}

impl ClassObserver for JournalObserver<'_> {
    fn on_class(&self, index: usize, outcomes: &[ClassOutcome]) -> bool {
        let (result, ns) = self.probe.call("journal.record", || {
            let mut w = self.writer.lock().expect("never poisoned");
            w.as_mut()
                .expect("journal open while classes run")
                .record_class(index, outcomes)
        });
        let now = Instant::now();
        let mut s = self.probe.lock();
        s.tally.records += 1;
        s.tally.record_ns += ns;
        if let Some(prev) = s.last_class.replace(now) {
            s.class_gaps.push((prev, now));
        }
        drop(s);
        match result {
            Ok(()) => true,
            Err(e) => {
                *self.error.lock().expect("never poisoned") = Some(e);
                false
            }
        }
    }
}

/// One job attempt as the runner decorator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Attempt {
    /// When the server handed the job to the runner.
    pub start: Instant,
    /// When the runner returned.
    pub end: Instant,
    /// Event payloads the attempt published.
    pub events: u64,
}

/// [`JobRunner`] decorator: forwards to the production runner and
/// records when each attempt ran and how many events it published.
pub struct TimedRunner<R> {
    inner: R,
    attempts: std::sync::Arc<Mutex<Vec<Attempt>>>,
}

impl<R> TimedRunner<R> {
    /// Wraps `inner`; attempts are appended to `attempts`.
    pub fn new(inner: R, attempts: std::sync::Arc<Mutex<Vec<Attempt>>>) -> Self {
        TimedRunner { inner, attempts }
    }
}

impl<R: JobRunner> JobRunner for TimedRunner<R> {
    fn run(&self, job: &Job, events: &(dyn Fn(String) + Sync), cancel: &AtomicBool) -> RunOutcome {
        let start = Instant::now();
        let count = std::sync::atomic::AtomicU64::new(0);
        let counting = |e: String| {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            events(e)
        };
        let out = self.inner.run(job, &counting, cancel);
        self.attempts.lock().expect("never poisoned").push(Attempt {
            start,
            end: Instant::now(),
            events: count.into_inner(),
        });
        out
    }
}
