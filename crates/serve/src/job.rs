//! Campaign jobs: the spec a client submits, the content-derived job
//! id, and the crash-safe on-disk record (`jobs/<id>.job`).
//!
//! ## Identity and dedup
//!
//! A job's id is the FNV-128 of its *result-affecting* fields (macro
//! selection, defect count, seeds, Monte-Carlo sizes, class truncation)
//! in a canonical sorted-key encoding. Execution details — worker
//! count, thread count, crash-injection knobs, the `fresh` flag — do
//! not change a single report byte (the byte-identity gates enforce
//! exactly that), so they stay out of the id: resubmitting the same
//! configuration with a different worker count still finds the finished
//! job and answers from it.
//!
//! ## Crash safety
//!
//! A job record is one line, written to a temp file and renamed into
//! place like a store entry: `{"dotm_job":1,"id":…,"data":"<hex>",
//! "crc":"<fnv64>"}` where `data` hex-wraps the flat JSON job body. A
//! torn or corrupt record reads as absent (the client resubmits — ids
//! are deterministic, nothing is lost). A record in `running` state at
//! server startup is a crashed run: it re-enters the queue, and the
//! campaign's own journal resume makes the re-run cheap.

use crate::http::json_escape;
use dotm_core::harnesses::NAMES;
use dotm_store::{fnv64, from_hex, to_hex, Fnv128};
use std::fs;
use std::path::{Path, PathBuf};

/// Extracts the raw value of `"key":` from a flat one-line JSON object.
pub(crate) fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// What a client asks the service to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Macro names to run, a non-empty subset of
    /// [`dotm_core::harnesses::NAMES`], in campaign order.
    pub macros: Vec<String>,
    /// Defects sprinkled per macro.
    pub defects: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Good-space common-sample count.
    pub gs_common: usize,
    /// Good-space mismatch-sample count.
    pub gs_mm: usize,
    /// Truncate to the most frequent classes (`0` = all).
    pub max_classes: usize,
    /// Executor threads (`0` = auto).
    pub threads: usize,
    /// Shard worker processes (`0` = one ordinary campaign process).
    pub workers: usize,
    /// Force a re-run even when the identical job already finished
    /// (the store still answers warm — `computed=0`).
    pub fresh: bool,
    /// Crash injection: the first run attempt aborts after this many
    /// classes (`0` = off). Used by the kill-mid-job gates.
    pub abort_once: u64,
}

impl JobSpec {
    /// The spec a submission with an empty body gets: the server
    /// process's own `DOTM_*` environment, all macros, no workers.
    pub fn from_env() -> JobSpec {
        use dotm_core::env;
        JobSpec {
            macros: NAMES.iter().map(|m| m.to_string()).collect(),
            defects: env::defects(),
            seed: env::seed(),
            gs_common: env::gs_common(),
            gs_mm: env::gs_mm(),
            max_classes: env::max_classes().unwrap_or(0),
            threads: env::threads().unwrap_or(0),
            workers: env::serve_workers(),
            fresh: false,
            abort_once: 0,
        }
    }

    /// Parses a submission body: a flat JSON object overriding any
    /// subset of the environment defaults. `macros` is a comma-separated
    /// string. Unknown macros, a malformed body or an empty selection
    /// are an error (the message is the HTTP 400 payload).
    pub fn parse(body: &[u8]) -> Result<JobSpec, String> {
        let mut spec = JobSpec::from_env();
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let text = text.trim();
        if text.is_empty() {
            return Ok(spec);
        }
        if !text.starts_with('{') || !text.ends_with('}') {
            return Err("body must be a JSON object".into());
        }
        let num = |key: &str, slot: &mut usize| -> Result<(), String> {
            if let Some(v) = json_field(text, key) {
                *slot = v
                    .parse()
                    .map_err(|_| format!("{key}: expected an unsigned integer, got {v:?}"))?;
            }
            Ok(())
        };
        num("defects", &mut spec.defects)?;
        num("gs_common", &mut spec.gs_common)?;
        num("gs_mm", &mut spec.gs_mm)?;
        num("max_classes", &mut spec.max_classes)?;
        num("threads", &mut spec.threads)?;
        num("workers", &mut spec.workers)?;
        if let Some(v) = json_field(text, "seed") {
            spec.seed = v
                .parse()
                .map_err(|_| format!("seed: expected an unsigned integer, got {v:?}"))?;
        }
        if let Some(v) = json_field(text, "abort_once") {
            spec.abort_once = v
                .parse()
                .map_err(|_| format!("abort_once: expected an unsigned integer, got {v:?}"))?;
        }
        let flag = |key: &str, slot: &mut bool| -> Result<(), String> {
            if let Some(v) = json_field(text, key) {
                *slot = match v {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("{key}: expected true/false, got {other:?}")),
                };
            }
            Ok(())
        };
        flag("fresh", &mut spec.fresh)?;
        if let Some(list) = json_field(text, "macros") {
            let mut macros = Vec::new();
            for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !NAMES.contains(&name) {
                    return Err(format!(
                        "unknown macro {name:?} (know: {})",
                        NAMES.join(", ")
                    ));
                }
                if !macros.iter().any(|m| m == name) {
                    macros.push(name.to_string());
                }
            }
            if macros.is_empty() {
                return Err("macros: empty selection".into());
            }
            // Canonical campaign order, independent of request order.
            macros.sort_by_key(|m| NAMES.iter().position(|a| a == m));
            spec.macros = macros;
        }
        Ok(spec)
    }

    /// Canonical sorted-key encoding of the result-affecting fields —
    /// the dedup identity.
    pub fn canonical(&self) -> String {
        format!(
            "{{\"defects\":{},\"gs_common\":{},\"gs_mm\":{},\"macros\":\"{}\",\"max_classes\":{},\"seed\":{}}}",
            self.defects,
            self.gs_common,
            self.gs_mm,
            self.macros.join(","),
            self.max_classes,
            self.seed
        )
    }

    /// The job id: FNV-128 of [`canonical`](JobSpec::canonical), as 32
    /// hex digits.
    pub fn id(&self) -> String {
        format!("{:032x}", Fnv128::new().str(&self.canonical()).finish())
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the executor.
    Queued,
    /// The executor is running it (a record still in this state at
    /// startup is a crashed run and re-enters the queue).
    Running,
    /// Finished; the report bytes are on disk next to the record.
    Merged,
    /// Finished unsuccessfully; `exit` holds the classified code.
    Failed,
}

impl JobState {
    /// Stable lower-case name used on the wire and on disk.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Merged => "merged",
            JobState::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Option<JobState> {
        match name {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "merged" => Some(JobState::Merged),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// One job: spec plus queue bookkeeping, mirrored to `jobs/<id>.job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Content-derived id (see [`JobSpec::id`]).
    pub id: String,
    /// What to run.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Exit code of the last finished attempt (`0` until one fails).
    pub exit: i32,
    /// Run attempts started so far (crash-injection fires only on the
    /// first, so a restarted server never re-injects).
    pub attempts: u64,
    /// Submission order, for FIFO scheduling across restarts.
    pub seq: u64,
}

impl Job {
    /// A freshly submitted job.
    pub fn new(spec: JobSpec, seq: u64) -> Job {
        Job {
            id: spec.id(),
            spec,
            state: JobState::Queued,
            exit: 0,
            attempts: 0,
            seq,
        }
    }

    /// `jobs/<id>.job` under the jobs directory.
    pub fn path(jobs_dir: &Path, id: &str) -> PathBuf {
        jobs_dir.join(format!("{id}.job"))
    }

    /// `jobs/<id>.report` — the finished job's report bytes.
    pub fn report_path(jobs_dir: &Path, id: &str) -> PathBuf {
        jobs_dir.join(format!("{id}.report"))
    }

    fn body(&self) -> String {
        format!(
            "{{\"abort_once\":{},\"attempts\":{},\"defects\":{},\"exit\":{},\"fresh\":{},\
             \"gs_common\":{},\"gs_mm\":{},\"macros\":\"{}\",\"max_classes\":{},\
             \"seed\":{},\"seq\":{},\"state\":\"{}\",\"threads\":{},\"workers\":{}}}",
            self.spec.abort_once,
            self.attempts,
            self.spec.defects,
            self.exit,
            self.spec.fresh,
            self.spec.gs_common,
            self.spec.gs_mm,
            self.spec.macros.join(","),
            self.spec.max_classes,
            self.spec.seed,
            self.seq,
            self.state.name(),
            self.spec.threads,
            self.spec.workers,
        )
    }

    /// Persists the record: temp file + atomic rename, FNV-checksummed
    /// like a store entry.
    ///
    /// # Errors
    /// Any filesystem error — job records are load-bearing for the
    /// service's crash contract, so failures are not absorbed.
    pub fn save(&self, jobs_dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(jobs_dir)?;
        let body = self.body();
        let line = format!(
            "{{\"dotm_job\":1,\"id\":\"{}\",\"data\":\"{}\",\"crc\":\"{:016x}\"}}\n",
            self.id,
            to_hex(body.as_bytes()),
            fnv64(body.as_bytes()),
        );
        let tmp = jobs_dir.join(format!("{}.job.tmp-{}", self.id, std::process::id()));
        fs::write(&tmp, line)?;
        fs::rename(&tmp, Job::path(jobs_dir, &self.id))
    }

    /// Loads one record. `None` for a missing, torn or corrupt file —
    /// indistinguishable from "never submitted", which is safe because
    /// ids are deterministic and resubmission recreates the record.
    pub fn load(jobs_dir: &Path, id: &str) -> Option<Job> {
        let text = fs::read_to_string(Job::path(jobs_dir, id)).ok()?;
        let line = text.lines().next()?;
        if json_field(line, "dotm_job")? != "1" || json_field(line, "id")? != id {
            return None;
        }
        let data = from_hex(json_field(line, "data")?)?;
        let crc = u64::from_str_radix(json_field(line, "crc")?, 16).ok()?;
        if fnv64(&data) != crc {
            return None;
        }
        let body = String::from_utf8(data).ok()?;
        let macros: Vec<String> = json_field(&body, "macros")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        let parse_bool = |v: &str| match v {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        };
        let spec = JobSpec {
            macros,
            defects: json_field(&body, "defects")?.parse().ok()?,
            seed: json_field(&body, "seed")?.parse().ok()?,
            gs_common: json_field(&body, "gs_common")?.parse().ok()?,
            gs_mm: json_field(&body, "gs_mm")?.parse().ok()?,
            max_classes: json_field(&body, "max_classes")?.parse().ok()?,
            threads: json_field(&body, "threads")?.parse().ok()?,
            workers: json_field(&body, "workers")?.parse().ok()?,
            fresh: parse_bool(json_field(&body, "fresh")?)?,
            abort_once: json_field(&body, "abort_once")?.parse().ok()?,
        };
        let job = Job {
            id: id.to_string(),
            state: JobState::parse(json_field(&body, "state")?)?,
            exit: json_field(&body, "exit")?.parse().ok()?,
            attempts: json_field(&body, "attempts")?.parse().ok()?,
            seq: json_field(&body, "seq")?.parse().ok()?,
            spec,
        };
        // The record's id must be the spec's id: a mismatch means the
        // file was tampered with or the id scheme changed — ignore it.
        (job.spec.id() == id).then_some(job)
    }

    /// Loads every valid record under the jobs directory.
    pub fn load_all(jobs_dir: &Path) -> Vec<Job> {
        let Ok(entries) = fs::read_dir(jobs_dir) else {
            return Vec::new();
        };
        let mut jobs: Vec<Job> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_suffix(".job")?;
                Job::load(jobs_dir, id)
            })
            .collect();
        jobs.sort_by_key(|j| j.seq);
        jobs
    }

    /// The job's wire representation (without progress — the server
    /// appends that from live journal snapshots).
    pub fn status_fields(&self) -> String {
        format!(
            "\"id\":\"{}\",\"state\":\"{}\",\"exit\":{},\"attempts\":{},\"workers\":{},\
             \"macros\":\"{}\"",
            json_escape(&self.id),
            self.state.name(),
            self.exit,
            self.attempts,
            self.spec.workers,
            json_escape(&self.spec.macros.join(",")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dotm-job-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            macros: vec!["comparator".into(), "ladder".into()],
            defects: 2000,
            seed: 1995,
            gs_common: 2,
            gs_mm: 2,
            max_classes: 8,
            threads: 0,
            workers: 2,
            fresh: false,
            abort_once: 0,
        }
    }

    #[test]
    fn id_covers_results_not_execution() {
        let base = spec();
        let mut execution = spec();
        execution.workers = 7;
        execution.threads = 3;
        execution.fresh = true;
        execution.abort_once = 4;
        assert_eq!(
            base.id(),
            execution.id(),
            "execution knobs are not identity"
        );

        type Mutation = (fn(&mut JobSpec), &'static str);
        let mutations: Vec<Mutation> = vec![
            (|s| s.defects = 2001, "defects"),
            (|s| s.seed = 1996, "seed"),
            (|s| s.gs_common = 3, "gs_common"),
            (|s| s.gs_mm = 3, "gs_mm"),
            (|s| s.max_classes = 9, "max_classes"),
            (|s| s.macros.truncate(1), "macros"),
        ];
        for (mutate, what) in mutations {
            let mut changed = spec();
            mutate(&mut changed);
            assert_ne!(base.id(), changed.id(), "{what} must change the id");
        }
    }

    #[test]
    fn parse_overrides_and_rejects() {
        // Only overridden fields are asserted: the defaults are
        // env-driven and the harness environment stays untouched.
        let spec = JobSpec::parse(
            br#"{"defects":500,"seed":7,"macros":"ladder, comparator","workers":3,"fresh":true}"#,
        )
        .expect("valid body");
        assert_eq!(spec.defects, 500);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.workers, 3);
        assert!(spec.fresh);
        // Canonical campaign order regardless of request order.
        assert_eq!(spec.macros, ["comparator", "ladder"]);

        assert!(JobSpec::parse(b"not json").is_err());
        assert!(JobSpec::parse(br#"{"defects":"many"}"#).is_err());
        assert!(JobSpec::parse(br#"{"macros":"mystery"}"#).is_err());
        assert!(JobSpec::parse(br#"{"macros":" , "}"#).is_err());
        assert!(
            JobSpec::parse(b"")
                .expect("empty body is defaults")
                .macros
                .len()
                == 5
        );
    }

    #[test]
    fn unset_knobs_give_the_library_defaults() {
        let knobs = [
            "DOTM_DEFECTS",
            "DOTM_SEED",
            "DOTM_GS_COMMON",
            "DOTM_GS_MM",
            "DOTM_MAX_CLASSES",
            "DOTM_THREADS",
            "DOTM_SERVE_WORKERS",
        ];
        if knobs.iter().any(|k| std::env::var_os(k).is_some()) {
            return;
        }
        let lib = dotm_core::PipelineConfig::default();
        let spec = JobSpec::from_env();
        assert_eq!(spec.macros, NAMES);
        assert_eq!((spec.defects, spec.seed), (lib.defects, lib.seed));
        assert_eq!(
            (spec.gs_common, spec.gs_mm),
            (lib.goodspace.common_samples, lib.goodspace.mismatch_samples)
        );
        assert_eq!(lib.max_classes, None);
        assert_eq!((spec.max_classes, spec.threads, spec.workers), (0, 0, 0));
    }

    #[test]
    fn records_roundtrip_and_corruption_reads_as_absent() {
        let dir = tmpdir("roundtrip");
        let mut job = Job::new(spec(), 3);
        job.state = JobState::Failed;
        job.exit = 3;
        job.attempts = 2;
        job.save(&dir).expect("save");
        assert_eq!(Job::load(&dir, &job.id), Some(job.clone()));
        assert_eq!(Job::load_all(&dir), vec![job.clone()]);

        // Flip one payload byte: the checksum must reject the record.
        let path = Job::path(&dir, &job.id);
        let mut text = fs::read_to_string(&path).expect("read");
        let at = text.find("\"data\":\"").expect("data field") + 9;
        let byte = text.as_bytes()[at];
        text.replace_range(at..at + 1, if byte == b'0' { "1" } else { "0" });
        fs::write(&path, text).expect("write");
        assert_eq!(Job::load(&dir, &job.id), None, "corrupt record is absent");
        assert!(Job::load_all(&dir).is_empty());

        // A multi-byte character straddling a hex pair is corruption too,
        // not a panic.
        job.save(&dir).expect("save");
        let mut text = fs::read_to_string(&path).expect("read");
        text.replace_range(at..at + 2, "é");
        fs::write(&path, text).expect("write");
        assert_eq!(Job::load(&dir, &job.id), None, "non-hex record is absent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_with_the_retired_remote_field_still_load() {
        // Records written before the remote-worker contract was removed
        // carry `"remote":false`; the field is ignored, the id is unchanged.
        let dir = tmpdir("legacy");
        let job = Job::new(spec(), 4);
        let body = job
            .body()
            .replace("\"seed\":", "\"remote\":false,\"seed\":");
        let line = format!(
            "{{\"dotm_job\":1,\"id\":\"{}\",\"data\":\"{}\",\"crc\":\"{:016x}\"}}\n",
            job.id,
            to_hex(body.as_bytes()),
            fnv64(body.as_bytes()),
        );
        fs::write(Job::path(&dir, &job.id), line).expect("write");
        assert_eq!(Job::load(&dir, &job.id), Some(job));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_all_sorts_by_submission_order() {
        let dir = tmpdir("order");
        let mut late = Job::new(spec(), 9);
        late.spec.seed = 2000; // distinct id
        late.id = late.spec.id();
        let early = Job::new(spec(), 1);
        late.save(&dir).expect("save");
        early.save(&dir).expect("save");
        let seqs: Vec<u64> = Job::load_all(&dir).iter().map(|j| j.seq).collect();
        assert_eq!(seqs, [1, 9]);
        let _ = fs::remove_dir_all(&dir);
    }
}
