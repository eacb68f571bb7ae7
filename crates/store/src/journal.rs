//! The campaign journal: an append-only, line-oriented checkpoint of
//! per-macro progress.
//!
//! One journal file per macro, three record shapes (flat JSON, written
//! and parsed by hand — no serde):
//!
//! ```text
//! {"dotm_journal":1,"context":"<32 hex>","macro":"comparator","classes":417}
//! {"class":0,"crc":"<16 hex>","data":"<hex payload>"}
//! ...
//! {"done":true,"fingerprint":"<16 hex>"}
//! ```
//!
//! The header pins the campaign context fingerprint and the class count;
//! a journal whose header disagrees with the current configuration is
//! ignored wholesale (the campaign starts cold and overwrites it).
//! Class records carry the binary outcome payload hex-encoded with a
//! FNV-64 checksum; they are written strictly in class order, so the
//! resumable state is the longest contiguous prefix of valid records —
//! a torn or corrupt line only shortens it. The `done` record seals the
//! journal with the final report fingerprint.
//!
//! On resume the campaign rewrites the journal from scratch while the
//! pipeline replays the prefix verbatim; because the encoding is
//! canonical, a resumed journal is byte-identical to an uninterrupted
//! one.

use crate::entry::{decode_outcomes, encode_outcomes};
use crate::fnv::fnv64;
use crate::wire::{from_hex, to_hex};
use dotm_core::ClassOutcome;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Identity of one macro's journal: the campaign context and the class
/// population it checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign context fingerprint (see
    /// [`pipeline_context`](crate::pipeline_context)).
    pub context: u128,
    /// Macro name.
    pub macro_name: String,
    /// Number of classes the run will evaluate (after any truncation).
    pub classes: usize,
}

impl JournalHeader {
    pub(crate) fn to_line(&self) -> String {
        format!(
            "{{\"dotm_journal\":1,\"context\":\"{:032x}\",\"macro\":\"{}\",\"classes\":{}}}",
            self.context, self.macro_name, self.classes
        )
    }
}

/// What a journal on disk resumes: the contiguous prefix of completed
/// classes and, when sealed, the final report fingerprint.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Completed outcomes indexed by class, `Some` for the contiguous
    /// prefix — exactly the shape `PipelineHooks::completed` wants.
    pub completed: Vec<Option<Vec<ClassOutcome>>>,
    /// Final fingerprint, present only on a sealed (completed) journal.
    pub fingerprint: Option<u64>,
    /// `true` when the file held a structurally valid journal whose
    /// header disagrees with the expected one (different context, macro
    /// or class count). The prefix is still empty — the journal is
    /// ignored wholesale — but the caller can now tell "a knob changed
    /// since this journal was written" apart from "cold start, no
    /// journal", and account for it explicitly instead of silently
    /// re-evaluating everything.
    pub context_mismatch: bool,
}

impl ResumeState {
    /// Number of resumable classes.
    pub fn prefix_len(&self) -> usize {
        self.completed.iter().filter(|c| c.is_some()).count()
    }
}

/// Extracts the raw value of `"key":` from a flat one-line JSON object:
/// the token up to the closing quote (string values) or up to the next
/// `,` / `}` (numbers and booleans). Returns `None` when absent.
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

pub(crate) fn parse_header(line: &str) -> Option<JournalHeader> {
    if json_field(line, "dotm_journal")? != "1" {
        return None;
    }
    // A shard segment header (see `segment`) carries the same fields
    // plus `"shard"`/`"shards"`; refuse to mistake one for a whole-macro
    // journal so a stray segment file never resumes as a full run.
    if json_field(line, "shards").is_some() {
        return None;
    }
    Some(JournalHeader {
        context: u128::from_str_radix(json_field(line, "context")?, 16).ok()?,
        macro_name: json_field(line, "macro")?.to_string(),
        classes: json_field(line, "classes")?.parse().ok()?,
    })
}

/// Parses one class record; `None` on any malformation.
pub(crate) fn parse_class(line: &str) -> Option<(usize, Vec<ClassOutcome>)> {
    let index: usize = json_field(line, "class")?.parse().ok()?;
    let crc = u64::from_str_radix(json_field(line, "crc")?, 16).ok()?;
    let payload = from_hex(json_field(line, "data")?)?;
    if fnv64(&payload) != crc {
        return None;
    }
    Some((index, decode_outcomes(&payload)?))
}

/// Validates one class record line without decoding its payload: the
/// index parses, the hex payload parses, and the FNV-64 checksum holds.
/// Used by the read-only progress snapshot, where the outcome bytes are
/// not needed — only the fact that the record is whole.
fn class_record_index(line: &str) -> Option<usize> {
    let index: usize = json_field(line, "class")?.parse().ok()?;
    let crc = u64::from_str_radix(json_field(line, "crc")?, 16).ok()?;
    let payload = from_hex(json_field(line, "data")?)?;
    if fnv64(&payload) != crc {
        return None;
    }
    Some(index)
}

/// A read-only snapshot of one journal or segment file's progress, taken
/// without knowing the expected campaign context.
///
/// This is the service surface's window into a *running* campaign: the
/// writer appends whole flushed lines, so a reader that stops at the
/// first record whose checksum does not hold always observes a valid
/// contiguous prefix — a torn tail shortens the snapshot, it never
/// corrupts it (the `concurrent_reads` test suite pins this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalProgress {
    /// Macro name from the header.
    pub macro_name: String,
    /// Total classes the finished file will hold (after truncation).
    pub classes: usize,
    /// `(index, count)` for a shard segment, `None` for a whole-macro
    /// journal.
    pub shard: Option<(usize, usize)>,
    /// Whole class records observed, in order, checksum-valid.
    pub done: usize,
    /// `true` once the seal record (with its fingerprint) is present
    /// after a complete record range.
    pub sealed: bool,
    /// The sealed report fingerprint, present only when [`sealed`].
    ///
    /// [`sealed`]: JournalProgress::sealed
    pub fingerprint: Option<u64>,
}

impl JournalProgress {
    /// First class index this file records: `0` for a journal, the shard
    /// range start for a segment.
    pub fn first_class(&self) -> usize {
        match self.shard {
            Some((index, count)) => index * self.classes / count,
            None => 0,
        }
    }

    /// One-past-the-last class index this file records.
    pub fn last_class(&self) -> usize {
        match self.shard {
            Some((index, count)) => (index + 1) * self.classes / count,
            None => self.classes,
        }
    }
}

/// Parses a progress snapshot out of journal/segment text. `None` when
/// the first line is not a structurally valid header of either kind.
fn journal_progress_text(text: &str) -> Option<JournalProgress> {
    let mut lines = text.lines();
    let head = lines.next()?;
    if json_field(head, "dotm_journal")? != "1" {
        return None;
    }
    let shard = match (json_field(head, "shard"), json_field(head, "shards")) {
        (Some(i), Some(n)) => {
            let index: usize = i.parse().ok()?;
            let count: usize = n.parse().ok()?;
            if count == 0 || index >= count {
                return None;
            }
            Some((index, count))
        }
        (None, None) => None,
        _ => return None,
    };
    let mut progress = JournalProgress {
        macro_name: json_field(head, "macro")?.to_string(),
        classes: json_field(head, "classes")?.parse().ok()?,
        shard,
        done: 0,
        sealed: false,
        fingerprint: None,
    };
    let (first, last) = (progress.first_class(), progress.last_class());
    let mut next = first;
    for line in lines {
        if let Some(index) = class_record_index(line) {
            if index != next || index >= last {
                break;
            }
            next += 1;
        } else if next == last {
            if let Some(fp) =
                json_field(line, "fingerprint").and_then(|f| u64::from_str_radix(f, 16).ok())
            {
                progress.sealed = true;
                progress.fingerprint = Some(fp);
            }
            break;
        } else {
            break;
        }
    }
    progress.done = next - first;
    Some(progress)
}

/// Reads a progress snapshot from a journal or segment file. `None` for
/// a missing, unreadable or headerless file. Safe to call while a
/// [`JournalWriter`] in another process appends to the same path: the
/// snapshot is the longest valid prefix at read time.
pub fn journal_progress(path: &Path) -> Option<JournalProgress> {
    journal_progress_text(&fs::read_to_string(path).ok()?)
}

/// Loads the resumable state of `path` for the given expected header.
///
/// A missing or unreadable file, a header mismatch (different context,
/// macro or class count) or a corrupt first line all yield an empty
/// state: the campaign starts this macro cold. Class records must
/// appear in strict class order; the first gap, duplicate or corrupt
/// record ends the prefix.
pub fn load_journal(path: &Path, expect: &JournalHeader) -> ResumeState {
    let mut state = ResumeState {
        completed: vec![None; expect.classes],
        fingerprint: None,
        context_mismatch: false,
    };
    let Ok(text) = fs::read_to_string(path) else {
        return state;
    };
    let mut lines = text.lines();
    match lines.next().and_then(parse_header) {
        Some(h) if h == *expect => {}
        Some(_) => {
            state.context_mismatch = true;
            return state;
        }
        None => return state,
    }
    let mut next = 0usize;
    for line in lines {
        if let Some((index, outcomes)) = parse_class(line) {
            if index != next || index >= expect.classes {
                break;
            }
            state.completed[index] = Some(outcomes);
            next += 1;
        } else if next == expect.classes {
            if let Some(fp) =
                json_field(line, "fingerprint").and_then(|f| u64::from_str_radix(f, 16).ok())
            {
                state.fingerprint = Some(fp);
            }
            break;
        } else {
            break;
        }
    }
    state
}

/// Streams one macro's journal to disk, one flushed line per record.
pub struct JournalWriter {
    out: BufWriter<File>,
    classes: usize,
    written: usize,
}

impl JournalWriter {
    /// Creates (truncating any previous file) the journal and writes its
    /// header line.
    ///
    /// # Errors
    /// Any filesystem error — the journal is load-bearing for the
    /// campaign's checkpoint contract, so unlike store writes these are
    /// not absorbed.
    pub fn create(path: &Path, header: &JournalHeader) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", header.to_line())?;
        out.flush()?;
        Ok(JournalWriter {
            out,
            classes: header.classes,
            written: 0,
        })
    }

    /// Creates a writer with an arbitrary header line whose class records
    /// cover `start..end` — the shard segment shape (see `segment`). A
    /// whole-macro journal is the `0..classes` special case.
    pub(crate) fn create_with_header(
        path: &Path,
        header_line: &str,
        start: usize,
        end: usize,
    ) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{header_line}")?;
        out.flush()?;
        Ok(JournalWriter {
            out,
            classes: end,
            written: start,
        })
    }

    /// Appends one completed class. Classes must arrive in class order —
    /// the pipeline's observer dispatch guarantees exactly that.
    ///
    /// # Errors
    /// Any filesystem error, or a class arriving out of order.
    pub fn record_class(&mut self, index: usize, outcomes: &[ClassOutcome]) -> std::io::Result<()> {
        if index != self.written {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("class {index} out of order (expected {})", self.written),
            ));
        }
        let t_journal = dotm_obs::start();
        let payload = encode_outcomes(outcomes);
        writeln!(
            self.out,
            "{{\"class\":{index},\"crc\":\"{:016x}\",\"data\":\"{}\"}}",
            fnv64(&payload),
            to_hex(&payload)
        )?;
        self.out.flush()?;
        dotm_obs::phase(dotm_obs::Phase::Journal, t_journal);
        self.written += 1;
        Ok(())
    }

    /// Seals the journal with the final report fingerprint.
    ///
    /// # Errors
    /// Any filesystem error, or sealing before every class is recorded.
    pub fn finish(mut self, fingerprint: u64) -> std::io::Result<()> {
        if self.written != self.classes {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("sealing after {} of {} classes", self.written, self.classes),
            ));
        }
        writeln!(
            self.out,
            "{{\"done\":true,\"fingerprint\":\"{fingerprint:016x}\"}}"
        )?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_core::{CurrentFlags, DetectionSet, VoltageSignature};
    use dotm_defects::FaultMechanism;
    use dotm_faults::Severity;
    use dotm_sim::SimStats;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dotm-journal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("macro.jnl")
    }

    fn outcome(i: usize) -> ClassOutcome {
        ClassOutcome {
            key: format!("class-{i}"),
            mechanism: FaultMechanism::Open,
            count: i + 1,
            severity: Severity::Catastrophic,
            shared: false,
            voltage: VoltageSignature::OutputStuckAt,
            currents: CurrentFlags::default(),
            detection: DetectionSet {
                missing_code: true,
                currents: CurrentFlags::default(),
            },
            flagged: vec![i],
            sim_failed: false,
            inject_failed: false,
            rung: Some(0),
            inject_errors: 0,
            excluded: false,
            solver: SimStats {
                nr_solves: i as u64,
                ..SimStats::default()
            },
        }
    }

    fn header(classes: usize) -> JournalHeader {
        JournalHeader {
            context: 0xfeed_beef,
            macro_name: "comparator".into(),
            classes,
        }
    }

    fn write_full(path: &Path, classes: usize, fp: u64) {
        let mut w = JournalWriter::create(path, &header(classes)).expect("create");
        for i in 0..classes {
            w.record_class(i, &[outcome(i)]).expect("record");
        }
        w.finish(fp).expect("finish");
    }

    #[test]
    fn full_journal_resumes_sealed() {
        let path = tmpfile("full");
        write_full(&path, 3, 0xabcd);
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 3);
        assert_eq!(state.fingerprint, Some(0xabcd));
        assert_eq!(state.completed[1].as_ref().expect("class 1")[0].count, 2);
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn header_mismatch_resumes_nothing() {
        let path = tmpfile("mismatch");
        write_full(&path, 3, 1);
        for expect in [
            JournalHeader {
                context: 999,
                ..header(3)
            },
            JournalHeader {
                macro_name: "ladder".into(),
                ..header(3)
            },
            header(4),
        ] {
            let state = load_journal(&path, &expect);
            assert_eq!(state.prefix_len(), 0, "{expect:?}");
            assert_eq!(state.fingerprint, None);
            assert!(state.context_mismatch, "{expect:?}");
        }
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn missing_file_resumes_nothing() {
        let state = load_journal(Path::new("/nonexistent/journal.jnl"), &header(2));
        assert_eq!(state.prefix_len(), 0);
        assert_eq!(state.completed.len(), 2);
        assert!(!state.context_mismatch, "cold start is not a mismatch");
    }

    #[test]
    fn torn_tail_shortens_the_prefix() {
        let path = tmpfile("torn");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        // Drop the seal and tear the last class record in half.
        lines.pop();
        let last = lines.pop().expect("a class line");
        let torn = &last[..last.len() / 2];
        let mut short = lines.join("\n");
        short.push('\n');
        short.push_str(torn);
        fs::write(&path, short).expect("write");
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 2, "torn third record must not count");
        assert_eq!(state.fingerprint, None);
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn corrupt_middle_record_ends_the_prefix_there() {
        let path = tmpfile("middle");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    l.replace("\"data\":\"", "\"data\":\"00")
                } else {
                    l.to_string()
                }
            })
            .collect();
        fs::write(&path, lines.join("\n") + "\n").expect("write");
        let state = load_journal(&path, &header(3));
        assert_eq!(state.prefix_len(), 1, "classes after the bad one drop too");
        assert_eq!(
            state.fingerprint, None,
            "an unsealed prefix has no fingerprint"
        );
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn rewriting_yields_identical_bytes() {
        let a = tmpfile("rewrite-a");
        let b = tmpfile("rewrite-b");
        write_full(&a, 4, 0x1234_5678_9abc_def0);
        write_full(&b, 4, 0x1234_5678_9abc_def0);
        assert_eq!(
            fs::read(&a).expect("read a"),
            fs::read(&b).expect("read b"),
            "canonical encoding: same inputs, same bytes"
        );
        let _ = fs::remove_dir_all(a.parent().expect("parent"));
        let _ = fs::remove_dir_all(b.parent().expect("parent"));
    }

    #[test]
    fn out_of_order_and_early_seal_are_writer_errors() {
        let path = tmpfile("order");
        let mut w = JournalWriter::create(&path, &header(2)).expect("create");
        assert!(w.record_class(1, &[outcome(1)]).is_err());
        w.record_class(0, &[outcome(0)]).expect("in order");
        let w2 = JournalWriter::create(&path, &header(2)).expect("recreate");
        assert!(w2.finish(0).is_err(), "seal before classes recorded");
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_tracks_prefix_and_seal() {
        let path = tmpfile("progress");
        let mut w = JournalWriter::create(&path, &header(3)).expect("create");
        let p = journal_progress(&path).expect("header present");
        assert_eq!((p.done, p.classes, p.sealed), (0, 3, false));
        assert_eq!(p.shard, None);
        assert_eq!(p.macro_name, "comparator");
        w.record_class(0, &[outcome(0)]).expect("record");
        w.record_class(1, &[outcome(1)]).expect("record");
        assert_eq!(journal_progress(&path).expect("snapshot").done, 2);
        w.record_class(2, &[outcome(2)]).expect("record");
        w.finish(0xfeed).expect("finish");
        let p = journal_progress(&path).expect("snapshot");
        assert_eq!((p.done, p.sealed, p.fingerprint), (3, true, Some(0xfeed)));
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_survives_a_torn_tail() {
        let path = tmpfile("progress-torn");
        write_full(&path, 3, 7);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // seal
        let last = lines.pop().expect("class line");
        let mut short = lines.join("\n");
        short.push('\n');
        short.push_str(&last[..last.len() / 2]);
        fs::write(&path, short).expect("write");
        let p = journal_progress(&path).expect("snapshot");
        assert_eq!((p.done, p.sealed), (2, false));
        let _ = fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn progress_snapshot_reads_segments_and_rejects_garbage() {
        assert_eq!(journal_progress_text("not a journal"), None);
        assert_eq!(journal_progress(Path::new("/nonexistent/x.jnl")), None);
        // A hand-built segment header: shard 1 of 2 over 8 classes
        // records classes 4..8.
        let seg = "{\"dotm_journal\":1,\"context\":\"00000000000000000000000000feedbee\",\
                   \"macro\":\"ladder\",\"classes\":8,\"shard\":1,\"shards\":2}";
        let p = journal_progress_text(seg).expect("segment header");
        assert_eq!(p.shard, Some((1, 2)));
        assert_eq!((p.first_class(), p.last_class()), (4, 8));
        assert_eq!((p.done, p.sealed), (0, false));
    }

    #[test]
    fn json_field_extracts_values() {
        let line = "{\"a\":1,\"b\":\"two\",\"c\":true}";
        assert_eq!(json_field(line, "a"), Some("1"));
        assert_eq!(json_field(line, "b"), Some("two"));
        assert_eq!(json_field(line, "c"), Some("true"));
        assert_eq!(json_field(line, "d"), None);
    }
}
