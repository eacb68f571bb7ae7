//! The `serve_jobs` workload: the campaign service in this process
//! (production HTTP server and subprocess runner, the runner wrapped in
//! a timing decorator), driven by one closed-loop client over loopback.
//! Each cycle starts a server on an empty store, submits one fresh job,
//! streams its events to `end`, fetches the report, then repeats dedup
//! `POST /jobs`, `GET /jobs/:id` and `GET /jobs/:id/report`, one
//! connection at a time, and shuts the server down.

use crate::campaign::{CampaignCfg, MacroId};
use crate::probe::{Attempt, TimedRunner};
use dotm_serve::{Server, SubprocessRunner};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests of the closed loop per cycle.
const REQUESTS_PER_CYCLE: usize = 60;

/// One served job.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Server starts until each listened, empty stores.
    pub setup_s: Vec<f64>,
    /// `POST /jobs` until the report bytes are received.
    pub job_s: f64,
    /// When the job was submitted and its report received.
    pub interval: Option<(Instant, Instant)>,
    /// CPU seconds of this process and its reaped children over the job.
    pub cpu_s: f64,
    /// Latency of the submitting `POST /jobs`.
    pub submit_ms: f64,
    /// Submit until the runner started the attempt.
    pub queue_wait_s: f64,
    /// Runner attempt duration.
    pub run_s: f64,
    /// Latency of the first `GET /jobs/:id/report`.
    pub report_ms: f64,
    /// Events the runner published for the job.
    pub events: u64,
    /// Report identities parsed from the served report.
    pub ids: Vec<MacroId>,
    /// Fig 4 lines of the served report.
    pub fig4: Vec<String>,
    /// Classes the served campaign evaluated.
    pub classes: usize,
    /// Solver Newton iterations, solves and transient steps of the
    /// served report's accounting block.
    pub solver: [u64; 3],
    /// Store loads and computed entries of the served report.
    pub store: [u64; 2],
    /// Closed-loop request latencies (ms).
    pub request_ms: Vec<f64>,
    /// Requests that got a wrong status or a wrong answer.
    pub request_failures: usize,
    /// Problems found.
    pub errors: Vec<String>,
}

/// CPU seconds of this process plus its waited-for children.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime is field 14.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// One HTTP/1.1 exchange on a fresh connection: (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn json_str<'a>(body: &'a str, key: &str) -> &'a str {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .map_or("", |s| s.split('"').next().unwrap_or(""))
}

/// Follows `/jobs/:id/events` to its `end` event; returns the end state.
fn stream_events(addr: SocketAddr, id: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(stream, "GET /jobs/{id}/events HTTP/1.1\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    let mut in_body = false;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok("stream closed early".into());
        }
        let trimmed = line.trim_end();
        if !in_body {
            in_body = trimmed.is_empty();
            continue;
        }
        if trimmed.contains("\"event\":\"end\"") {
            return Ok(json_str(trimmed, "state").to_string());
        }
    }
}

/// Macro identities from the campaign CLI's report lines
/// (`  <name>  <faults> faults / <classes> classes ... fingerprint=<hex>`).
pub fn parse_ids(report: &str) -> Vec<MacroId> {
    report
        .lines()
        .filter_map(|l| {
            let fp = l.split("fingerprint=").nth(1)?.trim();
            let words: Vec<&str> = l.split_whitespace().collect();
            let at = words.iter().position(|w| *w == "classes")?;
            Some(MacroId {
                name: words.first()?.to_string(),
                fingerprint: u64::from_str_radix(fp, 16).ok()?,
                classes: words.get(at.checked_sub(1)?)?.parse().ok()?,
            })
        })
        .collect()
}

/// The six Fig 4 coverage lines of a CLI report.
pub fn parse_fig4(report: &str) -> Vec<String> {
    report
        .lines()
        .filter(|l| l.contains(" detectable:") || l.contains("total fault coverage:"))
        .map(str::to_string)
        .collect()
}

fn number_before(text: &str, word: &str) -> u64 {
    text.split(word)
        .next()
        .and_then(|s| s.split_whitespace().last())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn number_after(text: &str, key: &str) -> u64 {
    text.split(key)
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// The job body for `cfg` at `seed`, one campaign thread.
pub fn job_body(cfg: &CampaignCfg, seed: u64) -> String {
    format!(
        "{{\"macros\":\"{}\",\"defects\":{},\"seed\":{seed},\"gs_common\":{},\"gs_mm\":{},\"max_classes\":{},\"threads\":1}}",
        cfg.macros.join(","),
        cfg.defects,
        cfg.gs.0,
        cfg.gs.1,
        cfg.max_classes.unwrap_or(0)
    )
}

/// Extra empty-store server starts per cycle, for more `setup_s`
/// samples than jobs.
const SETUP_SAMPLES: usize = 9;

type Serving = (
    Arc<Server>,
    std::thread::JoinHandle<std::io::Result<()>>,
    SocketAddr,
);

/// Starts the production server over `dir` on a loopback port; returns
/// it once it listens, with the seconds that took.
fn start(
    dir: &Path,
    campaign_exe: &Path,
    attempts: &Arc<Mutex<Vec<Attempt>>>,
) -> Result<(Serving, f64), String> {
    let t0 = Instant::now();
    let runner = SubprocessRunner::new(campaign_exe.to_path_buf(), dir.to_path_buf());
    let server = Arc::new(Server::new(
        dir.to_path_buf(),
        Box::new(TimedRunner::new(runner, Arc::clone(attempts))),
    ));
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run("127.0.0.1:0"))
    };
    match server.bound_addr(Duration::from_secs(30)) {
        Some(addr) => Ok(((server, serving, addr), t0.elapsed().as_secs_f64())),
        None => {
            server.request_shutdown();
            Err(format!("server never listened: {:?}", serving.join()))
        }
    }
}

/// Drains the server and waits for its thread.
fn stop((server, serving, _): Serving) -> Result<(), String> {
    server.request_shutdown();
    match serving.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server failed: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// One cycle on fresh stores under `dir`.
pub fn cycle(cfg: &CampaignCfg, seed: u64, dir: &Path, campaign_exe: &Path) -> JobRun {
    let mut run = JobRun {
        setup_s: Vec::new(),
        job_s: 0.0,
        interval: None,
        cpu_s: 0.0,
        submit_ms: 0.0,
        queue_wait_s: 0.0,
        run_s: 0.0,
        report_ms: 0.0,
        events: 0,
        ids: Vec::new(),
        fig4: Vec::new(),
        classes: 0,
        solver: [0; 3],
        store: [0; 2],
        request_ms: Vec::new(),
        request_failures: 0,
        errors: Vec::new(),
    };
    let attempts: Arc<Mutex<Vec<Attempt>>> = Arc::default();
    for k in 0..SETUP_SAMPLES {
        match start(&dir.join(format!("empty-{k}")), campaign_exe, &attempts) {
            Ok((serving, secs)) => {
                run.setup_s.push(secs);
                if let Err(e) = stop(serving) {
                    run.errors.push(e);
                }
            }
            Err(e) => run.errors.push(e),
        }
    }
    let serving = match start(&dir.join("store"), campaign_exe, &attempts) {
        Ok((serving, secs)) => {
            run.setup_s.push(secs);
            serving
        }
        Err(e) => {
            run.errors.push(e);
            return run;
        }
    };
    if let Err(e) = job_and_requests(cfg, seed, serving.2, &attempts, &mut run) {
        run.errors.push(format!("HTTP exchange failed: {e}"));
    }
    if let Err(e) = stop(serving) {
        run.errors.push(e);
    }
    run
}

fn job_and_requests(
    cfg: &CampaignCfg,
    seed: u64,
    addr: SocketAddr,
    attempts: &Mutex<Vec<Attempt>>,
    run: &mut JobRun,
) -> std::io::Result<()> {
    let body = job_body(cfg, seed);
    let cpu0 = process_cpu_s();
    let t_job = Instant::now();
    let (status, submitted) = http(addr, "POST", "/jobs", &body)?;
    run.submit_ms = t_job.elapsed().as_secs_f64() * 1e3;
    if status != 202 {
        run.errors
            .push(format!("submit: expected 202, got {status}: {submitted}"));
        return Ok(());
    }
    let id = json_str(&submitted, "id").to_string();
    let state = stream_events(addr, &id)?;
    if state != "merged" {
        run.errors.push(format!("job ended in state {state}"));
    }
    let t_report = Instant::now();
    let (status, report) = http(addr, "GET", &format!("/jobs/{id}/report"), "")?;
    run.report_ms = t_report.elapsed().as_secs_f64() * 1e3;
    run.job_s = t_job.elapsed().as_secs_f64();
    run.interval = Some((t_job, Instant::now()));
    run.cpu_s = process_cpu_s() - cpu0;
    if status != 200 {
        run.errors
            .push(format!("report: expected 200, got {status}"));
    }
    if let Some(a) = attempts.lock().expect("never poisoned").first() {
        run.queue_wait_s = a.start.duration_since(t_job).as_secs_f64();
        run.run_s = a.end.duration_since(a.start).as_secs_f64();
        run.events = a.events;
    }
    run.ids = parse_ids(&report);
    run.fig4 = parse_fig4(&report);
    run.classes = run
        .ids
        .iter()
        .map(|m| cfg.max_classes.map_or(m.classes, |n| m.classes.min(n)))
        .sum();
    if let Some(line) = report.lines().find(|l| l.contains("solver totals:")) {
        run.solver = [
            number_before(line, " iterations"),
            number_before(line, " NR solves"),
            number_before(line, " tran steps"),
        ];
    }
    if let Some(line) = report
        .lines()
        .find(|l| l.starts_with("campaign store accounting:"))
    {
        run.store = [
            number_after(line, "loads="),
            number_after(line, "computed="),
        ];
    }

    let status_path = format!("/jobs/{id}");
    let report_path = format!("/jobs/{id}/report");
    for i in 0..REQUESTS_PER_CYCLE {
        let t = Instant::now();
        let ok = match i % 3 {
            0 => {
                let (s, b) = http(addr, "POST", "/jobs", &body)?;
                s == 200 && b.contains("\"cached\":true") && json_str(&b, "id") == id
            }
            1 => {
                let (s, b) = http(addr, "GET", &status_path, "")?;
                s == 200 && b.contains("\"state\":\"merged\"")
            }
            _ => {
                let (s, b) = http(addr, "GET", &report_path, "")?;
                s == 200 && b == report
            }
        };
        run.request_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.request_failures += usize::from(!ok);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse() {
        let report = "persistent campaign: 2000 defects/macro, store at x\n  ladder             85 faults /  61 classes  store: loads=9 hits=0 misses=9 computed=9 fingerprint=00ab00cd00ef0012\n\
            campaign store accounting: loads=9 mem_hits=0 disk_hits=0 misses=9 computed=9 write_errors=0\n\
            (a — catastrophic)\n  voltage detectable:    50.4%\n  current detectable:    95.5%\n  total fault coverage:  95.5%\n\
            solver accounting (AssumeDetected policy):\n  solver totals: 204636 NR solves, 540320 iterations, 0 DC failures, 0 singular pivots, 204160 tran steps (0 rejected, 0 halvings)\n";
        let ids = parse_ids(report);
        assert_eq!(
            ids,
            vec![MacroId {
                name: "ladder".into(),
                fingerprint: 0x00ab00cd00ef0012,
                classes: 61
            }]
        );
        assert_eq!(parse_fig4(report).len(), 3);
        let line = report
            .lines()
            .find(|l| l.contains("solver totals"))
            .unwrap();
        assert_eq!(number_before(line, " iterations"), 540320);
        assert_eq!(number_before(line, " NR solves"), 204636);
        assert_eq!(number_before(line, " tran steps"), 204160);
        assert_eq!(number_after(report, "computed="), 9);
    }
}
