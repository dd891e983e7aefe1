//! The daemon side of the benchmark: spawning `serve` as a child
//! process on a Unix socket and driving it with an open-loop load
//! generator.
//!
//! The generator sends every arrival at its scheduled time, whether or
//! not earlier campaigns have finished, so a stalled daemon shows up as
//! latency on later arrivals, timed from when they were due. It uses
//! `CONNS` connections, one generator thread each. A closed-loop mode,
//! which keeps a fixed number of campaigns in flight instead, measures
//! the daemon's capacity.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vulnstack_gefin::InjectionPlan;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::CoreModel;
use vulnstack_serve::json::{self, Value};
use vulnstack_workloads::WorkloadId;

use crate::util::{median, proc_mib};

/// Client connections (and generator threads) the load comes from.
pub const CONNS: usize = 2;
/// How long a session may run past its last arrival before it counts
/// as stalled.
const DRAIN_LIMIT: Duration = Duration::from_secs(90);

/// One campaign submission.
#[derive(Debug, Clone)]
pub struct Spec {
    pub engine: &'static str,
    pub workload: WorkloadId,
    pub model: CoreModel,
    pub structure: HwStructure,
    pub priority: &'static str,
    pub faults: u64,
    pub seed: u64,
}

impl Spec {
    fn to_json(&self) -> Value {
        let mut f = vec![
            ("engine", json::s(self.engine)),
            ("workload", json::s(self.workload.name())),
            ("priority", json::s(self.priority)),
            ("faults", json::n(self.faults)),
            ("seed", json::n(self.seed)),
        ];
        if self.engine == "avf" {
            f.push(("model", json::s(self.model.name())));
            f.push(("structure", json::s(self.structure.name())));
        }
        json::obj(f)
    }

    /// The plan the daemon's avf engine runs for this spec.
    pub fn plan(&self) -> InjectionPlan {
        InjectionPlan::Sampled {
            n: self.faults as usize,
            seed: self.seed,
        }
    }
}

#[derive(Debug, Clone)]
pub enum Arrival {
    /// A new campaign.
    Fresh(Spec),
    /// Re-subscribe to an avf campaign this connection saw finish.
    Read,
}

/// A fresh campaign as the generator observed it.
#[derive(Debug, Clone)]
pub struct Fresh {
    /// Index in the arrival schedule.
    pub arrival: usize,
    pub spec: Spec,
    /// Scheduled submit time, from session start.
    pub due: Duration,
    pub first_record: Option<Duration>,
    pub done: Option<Duration>,
    pub state: String,
    pub report: String,
    /// `(site index, payload)`, sorted once the session ends.
    pub records: Vec<(u64, String)>,
}

#[derive(Debug, Default)]
pub struct Session {
    /// In arrival order.
    pub fresh: Vec<Fresh>,
    /// `(latency, records received)` per completed read.
    pub reads: Vec<(Duration, u64)>,
    pub submit_rtt_ms: Vec<f64>,
    pub ping_rtt_ms: Vec<f64>,
    pub lag_max: Duration,
    /// Error responses plus reads that did not complete.
    pub errors: u64,
    pub reads_attempted: u64,
}

/// A running daemon child. Dropping it kills and reaps the process; if
/// the benchmark dies first, the daemon sees its stdin close and exits.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns `<exe> serve-daemon` on a socket in `dir` and waits for the
    /// first answered `ping`; returns the daemon and that set-up time.
    pub fn spawn(exe: &Path, dir: &Path, threads: usize) -> Result<(Daemon, Duration), String> {
        let sock = dir.join("d.sock");
        let t0 = Instant::now();
        let child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--state")
            .arg(dir.join("state"))
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--slots")
            .arg(threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon {}: {e}", exe.display()))?;
        let mut d = Daemon { child, sock };
        loop {
            if let Ok(mut c) = Conn::open(&d.sock) {
                c.call("ping")?;
                return Ok((d, t0.elapsed()));
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer ping within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn sock(&self) -> &Path {
        &self.sock
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        proc_mib(Some(self.child.id()), "VmHWM")
    }

    /// Graceful `shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Conn::open(&self.sock)?.call("shutdown")?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if t0.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One line-delimited JSON connection with a read timeout.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
    buf: Vec<u8>,
}

impl Conn {
    fn open(sock: &Path) -> Result<Conn, String> {
        let writer =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            next_id: 1,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, verb: &str, mut fields: Vec<(&str, Value)>) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![("id", json::n(id)), ("verb", json::s(verb))];
        all.append(&mut fields);
        let line = json::write(&json::obj(all)) + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {verb}: {e}"))?;
        Ok(id)
    }

    /// The next complete line, or `None` if `wait` passes first.
    fn read(&mut self, wait: Duration) -> Result<Option<Value>, String> {
        self.writer
            .set_read_timeout(Some(wait.max(Duration::from_micros(100))))
            .map_err(|e| e.to_string())?;
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) if self.buf.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                json::parse(line.trim_end())
                    .map(Some)
                    .map_err(|e| format!("daemon sent bad JSON: {e}"))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// A blocking request/response round trip.
    fn call(&mut self, verb: &str) -> Result<Value, String> {
        let id = self.send(verb, vec![])?;
        loop {
            match self.read(Duration::from_secs(30))? {
                Some(v) if v.get("id").and_then(Value::as_u64) == Some(id) => return Ok(v),
                Some(_) => {}
                None => return Err(format!("no answer to {verb} within 30 s")),
            }
        }
    }
}

enum Req {
    Submit(usize, Instant),
    /// A subscription to this handle's stream.
    Stream(String),
    Ping(Instant),
}

enum Live {
    Fresh(usize),
    Read(Instant, u64),
}

/// When the generator sends the next arrival.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// At `start + due`, whatever is still running.
    Open,
    /// As soon as fewer than this many fresh campaigns are in flight on
    /// the connection; `due` is ignored and each campaign is timed from
    /// its send.
    Closed(usize),
}

/// Runs one session: every arrival is sent when `load` says; returns
/// once every campaign and read has completed. With `ping_every`, each
/// connection also pings the daemon on that period while arrivals
/// remain, to time the RPC path under load.
pub fn session(
    sock: &Path,
    arrivals: &[(Duration, Arrival)],
    load: Load,
    ping_every: Option<Duration>,
) -> Result<Session, String> {
    let start = Instant::now();
    let parts: Vec<Result<Session, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let mine: Vec<(usize, &(Duration, Arrival))> = arrivals
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k % CONNS == c)
                    .collect();
                s.spawn(move || drive(sock, start, &mine, load, ping_every))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator panicked".into()))
            })
            .collect()
    });
    let mut out = Session::default();
    for part in parts {
        let p = part?;
        out.reads.extend(p.reads);
        out.submit_rtt_ms.extend(p.submit_rtt_ms);
        out.ping_rtt_ms.extend(p.ping_rtt_ms);
        out.lag_max = out.lag_max.max(p.lag_max);
        out.errors += p.errors;
        out.reads_attempted += p.reads_attempted;
        out.fresh.extend(p.fresh);
    }
    out.fresh.sort_by_key(|f| f.arrival);
    Ok(out)
}

/// One generator thread: its own connection, its share of the arrivals.
fn drive(
    sock: &Path,
    start: Instant,
    mine: &[(usize, &(Duration, Arrival))],
    load: Load,
    ping_every: Option<Duration>,
) -> Result<Session, String> {
    let mut conn = Conn::open(sock)?;
    let mut out = Session::default();
    let mut fresh: Vec<Fresh> = Vec::new();
    let mut pending: HashMap<u64, Req> = HashMap::new();
    let mut live: HashMap<String, Live> = HashMap::new();
    let mut finished: Vec<String> = Vec::new();
    let mut deferred_reads = 0usize;
    let mut next = 0usize;
    let mut next_ping = ping_every.map(|_| Duration::ZERO);
    let last_due = mine.last().map_or(Duration::ZERO, |(_, a)| a.0);

    loop {
        let now = start.elapsed();
        if let Some(&(k, (due, arrival))) = mine.get(next) {
            let ready = match load {
                Load::Open => *due <= now,
                Load::Closed(depth) => {
                    let submitting = pending
                        .values()
                        .filter(|r| matches!(r, Req::Submit(..)))
                        .count();
                    let running = live
                        .values()
                        .filter(|l| matches!(l, Live::Fresh(_)))
                        .count();
                    submitting + running < depth
                }
            };
            if ready {
                let due = match load {
                    Load::Open => *due,
                    Load::Closed(_) => now,
                };
                out.lag_max = out.lag_max.max(now - due);
                match arrival {
                    Arrival::Fresh(spec) => {
                        let id = conn.send("submit", vec![("spec", spec.to_json())])?;
                        pending.insert(id, Req::Submit(fresh.len(), Instant::now()));
                        fresh.push(Fresh {
                            arrival: k,
                            spec: spec.clone(),
                            due,
                            first_record: None,
                            done: None,
                            state: String::new(),
                            report: String::new(),
                            records: Vec::new(),
                        });
                    }
                    Arrival::Read => {
                        out.reads_attempted += 1;
                        deferred_reads += 1;
                    }
                }
                next += 1;
                continue;
            }
        }
        // Reads go to the most recently finished avf campaign not already
        // being read, so every read streams the same number of records;
        // with none finished yet they wait for one.
        while deferred_reads > 0 {
            let Some(h) = finished
                .iter()
                .rev()
                .find(|h| !live.contains_key(*h))
                .cloned()
            else {
                break;
            };
            let id = conn.send("subscribe", vec![("handle", json::s(&h))])?;
            pending.insert(id, Req::Stream(h.clone()));
            live.insert(h, Live::Read(Instant::now(), 0));
            deferred_reads -= 1;
        }
        if let (Some(every), Some(at)) = (ping_every, next_ping) {
            if at <= now && next < mine.len() {
                let id = conn.send("ping", vec![])?;
                pending.insert(id, Req::Ping(Instant::now()));
                next_ping = Some(at + every);
                continue;
            }
        }
        let all_sent = next == mine.len();
        if all_sent && pending.is_empty() && live.is_empty() {
            // Reads still waiting here have nothing left to read.
            out.errors += deferred_reads as u64;
            break;
        }
        if now > last_due + DRAIN_LIMIT {
            return Err(format!(
                "session stalled: {} request(s) and {} stream(s) still open",
                pending.len(),
                live.len()
            ));
        }
        let mut wait = Duration::from_millis(50);
        if let (Load::Open, Some(&(_, (due, _)))) = (load, mine.get(next)) {
            wait = wait.min(due.saturating_sub(now));
        }
        if let Some(at) = next_ping {
            wait = wait.min(at.saturating_sub(now));
        }
        let Some(msg) = conn.read(wait)? else {
            continue;
        };
        let at = start.elapsed();
        if let Some(kind) = msg.get("event").and_then(Value::as_str) {
            let handle = match kind {
                "done" => msg.get("result").and_then(|r| r.get("handle")),
                _ => msg.get("handle"),
            }
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
            match (kind, live.get_mut(&handle)) {
                ("record", Some(Live::Fresh(i))) => {
                    let f = &mut fresh[*i];
                    f.first_record.get_or_insert(at - f.due);
                    let index = msg.get("index").and_then(Value::as_u64);
                    let payload = msg.get("payload").and_then(Value::as_str);
                    if let (Some(index), Some(payload)) = (index, payload) {
                        f.records.push((index, payload.to_string()));
                    }
                }
                ("record", Some(Live::Read(_, n))) => *n += 1,
                ("done", Some(_)) => {
                    let result = msg.get("result");
                    let field = |k: &str| result.and_then(|r| r.get(k));
                    let state = field("state").and_then(Value::as_str).unwrap_or("");
                    match live.remove(&handle) {
                        Some(Live::Fresh(i)) => {
                            let f = &mut fresh[i];
                            f.done = Some(at - f.due);
                            f.state = state.to_string();
                            f.report = field("report")
                                .and_then(Value::as_str)
                                .unwrap_or("")
                                .to_string();
                            if state == "done" && f.spec.engine == "avf" {
                                finished.push(handle);
                            }
                        }
                        Some(Live::Read(t0, n)) => {
                            if state == "done" {
                                out.reads.push((t0.elapsed(), n));
                            } else {
                                out.errors += 1;
                            }
                        }
                        None => {}
                    }
                }
                _ => {}
            }
            continue;
        }
        let Some(id) = msg.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let ok = msg.get("ok").and_then(Value::as_bool) == Some(true);
        if !ok {
            out.errors += 1;
            let error = json::write(msg.get("error").unwrap_or(&Value::Null));
            eprintln!("perfbench: daemon error response: {error}");
        }
        match pending.remove(&id) {
            Some(Req::Submit(i, sent)) if ok => {
                out.submit_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                let handle = msg
                    .get("handle")
                    .and_then(Value::as_str)
                    .ok_or("submit response without a handle")?
                    .to_string();
                if live.contains_key(&handle) {
                    return Err(format!("two arrivals map onto campaign {handle}"));
                }
                let sid = conn.send("subscribe", vec![("handle", json::s(&handle))])?;
                pending.insert(sid, Req::Stream(handle.clone()));
                live.insert(handle, Live::Fresh(i));
            }
            Some(Req::Ping(sent)) => out.ping_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3),
            // A refused subscription will never stream: stop waiting.
            Some(Req::Stream(handle)) if !ok => {
                live.remove(&handle);
            }
            Some(Req::Submit(..) | Req::Stream(_)) | None => {}
        }
    }
    for f in &mut fresh {
        f.records.sort_unstable_by_key(|r| r.0);
    }
    out.fresh = fresh;
    Ok(out)
}

/// Median campaign latency of high- over low-priority tenants.
pub fn high_low_ratio(s: &Session) -> f64 {
    let latency = |p: &str| -> Vec<f64> {
        s.fresh
            .iter()
            .filter(|f| f.spec.priority == p)
            .filter_map(|f| f.done.map(|d| d.as_secs_f64()))
            .collect()
    };
    let (high, low) = (latency("high"), latency("low"));
    if high.is_empty() || low.is_empty() {
        return 0.0;
    }
    median(&high) / median(&low)
}
