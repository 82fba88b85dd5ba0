//! The wire run: spawn the release `hq serve`, drive it closed-loop
//! over two persistent TCP connections, keep every reply, and check
//! each one against the oracle once the clock has stopped.

use crate::gen::{Cmd, Workload, Write};
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How far a served value may sit from the oracle: replies carry nine
/// decimals, and the two sides fold in different orders.
pub const TOLERANCE: f64 = 2e-9;

/// One `hq serve` process. Dropping it kills and reaps the process, so
/// no exit path leaves it running.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    log: PathBuf,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits until its
    /// stderr names the bound address.
    pub fn spawn(hq: &Path, db: &Path, extra: &[String], log: &Path) -> Result<Server, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(hq)
            .arg("serve")
            .arg("--db")
            .arg(db)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("{}: {e}", hq.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: log.to_owned(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|_| format!("unexpected listen line: {text}"))?;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("hq serve exited ({status}): {}", text.trim()));
            }
            if Instant::now() > deadline {
                return Err("hq serve did not start listening within 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Waits for the process to exit after `shutdown` (killing it after
    /// 30 s).
    pub fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let log = std::fs::read_to_string(&self.log).unwrap_or_default();
                    return Err(format!("hq serve exited ({status}): {}", log.trim()));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("hq serve did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One persistent client connection.
pub struct Conn {
    out: TcpStream,
    input: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The client never holds a segment back, so any wait measured
        // is the server's.
        out.set_nodelay(true).map_err(|e| e.to_string())?;
        out.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let input = BufReader::new(out.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            out,
            input,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated command in a single write and reads
    /// its reply line.
    pub fn call(&mut self, msg: &str) -> std::io::Result<&str> {
        self.out.write_all(msg.as_bytes())?;
        self.line.clear();
        if self.input.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends a command that draws no reply (`quit`).
    fn send(&mut self, msg: &str) -> std::io::Result<()> {
        self.out.write_all(msg.as_bytes())
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Verb {
    /// A `?` command for this query id, valid at any epoch in
    /// `lo..=hi`.
    Query { id: usize, lo: u64, hi: u64 },
    /// The `n`-th write (1-based): it must publish epoch `n`.
    Write { n: u64 },
}

pub struct Rec {
    pub verb: Verb,
    pub latency: Duration,
    /// `None`: the connection failed before a reply arrived.
    pub reply: Option<String>,
}

/// Everything the measured setup produced.
pub struct WireRun {
    pub setup_s: Vec<f64>,
    pub warmup: Vec<Rec>,
    pub window: Vec<Rec>,
    pub window_s: f64,
    pub probe: Vec<Rec>,
    /// Every write sent, in order (the epoch-`n` state is the initial
    /// one plus the first `n`).
    pub writes: Vec<Write>,
    pub rss_mb: f64,
    pub stats: String,
}

fn query_msgs(w: &Workload) -> Vec<String> {
    w.queries.iter().map(|q| format!("{q}\n")).collect()
}

/// Sends each connection's warm-up queries, both connections at once.
fn warm_up(conns: &mut [Conn; 2], w: &Workload, msgs: &[String]) -> Vec<Rec> {
    let [c0, c1] = conns;
    std::thread::scope(|s| {
        let jobs: Vec<_> = [(c0, &w.warmup[0]), (c1, &w.warmup[1])]
            .into_iter()
            .map(|(conn, ids)| {
                s.spawn(move || {
                    let mut recs = Vec::new();
                    for &id in ids {
                        let t0 = Instant::now();
                        let reply = conn.call(&msgs[id]).map(str::to_owned).ok();
                        let failed = reply.is_none();
                        recs.push(Rec {
                            verb: Verb::Query { id, lo: 0, hi: 0 },
                            latency: t0.elapsed(),
                            reply,
                        });
                        if failed {
                            break;
                        }
                    }
                    recs
                })
            })
            .collect();
        jobs.into_iter()
            .flat_map(|j| j.join().expect("warm-up thread"))
            .collect()
    })
}

/// Closes both connections and waits for the server to exit.
fn shut_down(conns: [Conn; 2], server: Server) -> Result<String, String> {
    let [mut c0, mut c1] = conns;
    let _ = c1.send("quit\n");
    drop(c1);
    let stats = c0
        .call("stats\n")
        .map(str::to_owned)
        .map_err(|e| format!("stats: {e}"))?;
    let bye = c0
        .call("shutdown\n")
        .map(str::to_owned)
        .map_err(|e| format!("shutdown: {e}"))?;
    if bye != "ok: shutting down" {
        return Err(format!("unexpected shutdown reply: {bye}"));
    }
    drop(c0);
    server.finish()?;
    Ok(stats)
}

/// Runs `setups` start-ups of the server; the last one is measured for
/// `seconds` (a read-only mix gives the last 40 % to the write probe, so
/// its update tail rests on enough samples).
pub fn run(
    hq: &Path,
    w: &Workload,
    db: &Path,
    log: &Path,
    setups: usize,
    seconds: f64,
) -> Result<WireRun, String> {
    let msgs = query_msgs(w);
    let mut setup_s = Vec::new();
    let mut warmup = Vec::new();
    loop {
        let t0 = Instant::now();
        let server = Server::spawn(hq, db, &w.server_args(), log)?;
        let mut conns = [Conn::open(server.addr)?, Conn::open(server.addr)?];
        warmup.extend(warm_up(&mut conns, w, &msgs));
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() < setups {
            shut_down(conns, server)?;
            continue;
        }
        let window_s = if w.probe { seconds * 0.6 } else { seconds };
        let (window, writes, elapsed, conns) = measure(w, &msgs, conns, window_s);
        let [mut c0, c1] = conns;
        let mut writes = writes;
        let probe = if w.probe {
            probe_writes(w, &mut c0, seconds - window_s, &mut writes)
        } else {
            Vec::new()
        };
        let rss_mb = server.peak_rss_mb()?;
        let stats = shut_down([c0, c1], server)?;
        return Ok(WireRun {
            setup_s,
            warmup,
            window,
            window_s: elapsed,
            probe,
            writes,
            rss_mb,
            stats,
        });
    }
}

/// The closed loop: each connection sends its next command as soon as
/// the previous reply arrived, until the window closes.
fn measure(
    w: &Workload,
    msgs: &[String],
    conns: [Conn; 2],
    window_s: f64,
) -> (Vec<Rec>, Vec<Write>, f64, [Conn; 2]) {
    let sent = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let streams = [w.commands(0), w.commands(1)];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window_s);
    let [c0, c1] = conns;
    let results: Vec<(Vec<Rec>, Vec<Write>, Duration, Conn)> = std::thread::scope(|s| {
        let jobs: Vec<_> = [c0, c1]
            .into_iter()
            .zip(streams)
            .map(|(mut conn, commands)| {
                let (sent, acked) = (&sent, &acked);
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut log = Vec::new();
                    for cmd in commands {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let (verb, reply, latency) = match cmd {
                            Cmd::Query(id) => {
                                let lo = acked.load(Ordering::SeqCst);
                                let t0 = Instant::now();
                                let reply = conn.call(&msgs[id]).map(str::to_owned).ok();
                                let latency = t0.elapsed();
                                let hi = sent.load(Ordering::SeqCst);
                                (Verb::Query { id, lo, hi }, reply, latency)
                            }
                            Cmd::Write(write, text) => {
                                let msg = format!("{text}\n");
                                let n = sent.fetch_add(1, Ordering::SeqCst) + 1;
                                let t0 = Instant::now();
                                let reply = conn.call(&msg).map(str::to_owned).ok();
                                let latency = t0.elapsed();
                                acked.store(n, Ordering::SeqCst);
                                log.push(write);
                                (Verb::Write { n }, reply, latency)
                            }
                        };
                        let failed = reply.is_none();
                        recs.push(Rec {
                            verb,
                            latency,
                            reply,
                        });
                        if failed {
                            break;
                        }
                    }
                    (recs, log, start.elapsed(), conn)
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("load thread"))
            .collect()
    });
    let mut window = Vec::new();
    let mut writes = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut conns = Vec::new();
    for (recs, log, took, conn) in results {
        window.extend(recs);
        writes.extend(log);
        elapsed = elapsed.max(took);
        conns.push(conn);
    }
    let conns: [Conn; 2] = conns.try_into().unwrap_or_else(|_| unreachable!());
    (window, writes, elapsed.as_secs_f64(), conns)
}

/// Single-fact writes on one connection of an otherwise idle server:
/// at least ten, then until `seconds` have passed.
fn probe_writes(w: &Workload, conn: &mut Conn, seconds: f64, log: &mut Vec<Write>) -> Vec<Rec> {
    let mut stream = w.write_stream();
    let start = Instant::now();
    let mut recs = Vec::new();
    while recs.len() < 10 || start.elapsed().as_secs_f64() < seconds {
        let (write, text) = stream.next_write();
        let t0 = Instant::now();
        let reply = conn.call(&format!("{text}\n")).map(str::to_owned).ok();
        let failed = reply.is_none();
        recs.push(Rec {
            verb: Verb::Write {
                n: log.len() as u64 + 1,
            },
            latency: t0.elapsed(),
            reply,
        });
        log.push(write);
        if failed || start.elapsed() > Duration::from_secs(60) {
            break;
        }
    }
    recs
}

/// The value a query reply carries.
fn served_value(reply: &str) -> Option<f64> {
    reply.rsplit_once("P(Q) = ")?.1.trim().parse().ok()
}

/// Counts the replies that are errors, malformed, missing, or wrong:
/// a write must publish exactly its own epoch, and a read must match
/// the oracle at some epoch between the last write acknowledged before
/// it was sent and the last write submitted before its reply arrived.
pub fn count_wrong(w: &Workload, recs: &[&Rec], writes: &[Write]) -> (u64, Vec<String>) {
    let mut needed = BTreeSet::new();
    for r in recs {
        if let Verb::Query { lo, hi, .. } = r.verb {
            needed.extend(lo..=hi.min(writes.len() as u64));
        }
    }
    let mut oracle = w.model.clone();
    let mut values: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut applied = 0u64;
    for &e in &needed {
        while applied < e {
            oracle.apply(&writes[applied as usize]);
            applied += 1;
        }
        values.insert(e, oracle.values());
    }
    let mut wrong = 0;
    let mut examples = Vec::new();
    for r in recs {
        let ok = match (&r.reply, r.verb) {
            (None, _) => false,
            (Some(reply), Verb::Write { n }) => *reply == format!("ok epoch {n}"),
            (Some(reply), Verb::Query { id, lo, hi }) => served_value(reply).is_some_and(|v| {
                (lo..=hi.min(writes.len() as u64)).any(|e| (values[&e][id] - v).abs() <= TOLERANCE)
            }),
        };
        if !ok {
            wrong += 1;
            if examples.len() < 5 {
                let expected = match r.verb {
                    Verb::Query { id, lo, .. } => format!(
                        "{} expected {:.9} at epoch {lo}",
                        w.queries[id], values[&lo][id]
                    ),
                    Verb::Write { n } => format!("write {n} expected `ok epoch {n}`"),
                };
                examples.push(format!("{expected}, got {:?}", r.reply));
            }
        }
    }
    (wrong, examples)
}
