//! `hq serve --listen` — the multi-tenant wire front-end.
//!
//! Each TCP connection becomes one snapshot-isolated
//! [`hq_unify::Session`] over a single shared [`hq_unify::Server`]
//! (one encoded base store, one plan-node cache, one writer). The wire
//! protocol **is** the script grammar of [`hq_unify::script`], one
//! command per line, one response line per command:
//!
//! * `? <query>` → `<query> -> P(Q) = <p>` — evaluated against the
//!   epoch current when the query starts (or the pinned one);
//! * `R(v1, …) [@ p]` / `!R(v1, …)` → `ok epoch <e>` — a write,
//!   submitted to the server's group-commit queue; concurrent
//!   connections' writes coalesce into one delta-patch pass and one
//!   epoch publication, and `<e>` is the **ticket's** epoch (the one
//!   this write's commit group published), not whatever epoch happens
//!   to be current by reply time;
//! * `pin` → `pinned epoch <e>` / `unpin` → `ok` — hold one snapshot
//!   across writer activity;
//! * `stats` → one line of server counters, write pipeline included
//!   (group commits, coalesced batches, queue depth/high-water,
//!   rejected batches);
//! * `quit` (close this session), `shutdown` (stop the server);
//! * `# …` comments and blank lines are skipped without a response.
//!
//! `--backend map|columnar|compressed` picks the server's storage tier
//! once, at startup: [`cmd_serve`] matches it to one [`Server`] type
//! and everything after that is generic over the tier. Every tier runs
//! its rules at the `--threads` degree, and every tier and degree
//! answers bit-identically.
//!
//! Errors answer `error: …` and keep the connection open — including
//! `error: write queue full …` when `--write-queue N --write-policy
//! refuse` backpressure refuses a burst, a line longer than
//! [`MAX_LINE_BYTES`] and a line that is not UTF-8. Connections beyond
//! `--max-sessions` are refused with `error: server full`, and a
//! connection silent for [`IDLE_TIMEOUT`] gets `error: idle timeout`
//! and is closed.

use crate::args::Args;
use hq_db::Interner;
use hq_monoid::ProbMonoid;
use hq_unify::script::{parse_command, render_command, strip_comment, ScriptCommand};
use hq_unify::{
    Backend, ColumnarRelation, CompressedColumnar, MapRelation, Server, ServingBackend, Session,
    WritePolicy,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// How long a connection may stay silent before the server replies
/// `error: idle timeout` and closes it — so a client that connects and
/// goes quiet cannot hold a `--max-sessions` slot (or a pinned epoch)
/// forever.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// The longest command line the wire accepts, newline excluded. A
/// longer line is answered with an error and discarded through its
/// newline, so no client can make a connection buffer without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads the next `\n`-terminated line (a trailing `\r` dropped, as in
/// [`BufRead::lines`]) into `buf`, holding at most [`MAX_LINE_BYTES`]
/// of it. `None` at end of stream; `Some(Err(reason))` for a line that
/// is over-long or not UTF-8 — it has been consumed whole, so the next
/// call reads the line after it.
fn read_wire_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let (mut read_any, mut too_long) = (false, false);
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let end = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..end.unwrap_or(chunk.len())];
        too_long |= buf.len() + body.len() > MAX_LINE_BYTES;
        if !too_long {
            buf.extend_from_slice(body);
        }
        let used = body.len() + usize::from(end.is_some());
        reader.consume(used);
        if end.is_some() {
            break;
        }
    }
    if too_long {
        return Ok(Some(Err(format!("line exceeds {MAX_LINE_BYTES} bytes"))));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| "line is not UTF-8".to_owned()),
    ))
}

/// One `stats` reply: the server's epoch, cache and write-pipeline
/// counters on one line.
fn stats_line<R: ServingBackend<Ann = f64>>(s: &Server<ProbMonoid, R>) -> String {
    let w = s.write_stats();
    format!(
        "epoch {}; {} live epoch(s); {} cached node(s), {} rows, {} B; \
         {} evicted; {} ops performed; {} plan hit(s); \
         writes: {} commit(s), {} batch(es), max group {}, \
         queue {} (hw {}), rejected {} invalid / {} full",
        s.current_epoch(),
        s.live_epochs(),
        s.cached_nodes(),
        s.materialised_rows(),
        s.storage_bytes(),
        s.evictions(),
        s.ops_performed(),
        s.plan_hits(),
        w.commits,
        w.batches_committed,
        w.max_group,
        w.queue_depth,
        w.queue_high_water,
        w.rejected_invalid,
        w.rejected_full,
    )
}

/// `hq serve --db FILE --listen ADDR [--backend map|columnar|compressed] [--threads N]
/// [--max-sessions N] [--global-cache-rows N] [--max-live-epochs N]
/// [--write-queue N] [--write-policy block|refuse]`.
/// Binds, prints the bound address to stderr (so `--listen 127.0.0.1:0`
/// is scriptable), and serves until a connection sends `shutdown`.
pub(crate) fn cmd_serve(args: &Args) -> Result<String, String> {
    if args.get("write-policy").is_some() && args.get("write-queue").is_none() {
        return Err("--write-policy requires --write-queue".into());
    }
    match crate::backend_arg(args)? {
        Backend::Map => serve_on::<MapRelation<f64>>(args),
        Backend::Columnar => serve_on::<ColumnarRelation<f64>>(args),
        Backend::Compressed => serve_on::<CompressedColumnar<f64>>(args),
    }
}

/// [`cmd_serve`] on the storage tier `R`, its rules run at the
/// `--threads` degree.
fn serve_on<R>(args: &Args) -> Result<String, String>
where
    R: ServingBackend<Ann = f64> + Send + Sync + 'static,
{
    let par = crate::threads_arg(args)?;
    let mut interner = Interner::new();
    let tid = crate::load_tid(args.require("db")?, &mut interner)?;
    let listen = args.require("listen")?;
    let max_sessions: usize = match args.get("max-sessions") {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "max-sessions: expected a positive integer".to_string())?,
        None => 64,
    };
    let server: Server<ProbMonoid, R> =
        Server::with_parallelism(ProbMonoid, &interner, tid, par).map_err(|e| e.to_string())?;
    if let Some(n) = args.get("global-cache-rows") {
        let budget: usize = n
            .parse()
            .map_err(|_| "global-cache-rows: expected a non-negative integer".to_string())?;
        server.set_global_cache_rows(Some(budget));
    }
    if let Some(n) = args.get("max-live-epochs") {
        let max: usize = n
            .parse()
            .ok()
            .filter(|&n| n >= 2)
            .ok_or_else(|| "max-live-epochs: expected an integer >= 2".to_string())?;
        server.set_max_live_epochs(Some(max));
    }
    if let Some(n) = args.get("write-queue") {
        let depth: usize = n
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "write-queue: expected a positive integer".to_string())?;
        let write_policy: WritePolicy = match args.get("write-policy") {
            Some(p) => p.parse().map_err(|e| format!("write-policy: {e}"))?,
            None => WritePolicy::default(),
        };
        server.set_write_queue(Some(depth), write_policy);
    }
    let listener = TcpListener::bind(listen).map_err(|e| format!("{listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("hq serve: listening on {addr} ({max_sessions} session(s) max)");
    let interner = Arc::new(RwLock::new(interner));
    let served = serve_loop(listener, &server, &interner, max_sessions, IDLE_TIMEOUT)?;
    Ok(format!(
        "served {served} connection(s); final epoch {}\n",
        server.current_epoch()
    ))
}

/// One occupied `--max-sessions` slot. Dropping it frees the slot, so
/// a connection handler that panics (say, on a poisoned lock) unwinds
/// through the release instead of leaking the slot.
struct SessionSlot(Arc<AtomicUsize>);

impl SessionSlot {
    fn claim(active: &Arc<AtomicUsize>) -> SessionSlot {
        active.fetch_add(1, Ordering::SeqCst);
        SessionSlot(Arc::clone(active))
    }
}

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts connections until a handler observes `shutdown`. One thread
/// per **connection** — never per request; all query evaluation inside
/// a connection fans out over the shared worker pool warmed at server
/// construction. Split from [`cmd_serve`] so tests can drive a bound
/// `127.0.0.1:0` listener directly (and shorten `idle`).
fn serve_loop<R>(
    listener: TcpListener,
    server: &Server<ProbMonoid, R>,
    interner: &Arc<RwLock<Interner>>,
    max_sessions: usize,
    idle: Duration,
) -> Result<usize, String>
where
    R: ServingBackend<Ann = f64> + Send + Sync + 'static,
{
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    let mut served = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if active.load(Ordering::SeqCst) >= max_sessions {
            let mut stream = stream;
            let _ = writeln!(stream, "error: server full ({max_sessions} session(s) max)");
            continue;
        }
        served += 1;
        let slot = SessionSlot::claim(&active);
        let session = server.session();
        let server = server.clone();
        let interner = interner.clone();
        let stop = stop.clone();
        // Join finished handlers now, not at shutdown, so their
        // stacks are released while the server runs.
        let (done, live): (Vec<_>, Vec<_>) = handles
            .drain(..)
            .partition(|h: &std::thread::JoinHandle<()>| h.is_finished());
        for h in done {
            let _ = h.join();
        }
        handles = live;
        handles.push(std::thread::spawn(move || {
            let _ = handle_conn(&stream, &server, session, &interner, &stop, idle);
            // Free the slot before closing, so a client that sees the
            // close can be admitted again at once.
            drop(slot);
            drop(stream);
            if stop.load(Ordering::SeqCst) {
                // Wake the acceptor so it observes the stop flag.
                let _ = TcpStream::connect(addr);
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(served)
}

/// Serves one connection: parse each line through the shared script
/// grammar, answer one line per command. Parsing takes the interner
/// write lock (fact values may intern novel symbols); evaluation and
/// updates run under the read lock, so concurrent sessions evaluate
/// in parallel. A connection that sends nothing for `idle` is told so
/// and closed; dropping its session releases any pinned epoch.
fn handle_conn<R: ServingBackend<Ann = f64>>(
    stream: &TcpStream,
    server: &Server<ProbMonoid, R>,
    mut session: Session<ProbMonoid, R>,
    interner: &Arc<RwLock<Interner>>,
    stop: &AtomicBool,
    idle: Duration,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(idle))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf = Vec::new();
    for lineno in 0.. {
        let next = match read_wire_line(&mut reader, &mut buf) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                writeln!(out, "error: idle timeout")?;
                break;
            }
            next => next?,
        };
        let line = match next {
            None => break,
            Some(Ok(line)) => line,
            Some(Err(reason)) => {
                writeln!(out, "error: {reason}")?;
                continue;
            }
        };
        let Some(cmd) = strip_comment(line) else {
            continue;
        };
        let reply = match cmd {
            "quit" | "exit" => break,
            "shutdown" => {
                stop.store(true, Ordering::SeqCst);
                writeln!(out, "ok: shutting down")?;
                break;
            }
            "pin" => format!("pinned epoch {}", session.pin()),
            "unpin" => {
                session.unpin();
                "ok".to_owned()
            }
            "stats" => stats_line(server),
            _ => {
                let parsed = {
                    let mut i = interner.write().expect("interner lock");
                    parse_command(cmd, lineno, "wire", &mut i)
                };
                match parsed {
                    Err(e) => format!("error: {e}"),
                    Ok(ScriptCommand::Query(q)) => {
                        let i = interner.read().expect("interner lock");
                        match session.query(&i, &q) {
                            Ok((p, _)) => format!("{q} -> P(Q) = {p:.9}"),
                            Err(e) => format!("error: {e}"),
                        }
                    }
                    Ok(ref fix_cmd @ ScriptCommand::Fix { ref rel, src, dst }) => {
                        let i = interner.read().expect("interner lock");
                        let echo = render_command(fix_cmd, &i);
                        match session.query_fix(&i, rel, src, dst) {
                            Ok((p, _)) => {
                                format!("{} -> P(Q) = {p:.9}", echo.trim_start_matches("? "))
                            }
                            Err(e) => format!("error: {e}"),
                        }
                    }
                    Ok(ScriptCommand::Update(fact, action)) => {
                        // Probability monoid: a delete and a zero
                        // weight coincide.
                        let i = interner.read().expect("interner lock");
                        match session.commit_batch(&i, &[(fact, action.prob_weight())]) {
                            Ok(receipt) => format!("ok epoch {}", receipt.epoch),
                            Err(e) => format!("error: {e}"),
                        }
                    }
                }
            }
        };
        writeln!(out, "{reply}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn boot(
        db_lines: &str,
        extra: &[(&str, &str)],
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<usize, String>>,
    ) {
        boot_with::<ColumnarRelation<f64>>(db_lines, extra, 2, IDLE_TIMEOUT)
    }

    fn boot_with<R: ServingBackend<Ann = f64> + Send + Sync + 'static>(
        db_lines: &str,
        extra: &[(&str, &str)],
        max_sessions: usize,
        idle: Duration,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<usize, String>>,
    ) {
        static NEXT_DB: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("hq-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "db_{}_{}.facts",
            std::process::id(),
            NEXT_DB.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::write(&path, db_lines).unwrap();
        let mut interner = Interner::new();
        let tid = crate::load_tid(path.to_str().unwrap(), &mut interner).unwrap();
        let server: Server<ProbMonoid, R> = Server::new(ProbMonoid, &interner, tid).unwrap();
        for (k, v) in extra {
            match *k {
                "global-cache-rows" => server.set_global_cache_rows(Some(v.parse().unwrap())),
                "max-live-epochs" => server.set_max_live_epochs(Some(v.parse().unwrap())),
                "write-queue" => {
                    server.set_write_queue(Some(v.parse().unwrap()), Default::default());
                }
                _ => unreachable!(),
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let interner = Arc::new(RwLock::new(interner));
        let handle = std::thread::spawn(move || {
            serve_loop(listener, &server, &interner, max_sessions, idle)
        });
        (addr, handle)
    }

    #[test]
    fn panicking_handler_releases_its_session_slot() {
        let active = Arc::new(AtomicUsize::new(0));
        let slot = SessionSlot::claim(&active);
        assert_eq!(active.load(Ordering::SeqCst), 1);
        let handler = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler panicked mid-connection");
        });
        assert!(handler.join().is_err(), "the handler thread panicked");
        assert_eq!(active.load(Ordering::SeqCst), 0, "slot released on unwind");
    }

    fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for l in lines {
            // A refused connection may already be closed server-side;
            // the refusal line is still readable below.
            let _ = writeln!(stream, "{l}");
        }
        let reader = BufReader::new(stream);
        reader.lines().map(|l| l.unwrap()).collect()
    }

    fn roundtrip_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn finished_connection_threads_are_reaped() {
        // An unjoined finished thread keeps its stack mapped (two
        // lines of /proc/self/maps each), so 500 connections without
        // reaping would grow the map by about 1,000 lines.
        let maps = || {
            std::fs::read_to_string("/proc/self/maps")
                .unwrap()
                .lines()
                .count()
        };
        let (addr, handle) = boot("E(1,2) @ 0.5\n", &[]);
        let before = maps();
        for _ in 0..500 {
            assert!(roundtrip(addr, &["quit"]).is_empty());
        }
        let grown = maps().saturating_sub(before);
        assert!(grown < 250, "/proc/self/maps grew by {grown} lines");
        let _ = roundtrip(addr, &["shutdown"]);
        assert_eq!(handle.join().unwrap(), Ok(501));
    }

    #[test]
    fn over_long_line_gets_one_error_and_the_connection_stays_open() {
        let (addr, handle) = boot("E(1,2) @ 0.5\n", &[]);
        let mut bytes = vec![b'E'; 100 * 1024];
        bytes.extend_from_slice(b"\npin\nquit\n");
        let replies = roundtrip_raw(addr, &bytes);
        assert_eq!(
            replies,
            vec![
                "error: line exceeds 65536 bytes".to_owned(),
                "pinned epoch 0".to_owned()
            ]
        );
        let _ = roundtrip(addr, &["shutdown"]);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn non_utf8_line_gets_one_error_and_the_connection_stays_open() {
        let (addr, handle) = boot("E(1,2) @ 0.5\n", &[]);
        let replies = roundtrip_raw(addr, b"E(1,\xff\xfe)\nstats\nquit\n");
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_eq!(replies[0], "error: line is not UTF-8");
        assert!(replies[1].contains("cached node(s)"), "{replies:?}");
        let _ = roundtrip(addr, &["shutdown"]);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn wire_protocol_serves_queries_updates_and_verbs() {
        let (addr, handle) = boot("E(1,2) @ 0.5\nF(2,3) @ 0.5\n", &[]);
        let replies = roundtrip(
            addr,
            &[
                "? Q() :- E(X,Y), F(Y,Z)",
                "# a comment line draws no response",
                "E(1,2) @ 0.9",
                "? Q() :- E(X,Y), F(Y,Z)",
                "!F(2,3)",
                "? Q() :- E(X,Y), F(Y,Z)",
                "stats",
                "nonsense(((",
                "quit",
            ],
        );
        assert_eq!(replies.len(), 7, "{replies:?}");
        assert!(replies[0].contains("P(Q) = 0.25"), "{replies:?}");
        assert!(replies[1].starts_with("ok epoch"), "{replies:?}");
        assert!(replies[2].contains("P(Q) = 0.45"), "{replies:?}");
        assert!(replies[3].starts_with("ok epoch"), "{replies:?}");
        assert!(replies[4].contains("P(Q) = 0.0"), "{replies:?}");
        assert!(replies[5].contains("cached node(s)"), "{replies:?}");
        assert!(replies[6].starts_with("error:"), "{replies:?}");
        let shut = roundtrip(addr, &["shutdown"]);
        assert_eq!(shut, vec!["ok: shutting down".to_owned()]);
        let served = handle.join().unwrap().unwrap();
        assert_eq!(served, 2);
    }

    #[test]
    fn every_storage_tier_replies_identically_over_the_wire() {
        fn replies<R: ServingBackend<Ann = f64> + Send + Sync + 'static>() -> Vec<String> {
            let (addr, handle) = boot_with::<R>(
                "E(1,2) @ 0.5\nE(2,3) @ 0.5\nF(2,3) @ 0.5\n",
                &[],
                2,
                IDLE_TIMEOUT,
            );
            let replies = roundtrip(
                addr,
                &[
                    "? Q() :- E(X,Y), F(Y,Z)",
                    "pin",
                    "E(1,2) @ 0.9",
                    "E(7,8) @ 0.25", // novel values extend the dictionary
                    "? Q() :- E(X,Y), F(Y,Z)",
                    "? fix E 1 3",
                    "unpin",
                    "? Q() :- E(X,Y), F(Y,Z)",
                    "? fix E 1 3",
                    "!F(2,3)",
                    "? Q() :- E(X,Y), F(Y,Z)",
                    "stats",
                    "quit",
                ],
            );
            let _ = roundtrip(addr, &["shutdown"]);
            assert_eq!(handle.join().unwrap(), Ok(2));
            replies
        }
        let map = replies::<MapRelation<f64>>();
        assert_eq!(map.len(), 12, "{map:?}");
        assert!(map[0].contains("P(Q) = 0.25"), "{map:?}");
        assert!(map[4].contains("P(Q) = 0.25"), "pinned read: {map:?}");
        assert!(map[7].contains("P(Q) = 0.45"), "{map:?}");
        assert!(map[10].contains("P(Q) = 0.0"), "{map:?}");
        // The `stats` line's byte count is layout-specific; every other
        // counter is not.
        let without_bytes = |r: &[String]| {
            let (head, rest) = r[11].split_once(" rows, ").unwrap();
            format!("{head} rows; {}", rest.split_once(" B; ").unwrap().1)
        };
        for (name, other) in [
            ("columnar", replies::<ColumnarRelation<f64>>()),
            ("compressed", replies::<CompressedColumnar<f64>>()),
        ] {
            assert_eq!(other[..11], map[..11], "{name}");
            assert_eq!(without_bytes(&other), without_bytes(&map), "{name}");
        }
    }

    #[test]
    fn wire_protocol_serves_recursive_fix_queries() {
        let (addr, handle) = boot("E(1,2) @ 0.5\nE(2,3) @ 0.5\n", &[]);
        let replies = roundtrip(
            addr,
            &[
                "? fix E 1 3",  // one 2-hop path: 0.25
                "? fix E 1 2",  // the direct edge
                "? fix E 3 1",  // unreachable
                "E(1,3) @ 0.5", // short-circuit edge joins round 0
                "? fix E 1 3",  // direct edge now freezes the pair
                "? fix",        // malformed: no relation
                "quit",
            ],
        );
        assert_eq!(replies.len(), 6, "{replies:?}");
        assert!(
            replies[0].contains("fix E 1 3 -> P(Q) = 0.25"),
            "{replies:?}"
        );
        assert!(
            replies[1].contains("fix E 1 2 -> P(Q) = 0.5"),
            "{replies:?}"
        );
        assert!(
            replies[2].contains("fix E 3 1 -> P(Q) = 0.0"),
            "{replies:?}"
        );
        assert!(replies[3].starts_with("ok epoch"), "{replies:?}");
        // Min-round semantics: the direct edge derives (1,3) at round
        // 0, so the round-1 two-hop derivation no longer folds in.
        assert!(
            replies[4].contains("fix E 1 3 -> P(Q) = 0.5"),
            "{replies:?}"
        );
        assert!(replies[5].starts_with("error:"), "{replies:?}");
        let _ = roundtrip(addr, &["shutdown"]);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn pinned_wire_session_is_isolated_and_server_full_refuses() {
        let (addr, handle) = boot("E(1,2) @ 0.5\nF(2,3) @ 0.5\n", &[]);
        // Reader A pins, reader B writes; A still sees the snapshot.
        let mut a = TcpStream::connect(addr).unwrap();
        writeln!(a, "pin").unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        let mut line = String::new();
        a_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("pinned epoch"), "{line}");
        let b_replies = roundtrip(addr, &["E(1,2) @ 0.9", "? Q() :- E(X,Y), F(Y,Z)", "quit"]);
        assert!(b_replies[1].contains("P(Q) = 0.45"), "{b_replies:?}");
        // A third connection is refused: both slots are taken (the
        // pinned session plus the acceptor's bookkeeping lags B's
        // close) — retry until the pinned session is the only one.
        writeln!(a, "? Q() :- E(X,Y), F(Y,Z)").unwrap();
        line.clear();
        a_reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("P(Q) = 0.25"),
            "pinned read saw the write: {line}"
        );
        writeln!(a, "unpin").unwrap();
        line.clear();
        a_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "ok");
        writeln!(a, "? Q() :- E(X,Y), F(Y,Z)").unwrap();
        line.clear();
        a_reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("P(Q) = 0.45"),
            "unpinned read is current: {line}"
        );
        writeln!(a, "shutdown").unwrap();
        drop(a);
        drop(a_reader);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn wire_updates_report_ticket_epochs_and_write_stats() {
        let (addr, handle) = boot("E(1,2) @ 0.5\nF(2,3) @ 0.5\n", &[("write-queue", "4")]);
        let replies = roundtrip(
            addr,
            &[
                "E(1,2) @ 0.9",
                "E(1,2) @ 0.9", // no-op: state unchanged, epoch stays
                "F(2,3) @ 0.8",
                "E(1,2,3) @ 0.4", // arity mismatch: rejected at enqueue
                "stats",
                "quit",
            ],
        );
        assert_eq!(replies.len(), 5, "{replies:?}");
        assert_eq!(replies[0], "ok epoch 1", "{replies:?}");
        assert_eq!(replies[1], "ok epoch 1", "{replies:?}");
        assert_eq!(replies[2], "ok epoch 2", "{replies:?}");
        assert!(replies[3].starts_with("error:"), "{replies:?}");
        assert!(replies[3].contains("arity"), "{replies:?}");
        let stats = &replies[4];
        assert!(
            stats.contains("writes: 3 commit(s), 3 batch(es)"),
            "{stats}"
        );
        assert!(stats.contains("rejected 1 invalid / 0 full"), "{stats}");
        let shut = roundtrip(addr, &["shutdown"]);
        assert_eq!(shut, vec!["ok: shutting down".to_owned()]);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn server_full_refusal() {
        let (addr, handle) = boot("E(1,2) @ 0.5\n", &[]);
        // Hold both session slots open.
        let mut s1 = TcpStream::connect(addr).unwrap();
        writeln!(s1, "pin").unwrap();
        let mut r1 = BufReader::new(s1.try_clone().unwrap());
        let mut line = String::new();
        r1.read_line(&mut line).unwrap();
        let mut s2 = TcpStream::connect(addr).unwrap();
        writeln!(s2, "pin").unwrap();
        let mut r2 = BufReader::new(s2.try_clone().unwrap());
        line.clear();
        r2.read_line(&mut line).unwrap();
        // The third is refused. Read without writing first: the server
        // answers and closes on accept, and a close with unread inbound
        // bytes would RST away the refusal line.
        let third = TcpStream::connect(addr).unwrap();
        let replies: Vec<String> = BufReader::new(third).lines().map(|l| l.unwrap()).collect();
        assert_eq!(replies.len(), 1, "{replies:?}");
        assert!(replies[0].contains("server full"), "{replies:?}");
        writeln!(s1, "shutdown").unwrap();
        // `try_clone` readers share the fd: the handlers only see EOF
        // once both halves drop.
        drop(s1);
        drop(r1);
        drop(s2);
        drop(r2);
        let _ = handle.join().unwrap();
    }

    #[test]
    fn idle_connection_is_timed_out_and_frees_its_slot() {
        let (addr, handle) = boot_with::<ColumnarRelation<f64>>(
            "E(1,2) @ 0.5\n",
            &[],
            1,
            Duration::from_millis(200),
        );
        // The only slot: pin an epoch, then go silent.
        let mut idle = TcpStream::connect(addr).unwrap();
        writeln!(idle, "pin").unwrap();
        let replies: Vec<String> = BufReader::new(idle.try_clone().unwrap())
            .lines()
            .map(|l| l.unwrap())
            .collect();
        assert_eq!(
            replies,
            vec![
                "pinned epoch 0".to_owned(),
                "error: idle timeout".to_owned()
            ],
            "the timeout line, then EOF"
        );
        drop(idle);
        // The slot was freed before the close, so the next connection
        // is admitted.
        let admitted = roundtrip(addr, &["pin", "quit"]);
        assert_eq!(admitted, vec!["pinned epoch 0".to_owned()]);
        let shut = roundtrip(addr, &["shutdown"]);
        assert_eq!(shut, vec!["ok: shutting down".to_owned()]);
        let _ = handle.join().unwrap();
    }
}
