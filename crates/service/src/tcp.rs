//! TCP transport for the analysis server.
//!
//! [`Server::serve_tcp`] runs the same `tmg-service/v1` JSON-lines protocol
//! as [`Server::serve`], over a [`TcpListener`] with many concurrent
//! connections.  Each connection is fully pipelined: a client may write any
//! number of request lines before reading responses, and responses arrive
//! in completion order tagged with the request `id`.  All connections
//! submit into one shared scheduler, so backpressure (the bounded queue),
//! deadlines, dedup, and the `stats`/`shutdown` barriers are session-wide,
//! exactly as in stdin mode — response bodies are byte-identical whichever
//! transport delivers them.
//!
//! A `shutdown` request from *any* connection ends the session: the
//! scheduler drains in-flight work, the disk tier is flushed, the ack is
//! written, and then every connection (and the accept loop) is unblocked.
//! EOF on one connection only ends that connection, never the session.
//!
//! Both transports start the same worker pool at session start and share
//! its teardown (`Server::run_session`).

use crate::fault::{damage, FaultKind, STALL_MS};
use crate::server::{LineReader, Respond, Scheduler, ServeSummary, Server};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the accept loop re-checks the session-stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

impl Server {
    /// Serves the `tmg-service/v1` protocol over `listener` until a
    /// `shutdown` request arrives on any connection.
    ///
    /// # Errors
    ///
    /// Returns the first fatal listener error (per-connection and
    /// per-response I/O errors only end the affected connection).
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<ServeSummary> {
        listener.set_nonblocking(true)?;
        let scheduler = Scheduler::new(self.queue_capacity(), self.effective_quota());
        let stop = AtomicBool::new(false);
        let clean = AtomicBool::new(false);
        // One try-cloned handle per accepted connection, so a shutdown can
        // unblock every reader with `Shutdown::Both`.
        let connections: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
        // Connection ordinals label the fair-queuing lanes of clients that
        // declare no tenant.
        let accepted = AtomicU64::new(0);

        self.run_session(&scheduler, || {
            // Connection threads end once their peer closes or a shutdown
            // unblocks every reader; the session is torn down after them.
            std::thread::scope(|scope| {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(false).is_err() {
                                continue;
                            }
                            match stream.try_clone() {
                                Ok(handle) => {
                                    connections.lock().expect("connections").push(handle);
                                }
                                Err(_) => continue,
                            }
                            let ordinal = accepted.fetch_add(1, Ordering::Relaxed);
                            let scheduler = &scheduler;
                            let stop = &stop;
                            let clean = &clean;
                            let connections = &connections;
                            scope.spawn(move || {
                                self.serve_connection(
                                    scheduler,
                                    stream,
                                    stop,
                                    clean,
                                    connections,
                                    ordinal,
                                );
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(e) => {
                            stop.store(true, Ordering::Release);
                            unblock_all(&connections);
                            return Err(e);
                        }
                    }
                }
                Ok(())
            })?;
            Ok(clean.load(Ordering::Acquire))
        })
    }

    /// Reads request lines from one connection until EOF, a read error, or
    /// a session shutdown.  Responses for this connection's requests are
    /// routed back through its own socket, whichever worker computes them.
    ///
    /// A connection that closes while its requests are still computing
    /// does not wedge a worker: the respond closure checks a per-connection
    /// liveness flag, drops the response for a dead socket (counting it in
    /// [`ServeSummary::disconnected`]), and the scheduler's drain
    /// accounting proceeds exactly as for a delivered response.
    fn serve_connection<'env>(
        &self,
        scheduler: &Scheduler<'env>,
        stream: TcpStream,
        stop: &AtomicBool,
        clean: &AtomicBool,
        connections: &Mutex<Vec<TcpStream>>,
        ordinal: u64,
    ) {
        let mut lines = match stream.try_clone() {
            Ok(read_half) => LineReader::new(BufReader::new(read_half)),
            Err(e) => {
                eprintln!("tmg-service: dropping connection: {e}");
                return;
            }
        };
        let alive = Arc::new(AtomicBool::new(true));
        let writer = Mutex::new(stream);
        let respond: Respond<'env> = {
            let alive = Arc::clone(&alive);
            let disconnected = scheduler.disconnected_handle();
            let wire = self.wire_fault_plan().clone();
            Arc::new(move |id, body| {
                if !alive.load(Ordering::Acquire) {
                    disconnected.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let mut writer = writer.lock().expect("tcp writer");
                let line = format!("{{\"id\": {id}, {body}}}\n");
                // Wire-level fault injection, response-write boundary.
                // Each delivery consumes at most ONE armed shot, checked in
                // [`FaultKind::WIRE`] order; the client contract ("never a
                // wrong answer") is preserved because a dropped/torn
                // delivery is indistinguishable from a crash before the
                // write and a duplicate is deduplicated by id.
                if wire.is_armed() {
                    if wire.take(FaultKind::ConnDrop) {
                        let _ = writer.shutdown(Shutdown::Both);
                        alive.store(false, Ordering::Release);
                        disconnected.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    if wire.take(FaultKind::StallMs) {
                        // Delayed, then delivered intact.
                        std::thread::sleep(Duration::from_millis(STALL_MS));
                    } else if wire.take(FaultKind::TornFrame) {
                        let torn = damage(FaultKind::TornFrame, line.as_bytes());
                        let _ = writer.write_all(&torn).and_then(|()| writer.flush());
                        let _ = writer.shutdown(Shutdown::Both);
                        alive.store(false, Ordering::Release);
                        disconnected.fetch_add(1, Ordering::Relaxed);
                        return;
                    } else if wire.take(FaultKind::DupDelivery) {
                        let doubled = format!("{line}{line}");
                        if let Err(e) = writer.write_all(doubled.as_bytes()) {
                            alive.store(false, Ordering::Release);
                            disconnected.fetch_add(1, Ordering::Relaxed);
                            eprintln!("tmg-service: dropping response for request {id}: {e}");
                        }
                        return;
                    }
                }
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    // First write failure marks the connection dead; later
                    // responses for it are dropped without touching the
                    // socket.
                    alive.store(false, Ordering::Release);
                    disconnected.fetch_add(1, Ordering::Relaxed);
                    eprintln!("tmg-service: dropping response for request {id}: {e}");
                }
            })
        };
        let client = format!("conn:{ordinal}");
        // Request lines are bounded (`MAX_REQUEST_BYTES`): an over-long or
        // non-UTF-8 line gets a typed decline and the connection stays up.
        while let Ok(Some(line)) = lines.next_line() {
            if self.dispatch(scheduler, line, &respond, &client) {
                // `shutdown`: the drain + flush already happened and the
                // ack is written.  End the whole session: stop accepting,
                // then unblock every connection's reader (including ours).
                clean.store(true, Ordering::Release);
                stop.store(true, Ordering::Release);
                unblock_all(connections);
                break;
            }
        }
        // EOF or read error: the peer is gone.  Responses still in flight
        // for this connection are dropped (and counted) instead of being
        // written to a dead socket.
        alive.store(false, Ordering::Release);
    }
}

fn unblock_all(connections: &Mutex<Vec<TcpStream>>) {
    for connection in connections.lock().expect("connections").iter() {
        let _ = connection.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::json::{self, Value};
    use crate::store::{PersistentStore, PersistentStoreConfig};
    use std::io::{BufRead, Read};
    use std::net::SocketAddr;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmg-tcp-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_store(root: &std::path::Path) -> Arc<PersistentStore> {
        Arc::new(PersistentStore::with_config(PersistentStoreConfig::new(root)).expect("open"))
    }

    const SOURCE: &str = "void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }";

    /// Writes `lines` to a fresh connection, then reads to EOF and returns
    /// the parsed responses sorted by id.
    fn rpc(addr: SocketAddr, lines: &str) -> Vec<Value> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(lines.as_bytes()).expect("send");
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        let mut responses: Vec<Value> = raw
            .lines()
            .map(|line| json::parse(line).expect("response parses"))
            .collect();
        responses.sort_by_key(|v| v.get("id").and_then(Value::as_u64).unwrap_or(0));
        responses
    }

    #[test]
    fn a_pipelined_tcp_session_round_trips_and_shuts_down() {
        let root = temp_root("roundtrip");
        let server = Server::new(open_store(&root)).with_workers(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
            // All four requests are written before any response is read:
            // the connection is pipelined.
            let script = format!(
                "{}\n{}\n{}\n{}\n",
                format_args!(
                    "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}",
                    json::escape(SOURCE)
                ),
                format_args!(
                    "{{\"id\": 2, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": 100}}",
                    json::escape(SOURCE)
                ),
                "{\"id\": 3, \"op\": \"stats\"}",
                "{\"id\": 4, \"op\": \"shutdown\"}"
            );
            let responses = rpc(addr, &script);
            assert_eq!(responses.len(), 4);
            assert_eq!(
                responses[0].get("ok").and_then(Value::as_bool),
                Some(true),
                "analyse: {responses:?}"
            );
            assert_eq!(responses[1].get("ok").and_then(Value::as_bool), Some(true));
            assert!(
                responses[2]
                    .get("stats")
                    .and_then(|s| s.get("latency"))
                    .is_some(),
                "stats over TCP carries the latency histograms"
            );
            assert_eq!(
                responses[3].get("flushed").and_then(Value::as_bool),
                Some(true)
            );
            let summary = handle.join().expect("server thread");
            assert!(summary.clean_shutdown);
            assert!(summary.flushed);
            assert_eq!(summary.requests, 4);
            assert_eq!(summary.responses, 4);
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_shutdown_from_one_connection_unblocks_the_others() {
        let root = temp_root("multi");
        let server = Server::new(open_store(&root)).with_workers(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
            // Connection A sends work and reads its response, but never
            // closes or shuts down — it idles, blocked on the next line.
            let mut idle = TcpStream::connect(addr).expect("connect A");
            let request = format!(
                "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n",
                json::escape(SOURCE)
            );
            idle.write_all(request.as_bytes()).expect("send A");
            let mut reader = BufReader::new(idle.try_clone().expect("clone A"));
            let mut first = String::new();
            reader.read_line(&mut first).expect("A's own response");
            let parsed = json::parse(&first).expect("A response parses");
            assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));

            // Connection B shuts the whole session down; A's blocked read
            // must return (EOF), not hang.
            let responses = rpc(addr, "{\"id\": 9, \"op\": \"shutdown\"}\n");
            assert_eq!(responses.len(), 1);
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            assert_eq!(rest, "", "A gets EOF after B's shutdown");
            let summary = handle.join().expect("server thread");
            assert!(summary.clean_shutdown);
            assert_eq!(summary.requests, 2);
            assert_eq!(summary.responses, 2);
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tcp_and_stdin_responses_are_byte_identical() {
        // Trace ids are pinned: auto-assigned ones come from a
        // process-wide counter and would differ between the two runs.
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 4, \"trace_id\": 1}}\n\
             {{\"id\": 2, \"op\": \"shutdown\", \"trace_id\": 2}}\n",
            json::escape(SOURCE)
        );

        let root_stdin = temp_root("ident-stdin");
        let stdin_server = Server::new(open_store(&root_stdin)).with_workers(2);
        let mut out = Vec::new();
        stdin_server
            .serve(std::io::Cursor::new(script.clone()), &mut out)
            .expect("stdin serve");
        let stdin_lines: Vec<String> = String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(str::to_owned)
            .collect();

        let root_tcp = temp_root("ident-tcp");
        let tcp_server = Server::new(open_store(&root_tcp)).with_workers(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let tcp_lines = std::thread::scope(|scope| {
            let handle = scope.spawn(|| tcp_server.serve_tcp(listener).expect("serve_tcp"));
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(script.as_bytes()).expect("send");
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            handle.join().expect("server thread");
            raw.lines().map(str::to_owned).collect::<Vec<_>>()
        });
        assert_eq!(
            stdin_lines, tcp_lines,
            "the two transports must produce byte-identical response lines"
        );
        let _ = std::fs::remove_dir_all(&root_stdin);
        let _ = std::fs::remove_dir_all(&root_tcp);
    }

    #[test]
    fn a_client_disconnecting_mid_compute_does_not_wedge_a_worker() {
        let root = temp_root("disconnect");
        // One worker: if the dead connection wedged it, the follow-up
        // request below would never be answered and the test would hang.
        let server = Server::new(open_store(&root)).with_workers(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
            // Submit a multi-millisecond sweep, then vanish without
            // reading the response.  The server-side reader hits EOF
            // (microseconds) long before the compute finishes, so the
            // response targets a connection already known to be dead.
            let request = format!(
                "{{\"id\": 1, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": 100}}\n",
                json::escape(SOURCE)
            );
            {
                let mut ghost = TcpStream::connect(addr).expect("connect ghost");
                ghost.write_all(request.as_bytes()).expect("send ghost");
            } // dropped: the peer is gone mid-compute
              // A healthy client still gets served by the same worker.
            let script = format!(
                "{{\"id\": 2, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
                 {{\"id\": 3, \"op\": \"shutdown\"}}\n",
                json::escape(SOURCE)
            );
            let responses = rpc(addr, &script);
            assert_eq!(responses.len(), 2, "worker survived the dead socket");
            assert_eq!(responses[0].get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(
                responses[1].get("flushed").and_then(Value::as_bool),
                Some(true)
            );
            let summary = handle.join().expect("server thread");
            assert_eq!(
                summary.disconnected, 1,
                "the dropped response must be counted, not written"
            );
            assert!(summary.clean_shutdown);
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Reads exactly `n` response lines from an open connection (which,
    /// unlike [`rpc`], the server keeps serving afterwards).
    fn read_lines(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read line");
                line
            })
            .collect()
    }

    #[test]
    fn every_wire_fault_kind_fires_on_the_tcp_path() {
        let root = temp_root("wire-faults");
        let plan = FaultPlan::none()
            .with(FaultKind::ConnDrop, 1)
            .with(FaultKind::StallMs, 1)
            .with(FaultKind::TornFrame, 1)
            .with(FaultKind::DupDelivery, 1);
        let server = Server::new(open_store(&root))
            .with_workers(2)
            .with_wire_faults(plan.clone());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let request = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n",
            json::escape(SOURCE)
        );
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));

            // Shot 1, conn_drop: the connection dies instead of answering.
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(request.as_bytes()).expect("send");
            let mut raw = String::new();
            let _ = c.read_to_string(&mut raw);
            assert_eq!(raw, "", "conn_drop delivers nothing, only EOF");

            // Shot 2, stall_ms: the answer arrives, just late.
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(request.as_bytes()).expect("send");
            let mut reader = BufReader::new(c.try_clone().expect("clone"));
            let lines = read_lines(&mut reader, 1);
            let parsed = json::parse(&lines[0]).expect("stalled response parses");
            assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
            drop(reader);
            drop(c);

            // Shot 3, torn_frame: a half-written line with no newline,
            // then EOF — a client must treat it as a failed delivery.
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(request.as_bytes()).expect("send");
            let mut raw = String::new();
            let _ = c.read_to_string(&mut raw);
            assert!(
                !raw.is_empty() && !raw.ends_with('\n'),
                "torn frame: {raw:?}"
            );
            assert!(json::parse(&raw).is_err(), "a torn frame must not parse");

            // Shot 4, dup_delivery: the same response line twice; a
            // client deduplicating by id sees one answer.
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(request.as_bytes()).expect("send");
            let mut reader = BufReader::new(c.try_clone().expect("clone"));
            let lines = read_lines(&mut reader, 2);
            assert_eq!(lines[0], lines[1], "duplicate delivery is bit-identical");
            drop(reader);
            drop(c);

            // The plan is spent: stats and shutdown answer normally, and
            // the resilience counters report every shot.
            let responses = rpc(
                addr,
                "{\"id\": 8, \"op\": \"stats\"}\n{\"id\": 9, \"op\": \"shutdown\"}\n",
            );
            assert_eq!(responses.len(), 2);
            let wire = responses[0]
                .get("stats")
                .and_then(|s| s.get("resilience"))
                .and_then(|r| r.get("wire_faults"))
                .expect("stats carries wire fault counters");
            for kind in FaultKind::WIRE {
                assert_eq!(
                    wire.get(kind.name()).and_then(Value::as_u64),
                    Some(1),
                    "{} must have fired once",
                    kind.name()
                );
            }
            let summary = handle.join().expect("server thread");
            // conn_drop and torn_frame each killed a connection at
            // respond time.
            assert_eq!(summary.disconnected, 2);
            assert_eq!(plan.total_fired(), 4);
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_resident_answer_over_tcp_is_byte_identical_and_counted() {
        let root = temp_root("resident");
        let server = Server::new(open_store(&root)).with_workers(2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let analyse = |id: u64, source: &str, extra: &str| {
            format!(
                "{{\"id\": {id}, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2{extra}}}\n",
                json::escape(source)
            )
        };
        let edited = SOURCE.replacen("x()", "z()", 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            // Closed loop: each response is read before the next request
            // is sent, so the second request finds the first one's bound.
            let mut round_trip = |line: &str| {
                stream.write_all(line.as_bytes()).expect("send");
                read_lines(&mut reader, 1).remove(0)
            };
            let miss = round_trip(&analyse(1, SOURCE, ", \"trace_id\": 5"));
            let hit = round_trip(&analyse(1, SOURCE, ", \"trace_id\": 5"));
            let other = round_trip(&analyse(2, &edited, ""));
            let zero = round_trip(&analyse(3, SOURCE, ", \"deadline_ms\": 0"));
            // A scheduled job may still be finishing after its response is
            // written; the `stats` barrier waits for it, so the shutdown
            // after the last resident answer finds nothing outstanding.
            round_trip("{\"id\": 4, \"op\": \"stats\"}\n");
            let last = round_trip(&analyse(5, SOURCE, ""));
            let ack = round_trip("{\"id\": 6, \"op\": \"shutdown\"}\n");
            assert_eq!(hit, miss, "a resident answer is byte-identical");
            let hit = json::parse(&hit).expect("parses");
            assert_eq!(hit.get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(hit.get("trace_id").and_then(Value::as_u64), Some(5));
            let other = json::parse(&other).expect("parses");
            assert_eq!(other.get("ok").and_then(Value::as_bool), Some(true));
            let zero = json::parse(&zero).expect("parses");
            assert_eq!(
                zero.get("error_kind").and_then(Value::as_str),
                Some("cancelled")
            );
            let last = json::parse(&last).expect("parses");
            assert_eq!(last.get("reports"), hit.get("reports"));
            let ack = json::parse(&ack).expect("parses");
            assert_eq!(ack.get("drained").and_then(Value::as_u64), Some(0));
            let summary = handle.join().expect("server thread");
            assert_eq!(summary.resident, 2, "only the repeats were resident");
            assert_eq!(summary.expired, 1);
            assert_eq!(summary.requests, 7);
            assert_eq!(summary.responses, 7);
            assert!(summary.clean_shutdown);
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_over_long_line_is_declined_and_the_connection_keeps_serving() {
        let root = temp_root("long-line");
        let server = Server::new(open_store(&root)).with_workers(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_tcp(listener).expect("serve_tcp"));
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let long = format!(
                "{{\"id\": 1, \"op\": \"stats\", \"pad\": \"{}\"}}\n",
                "x".repeat(crate::MAX_REQUEST_BYTES)
            );
            // Written from another thread: the server reads (and drops) the
            // line while it arrives, long before this side reads anything.
            let writer = scope.spawn(move || {
                stream.write_all(long.as_bytes()).expect("send long line");
                stream
                    .write_all(
                        b"{\"id\": 2, \"op\": \"stats\"}\n{\"id\": 3, \"op\": \"shutdown\"}\n",
                    )
                    .expect("send");
                stream
            });
            let lines = read_lines(&mut reader, 3);
            drop(writer.join().expect("writer"));
            let declined = json::parse(&lines[0]).expect("parses");
            assert_eq!(
                declined.get("error_kind").and_then(Value::as_str),
                Some("fault")
            );
            let error = declined
                .get("error")
                .and_then(Value::as_str)
                .expect("error");
            assert!(
                error.starts_with("invalid request: request line longer than"),
                "{error}"
            );
            let stats = json::parse(&lines[1]).expect("parses");
            assert_eq!(stats.get("id").and_then(Value::as_u64), Some(2));
            assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
            let summary = handle.join().expect("server thread");
            assert_eq!(summary.requests, 3);
            assert!(summary.clean_shutdown);
        });
        let _ = std::fs::remove_dir_all(&root);
    }
}
