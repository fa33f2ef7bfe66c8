//! `warm_serve`: one loopback TCP connection, closed loop, one request in
//! flight, sending `analyse` requests for a pre-populated corpus to an
//! in-process `Server::serve_tcp` over a reopened store.  The store's memory
//! tier holds fewer bounds than the corpus has functions and requests cycle
//! through the corpus, so every request is one segment-log read plus a
//! `BoundView` decode and nothing is computed: the `tmg-service/v1` JSON,
//! the scheduler and TCP dominate.

use crate::measure::{self, Phase};
use crate::{
    checker_since, cold, end_to_end, ensure, open_store, repeated_setup, Ctx, Layers, Outcome,
    StoreDelta,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tmg_cfg::function_fingerprint;
use tmg_codegen::automotive::generate_automotive;
use tmg_core::pipeline::bound_key;
use tmg_core::{TieredStore, WcetAnalysis};
use tmg_minic::parse_program;
use tmg_service::json::{self, Value};
use tmg_service::{PersistentStore, PersistentStoreConfig, ServeSummary, Server};

/// Functions in the served corpus: enough that the latency percentiles
/// average over many functions instead of following a few of one seed's.
const CORPUS: usize = 256;
/// Bounds the serving store keeps in memory: fewer than the corpus, so the
/// round-robin request order misses the memory tier every time.
const MEMORY_CAPACITY: usize = 8;
/// Requests per timed chunk (one pass over the corpus).
const CHUNK: usize = CORPUS;
/// Passes over the corpus when timing the layers directly.
const DIRECT_PASSES: usize = 8;
const SALT_CORPUS: u64 = 5 << 40;

/// One corpus function and everything known about it after population.
struct Entry {
    source: String,
    /// The request line, `trace_id` pinned so that every response to it is
    /// byte-identical.
    line: String,
    key: u64,
    bound: u64,
    /// Bytes of its bound record in the segment log (length prefix and
    /// frame), which every warm request reads once.
    record_bytes: u64,
}

fn corpus(seed: u64) -> Result<Vec<Entry>, String> {
    let analysis = WcetAnalysis::new(cold::PATH_BOUND);
    (0..CORPUS)
        .map(|i| {
            let config = cold::config(measure::mix(seed, SALT_CORPUS + i as u64));
            let source = generate_automotive(&config).source;
            let program =
                parse_program(&source).map_err(|e| format!("corpus {i} does not parse: {e}"))?;
            let key = bound_key(&analysis, function_fingerprint(&program.functions[0]), None);
            let id = i + 1;
            let line = format!(
                "{{\"id\": {id}, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {}, \"trace_id\": {id}}}\n",
                json::escape(&source),
                cold::PATH_BOUND
            );
            Ok(Entry {
                source,
                line,
                key,
                bound: 0,
                record_bytes: 0,
            })
        })
        .collect()
}

/// Analyses the corpus into a fresh store at `dir` and flushes it.  Each
/// bound is also published once into a scratch store at `sizes`, whose byte
/// accounting gives the size of its record.
fn populate(dir: &Path, sizes: &Path, corpus: &mut [Entry]) -> Result<(), String> {
    let store = Arc::new(open_store(dir)?);
    let tier: Arc<dyn TieredStore> = store.clone();
    let analysis = WcetAnalysis::new(cold::PATH_BOUND).with_store(tier);
    let scratch = open_store(sizes)?;
    for entry in corpus.iter_mut() {
        let program = parse_program(&entry.source).map_err(|e| e.to_string())?;
        let report = analysis
            .analyse(&program.functions[0])
            .map_err(|e| format!("corpus analysis failed: {e}"))?;
        entry.bound = report.wcet_bound;
        let before = scratch.stats().disk_bytes;
        scratch.put_bound(entry.key, report);
        entry.record_bytes = scratch.stats().disk_bytes - before;
    }
    store.flush();
    Ok(())
}

/// A running server and the one client connection to it.
struct Serving {
    store: Arc<PersistentStore>,
    server: JoinHandle<std::io::Result<ServeSummary>>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The first response to each corpus request; later ones must match it
    /// byte for byte.
    expected: Vec<String>,
}

impl Serving {
    fn round_trip(&mut self, line: &str, response: &mut String) -> Result<(), String> {
        response.clear();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("request write failed: {e}"))?;
        self.reader
            .read_line(response)
            .map_err(|e| format!("response read failed: {e}"))?;
        Ok(())
    }

    /// Shuts the server down and returns its session summary.
    fn shutdown(mut self) -> Result<ServeSummary, String> {
        let mut ack = String::new();
        self.round_trip(
            "{\"id\": 0, \"op\": \"shutdown\", \"trace_id\": 1}\n",
            &mut ack,
        )?;
        drop(self.writer);
        drop(self.reader);
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server failed: {e}"))
    }
}

/// Reopens the populated store, starts the server, connects, and makes one
/// pass over the corpus to record (and check) every answer.
fn serve(dir: &Path, corpus: &[Entry]) -> Result<Serving, String> {
    let config = PersistentStoreConfig::new(dir).with_memory_capacity(MEMORY_CAPACITY);
    let store = Arc::new(
        PersistentStore::with_config(config).map_err(|e| format!("cannot reopen store: {e}"))?,
    );
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local address: {e}"))?;
    let server = Server::new(Arc::clone(&store));
    let server = std::thread::spawn(move || server.serve_tcp(listener));
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the connection: {e}"))?;
    let mut serving = Serving {
        store,
        server,
        reader: BufReader::new(stream),
        writer,
        expected: Vec::with_capacity(corpus.len()),
    };
    let mut response = String::new();
    for (i, entry) in corpus.iter().enumerate() {
        serving.round_trip(&entry.line, &mut response)?;
        let bound = served_bound(&response)
            .ok_or_else(|| format!("corpus request {i} failed: {}", response.trim_end()))?;
        if bound != entry.bound {
            return Err(format!(
                "wrong answer: corpus request {i} served bound {bound}, populated {}",
                entry.bound
            ));
        }
        serving.expected.push(response.clone());
    }
    Ok(serving)
}

/// The bound of a successful single-function `analyse` response.
fn served_bound(response: &str) -> Option<u64> {
    let value = json::parse(response).ok()?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    value
        .get("reports")?
        .as_array()?
        .first()?
        .get("wcet_bound")?
        .as_u64()
}

/// Whether a response is a typed decline (`fault`, `cancelled` or
/// `overloaded`) rather than an answer.
fn is_typed_error(response: &str) -> bool {
    json::parse(response).is_ok_and(|v| {
        v.get("ok").and_then(Value::as_bool) == Some(false)
            && matches!(
                v.get("error_kind").and_then(Value::as_str),
                Some("fault" | "cancelled" | "overloaded")
            )
    })
}

/// Sends corpus requests round-robin for `seconds`.  Returns the ops whose
/// response differed from the recorded answer, for checking after the clock
/// stops.
fn measure(
    serving: &mut Serving,
    corpus: &[Entry],
    phase: &mut Phase,
    seconds: f64,
) -> Result<Vec<(usize, String)>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut differing = Vec::new();
    let mut response = String::new();
    let mut op = 0;
    while Instant::now() < deadline {
        phase.timed(|samples| {
            for entry in corpus.iter().take(CHUNK) {
                samples.op(|| serving.round_trip(&entry.line, &mut response))?;
                if response != serving.expected[op % CORPUS] {
                    differing.push((op, response.clone()));
                }
                op += 1;
            }
            Ok::<(), String>(())
        })?;
    }
    Ok(differing)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Populating the corpus is the fixture, not the system's set-up: set-up
    // is reopening the store, starting the server, connecting and one
    // checked pass, repeated on the same populated directory.
    let mut corpus = corpus(ctx.seed)?;
    let dir = ctx.fresh_dir("warm");
    populate(&dir, &ctx.fresh_dir("warm-sizes"), &mut corpus)?;
    let (setup_s, mut serving) = repeated_setup(
        |_| serve(&dir, &corpus),
        |serving| serving.shutdown().map(drop),
    )?;

    let mut phase = Phase::default();
    let before = StoreDelta::of(&serving.store);
    let checker = tmg_tsys::metrics::snapshot();
    let differing = measure(&mut serving, &corpus, &mut phase, ctx.seconds)?;
    let delta = StoreDelta::of(&serving.store).since(&before);
    let checker = checker_since(&checker);
    let ops = phase.ops();

    let mut failed = 0;
    for (op, response) in &differing {
        if !is_typed_error(response) {
            return Err(format!(
                "wrong answer: request {op} got `{}`, first answered `{}`",
                response.trim_end(),
                serving.expected[op % CORPUS].trim_end()
            ));
        }
        failed += 1;
    }
    ensure(
        delta.total_computes() == 0 && checker.STATES_EXPLORED == 0,
        || {
            format!(
                "warm_serve computed {} artifacts and explored {} states",
                delta.total_computes(),
                checker.STATES_EXPLORED
            )
        },
    )?;
    ensure(delta.zero_copy_hits == (ops as u64 - failed), || {
        format!(
            "warm_serve read {} bounds from the segment log over {ops} answered requests",
            delta.zero_copy_hits
        )
    })?;
    // Derived from the record sizes, not counted while serving: each
    // answered request read its function's bound record once (checked
    // above through the zero-copy hits).
    let read_bytes: u64 = (0..ops).map(|op| corpus[op % CORPUS].record_bytes).sum();

    let metrics = if ctx.trace {
        // Nothing is wrapped on this workload, so the traced run has no
        // overhead: `bench.tracing_overhead_pct` stays 0.
        let mut layers = Layers::default();
        layers.set_store_and_checker(ops, &delta, &checker);
        layers.set_tail(&phase);
        direct_layers(&mut layers, &serving.store, &corpus, &phase)?;
        layers.into_metrics()
    } else {
        end_to_end(setup_s, &phase, read_bytes, failed)?
    };
    let summary = serving.shutdown()?;
    ensure(summary.requests == summary.responses, || {
        format!(
            "the server parsed {} requests but wrote {} responses",
            summary.requests, summary.responses
        )
    })?;
    let answers = corpus
        .iter()
        .enumerate()
        .map(|(i, e)| {
            format!(
                "corpus {i}: bound={} record_bytes={}",
                e.bound, e.record_bytes
            )
        })
        .collect();
    Ok(Outcome {
        attempted: ops as u64,
        failed,
        metrics,
        answers,
    })
}

/// Times the three request-path layers by calling them directly on the
/// corpus: the segment-log read and `BoundView` decode, the request JSON
/// parse and the mini-C parse.  Transport is the mean round trip minus
/// those three.
fn direct_layers(
    layers: &mut Layers,
    store: &PersistentStore,
    corpus: &[Entry],
    phase: &Phase,
) -> Result<(), String> {
    let mut read_ns = 0;
    let mut json_ns = 0;
    let mut parse_ns = 0;
    for _ in 0..DIRECT_PASSES {
        for entry in corpus {
            let start = Instant::now();
            let bound = store.with_bound_view(entry.key, |view| view.map(|v| v.wcet_bound));
            read_ns += start.elapsed().as_nanos();
            if bound != Some(entry.bound) {
                return Err(format!(
                    "wrong answer: direct read of key {:016x} gave {bound:?}, populated {}",
                    entry.key, entry.bound
                ));
            }
            let start = Instant::now();
            let request = json::parse(&entry.line);
            json_ns += start.elapsed().as_nanos();
            request.map_err(|e| format!("request line does not parse: {e}"))?;
            let start = Instant::now();
            let program = parse_program(&entry.source);
            parse_ns += start.elapsed().as_nanos();
            program.map_err(|e| format!("corpus source does not parse: {e}"))?;
        }
    }
    let calls = (DIRECT_PASSES * corpus.len()) as f64;
    let us = |ns: u128| ns as f64 / 1e3 / calls;
    let (read_us, json_us, parse_us) = (us(read_ns), us(json_ns), us(parse_ns));
    layers.set("service.segment.read_us", read_us);
    layers.set("service.json.parse_us", json_us);
    layers.set("minic.parse_us", parse_us);
    layers.set(
        "service.transport_us",
        phase.mean_wall_ms() * 1e3 - read_us - json_us - parse_us,
    );
    Ok(())
}
