//! Chaos soak for the end-to-end client/server resilience stack.
//!
//! [`chaos`] drives the loadtest's deterministic request mix through real
//! [`tmg_client::Client`]s against a real server *process* (this binary
//! re-spawned as `serve --tcp 127.0.0.1:0 --announce <file>`), twice:
//!
//! 1. **Reference phase** — a fault-free server populates the segment log
//!    and every slot's normalized answer is recorded; the phase ends with
//!    a clean shutdown so the log is sealed.
//! 2. **Soak phase** — the same mix re-runs with every wire fault kind
//!    armed over `TMG_FAULT_PLAN` (`conn_drop`, `stall_ms`, `torn_frame`,
//!    `dup_delivery`) while the harness `kill -9`s the server mid-soak and
//!    restarts it on a fresh port, repointing the live clients with
//!    [`tmg_client::Client::set_addr`].
//!
//! The soak asserts the full resilience contract:
//!
//! * **zero wrong answers** — every non-deadline slot is answered `ok`,
//!   bit-identical (modulo `id`) to the reference phase; deadline slots
//!   are declined with the typed `cancelled` both times;
//! * **no silent loss** — a slot either gets its answer or a *typed*
//!   [`tmg_client::ClientError`]; the harness treats anything else as a
//!   failure;
//! * **bounded recovery** — each kill's restart (spawn, announce, repoint,
//!   first answered probe) completes within the configured budget;
//! * **warm restart** — the restarted server does no model-checker or
//!   measurement work: its final `stats` snapshot reports zero
//!   prepare-model, testgen, measure and bound computes and zero checker
//!   states explored — every bound was served from the segment log the
//!   reference phase sealed, so the memory-only prepared model and
//!   measurement campaign are never needed.  (Lowering and partitioning
//!   are memory-only too, so a restarted `sweep` legitimately re-lowers.)
//! * **every wire fault kind fired** — the restarted server's
//!   `resilience.wire_faults` counters are all non-zero (the harness
//!   burns extra deliveries after the mix until the armed shots fire).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tmg_client::{Client, ClientConfig, ClientError, ClientStats};
use tmg_core::Stage;
use tmg_service::json::{self, Value};
use tmg_service::FaultKind;

use crate::loadtest::HOT_SOURCE;

/// The wire fault plan the soak phase arms on every server process it
/// spawns: a couple of shots of each deterministic network fault kind.
pub const WIRE_PLAN: &str = "conn_drop:2,stall_ms:2,torn_frame:2,dup_delivery:2";

/// The stages whose computation is model-checker or measurement work.
/// Testgen and bound are persisted in the segment log; the memory-only
/// prepare-model and measure stages run only below a bound miss, so a warm
/// restart computes none of the four.
const CHECKER_AND_MEASURE_STAGES: [Stage; 4] = [
    Stage::PrepareModel,
    Stage::Testgen,
    Stage::Measure,
    Stage::Bound,
];

/// Shape of one chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Requests per phase (the soak phase replays the same slots).
    pub requests: usize,
    /// Concurrent client threads (each owns one reconnecting [`Client`]).
    pub connections: usize,
    /// Server `kill -9` + restart cycles during the soak phase.
    pub kills: usize,
    /// Per-kill budget from `kill` to the first answered probe.
    pub recovery_budget: Duration,
}

impl ChaosConfig {
    /// The full soak: enough slots for every kill to land under load.
    pub fn full() -> ChaosConfig {
        ChaosConfig {
            requests: 240,
            connections: 3,
            kills: 2,
            recovery_budget: Duration::from_secs(30),
        }
    }

    /// The CI smoke: one kill, a small mix, the same assertions.
    pub fn quick() -> ChaosConfig {
        ChaosConfig {
            requests: 60,
            connections: 2,
            kills: 1,
            recovery_budget: Duration::from_secs(30),
        }
    }
}

/// What the soak observed (after every assertion already passed).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Slots driven across both phases.
    pub requests: u64,
    /// `ok` answers across both phases.
    pub ok: u64,
    /// Typed `cancelled` declines (the mix's deadline slots), both phases.
    pub cancelled: u64,
    /// Soak-phase answers verified bit-identical to the reference phase.
    pub verified_identical: u64,
    /// Kill/restart cycles executed.
    pub kills: u64,
    /// Per-kill recovery time (kill → first answered probe).
    pub recovery: Vec<Duration>,
    /// Final-server wire fault counters, one `(kind, fired)` per kind.
    pub wire_faults: Vec<(&'static str, u64)>,
    /// The restarted server's prepare-model, testgen, measure and bound
    /// computes (must be 0: no model-checker or measurement work).
    pub restart_computes: u64,
    /// Checker states the restarted server explored (must be 0).
    pub restart_states_explored: u64,
    /// Aggregated client-side resilience counters across the mix clients.
    pub client: ClientStats,
    /// Wall clock of the whole soak (both phases).
    pub wall: Duration,
}

impl ChaosReport {
    /// Total wire fault shots that fired on the final server.
    pub fn wire_faults_fired(&self) -> u64 {
        self.wire_faults.iter().map(|(_, n)| n).sum()
    }
}

/// The request body (no `id` — the client assigns and pins it) for slot
/// `i`: the loadtest's deterministic duplicate-heavy / cache-hostile /
/// deadline-violating mix, with the shared `trace_id` pin that keeps
/// responses deterministic across schedulers.
pub fn mix_body(i: usize) -> String {
    if is_deadline_slot(i) {
        return format!(
            "\"trace_id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"deadline_ms\": 0",
            json::escape(HOT_SOURCE)
        );
    }
    match i % 3 {
        0 => format!(
            "\"trace_id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2",
            json::escape(HOT_SOURCE)
        ),
        1 => {
            let range = 1 + i % 4;
            let pivot = i % 3;
            let source = format!(
                "void cold_{i}(char a __range(0, {range})) {{ if (a > {pivot}) {{ x(); }} else {{ y(); }} }}"
            );
            format!(
                "\"trace_id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2",
                json::escape(&source)
            )
        }
        _ => format!(
            "\"trace_id\": 1, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": 40",
            json::escape(HOT_SOURCE)
        ),
    }
}

/// Whether slot `i` is a deadline-violating request, declined with a typed
/// `cancelled` in both phases.
pub fn is_deadline_slot(i: usize) -> bool {
    i % 7 == 3
}

/// The retry policy the mix clients run under: budgets generous enough to
/// ride out a kill/restart window (connect-refused retries are cheap), a
/// hedge threshold for stragglers, no per-request deadline.
fn mix_client_config() -> ClientConfig {
    ClientConfig {
        base_backoff_ms: 10,
        max_backoff_ms: 400,
        max_attempts: 24,
        deadline_ms: None,
        hedge_after_ms: Some(400),
        connect_timeout_ms: 1_000,
    }
}

/// Runs the chaos soak end to end and returns the (already asserted)
/// report.
///
/// # Panics
///
/// Panics on any broken resilience promise: a wrong or missing answer, an
/// unexpectedly typed outcome, an over-budget recovery, model-checker or
/// measurement work after the restart, or a wire fault kind that never
/// fired.
pub fn chaos(config: &ChaosConfig) -> ChaosReport {
    let started = Instant::now();
    let exe = std::env::current_exe().expect("current exe");
    let root = std::env::temp_dir().join(format!("tmg-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create chaos scratch root");
    let n = config.requests;
    let kills = config.kills.max(1);

    // Reference phase: fault-free server, clean shutdown (seals the log).
    let announce = root.join("announce-a");
    let mut server = spawn_server(&exe, &root, None, &announce);
    let addr = await_addr(&announce, &mut server);
    let clients: Vec<Arc<Client>> = (0..config.connections.max(1))
        .map(|_| Arc::new(Client::new(addr, mix_client_config())))
        .collect();
    let progress = AtomicUsize::new(0);
    let reference = run_phase(&clients, n, &progress, || {});
    shutdown(addr);
    server.wait().expect("reap reference server");
    let (ref_ok, ref_cancelled) = verify_phase(&reference);

    // Soak phase: wire faults armed, kills mid-mix.  The same clients stay
    // alive across the phase boundary — their internal answer maps extend
    // the bit-identical check across phases on their own.
    let announce = root.join("announce-b0");
    let mut server = spawn_server(&exe, &root, Some(WIRE_PLAN), &announce);
    let addr = await_addr(&announce, &mut server);
    for client in &clients {
        client.set_addr(addr);
    }
    let progress = AtomicUsize::new(0);
    let mut recovery = Vec::new();
    let soak = run_phase(&clients, n, &progress, || {
        for k in 1..=kills {
            let target = n * k / (kills + 1);
            while progress.load(Ordering::Relaxed) < target {
                std::thread::sleep(Duration::from_millis(2));
            }
            let killed_at = Instant::now();
            server.kill().expect("kill soak server");
            server.wait().expect("reap killed server");
            let announce = root.join(format!("announce-b{k}"));
            server = spawn_server(&exe, &root, Some(WIRE_PLAN), &announce);
            let addr = await_addr(&announce, &mut server);
            for client in &clients {
                client.set_addr(addr);
            }
            // Recovery ends at the first *answered* probe through a fresh
            // client (the restarted server must actually serve, not just
            // announce).
            let probe = Client::new(addr, mix_client_config());
            probe
                .request(&mix_body(0))
                .expect("recovery probe must be answered");
            let elapsed = killed_at.elapsed();
            assert!(
                elapsed <= config.recovery_budget,
                "kill {k} recovery took {elapsed:?} (budget {:?})",
                config.recovery_budget
            );
            recovery.push(elapsed);
        }
    });
    let (soak_ok, soak_cancelled) = verify_phase(&soak);

    // Cross-phase bit-identity: every answered slot of the soak must match
    // the reference phase byte for byte (modulo the request id).
    let mut verified_identical = 0u64;
    for (i, (a, b)) in reference.iter().zip(&soak).enumerate() {
        if let (Some(Ok(reference)), Some(Ok(soaked))) = (a, b) {
            assert_eq!(
                reference, soaked,
                "slot {i} answered differently under chaos"
            );
            verified_identical += 1;
        }
    }

    // Burn deliveries on the final server until every armed wire fault
    // kind has fired at least once, then take the closing stats snapshot.
    let final_addr = clients[0].addr();
    let mut wire_faults = Vec::new();
    let mut restart_computes = u64::MAX;
    let mut restart_states_explored = u64::MAX;
    for round in 0..40 {
        let probe = Client::new(final_addr, mix_client_config());
        let stats = probe
            .request("\"op\": \"stats\"")
            .expect("final stats snapshot")
            .value();
        let stats = stats.get("stats").expect("stats payload").clone();
        restart_computes = CHECKER_AND_MEASURE_STAGES
            .iter()
            .map(|stage| {
                stats
                    .get("disk")
                    .and_then(|d| d.get(stage.name()))
                    .and_then(|s| s.get("computes"))
                    .and_then(Value::as_u64)
                    .expect("per-stage computes counter")
            })
            .sum();
        restart_states_explored = stats
            .get("checker")
            .and_then(|c| c.get("states_explored"))
            .and_then(Value::as_u64)
            .expect("checker states_explored counter");
        wire_faults = FaultKind::WIRE
            .iter()
            .map(|kind| {
                let fired = stats
                    .get("resilience")
                    .and_then(|r| r.get("wire_faults"))
                    .and_then(|w| w.get(kind.name()))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                (kind.name(), fired)
            })
            .collect();
        if wire_faults.iter().all(|(_, fired)| *fired >= 1) {
            break;
        }
        assert!(
            round < 39,
            "armed wire faults never all fired: {wire_faults:?}"
        );
        // Each delivery consumes at most one armed shot; feed it more.
        let _ = probe.request(&mix_body(0));
    }
    assert_eq!(
        restart_computes, 0,
        "the restarted server must serve every checker and measurement artifact from the segment log"
    );
    assert_eq!(
        restart_states_explored, 0,
        "the restarted server must explore no checker state"
    );

    shutdown(final_addr);
    server.wait().expect("reap soak server");
    let _ = std::fs::remove_dir_all(&root);

    let mut client = ClientStats::default();
    for c in &clients {
        let s = c.stats();
        client.requests += s.requests;
        client.retries += s.retries;
        client.connects += s.connects;
        client.hedges += s.hedges;
        client.duplicates_dropped += s.duplicates_dropped;
        client.torn_frames += s.torn_frames;
        client.overloaded_retries += s.overloaded_retries;
    }

    ChaosReport {
        requests: 2 * n as u64,
        ok: ref_ok + soak_ok,
        cancelled: ref_cancelled + soak_cancelled,
        verified_identical,
        kills: kills as u64,
        recovery,
        wire_faults,
        restart_computes,
        restart_states_explored,
        client,
        wall: started.elapsed(),
    }
}

/// Drives slots `0..n` through the clients (slot `i` on client
/// `i % clients.len()`), running `during` on the calling thread while the
/// worker threads are live — the soak phase's kill schedule runs there.
fn run_phase(
    clients: &[Arc<Client>],
    n: usize,
    progress: &AtomicUsize,
    during: impl FnOnce(),
) -> Vec<Option<Result<String, ClientError>>> {
    let results = Mutex::new(vec![None; n]);
    std::thread::scope(|scope| {
        for (t, client) in clients.iter().enumerate() {
            let results = &results;
            let stride = clients.len();
            scope.spawn(move || {
                let mut i = t;
                while i < n {
                    let outcome = client.request(&mix_body(i)).map(|r| r.normalized());
                    results.lock().expect("results")[i] = Some(outcome);
                    progress.fetch_add(1, Ordering::Relaxed);
                    i += stride;
                }
            });
        }
        during();
    });
    results.into_inner().expect("results")
}

/// Asserts every slot resolved with its expected typed outcome and returns
/// `(ok, cancelled)` counts.
fn verify_phase(results: &[Option<Result<String, ClientError>>]) -> (u64, u64) {
    let mut ok = 0u64;
    let mut cancelled = 0u64;
    for (i, slot) in results.iter().enumerate() {
        let outcome = slot.as_ref().expect("every slot must be driven");
        if is_deadline_slot(i) {
            assert_eq!(
                outcome.as_ref().err(),
                Some(&ClientError::Cancelled),
                "deadline slot {i} must be declined with the typed cancelled: {outcome:?}"
            );
            cancelled += 1;
        } else {
            assert!(
                outcome.is_ok(),
                "slot {i} lost its answer: {:?}",
                outcome.as_ref().err()
            );
            ok += 1;
        }
    }
    (ok, cancelled)
}

/// Spawns this binary as `serve --tcp 127.0.0.1:0 --announce <file>` over
/// the shared cache root, with the wire fault plan armed when given.
fn spawn_server(exe: &Path, root: &PathBuf, fault_plan: Option<&str>, announce: &Path) -> Child {
    let mut command = Command::new(exe);
    command
        .arg("serve")
        .arg("--tcp")
        .arg("127.0.0.1:0")
        .arg("--announce")
        .arg(announce)
        .env("TMG_CACHE_DIR", root)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    match fault_plan {
        Some(plan) => command.env("TMG_FAULT_PLAN", plan),
        None => command.env_remove("TMG_FAULT_PLAN"),
    };
    command.spawn().expect("spawn chaos server child")
}

/// Polls the announce file until the child publishes its bound address.
fn await_addr(announce: &Path, child: &mut Child) -> SocketAddr {
    let started = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(announce) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        if let Some(status) = child.try_wait().expect("child status") {
            panic!("chaos server exited before announcing its address: {status}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "chaos server never announced its address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Ends a server session over a throwaway client.  The ack is allowed to
/// be lost to a still-armed wire fault — shutdown is triggered by the
/// *request*, and the callers `wait()` on the child either way.
fn shutdown(addr: SocketAddr) {
    let client = Client::new(addr, mix_client_config());
    let _ = client.request("\"op\": \"shutdown\"");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_deterministic_duplicate_heavy_and_deadline_violating() {
        let bodies: Vec<String> = (0..42).map(mix_body).collect();
        assert_eq!(bodies, (0..42).map(mix_body).collect::<Vec<_>>());
        // Duplicate-heavy: the hot analyse repeats verbatim across slots.
        assert_eq!(bodies[0], bodies[6]);
        // Cache-hostile: cold slots are pairwise distinct.
        assert_ne!(bodies[1], bodies[7]);
        // Deadline slots exist and are typed as such.
        let deadlines = (0..42).filter(|&i| is_deadline_slot(i)).count();
        assert_eq!(deadlines, 6);
        assert!(bodies[3].contains("\"deadline_ms\": 0"));
        // No slot carries an id — the client owns id assignment.
        assert!(bodies.iter().all(|b| !b.contains("\"id\"")));
    }

    #[test]
    fn the_quick_config_is_a_strict_shrink_of_the_full_soak() {
        let (quick, full) = (ChaosConfig::quick(), ChaosConfig::full());
        assert!(quick.requests < full.requests);
        assert!(quick.kills <= full.kills && quick.kills >= 1);
        assert_eq!(quick.recovery_budget, full.recovery_budget);
        // Every kill point must land strictly inside the mix.
        for config in [quick, full] {
            for k in 1..=config.kills {
                let target = config.requests * k / (config.kills + 1);
                assert!(target > 0 && target < config.requests);
            }
        }
    }
}
