//! Degraded-mode and hostile-client tests: a daemon whose store starts
//! failing writes must shed admissions (never die), keep serving what it
//! has, and recover by itself when the store heals — with every byte it
//! ever acknowledges identical to an unfaulted run. Clients that idle,
//! send unbounded lines, or stop reading are evicted, not accumulated.
//!
//! All fault rules filter on this test's own temp store path, so
//! parallel tests (and the reference runs) never see each other's
//! faults.

use dramctrl_campaign::runner::run_job;
use dramctrl_campaign::{run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig};
use dramctrl_kernel::fsio::fault;
use dramctrl_serve::proto;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, Listener, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-degraded-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn campaign(name: &str) -> Campaign {
    Campaign::new(name, 42)
        .read_pcts([0, 50, 100])
        .requests([5_000])
}

/// What a standalone journaled sweep of `c` produces — both the report
/// lines and the journal file itself (the byte-identity references).
fn reference(c: &Campaign, dir: &PathBuf) -> (String, String) {
    std::fs::create_dir_all(dir).unwrap();
    let jpath = dir.join("ref.jsonl");
    let mut j = CampaignJournal::create(&jpath, c).unwrap();
    let report = run_campaign_journaled(c, &ExecutorConfig::serial(), &mut j, run_job).to_jsonl();
    (report, std::fs::read_to_string(&jpath).unwrap())
}

/// Daemon on an ephemeral TCP port with a quantum so large no unit ever
/// pauses — no checkpoint writes, so a store-wide fault filter only ever
/// hits the accept log, the journals and the recovery probe.
fn spawn(cfg: ServeConfig) -> (String, Server) {
    spawn_at(cfg, "127.0.0.1:0")
}

/// [`spawn`] listening on `addr` (a host:port or a Unix socket path).
fn spawn_at(cfg: ServeConfig, addr: &str) -> (String, Server) {
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind(addr).expect("bind");
    let addr = listener.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
    }
    (addr, server)
}

fn collect_records(client: &mut Client, id: &str) -> String {
    let mut out = std::collections::BTreeMap::new();
    client
        .watch(id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                out.insert(i, proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    out.into_values().map(|l| l + "\n").collect()
}

/// Like [`collect_records`], but rides through evictions: a fresh
/// connection per retry, replayed history deduped by unit index.
fn collect_records_resilient(addr: &str, id: &str) -> String {
    let mut out = std::collections::BTreeMap::new();
    Client::watch_with_reconnect(addr, id, |v, line| {
        if v.get("event").and_then(Value::as_str) == Some("record") {
            let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
            out.insert(i, proto::record_data(line).unwrap().to_owned());
        }
    })
    .unwrap();
    out.into_values().map(|l| l + "\n").collect()
}

fn wait_until(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn faulting_store_sheds_submits_and_daemon_recovers_without_restart() {
    let root = tmp("shed");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 1_000_000;
    let (addr, server) = spawn(cfg);
    let c = campaign("sweep");
    let (want, _) = reference(&c, &root.join("ref"));

    // Healthy baseline: a submit+watch round trip works and matches the
    // standalone run byte for byte.
    let mut client = Client::connect(&addr).unwrap();
    let (id1, _) = client.submit("alice", 0, &c).unwrap();
    assert_eq!(collect_records(&mut client, &id1), want);
    assert!(server.health().is_ok());

    // Break every durable write under this store.
    let guard = fault::arm_str(&format!("enospc,path={}", store.display())).unwrap();

    // The first submit trips over the store and flips the daemon into
    // degraded mode; it and every later submit shed with a
    // store-unavailable rejection — no panic, no exit.
    for _ in 0..2 {
        let err = Client::connect(&addr)
            .unwrap()
            .submit("bob", 0, &c)
            .unwrap_err();
        assert!(err.to_string().contains("store unavailable"), "{err}");
    }

    // Degraded is visible: health 503 body, gauge at 1 — while reads
    // (status, completed-job watch) keep working from memory.
    let body = server.health().unwrap_err();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(server
        .metrics_exposition()
        .contains("dramctrl_store_degraded 1"));
    assert_eq!(collect_records(&mut client, &id1), want);
    client.status().unwrap();

    // Heal the store: the scheduler's backoff retry recovers on its own.
    drop(guard);
    wait_until("store recovery", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let text = server.metrics_exposition();
    assert!(text.contains("dramctrl_store_degraded 0"), "{text}");
    assert!(
        !text.contains("dramctrl_store_retries_total 0"),
        "at least one retry was recorded:\n{text}"
    );

    // Post-recovery submits work and are still byte-exact.
    let mut after = Client::connect(&addr).unwrap();
    let (id2, _) = after.submit("bob", 0, &c).unwrap();
    assert_eq!(collect_records(&mut after, &id2), want);
}

#[test]
fn torn_commit_parks_the_outcome_and_recovery_lands_it_byte_identically() {
    let root = tmp("parked");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 1_000_000;
    let (addr, server) = spawn(cfg);
    let c = campaign("sweep");
    let (want, want_journal) = reference(&c, &root.join("ref"));

    // Writes under this store, in order: accept line (1), journal
    // header (2), then one commit per unit. Tear exactly the first
    // commit mid-record; the window heals everything after it, so the
    // daemon's own retry loop recovers with no outside help.
    let _guard = fault::arm_str(&format!(
        "short,op=write,path={},from=3,to=3",
        store.display()
    ))
    .unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &c).unwrap();
    // The watch rides through the fault: the unit's outcome is parked,
    // recovery truncates the torn journal bytes, re-commits, and the
    // stream continues — no record lost, none duplicated.
    assert_eq!(collect_records(&mut client, &id), want);

    // The journal on disk is byte-identical to an unfaulted standalone
    // run: the torn tail left by the short write is gone.
    let journal = std::fs::read_to_string(store.join(&id).join("journal.jsonl")).unwrap();
    assert_eq!(journal, want_journal, "torn bytes must not survive");

    wait_until("degraded exit", Duration::from_secs(10), || {
        server.health().is_ok()
    });
    let text = server.metrics_exposition();
    assert!(text.contains("dramctrl_store_degraded 0"), "{text}");
}

#[test]
fn idle_clients_are_evicted_at_the_read_deadline() {
    let root = tmp("idle");
    let mut cfg = ServeConfig::new(root.join("store"));
    cfg.client_timeout = Some(Duration::from_millis(250));
    let (addr, server) = spawn(cfg);

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"hello\""), "{line}");

    // Send nothing. The daemon must hang up on us at the deadline.
    let started = Instant::now();
    line.clear();
    let n = reader.read_line(&mut line).unwrap();
    assert_eq!(n, 0, "daemon closed the idle connection, got {line:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "eviction took {:?}",
        started.elapsed()
    );
    wait_until("eviction counter", Duration::from_secs(5), || {
        server
            .metrics_exposition()
            .lines()
            .any(|l| l.starts_with("dramctrl_clients_evicted_total") && !l.ends_with(" 0"))
    });
}

#[test]
fn oversized_command_lines_get_an_error_then_the_boot() {
    let root = tmp("oversized");
    let (addr, _server) = spawn(ServeConfig::new(root.join("store")));

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();

    // Just over the 1 MiB command bound (small enough to fit in socket
    // buffers even though the daemon stops reading at the bound).
    let huge = vec![b'x'; (1 << 20) + 64];
    stream.write_all(&huge).unwrap();
    stream.write_all(b"\n").unwrap();

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"error\"") && line.contains("exceeds"),
        "{line}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "connection must be dropped after an oversized line"
    );
}

#[test]
fn a_watcher_that_stops_reading_does_not_wedge_the_scheduler() {
    let root = tmp("deaf");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(&store);
    cfg.quantum = 200; // many progress events per unit
                       // Far beyond the test: an evicted watcher must not wait for it.
    cfg.client_timeout = Some(Duration::from_secs(60));
    cfg.subscriber_buffer = 2; // tiny outbound buffer
                               // A Unix socket: its send buffer is fixed (no TCP autotuning), so a
                               // client that never reads blocks the daemon's writer for certain.
    std::fs::create_dir_all(&root).unwrap();
    let sock = root.join("d.sock");
    let (addr, _server) = spawn_at(cfg, sock.to_str().unwrap());
    let c = campaign("sweep");
    let (want, _) = reference(&c, &root.join("ref"));

    // A "deaf" watcher: subscribes, then never reads a byte. Its
    // bounded buffer fills (or its socket write times out) and it is
    // evicted — while a healthy watcher on the same job still
    // assembles a complete, byte-exact stream. The healthy watcher
    // goes through `watch_with_reconnect`: with a cap-2 buffer even a
    // briefly descheduled reader can be evicted mid-burst (commit =
    // record + progress + maybe done, back to back), and the contract
    // we care about is that resuming always yields the full gap- and
    // dup-free record set. The job is observed at a fine epoch
    // interval, so each commit streams an epoch series far larger than
    // the socket buffer: the deaf watcher's writer blocks and its
    // eviction is certain.
    let mut submitter = Client::connect(&addr).unwrap();
    let (id, _) = submitter.submit("alice", 10_000, &c).unwrap();
    let mut deaf = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    {
        let mut r = BufReader::new(deaf.try_clone().unwrap());
        let mut l = String::new();
        r.read_line(&mut l).unwrap(); // hello
    }
    writeln!(deaf, "{{\"cmd\":\"watch\",\"id\":\"{id}\"}}").unwrap();
    // Keep the socket open but never read it.

    assert_eq!(collect_records_resilient(&addr, &id), want);

    // The evicted watcher's connection is over: it reads what was in
    // flight, then EOF — now, not at the 60 s read deadline.
    deaf.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let mut seen = Vec::new();
    let read = deaf.read_to_end(&mut seen);
    assert!(
        read.is_ok(),
        "evicted watcher left hanging for {:?}: {read:?}",
        started.elapsed()
    );
    assert!(!String::from_utf8_lossy(&seen).contains("{\"event\":\"done\""));

    // Prove the daemon is still fully alive after the deaf client.
    let mut again = Client::connect(&addr).unwrap();
    let (id2, _) = again.submit("alice", 0, &c).unwrap();
    assert_eq!(collect_records_resilient(&addr, &id2), want);
    drop(deaf);
}
