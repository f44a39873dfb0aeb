//! End-to-end service tests: a real daemon on a real socket, asserting
//! the two acceptance properties — streamed results byte-identical to a
//! standalone campaign run, and restart-on-the-same-store resuming
//! without re-running or losing committed work.

use dramctrl_campaign::runner::run_job;
use dramctrl_campaign::{
    run_campaign_journaled, Campaign, CampaignJournal, ExecutorConfig, JobRecord,
};
use dramctrl_serve::proto;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{Client, Listener, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dramctrl-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A campaign small enough to finish quickly but with enough requests
/// that the 1 000-request default quantum actually preempts.
fn campaign(name: &str) -> Campaign {
    Campaign::new(name, 42)
        .read_pcts([0, 50, 100])
        .requests([5_000])
}

/// Starts a daemon on an ephemeral TCP port; returns its address.
fn spawn_daemon(store: PathBuf, quantum: u64) -> String {
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    addr
}

/// The reference: what a standalone journaled CLI sweep of `c` produces.
fn reference_jsonl(c: &Campaign, dir: &PathBuf) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let mut j = CampaignJournal::create(dir.join("ref.jsonl"), c).unwrap();
    run_campaign_journaled(c, &ExecutorConfig::serial(), &mut j, run_job).to_jsonl()
}

#[test]
fn served_records_are_byte_identical_to_standalone_run() {
    let root = tmp("bytes");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &c).unwrap();
    assert_eq!(total, 3);

    // Collect streamed record lines in index order.
    let mut records = vec![None; total];
    let summary = client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                let data = proto::record_data(line).expect("record payload").to_owned();
                records[i] = Some(data);
            }
        })
        .unwrap();
    assert_eq!(summary.ok, 3);
    assert_eq!(summary.failed, 0);

    let got: String = records
        .into_iter()
        .map(|r| r.expect("every unit streamed") + "\n")
        .collect();
    assert_eq!(
        got, want,
        "streamed records == standalone sweep, byte for byte"
    );
}

#[test]
fn two_tenants_interleave_and_both_match_standalone() {
    let root = tmp("tenants");
    let addr = spawn_daemon(root.join("store"), 500);
    let ca = campaign("alice-sweep");
    let cb = campaign("bob-sweep");
    let want_a = reference_jsonl(&ca, &root.join("ref-a"));
    let want_b = reference_jsonl(&cb, &root.join("ref-b"));

    let mut ka = Client::connect(&addr).unwrap();
    let mut kb = Client::connect(&addr).unwrap();
    let (ia, _) = ka.submit("alice", 0, &ca).unwrap();
    let (ib, _) = kb.submit("bob", 0, &cb).unwrap();

    let collect = |client: &mut Client, id: &str| {
        let mut out = std::collections::BTreeMap::new();
        client
            .watch(id, |v, line| {
                if v.get("event").and_then(Value::as_str) == Some("record") {
                    let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                    out.insert(i, proto::record_data(line).unwrap().to_owned());
                }
            })
            .unwrap();
        out.into_values().map(|l| l + "\n").collect::<String>()
    };
    // Watch concurrently: both jobs are in flight at once.
    let got_b = std::thread::scope(|s| {
        let h = s.spawn(|| collect(&mut kb, &ib));
        let got_a = collect(&mut ka, &ia);
        assert_eq!(got_a, want_a, "tenant A sees a byte-exact sweep");
        h.join().unwrap()
    });
    assert_eq!(got_b, want_b, "tenant B sees a byte-exact sweep");
}

#[test]
fn restart_resumes_committed_work_without_rerunning() {
    let root = tmp("restart");
    let store = root.join("store");
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    // Phase 1: hand-craft the store a daemon would leave behind if
    // SIGKILL'd after committing exactly one unit — an accepted job, a
    // journal with one record, and a stale checkpoint for the unit that
    // was in flight. (The process-level kill of a live daemon is
    // exercised in the CLI e2e test.)
    let id = {
        let (mut js, _) = dramctrl_serve::JobStore::open(&store).unwrap();
        let stored = js.accept("alice", 0, &c).unwrap();
        let dir = js.job_dir(&stored.id);
        let mut journal = CampaignJournal::create(dir.join("journal.jsonl"), &c).unwrap();
        let unit0 = &c.expand()[0];
        journal
            .commit(&JobRecord {
                job: unit0.clone(),
                outcome: dramctrl_campaign::JobOutcome::Completed {
                    metrics: run_job(unit0),
                    attempts: 1,
                },
            })
            .unwrap();
        // A checkpoint left behind for the already-committed unit: the
        // kind of junk a SIGKILL strands. Recovery must delete it.
        std::fs::write(dir.join("unit-000000.snap"), b"stale").unwrap();
        stored.id
    };
    let journal = store.join(&id).join("journal.jsonl");
    let committed_before = std::fs::read_to_string(&journal).unwrap();

    // Phase 2: a daemon opened on that store recovers, re-queues the
    // job, and finishes the remaining units — committed lines untouched,
    // nothing duplicated, nothing lost.
    let addr2 = spawn_daemon(store.clone(), 1_000);
    let mut client2 = Client::connect(&addr2).unwrap();
    let mut records = std::collections::BTreeMap::new();
    let summary = client2
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                records.insert(i, proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    assert_eq!(summary.ok + summary.failed, 3);

    let after = std::fs::read_to_string(&journal).unwrap();
    assert!(
        after.starts_with(&committed_before),
        "restart never rewrites committed journal lines"
    );
    let got: String = records.into_values().map(|l| l + "\n").collect();
    assert_eq!(got, want, "resumed results == uninterrupted standalone run");
    assert!(
        !store.join(&id).join("unit-000000.snap").exists(),
        "recovery deletes checkpoints of committed units"
    );
}

#[test]
fn admission_control_rejects_with_reason_and_version_gate_refuses() {
    let root = tmp("admission");
    let store = root.join("store");
    let mut cfg = ServeConfig::new(store);
    cfg.max_jobs = 1;
    let server = Server::open(cfg).unwrap();
    // No scheduler: jobs stay active, so the second submit must bounce.
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
    }

    let mut client = Client::connect(&addr).unwrap();
    client.submit("alice", 0, &campaign("first")).unwrap();
    let err = client.submit("alice", 0, &campaign("second")).unwrap_err();
    assert!(err.to_string().contains("queue full"), "{err}");

    // A daemon speaking a different protocol is refused at connect.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = fake.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (mut s, _) = fake.accept().unwrap();
        let line = dramctrl_serve::VersionInfo::current().hello_line();
        writeln!(
            s,
            "{}",
            line.replace(
                &format!("\"proto\":{}", dramctrl_serve::PROTO_VERSION),
                "\"proto\":999"
            )
        )
        .unwrap();
    });
    let err = Client::connect(&fake_addr).unwrap_err();
    assert!(err.to_string().contains("protocol"), "{err}");
}

#[test]
fn status_reports_the_job_table() {
    let root = tmp("status");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &campaign("sweep")).unwrap();
    client.watch(&id, |_, _| {}).unwrap();
    let status = client.status().unwrap();
    let jobs = status.get("jobs").and_then(Value::as_arr).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Value::as_str), Some(id.as_str()));
    assert_eq!(jobs[0].get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(jobs[0].get("done").and_then(Value::as_u64), Some(3));
}

#[test]
fn observed_jobs_stream_stats_and_epochs() {
    let root = tmp("observed");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = Campaign::new("obs", 9).read_pcts([50]).requests([2_000]);
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 1_000_000, &c).unwrap();
    let mut stats = None;
    let mut epochs = None;
    let mut record = None;
    client
        .watch(&id, |v, line| {
            match v.get("event").and_then(Value::as_str) {
                Some("stats") => stats = v.get("text").and_then(Value::as_str).map(str::to_owned),
                Some("epochs") => epochs = v.get("text").and_then(Value::as_str).map(str::to_owned),
                Some("record") => record = proto::record_data(line).map(str::to_owned),
                _ => {}
            }
        })
        .unwrap();
    let stats = stats.expect("stats streamed");
    assert!(
        stats.contains("\"prefix\""),
        "stats is the stable report JSON"
    );
    let epochs = epochs.expect("epoch series streamed");
    assert!(epochs.lines().count() >= 1, "at least one epoch line");
    // Zero perturbation: the observed unit's record matches the
    // unobserved standalone run byte for byte.
    assert_eq!(record.unwrap() + "\n", want);

    // Artifacts also landed server-side, next to the journal.
    let dir = root.join("store").join(&id);
    for ext in ["stats.json", "epochs.jsonl", "epochs.csv", "trace.json"] {
        assert!(
            dir.join(format!("unit-000000.{ext}")).exists(),
            "missing {ext}"
        );
    }

    // A watch after completion replays the same artifacts from disk.
    let mut late = Client::connect(&addr).unwrap();
    let mut replayed_stats = None;
    late.watch(&id, |v, _| {
        if v.get("event").and_then(Value::as_str) == Some("stats") {
            replayed_stats = v.get("text").and_then(Value::as_str).map(str::to_owned);
        }
    })
    .unwrap();
    assert_eq!(replayed_stats.as_deref(), Some(stats.as_str()));
}

/// Like [`spawn_daemon`], but also starts the read-only HTTP
/// observability listener and returns the [`Server`] handle.
fn spawn_daemon_http(store: PathBuf, quantum: u64) -> (String, String, Server) {
    let mut cfg = ServeConfig::new(store);
    cfg.quantum = quantum;
    let server = Server::open(cfg).expect("open store");
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = server.serve(&listener);
        });
    }
    let http = Listener::bind("127.0.0.1:0").expect("bind http");
    let http_addr = http.local_addr();
    {
        let server = server.clone();
        std::thread::spawn(move || {
            let _ = dramctrl_serve::serve_http(&server, &http);
        });
    }
    (addr, http_addr, server)
}

/// One raw HTTP/1.1 exchange; returns (status, head, body).
fn http_request(addr: &str, verb: &str, path: &str) -> (u16, String, String) {
    use std::io::Read;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "{verb} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

#[test]
fn http_endpoints_expose_metrics_health_and_jobs() {
    let root = tmp("http");
    let (addr, http, _server) = spawn_daemon_http(root.join("store"), 500);
    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &campaign("sweep")).unwrap();
    client.watch(&id, |_, _| {}).unwrap();

    let (code, head, body) = http_request(&http, "GET", "/metrics");
    assert_eq!(code, 200);
    assert!(head.contains("text/plain"), "{head}");
    dramctrl_obs::metrics::validate_exposition(&body).expect("well-formed exposition");
    for needle in [
        "dramctrl_admission_total{result=\"accepted\"} 1",
        &format!("dramctrl_tenant_served_units_total{{tenant=\"alice\"}} {total}"),
        "dramctrl_store_fsync_seconds_count{op=\"commit\"}",
        "dramctrl_store_fsync_seconds_count{op=\"accept\"}",
        "dramctrl_executor_units_per_second",
        "dramctrl_sched_preemptions_total",
        "dramctrl_sched_wait_seconds_count",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }

    let (code, head, body) = http_request(&http, "GET", "/metrics.json");
    assert_eq!(code, 200);
    assert!(head.contains("application/json"), "{head}");
    assert!(body.starts_with("{\"families\":["), "{body}");

    let (code, _, body) = http_request(&http, "GET", "/jobs");
    assert_eq!(code, 200);
    assert!(
        body.contains(&format!("\"id\":\"{id}\"")) && body.contains("\"tenants\":"),
        "{body}"
    );

    let (code, _, body) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (code, _, _) = http_request(&http, "GET", "/nope");
    assert_eq!(code, 404);
    let (code, _, _) = http_request(&http, "POST", "/metrics");
    assert_eq!(code, 405);
}

#[test]
fn healthz_reports_unwritable_store_as_503() {
    let root = tmp("health");
    let store = root.join("store");
    let (_addr, http, _server) = spawn_daemon_http(store.clone(), 1_000);
    let (code, _, _) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);

    // Yank the store out from under the daemon: the probe write fails,
    // so the endpoint must flip to 503 (and recover when the directory
    // comes back).
    std::fs::remove_dir_all(&store).unwrap();
    let (code, _, body) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 503, "{body}");
    assert!(body.contains("\"status\":\"unwritable\""), "{body}");
    std::fs::create_dir_all(&store).unwrap();
    let (code, _, _) = http_request(&http, "GET", "/healthz");
    assert_eq!(code, 200);
}

#[test]
fn concurrent_scrapes_never_perturb_streamed_records() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let root = tmp("zero-perturb");
    let (addr, http, _server) = spawn_daemon_http(root.join("store"), 500);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit("alice", 0, &c).unwrap();

    // Hammer /metrics from another thread for the whole run.
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let scraper = {
        let (stop, http) = (stop.clone(), http.clone());
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (code, _, _) = http_request(&http, "GET", "/metrics");
                assert_eq!(code, 200);
                n += 1;
            }
            n
        })
    };

    let mut records = vec![None; total];
    client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                records[i] = Some(proto::record_data(line).unwrap().to_owned());
            }
        })
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(scraper.join().unwrap() >= 1, "scraper never ran");

    let got: String = records
        .into_iter()
        .map(|r| r.expect("every unit streamed") + "\n")
        .collect();
    assert_eq!(got, want, "scraped run == unscraped standalone run");
}

#[test]
fn preemption_counter_matches_independent_slice_replay() {
    use dramctrl_campaign::runner::{run_job_slice, SliceOutcome};
    let root = tmp("preempt");
    let quantum = 700;
    let (addr, _http, server) = spawn_daemon_http(root.join("store"), quantum);
    let c = campaign("sweep");
    let mut client = Client::connect(&addr).unwrap();
    let (id, _) = client.submit("alice", 0, &c).unwrap();
    client.watch(&id, |_, _| {}).unwrap();

    let text = server.metrics_exposition();
    let got: u64 = text
        .lines()
        .find(|l| l.starts_with("dramctrl_sched_preemptions_total "))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .expect("preemption counter present");

    // Replay each unit through the same slicing rule the scheduler uses
    // (first target = quantum, then injected + quantum) and count pauses.
    // Slicing is simulation-deterministic, so the counts must agree.
    let replay = root.join("replay");
    std::fs::create_dir_all(&replay).unwrap();
    let mut want = 0u64;
    for (i, unit) in c.expand().iter().enumerate() {
        let ckpt = replay.join(format!("u{i}.snap"));
        let mut target = quantum;
        loop {
            match run_job_slice(unit, &ckpt, Some(target)) {
                SliceOutcome::Done(_) => break,
                SliceOutcome::Paused { injected } => {
                    want += 1;
                    target = injected + quantum;
                }
            }
        }
    }
    assert!(want >= 1, "quantum too large to preempt at all");
    assert_eq!(got, want, "daemon preemptions == slice-replay preemptions");
}

#[test]
fn hello_is_first_line_on_every_connection() {
    let root = tmp("hello");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Value::parse(line.trim()).unwrap();
    assert_eq!(v.get("event").and_then(Value::as_str), Some("hello"));
    assert_eq!(
        v.get("proto").and_then(Value::as_u64),
        Some(u64::from(dramctrl_serve::PROTO_VERSION))
    );
}

#[test]
fn sharded_submit_runs_only_the_residue_class_byte_identically() {
    let root = tmp("shard");
    let addr = spawn_daemon(root.join("store"), 1_000);
    let c = campaign("sweep");
    let want = reference_jsonl(&c, &root.join("ref"));

    let mut client = Client::connect(&addr).unwrap();
    let (id, total) = client.submit_sharded("alice", 0, &c, Some((1, 3))).unwrap();
    assert_eq!(total, 1, "accepted total is the shard size");
    let mut streamed = Vec::new();
    let summary = client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                let i = v.get("index").and_then(Value::as_u64).unwrap() as usize;
                streamed.push((i, proto::record_data(line).unwrap().to_owned()));
            }
        })
        .unwrap();
    assert_eq!((summary.ok, summary.failed), (1, 0));
    let [(index, data)] = streamed.as_slice() else {
        panic!("expected exactly one record, got {streamed:?}");
    };
    assert_eq!(*index, 1, "only the shard's residue class runs");
    assert_eq!(
        data,
        want.lines().nth(1).unwrap(),
        "shard record bytes == the full run's bytes for that index"
    );
    // Malformed shard fields are rejected at submission, not run.
    let err = client
        .submit_sharded("alice", 0, &c, Some((3, 3)))
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn retain_gc_evicts_oldest_finished_jobs_and_spares_the_rest() {
    use dramctrl_campaign::JobOutcome;
    let root = tmp("retain");
    let store = root.join("store");
    let c = Campaign::new("gc-sweep", 42).read_pcts([0]).requests([500]);

    // Hand-craft a store with two finished jobs and one incomplete job.
    let ids: Vec<String> = {
        let (mut js, _) = dramctrl_serve::JobStore::open(&store).unwrap();
        (0..3)
            .map(|k| {
                let stored = js.accept("alice", 0, &c).unwrap();
                let dir = js.job_dir(&stored.id);
                let mut journal = CampaignJournal::create(dir.join("journal.jsonl"), &c).unwrap();
                if k < 2 {
                    let unit = &c.expand()[0];
                    journal
                        .commit(&JobRecord {
                            job: unit.clone(),
                            outcome: JobOutcome::Completed {
                                metrics: run_job(unit),
                                attempts: 1,
                            },
                        })
                        .unwrap();
                }
                stored.id
            })
            .collect()
    };

    // Startup GC with --retain 1: the OLDEST finished job goes; the
    // newest finished job and the incomplete one stay.
    let mut cfg = ServeConfig::new(store.clone());
    cfg.retain = Some(1);
    let server = Server::open(cfg).unwrap();
    server.start_scheduler();
    let listener = Listener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve(&listener);
    });
    assert!(
        !store.join(&ids[0]).exists(),
        "oldest finished job evicted at startup"
    );
    assert!(store.join(&ids[1]).exists());
    assert!(
        store.join(&ids[2]).exists(),
        "running/queued jobs are never GC'd"
    );

    // The recovered incomplete job finishes; its completion triggers
    // another GC pass which now evicts ids[1]. The pass runs just after
    // the done event broadcasts, so poll status for the counter.
    let mut client = Client::connect(&addr).unwrap();
    client.watch(&ids[2], |_, _| {}).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let status = client.status().unwrap();
        let evicted = status
            .get("gc_evicted")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if evicted >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gc_evicted never reached 2: {}",
            status.encode()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(!store.join(&ids[1]).exists());
    assert!(store.join(&ids[2]).exists(), "newest finished job retained");
}
