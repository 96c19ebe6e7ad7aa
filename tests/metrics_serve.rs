//! Golden-counter test for the serve path's observability (own test
//! binary: the metrics registry is process-global, so this must not share
//! a process with other serve work; within the binary the tests serialise
//! on a mutex).
//!
//! The protocol counters are **deterministic**: a fixed request script
//! produces the same `serve.requests`, `serve.batch.requests`,
//! `serve.batch.subs`, `serve.shed` and `serve.queue.depth` values at
//! every worker count, because they tick at admission/dispatch — not on
//! scheduler-dependent paths. `serve.loop.wakeups` counts the event
//! loop's returns from `poll(2)`, which timing decides, so it stays out
//! of the golden values and gets a bound of its own.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex as StdMutex};
use std::thread;
use std::time::Duration;

use weblab::json::Json;
use weblab::obs;
use weblab::platform::{Mapper, Platform};
use weblab::serve::Server;
use weblab::workflow::{CallContext, Service, WorkflowError};
use weblab::xml::Document;

static SERIAL: StdMutex<()> = StdMutex::new(());

const XML: &str = "<Resource wl:id=\"weblab://doc/m\">\
    <NativeContent wl:id=\"weblab://src/0\" wl:s=\"Source\" wl:t=\"0\" mime=\"text/plain\">\
    golden counters</NativeContent></Resource>";

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    Json::parse(response.trim_end()).unwrap()
}

/// Run the fixed request script at `workers` threads and return the
/// resulting metrics snapshot.
fn run_script(workers: usize) -> obs::Snapshot {
    obs::reset();
    obs::enable();
    let platform = Arc::new(Platform::new(Mapper::native()));
    let server = Server::bind(Arc::clone(&platform), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = thread::spawn(move || server.run(workers));

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;

    // the script: 1 ingest + 2 plain queries + 2 batches (3 and 5 subs)
    // + 1 failing query + shutdown = 7 dispatched requests
    let ingest = format!(
        "{{\"op\":\"ingest\",\"exec\":\"m\",\"xml\":{}}}",
        Json::str(XML)
    );
    assert_eq!(
        roundtrip(&mut stream, &mut reader, &ingest)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    let why = "{\"op\":\"why\",\"exec\":\"m\",\"uri\":\"weblab://src/0\"}";
    for _ in 0..2 {
        let response = roundtrip(&mut stream, &mut reader, why);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    }
    for subs in [3usize, 5] {
        let batch = format!(
            "{{\"op\":\"batch\",\"exec\":\"m\",\"requests\":[{}]}}",
            vec!["{\"op\":\"why\",\"uri\":\"weblab://src/0\"}"; subs].join(",")
        );
        let response = roundtrip(&mut stream, &mut reader, &batch);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            response
                .get("result")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(subs)
        );
    }
    let failing = "{\"op\":\"why\",\"exec\":\"ghost\",\"uri\":\"r\"}";
    assert_eq!(
        roundtrip(&mut stream, &mut reader, failing)
            .get("ok")
            .and_then(Json::as_bool),
        Some(false)
    );
    let bye = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    drop(stream);
    server_thread.join().unwrap().unwrap();

    let snap = obs::snapshot();
    obs::disable();
    snap
}

#[test]
fn serve_counters_are_golden_and_worker_count_invariant() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut snapshots = Vec::new();
    for workers in [1usize, 2, 4] {
        let snap = run_script(workers);
        // golden values: the script dispatches exactly 7 requests, two of
        // them batches carrying 8 subs total, one failing; nothing sheds
        assert_eq!(snap.counter("serve.requests"), 7, "{workers} workers");
        assert_eq!(snap.counter("serve.errors"), 1, "{workers} workers");
        assert_eq!(snap.counter("serve.batch.requests"), 2, "{workers} workers");
        assert_eq!(snap.counter("serve.batch.subs"), 8, "{workers} workers");
        assert_eq!(snap.counter("serve.shed"), 0, "{workers} workers");
        assert_eq!(snap.counter("serve.conn.accepted"), 1, "{workers} workers");
        assert_eq!(snap.counter("serve.conn.rejected"), 0, "{workers} workers");
        // every admitted request completed: the depth gauge is back to 0
        assert_eq!(snap.gauge("serve.queue.depth"), 0, "{workers} workers");
        assert_eq!(snap.histogram("serve.request_ns").map(|h| h.count), Some(7));
        snapshots.push((workers, snap));
    }
    // the deterministic counters are identical across worker counts
    let (_, reference) = &snapshots[0];
    for (workers, snap) in &snapshots[1..] {
        for name in [
            "serve.requests",
            "serve.errors",
            "serve.batch.requests",
            "serve.batch.subs",
            "serve.shed",
            "serve.conn.accepted",
            "serve.conn.rejected",
        ] {
            assert_eq!(
                snap.counter(name),
                reference.counter(name),
                "{name} must not depend on worker count ({workers} workers)"
            );
        }
    }
}

/// A service whose every call panics.
struct Boom;

impl Service for Boom {
    fn name(&self) -> &str {
        "Boom"
    }
    fn call(&self, _doc: &mut Document, _ctx: &mut CallContext) -> Result<(), WorkflowError> {
        panic!("boom");
    }
}

#[test]
fn a_panicking_dispatch_is_answered_internal_and_the_workers_survive() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let platform = Arc::new(Platform::new(Mapper::native()));
    platform.register_service(Arc::new(Boom), &[]).unwrap();
    let server = Server::bind(Arc::clone(&platform), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = thread::spawn(move || server.run(2));
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        // a lost completion would stall its connection: fail, not hang
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    let ingest = format!(
        "{{\"op\":\"ingest\",\"exec\":\"m\",\"xml\":{}}}",
        Json::str(XML)
    );
    let why = "\"op\":\"why\",\"exec\":\"m\",\"uri\":\"weblab://src/0\"";
    let (mut stream, mut reader) = connect();
    let r = roundtrip(&mut stream, &mut reader, &ingest);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

    // two connections each pipeline 24 requests in one write; every
    // third runs the panicking service
    const LINES: usize = 24;
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let (mut stream, mut reader) = connect();
            let boom = format!(
                "\"op\":\"ingest\",\"xml\":{},\"pipeline\":[\"Boom\"]",
                Json::str(XML)
            );
            thread::spawn(move || {
                let script: String = (0..LINES)
                    .map(|i| match i % 3 {
                        1 => format!("{{\"id\":{i},\"exec\":\"b{c}-{i}\",{boom}}}\n"),
                        _ => format!("{{\"id\":{i},{why}}}\n"),
                    })
                    .collect();
                stream.write_all(script.as_bytes()).unwrap();
                for i in 0..LINES {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let r = Json::parse(line.trim_end()).unwrap();
                    assert_eq!(
                        r.get("id").and_then(Json::as_u64),
                        Some(i as u64),
                        "in order"
                    );
                    if i % 3 == 1 {
                        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{line}");
                        assert_eq!(r.get("code").and_then(Json::as_str), Some("internal"));
                    } else {
                        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{line}");
                    }
                }
                // the connection is still served after its panics
                let r = roundtrip(&mut stream, &mut reader, &format!("{{{why}}}"));
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let bye = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();

    let snap = obs::snapshot();
    obs::disable();
    assert_eq!(snap.counter("serve.panics"), 2 * (LINES as u64 / 3));
    assert_eq!(snap.counter("serve.errors"), 2 * (LINES as u64 / 3));
    assert_eq!(
        snap.gauge("serve.queue.depth"),
        0,
        "every load ticket was released"
    );
}

#[test]
fn a_silent_client_does_not_wake_the_loop() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let platform = Arc::new(Platform::new(Mapper::native()));
    let server = Server::bind(platform, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = thread::spawn(move || server.run(2));

    let stream = TcpStream::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(200));
    let wakeups = obs::snapshot().counter("serve.loop.wakeups");
    // one wake-up accepts the client; after that the loop sleeps until a
    // socket is ready or a deadline (the 300 s idle timeout) falls due
    assert!((1..=2).contains(&wakeups), "{wakeups} wake-ups in 200 ms");

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let bye = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    server_thread.join().unwrap().unwrap();
    obs::disable();
}
