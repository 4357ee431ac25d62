//! The network serving front, end to end over loopback TCP.
//!
//! The load-bearing test is byte identity: a mixed-mode session set
//! served through the wire protocol must produce EVENT and OUTPUT
//! frames whose payloads are *byte-identical* to encoding the
//! in-process [`ServeReport`] with the same public canonical encoders.
//! No tolerance, no decoded-then-compared structures — the wire bytes
//! ARE the contract. Alongside it: overload shedding under a
//! deliberately undersized queue (errors, not panics or stalls), wire
//! admission errors with stable codes, the `/metrics` endpoint on the
//! same port, the caps on an HTTP request head and on a client frame,
//! and the 8-session smoke the CI leg runs.

mod common;

use std::io::{Read, Write};

use common::{session, N_SESSIONS};
use wivi::prelude::*;
use wivi::serve::wire::{encode_serve_event, encode_session_output, split_frame};
use wivi::serve::{
    AdmissionConfig, Frame, OpenRequest, SessionSpec, TokenSpec, WireClient, WireServer,
    WireServerConfig,
};

/// Registers each spec's scene/config under per-session names and
/// returns the wire request that reopens exactly that session remotely.
fn register(cfg: &mut WireServerConfig, i: usize, spec: &SessionSpec) -> OpenRequest {
    let scene_name = format!("scene-{i}");
    let config_name = format!("config-{i}");
    cfg.scenes.push((scene_name.clone(), spec.scene.clone()));
    cfg.configs.push((config_name.clone(), spec.config));
    OpenRequest {
        id: spec.id,
        seed: spec.seed,
        duration_s: spec.duration_s,
        start_s: spec.start_s,
        mode: spec.mode.tag().to_owned(),
        scene: scene_name,
        config: config_name,
        trace: None,
    }
}

fn simple_scene() -> Scene {
    Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
}

#[test]
fn loopback_wire_bytes_equal_in_process_encoding() {
    // Server side: the standard mixed-mode set, scenes/configs
    // registered by name.
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(2));
    let requests: Vec<OpenRequest> = (0..N_SESSIONS)
        .map(|i| register(&mut cfg, i, &session(i)))
        .collect();
    let server = WireServer::start(cfg).expect("bind loopback");

    let mut client = WireClient::connect(server.addr(), "any").expect("connect");
    for req in requests {
        client.open(req.clone()).unwrap_or_else(|e| {
            panic!("open {} refused: {e}", req.id);
        });
    }
    let served = client.finish().expect("drain");

    // In-process reference: the same sessions through the same engine
    // configuration, no network.
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for i in 0..N_SESSIONS {
        engine.open(session(i)).unwrap();
    }
    let reference = engine.finish();

    // The merged event stream, byte for byte, in order.
    assert_eq!(
        served.event_bytes.len(),
        reference.events.len(),
        "served event count differs from the in-process merge"
    );
    for (k, (wire_bytes, event)) in served.event_bytes.iter().zip(&reference.events).enumerate() {
        assert_eq!(
            wire_bytes,
            &encode_serve_event(event),
            "merged event {k} differs on the wire"
        );
    }

    // Every output, byte for byte, in id order.
    assert_eq!(served.output_bytes.len(), reference.outputs.len());
    for (wire_bytes, output) in served.output_bytes.iter().zip(&reference.outputs) {
        assert_eq!(
            wire_bytes,
            &encode_session_output(output),
            "session {} differs on the wire",
            output.id
        );
    }

    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.admitted, N_SESSIONS as u64);
    assert_eq!(report.shed, 0, "nothing should shed at default capacity");
    // The engine behind the wire saw exactly the same session set.
    assert_eq!(report.report.outputs.len(), N_SESSIONS);
}

#[test]
fn undersized_queue_sheds_with_errors_not_panics() {
    // One shard with a 1-deep queue: a 16-open burst MUST overflow it.
    // The correct behavior is an `overloaded` ERROR per shed session —
    // the listener never blocks, never panics, and every admitted
    // session still completes.
    let mut serve = ServeConfig::with_shards(1);
    serve.queue_capacity = 1;
    let mut cfg = WireServerConfig::new(serve);
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    let mut client = WireClient::connect(server.addr(), "any").expect("connect");
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for id in 0..16u64 {
        let req = OpenRequest {
            id: 100 + id,
            seed: id,
            duration_s: 0.5,
            start_s: 0.0,
            mode: "count".into(),
            scene: "room".into(),
            config: "fast".into(),
            trace: None,
        };
        match client.open(req) {
            Ok(_) => admitted += 1,
            Err(wivi::serve::net::ClientError::Server { code, .. }) => {
                assert_eq!(code, "overloaded", "shed must use the stable code");
                shed += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(shed > 0, "a 1-deep queue under a 16-open burst must shed");
    assert!(admitted > 0, "the queue still admits between sheds");

    let served = client.finish().expect("drain");
    assert_eq!(
        served.outputs.len() as u64,
        admitted,
        "every admitted session must complete; every shed one must not"
    );

    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.admitted, admitted);
    assert_eq!(
        report.shed, shed,
        "server shed counter disagrees with client"
    );
    assert_eq!(report.report.outputs.len() as u64, admitted);
}

#[test]
fn wire_admission_errors_have_stable_codes() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.admission = AdmissionConfig::with_tokens(vec![TokenSpec::new("alice", 1)]);
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    // Unknown token: refused at HELLO.
    match WireClient::connect(server.addr(), "mallory") {
        Err(wivi::serve::net::ClientError::Server { code, .. }) => assert_eq!(code, "auth"),
        other => panic!("expected auth refusal, got {other:?}", other = other.err()),
    }

    let mut client = WireClient::connect(server.addr(), "alice").expect("connect");
    let req = |id: u64, mode: &str, scene: &str, config: &str| OpenRequest {
        id,
        seed: 1,
        duration_s: 2.0,
        start_s: 0.0,
        mode: mode.into(),
        scene: scene.into(),
        config: config.into(),
        trace: None,
    };
    let code_of = |r: Result<u32, wivi::serve::net::ClientError>| match r {
        Err(wivi::serve::net::ClientError::Server { code, .. }) => code,
        other => panic!("expected server error, got {other:?}", other = other.ok()),
    };
    assert_eq!(
        code_of(client.open(req(1, "nope", "room", "fast"))),
        "unknown_mode"
    );
    assert_eq!(
        code_of(client.open(req(1, "count", "nope", "fast"))),
        "unknown_scene"
    );
    assert_eq!(
        code_of(client.open(req(1, "count", "room", "nope"))),
        "unknown_config"
    );
    client
        .open(req(1, "count", "room", "fast"))
        .expect("in quota");
    // alice's budget is 1 live session: the second open must bounce.
    assert_eq!(
        code_of(client.open(req(2, "count", "room", "fast"))),
        "quota"
    );
    // Duplicate ids are refused before touching a shard.
    assert_eq!(
        code_of(client.open(req(1, "count", "room", "fast"))),
        "quota"
    );

    let served = client.finish().expect("drain");
    assert_eq!(served.outputs.len(), 1);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.report.outputs.len(), 1);
}

#[test]
fn metrics_endpoint_shares_the_wire_port() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    // A plain HTTP GET on the same port the binary protocol uses.
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
    assert!(
        response.contains("wivi_serve_admission_admitted"),
        "admission counters must be exported: {response}"
    );
    assert!(
        response.contains("# TYPE"),
        "must be Prometheus exposition format"
    );

    // Unknown paths 404 without disturbing the server.
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"));

    server.shutdown().expect("shutdown");
}

#[test]
fn metrics_endpoint_exports_per_session_histograms() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    let mut client = WireClient::connect(server.addr(), "scraper").expect("connect");
    for id in 0..2u64 {
        client
            .open(OpenRequest {
                id,
                seed: 60 + id,
                duration_s: 0.25,
                start_s: 0.0,
                mode: "count".into(),
                scene: "room".into(),
                config: "fast".into(),
                trace: None,
            })
            .expect("admit");
    }
    assert_eq!(client.finish().expect("drain").outputs.len(), 2);

    // Sessions are recorded as they drain, before their outputs leave,
    // so a scrape after the drain sees both.
    let metrics = http_get(server.addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "got: {metrics}");
    for line in [
        "wivi_serve_session_calibrate_ns_count 2\n",
        "wivi_serve_session_nulling_mdb_count 2\n",
        "wivi_serve_session_stream_ns_count_count 2\n",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in: {metrics}");
    }
    for mode in Mode::ALL.into_iter().filter(|&m| m != Mode::Count) {
        let line = format!("wivi_serve_session_stream_ns_{}_count 0\n", mode.tag());
        assert!(metrics.contains(&line), "missing {line:?} in: {metrics}");
    }
    assert!(metrics.contains("wivi_serve_session_calibrate_ns_sum "));
    server.shutdown().expect("shutdown");
}

/// One HTTP GET against the wire port, full response as a string.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn healthz_and_tracez_answer_on_the_wire_port() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(2));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    // A healthy reactor: 200, every shard alive, SLO block present
    // with the paper's 400 ms hop budget.
    let health = http_get(server.addr(), "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "got: {health}");
    assert!(health.contains("\"shards\""), "shard list: {health}");
    assert!(health.contains("\"alive\":true"));
    assert!(!health.contains("\"alive\":false"));
    assert!(health.contains("\"slo\""));
    assert!(health.contains("\"budget_ns\":400000000"));
    assert!(health.contains("\"shed\""));

    // /tracez is valid even with nothing traced: empty-ish JSON, 200.
    let tracez = http_get(server.addr(), "/tracez");
    assert!(tracez.starts_with("HTTP/1.1 200 OK"), "got: {tracez}");
    assert!(tracez.contains("\"traces\""));
    assert!(tracez.contains("\"incidents\""));

    server.shutdown().expect("shutdown");
}

/// A request head that trickles in one byte per write — the reactor
/// resumes its blank-line scan across reads, including a terminator
/// split between them — still gets the full JSON answer.
#[test]
fn healthz_answers_a_head_written_one_byte_at_a_time() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    // A lost head would otherwise block the read below forever.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    for b in b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" {
        sock.write_all(std::slice::from_ref(b)).unwrap();
        // Longer than the reactor's longest idle park, so most bytes
        // arrive in a read of their own. Correctness does not depend
        // on it.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
    assert!(response.contains("Content-Type: application/json"));
    assert!(response.contains("\"shards\""), "shard list: {response}");
    assert!(response.ends_with('}'), "truncated body: {response}");

    server.shutdown().expect("shutdown");
}

/// A request head with no end stops being read at the reactor's 8 KiB
/// cap: the client gets a 431 and then the end of the stream, the
/// refusal is counted, and the next connection is served as usual.
#[test]
fn an_oversized_http_head_gets_431_and_the_server_keeps_serving() {
    let server =
        WireServer::start(WireServerConfig::new(ServeConfig::with_shards(1))).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A hang fails the test instead of stalling the suite.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // 64 KiB of header lines and no blank line.
    let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while head.len() < 64 * 1024 {
        head.extend_from_slice(b"X-Filler: 0123456789abcdef\r\n");
    }
    head.truncate(64 * 1024);
    // The server stops reading at the cap and may close before the last
    // bytes are written, so a failed write is expected, not an error.
    let _ = sock.write_all(&head);
    let mut reply = Vec::new();
    sock.read_to_end(&mut reply)
        .expect("the answer, then the end of the stream");
    let reply = String::from_utf8(reply).expect("an HTTP answer");
    assert_eq!(
        reply,
        "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    );

    let metrics = http_get(server.addr(), "/metrics");
    assert!(
        metrics.contains("\nwivi_serve_http_head_too_large 1\n"),
        "the refusal must be counted once: {metrics}"
    );
    let health = http_get(server.addr(), "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "got: {health}");
    server.shutdown().expect("shutdown");
}

/// A count session of the `room` scene under the `fast` config.
fn short_count(id: u64) -> OpenRequest {
    OpenRequest {
        id,
        seed: 60 + id,
        duration_s: 0.25,
        start_s: 0.0,
        mode: "count".into(),
        scene: "room".into(),
        config: "fast".into(),
        trace: None,
    }
}

/// A client frame declared past the reactor's 64 KiB cap is refused
/// before its body is buffered: the client gets a `frame_too_large`
/// ERROR, a BYE and then the end of the stream, the refusal is counted,
/// and the next connection is served as usual.
#[test]
fn a_frame_past_the_client_cap_gets_frame_too_large_and_the_server_keeps_serving() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A hang fails the test instead of stalling the suite.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // The magic, then the header of a 1 MiB frame (version 2, HELLO),
    // before any HELLO is accepted.
    let mut bytes = b"WIVI".to_vec();
    bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&[2, 1]);
    sock.write_all(&bytes).unwrap();
    let mut reply = Vec::new();
    sock.read_to_end(&mut reply)
        .expect("the answer, then the end of the stream");
    let (error, used) = split_frame(&reply).unwrap().expect("an ERROR frame");
    match error {
        Frame::Error { code, id, .. } => assert_eq!((code.as_str(), id), ("frame_too_large", 0)),
        other => panic!("expected ERROR, got {other:?}"),
    }
    let (bye, rest) = split_frame(&reply[used..]).unwrap().expect("a BYE frame");
    assert_eq!(bye, Frame::Bye);
    assert_eq!(used + rest, reply.len(), "nothing after BYE");

    let metrics = http_get(server.addr(), "/metrics");
    assert!(
        metrics.contains("\nwivi_serve_wire_frame_too_large 1\n"),
        "the refusal must be counted once: {metrics}"
    );
    let mut client = WireClient::connect(server.addr(), "next").expect("connect");
    client.open(short_count(1)).expect("admit");
    let served = client.finish().expect("drain");
    assert_eq!(served.outputs.len(), 1);
    server.shutdown().expect("shutdown");
}

/// Valid frames pipelined past the client frame cap in total are read
/// a cap's worth per reactor turn and all served: a HELLO, twelve
/// OPENs of over 8 KiB each (the scene's name is 8 KiB long) and a
/// FINISH in one write get a HELLO_OK, every OPEN_OK and every OUTPUT.
#[test]
fn a_pipelined_burst_past_the_frame_cap_is_served_in_full() {
    const OPENS: u64 = 12;
    let scene = "s".repeat(8 * 1024);
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push((scene.clone(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    let mut burst = b"WIVI".to_vec();
    burst.extend(
        Frame::Hello {
            token: "burst".into(),
        }
        .encode(),
    );
    for id in 0..OPENS {
        let open = OpenRequest {
            scene: scene.clone(),
            ..short_count(id)
        };
        burst.extend(Frame::Open(open).encode());
    }
    burst.extend(Frame::Finish.encode());
    // More than a cap's worth plus one 16 KiB read.
    assert!(burst.len() > 96 * 1024, "{} B", burst.len());
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    sock.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    sock.write_all(&burst).unwrap();
    let mut reply = Vec::new();
    sock.read_to_end(&mut reply)
        .expect("every answer, then the end of the stream");
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some((frame, used)) = split_frame(&reply[at..]).unwrap() {
        frames.push(frame);
        at += used;
    }
    assert_eq!(at, reply.len(), "a partial frame at the end");
    assert_eq!(frames.first(), Some(&Frame::HelloOk));
    assert_eq!(frames.last(), Some(&Frame::Bye));
    let ids = |pick: fn(&Frame) -> Option<u64>| frames.iter().filter_map(pick).collect::<Vec<_>>();
    let opened = ids(|f| match f {
        Frame::OpenOk { id, .. } => Some(*id),
        _ => None,
    });
    let served = ids(|f| match f {
        Frame::Output(o) => Some(o.id),
        _ => None,
    });
    let every: Vec<u64> = (0..OPENS).collect();
    assert_eq!((opened, served), (every.clone(), every));
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.admitted, OPENS);
}

/// The tentpole acceptance: with observability ON, a loopback session
/// carries ONE trace id from the client's open RTT through the
/// server-side open/step/drain spans, `/tracez` returns it, rolling
/// quantiles appear in `/metrics` — and the EVENT/OUTPUT wire bytes
/// stay byte-identical to the in-process encoding (bitwise
/// neutrality is the contract, traced or not).
#[test]
fn traced_session_links_client_and_server_and_stays_bitwise() {
    wivi::obs::set_enabled(Some(true));

    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    let n = 3usize;
    let requests: Vec<OpenRequest> = (0..n).map(|i| register(&mut cfg, i, &session(i))).collect();
    let server = WireServer::start(cfg).expect("bind");

    let mut client = WireClient::connect(server.addr(), "tracer").expect("connect");
    let mut traces = Vec::new();
    for req in requests {
        client.open(req).expect("open");
        let t = client.last_trace();
        assert_ne!(t, 0, "obs on must stamp every open with a trace id");
        traces.push(t);
    }
    assert_eq!(
        traces.len(),
        {
            let mut d = traces.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        },
        "session traces must be distinct"
    );

    // Wire bytes vs the in-process run of the SAME sessions (which
    // carry trace 0): tracing must be invisible in the payload.
    let served = client.finish().expect("drain");
    let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
    for i in 0..n {
        engine.open(session(i)).unwrap();
    }
    let reference = engine.finish();
    assert_eq!(served.event_bytes.len(), reference.events.len());
    for (wire_bytes, event) in served.event_bytes.iter().zip(&reference.events) {
        assert_eq!(
            wire_bytes,
            &encode_serve_event(event),
            "EVENT bytes drifted"
        );
    }
    assert_eq!(served.output_bytes.len(), reference.outputs.len());
    for (wire_bytes, output) in served.output_bytes.iter().zip(&reference.outputs) {
        assert_eq!(
            wire_bytes,
            &encode_session_output(output),
            "OUTPUT bytes drifted under tracing"
        );
    }

    // /tracez returns the client's trace ids with both sides' spans
    // under them (client and server share this process, so one ring
    // set holds the whole story — exactly what the id is for).
    let tracez = http_get(server.addr(), "/tracez");
    for t in &traces {
        assert!(
            tracez.contains(&wivi::obs::fmt_trace(*t)),
            "trace {} missing from /tracez: {tracez}",
            wivi::obs::fmt_trace(*t)
        );
    }
    assert!(tracez.contains("client.open_rtt"));
    assert!(tracez.contains("session.open"));
    assert!(tracez.contains("session.step"));
    assert!(tracez.contains("session.drain"));

    // Rolling-window quantiles ride the same /metrics scrape.
    let metrics = http_get(server.addr(), "/metrics");
    assert!(
        metrics.contains("wivi_serve_batch_latency_ns_p99_10s"),
        "rolling p99 missing: {metrics}"
    );
    assert!(metrics.contains("wivi_serve_batch_latency_ns_p99_60s"));
    assert!(metrics.contains("wivi_serve_slo_windows_10s"));

    server.shutdown().expect("shutdown");
    wivi::obs::set_enabled(None);
    let _ = wivi::obs::drain();
}

/// Wire v1 is gone: a HELLO carrying a v1 header takes the
/// unsupported-version path, gets the stable `wire` ERROR and a BYE, and
/// the server closes the connection instead of leaving the peer hanging.
#[test]
fn v1_hello_gets_a_wire_error_and_the_connection_closes() {
    let server =
        WireServer::start(WireServerConfig::new(ServeConfig::with_shards(1))).expect("bind");
    let mut sock = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A hang fails the test instead of stalling the suite.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    sock.write_all(b"WIVI").unwrap();

    // `[len u32 LE][ver = 1][type = HELLO][token]`.
    let token = b"legacy";
    let mut hello = Vec::new();
    hello.extend_from_slice(&(token.len() as u32 + 6).to_le_bytes());
    hello.extend_from_slice(&[1, 1]);
    hello.extend_from_slice(&(token.len() as u32).to_le_bytes());
    hello.extend_from_slice(token);
    sock.write_all(&hello).unwrap();

    let mut reply = Vec::new();
    sock.read_to_end(&mut reply)
        .expect("the server must close the connection, not leave it open");
    let (error, used) = split_frame(&reply).unwrap().expect("an ERROR frame");
    match error {
        Frame::Error { code, .. } => assert_eq!(code, "wire"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    let (bye, rest) = split_frame(&reply[used..]).unwrap().expect("a BYE frame");
    assert_eq!(bye, Frame::Bye);
    assert_eq!(used + rest, reply.len(), "nothing after BYE");

    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.admitted, 0);
}

/// The CI smoke: 8 loopback sessions, zero shed, clean shutdown.
#[test]
fn smoke_eight_sessions_zero_shed_clean_shutdown() {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(2));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    let server = WireServer::start(cfg).expect("bind");

    let mut client = WireClient::connect(server.addr(), "smoke").expect("connect");
    for id in 0..8u64 {
        client
            .open(OpenRequest {
                id,
                seed: 40 + id,
                duration_s: 0.25,
                start_s: 0.0,
                mode: "count".into(),
                scene: "room".into(),
                config: "fast".into(),
                trace: None,
            })
            .expect("default queue must admit 8 sessions");
    }
    let served = client.finish().expect("drain");
    assert_eq!(served.outputs.len(), 8);
    // Outputs arrive in id order; ids survive the trip.
    let ids: Vec<u64> = served.outputs.iter().map(|o| o.id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<u64>>());

    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.connections, 1);
    assert_eq!(report.admitted, 8);
    assert_eq!(report.shed, 0, "smoke must not shed");
    assert_eq!(report.report.outputs.len(), 8);
}

/// A one-shard server for the CLOSE tests.
fn close_test_server() -> WireServer {
    let mut cfg = WireServerConfig::new(ServeConfig::with_shards(1));
    cfg.scenes.push(("room".into(), simple_scene().into()));
    cfg.configs.push(("fast".into(), WiViConfig::fast_test()));
    WireServer::start(cfg).expect("bind")
}

/// A session long enough to still be streaming when a CLOSE sent right
/// after its OPEN_OK lands.
fn long_session(id: u64) -> OpenRequest {
    OpenRequest {
        id,
        seed: 9,
        duration_s: 60.0,
        start_s: 0.0,
        mode: "count".into(),
        scene: "room".into(),
        config: "fast".into(),
        trace: None,
    }
}

#[test]
fn wire_close_ends_the_senders_own_session_early() {
    let server = close_test_server();
    let mut client = WireClient::connect(server.addr(), "owner").expect("connect");
    client.open(long_session(1)).expect("admit");
    client.close_session(1).expect("send CLOSE");
    let served = client.finish().expect("drain");

    assert_eq!(served.outputs.len(), 1);
    let out = &served.outputs[0];
    assert!(out.closed_early, "the owner's CLOSE must end its session");
    assert!(
        out.n_samples < out.n_requested,
        "closed early yet streamed {} of {} samples",
        out.n_samples,
        out.n_requested
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn wire_close_of_another_connections_session_is_ignored() {
    let server = close_test_server();
    let mut owner = WireClient::connect(server.addr(), "owner").expect("connect");
    owner.open(long_session(1)).expect("admit");

    // Another tenant names the same id. Its BYE arrives only after the
    // reactor has handled its CLOSE, so the CLOSE has landed while the
    // owner's session is still streaming.
    let mut intruder = WireClient::connect(server.addr(), "intruder").expect("connect");
    intruder.close_session(1).expect("send CLOSE");
    let theirs = intruder
        .finish()
        .expect("a CLOSE for a foreign id draws no ERROR");
    assert!(theirs.outputs.is_empty());

    let served = owner.finish().expect("drain");
    assert_eq!(served.outputs.len(), 1);
    let out = &served.outputs[0];
    assert!(
        !out.closed_early,
        "a foreign CLOSE must not end the session"
    );
    assert_eq!(out.n_samples, out.n_requested);
    server.shutdown().expect("shutdown");
}
