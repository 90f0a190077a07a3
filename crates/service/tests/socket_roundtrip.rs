//! Drives the real `pp_serve` binary over its Unix domain socket: submit,
//! watch (schema-validated event stream), result, a non-UTF-8 request,
//! shutdown — and the stored result is bit-identical to the standalone
//! runner.

use pp_service::json::Json;
use pp_service::protocol;
use pp_service::runner::{result_json, run_scenario, RunControl, RunVerdict};
use pp_service::scenario::ScenarioConfig;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

fn standalone_json(scenario: &ScenarioConfig) -> String {
    let RunVerdict::Finished(outcome) =
        run_scenario(scenario, RunControl::default()).expect("standalone scenario run failed")
    else {
        panic!("a default RunControl cannot be interrupted");
    };
    result_json(&outcome)
}

#[test]
fn socket_round_trip_matches_standalone() {
    let scenario = ScenarioConfig::new(500, 3).with_seed(9);
    let expected = standalone_json(&scenario);
    let dir = std::env::temp_dir().join(format!("pp_serve_socket_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("socket dir");
    let socket = dir.join("pp.sock");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pp_serve"))
        .args(["--socket", socket.to_str().unwrap(), "--workers", "2"])
        .spawn()
        .expect("spawn pp_serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(socket.exists(), "pp_serve never bound its socket");

    // One request per connection; the server replies and closes.
    let request = |line: String| -> Vec<String> {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        BufReader::new(stream)
            .lines()
            .map(|l| l.expect("read reply"))
            .collect()
    };

    let submit = request(format!(
        "{{\"op\":\"submit\",\"scenario\":{},\"priority\":0}}",
        scenario.to_json()
    ));
    let reply = Json::parse(&submit[0]).expect("submit reply parses");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{submit:?}"
    );
    let id = reply.get("job").and_then(Json::as_u64).expect("job id");

    // `watch` streams schema-valid, densely-numbered events ending in the
    // terminal line, which embeds the result document.
    let events = request(format!("{{\"op\":\"watch\",\"job\":{id}}}"));
    assert!(!events.is_empty());
    for (seq, line) in events.iter().enumerate() {
        protocol::check_progress_line(line).expect("streamed line violates the schema");
        let doc = Json::parse(line).expect("event parses");
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(seq as u64));
    }
    let last = Json::parse(events.last().unwrap()).expect("terminal event parses");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));

    // The stored result comes back bit-identical to the standalone run.
    let result = request(format!("{{\"op\":\"result\",\"job\":{id}}}"));
    let reply = Json::parse(&result[0]).expect("result reply parses");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{result:?}"
    );
    let payload = reply.get("result").expect("payload");
    protocol::check_result_doc(payload).expect("result violates the schema");
    assert_eq!(
        payload.to_json(),
        expected,
        "socket result diverged from standalone"
    );

    // Errors arrive as `"ok":false` replies, not dropped connections.
    let missing = request("{\"op\":\"result\",\"job\":999}".to_string());
    let reply = Json::parse(&missing[0]).expect("error reply parses");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

    // So do request bytes that are not UTF-8; the server keeps serving.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(b"\xff\xfe\n").expect("send");
    let garbled: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read reply"))
        .collect();
    let reply = Json::parse(&garbled[0]).expect("error reply parses");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(error.contains("not valid UTF-8"), "{error}");

    let bye = request("{\"op\":\"shutdown\"}".to_string());
    assert_eq!(
        Json::parse(&bye[0])
            .ok()
            .and_then(|d| d.get("ok").and_then(Json::as_bool)),
        Some(true)
    );
    let status = child.wait().expect("pp_serve exits");
    assert!(status.success(), "pp_serve exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
