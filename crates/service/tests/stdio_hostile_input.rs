//! Drives the real `pp_serve` binary over stdin/stdout with a hostile
//! request: 300 KB of nested `[` must get an error reply naming the nesting
//! limit, and the server must keep serving the requests that follow.

use pp_service::json::Json;
use pp_service::scenario::ScenarioConfig;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn deeply_nested_request_gets_an_error_reply_and_the_server_keeps_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pp_serve"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pp_serve");
    let scenario = ScenarioConfig::new(200, 2).with_seed(3);
    {
        let mut stdin = child.stdin.take().expect("stdin");
        let hostile = "[".repeat(300_000);
        writeln!(stdin, "{hostile}").expect("send hostile line");
        writeln!(
            stdin,
            "{{\"op\":\"submit\",\"scenario\":{},\"priority\":0}}",
            scenario.to_json()
        )
        .expect("send submit");
        writeln!(stdin, "{{\"op\":\"wait\",\"job\":1}}").expect("send wait");
        writeln!(stdin, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    }
    let replies: Vec<Json> = BufReader::new(child.stdout.take().expect("stdout"))
        .lines()
        .map(|line| Json::parse(&line.expect("read reply")).expect("reply parses"))
        .collect();
    assert!(child.wait().expect("pp_serve exits").success());
    assert_eq!(replies.len(), 4, "{replies:?}");

    let ok = |reply: &Json| reply.get("ok").and_then(Json::as_bool);
    assert_eq!(ok(&replies[0]), Some(false));
    let error = replies[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting deeper than the limit"), "{error}");
    assert_eq!(ok(&replies[1]), Some(true), "{:?}", replies[1]);
    assert_eq!(replies[1].get("job").and_then(Json::as_u64), Some(1));
    assert_eq!(ok(&replies[2]), Some(true), "{:?}", replies[2]);
    assert_eq!(
        replies[2].get("state").and_then(Json::as_str),
        Some("done"),
        "{:?}",
        replies[2]
    );
    assert_eq!(ok(&replies[3]), Some(true));
}
