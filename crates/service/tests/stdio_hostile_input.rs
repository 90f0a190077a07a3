//! Drives the real `pp_serve` binary over stdin/stdout with hostile
//! requests: 300 KB of nested `[`, bytes that are not UTF-8 and a line past
//! the request-size limit must each get an error reply naming what is wrong,
//! and the server must keep serving the requests that follow.

use pp_service::json::Json;
use pp_service::scenario::ScenarioConfig;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Feeds `input` to a fresh `pp_serve --workers 1` on stdin and returns its
/// parsed reply lines once it exits successfully.
fn serve(input: &[u8]) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pp_serve"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pp_serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input)
        .expect("send input");
    let replies = BufReader::new(child.stdout.take().expect("stdout"))
        .lines()
        .map(|line| Json::parse(&line.expect("read reply")).expect("reply parses"))
        .collect();
    assert!(child.wait().expect("pp_serve exits").success());
    replies
}

fn error_of(reply: &Json) -> &str {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error text")
}

#[test]
fn deeply_nested_request_gets_an_error_reply_and_the_server_keeps_serving() {
    let scenario = ScenarioConfig::new(200, 2).with_seed(3);
    let hostile = "[".repeat(300_000);
    let input = format!(
        "{hostile}\n{{\"op\":\"submit\",\"scenario\":{},\"priority\":0}}\n\
         {{\"op\":\"wait\",\"job\":1}}\n{{\"op\":\"shutdown\"}}\n",
        scenario.to_json()
    );
    let replies = serve(input.as_bytes());
    assert_eq!(replies.len(), 4, "{replies:?}");

    let ok = |reply: &Json| reply.get("ok").and_then(Json::as_bool);
    let error = error_of(&replies[0]);
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

#[test]
fn a_non_utf8_line_gets_an_error_reply_and_the_server_keeps_serving() {
    let replies = serve(b"\xff\xfe\n{\"op\":\"list\"}\n{\"op\":\"shutdown\"}\n");
    assert_eq!(replies.len(), 3, "{replies:?}");
    let error = error_of(&replies[0]);
    assert!(error.contains("not valid UTF-8"), "{error}");
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[2].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn an_over_long_line_is_skipped_with_an_error_reply() {
    // 2 MiB without a newline, then the rest of that line, then requests.
    let mut input = vec![b'{'; 2 << 20];
    input.extend_from_slice(b"\"tail\"}\n{\"op\":\"list\"}\n{\"op\":\"shutdown\"}\n");
    let replies = serve(&input);
    assert_eq!(replies.len(), 3, "{replies:?}");
    let error = error_of(&replies[0]);
    assert!(
        error.contains("longer than the 1048576-byte limit"),
        "{error}"
    );
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(replies[2].get("ok").and_then(Json::as_bool), Some(true));
}
