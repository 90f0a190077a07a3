//! The simulation job server: NDJSON over stdin/stdout or a Unix socket.
//!
//! ```text
//! pp_serve [--socket PATH] [--workers N] [--state-dir DIR]
//!          [--progress-every N] [--checkpoint-every N]
//! pp_serve --connect PATH --request 'JSON'
//! ```
//!
//! * With `--socket`, listens on a Unix domain socket; each connection
//!   carries **one** request line and the server streams its reply lines
//!   (one for most ops, the event stream for `watch`) before closing the
//!   connection — so clients simply read to EOF.
//! * Without `--socket`, speaks the same protocol over stdin/stdout, one
//!   request per line, until EOF or a `shutdown` op.
//! * `--connect` is a built-in client: it sends one request to a running
//!   server and prints the reply lines — what the CI smoke test drives.
//! * Both transports read each request line as bytes, at most
//!   [`MAX_REQUEST_BYTES`] of it.  A line that is not UTF-8, or is longer
//!   than the limit, gets an `"ok":false` reply naming which; the rest of an
//!   over-long line is read and dropped, and the server keeps serving.
//!
//! * With `--state-dir`, start-up prints `skipped <what>: <reason>` to
//!   stderr for each piece of state it could not use (see
//!   `pp_service::server`).  Shutdown prints `persist failures: N`, the
//!   state-directory writes that failed (always 0 without one).
//!
//! See `pp_service::protocol` for the message reference.  Determinism and
//! crash-resume contracts are documented on the `pp_service` crate root.

use pp_service::json::{Json, ObjBuilder};
use pp_service::protocol::{error_reply, ok_reply, parse_request, Request};
use pp_service::server::{JobStatus, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// The longest request line either transport accepts, newline excluded.
const MAX_REQUEST_BYTES: usize = 1 << 20;

struct Options {
    socket: Option<PathBuf>,
    connect: Option<PathBuf>,
    request: Option<String>,
    cfg: ServerConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        socket: None,
        connect: None,
        request: None,
        cfg: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--socket" => opts.socket = Some(PathBuf::from(value(&mut i)?)),
            "--connect" => opts.connect = Some(PathBuf::from(value(&mut i)?)),
            "--request" => opts.request = Some(value(&mut i)?),
            "--workers" => {
                let workers: usize = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
                opts.cfg.workers = Some(workers);
            }
            "--state-dir" => opts.cfg.state_dir = Some(PathBuf::from(value(&mut i)?)),
            "--progress-every" => {
                opts.cfg.progress_every = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--progress-every: {e}"))?;
            }
            "--checkpoint-every" => {
                opts.cfg.checkpoint_every = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: pp_serve [--socket PATH] [--workers N] [--state-dir DIR] \
                     [--progress-every N] [--checkpoint-every N] | pp_serve --connect PATH \
                     --request 'JSON'"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if opts.connect.is_some() != opts.request.is_some() {
        return Err("--connect and --request go together".to_string());
    }
    Ok(opts)
}

fn status_fields(status: &JobStatus) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("job".to_string(), Json::U64(status.id.0)),
        (
            "state".to_string(),
            Json::Str(status.state.name().to_string()),
        ),
        (
            "priority".to_string(),
            if status.priority >= 0 {
                Json::U64(status.priority as u64)
            } else {
                Json::I64(status.priority)
            },
        ),
        ("events".to_string(), Json::U64(status.events)),
    ];
    if let Some(error) = &status.error {
        fields.push(("error".to_string(), Json::Str(error.clone())));
    }
    fields
}

/// Handles one request, writing reply line(s).  Returns `true` when the
/// request asks the server to shut down.
fn handle(server: &Server, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            writeln!(out, "{}", error_reply(&message))?;
            return Ok(false);
        }
    };
    let reply = match request {
        Request::Submit { scenario, priority } => match server.submit(scenario, priority) {
            Ok(id) => ok_reply(vec![("job".to_string(), Json::U64(id.0))]),
            Err(message) => error_reply(&message),
        },
        Request::Status(id) => match server.status(id) {
            Some(status) => ok_reply(status_fields(&status)),
            None => error_reply(&format!("no such job: {id}")),
        },
        Request::Result(id) => match server.status(id) {
            Some(status) => match status.result {
                Some(result) => match Json::parse(&result) {
                    Ok(doc) => ok_reply(vec![("result".to_string(), doc)]),
                    Err(e) => error_reply(&format!("stored result is corrupt: {e}")),
                },
                None => error_reply(&format!("job {id} is {}, not done", status.state)),
            },
            None => error_reply(&format!("no such job: {id}")),
        },
        Request::Cancel(id) => match server.cancel(id) {
            Ok(()) => ok_reply(Vec::new()),
            Err(message) => error_reply(&message),
        },
        Request::List => {
            let jobs = server
                .list()
                .iter()
                .map(|status| {
                    let mut builder = ObjBuilder::new();
                    for (key, value) in status_fields(status) {
                        builder = builder.field(&key, value);
                    }
                    builder.build()
                })
                .collect();
            ok_reply(vec![("jobs".to_string(), Json::Arr(jobs))])
        }
        Request::Watch(id, mut from) => loop {
            match server.wait_events(id, from) {
                Ok((lines, terminal)) => {
                    for event in &lines {
                        writeln!(out, "{event}")?;
                    }
                    out.flush()?;
                    from += lines.len() as u64;
                    if terminal && lines.is_empty() {
                        return Ok(false);
                    }
                }
                Err(message) => {
                    writeln!(out, "{}", error_reply(&message))?;
                    return Ok(false);
                }
            }
        },
        Request::Wait(id) => match server.wait(id) {
            Ok(status) => ok_reply(status_fields(&status)),
            Err(message) => error_reply(&message),
        },
        Request::Shutdown => {
            writeln!(out, "{}", ok_reply(Vec::new()))?;
            out.flush()?;
            return Ok(true);
        }
    };
    writeln!(out, "{reply}")?;
    out.flush()?;
    Ok(false)
}

/// Reads one request line: `None` at end of input, otherwise the line or
/// the message of the error reply it gets (not UTF-8, or longer than
/// [`MAX_REQUEST_BYTES`]; the rest of an over-long line is consumed).
fn read_request(reader: &mut impl BufRead) -> std::io::Result<Option<Result<String, String>>> {
    let mut bytes = Vec::new();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', &mut bytes)? == 0 {
        return Ok(None);
    }
    if bytes.len() > MAX_REQUEST_BYTES && bytes.last() != Some(&b'\n') {
        skip_line(reader)?;
        return Ok(Some(Err(format!(
            "request line longer than the {MAX_REQUEST_BYTES}-byte limit"
        ))));
    }
    Ok(Some(String::from_utf8(bytes).map_err(|e| {
        format!(
            "request is not valid UTF-8 (invalid byte at offset {})",
            e.utf8_error().valid_up_to()
        )
    })))
}

/// Consumes input up to and including the next newline, or to the end.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buffered = reader.fill_buf()?;
        if buffered.is_empty() {
            return Ok(());
        }
        if let Some(end) = buffered.iter().position(|&b| b == b'\n') {
            reader.consume(end + 1);
            return Ok(());
        }
        let len = buffered.len();
        reader.consume(len);
    }
}

/// Shuts the server down gracefully and prints how many state-directory
/// writes failed over its life (each failed job went on in memory).
fn shut_down(server: Server) {
    eprintln!("persist failures: {}", server.shutdown());
}

fn serve_stdio(server: Server) -> std::io::Result<()> {
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    while let Some(request) = read_request(&mut stdin)? {
        let stop = match request {
            Ok(line) if line.trim().is_empty() => false,
            Ok(line) => handle(&server, &line, &mut stdout)?,
            Err(message) => {
                writeln!(stdout, "{}", error_reply(&message))?;
                stdout.flush()?;
                false
            }
        };
        if stop {
            break;
        }
    }
    shut_down(server);
    Ok(())
}

fn serve_socket(server: Server, path: &PathBuf) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .map_err(|e| format!("cannot bind socket {}: {e}", path.display()))?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let server = &server;
            let stop = &stop;
            let path = path.clone();
            scope.spawn(move || {
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(read_half);
                let mut stream = stream;
                match read_request(&mut reader) {
                    Ok(Some(Ok(line))) if !line.trim().is_empty() => {
                        if let Ok(true) = handle(server, &line, &mut stream) {
                            stop.store(true, Ordering::SeqCst);
                            // Unblock the accept loop with a throwaway
                            // connection so the listener notices the flag.
                            let _ = UnixStream::connect(&path);
                        }
                    }
                    Ok(Some(Err(message))) => {
                        let _ = writeln!(stream, "{}", error_reply(&message));
                    }
                    _ => {}
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
        }
    });
    shut_down(server);
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn run_client(path: &PathBuf, request: &str) -> Result<bool, String> {
    let mut stream = UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let reader = BufReader::new(stream);
    let mut all_ok = true;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection dropped: {e}"))?;
        if let Ok(doc) = Json::parse(&line) {
            if doc.get("ok").and_then(Json::as_bool) == Some(false) {
                all_ok = false;
            }
        }
        println!("{line}");
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(request)) = (&opts.connect, &opts.request) {
        return match run_client(path, request) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let server = match Server::open(opts.cfg.clone()) {
        Ok(server) => server,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    for skipped in server.quarantined() {
        eprintln!("skipped {}: {}", skipped.file, skipped.reason);
    }
    let outcome = match &opts.socket {
        Some(path) => serve_socket(server, path),
        None => serve_stdio(server).map_err(|e| format!("stdio transport failed: {e}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
