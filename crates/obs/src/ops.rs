//! Live ops plane: a tiny dependency-free HTTP/1.1 responder over
//! [`std::net::TcpListener`] exposing the in-process observability
//! surfaces to scrapers.
//!
//! Built-in routes (served straight from the global [`Registry`]):
//!
//! * `GET /metrics` — Prometheus text exposition ([`Registry::render`]);
//! * `GET /report`  — JSON exposition ([`Registry::render_json`]).
//!
//! Everything else is delegated to the embedder's handler callback — the
//! database facade registers `/healthz` (consistency-sentinel verdict) and
//! `/explain/<deployment>` there, so this crate stays free of engine
//! dependencies. Unknown paths 404; non-GET methods 405.
//!
//! One thread serves every connection, so a client gets one total
//! deadline (`HEAD_DEADLINE`, 500 ms) to send its request head, however it
//! trickles the bytes: a head longer than `MAX_HEAD` (2,048 bytes) is
//! answered 431, a request line that is not `METHOD /path HTTP/x` 400, and
//! a client still sending at the deadline 408.
//!
//! Under `obs-off` the listener is compiled out: [`serve`] returns
//! `ErrorKind::Unsupported` and no socket is ever bound.

use std::io;
#[cfg(not(feature = "obs-off"))]
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
#[cfg(not(feature = "obs-off"))]
use std::time::{Duration, Instant};

/// The longest request head (request line + headers) the responder reads.
#[cfg(not(feature = "obs-off"))]
const MAX_HEAD: usize = 2048;

/// The total time one client gets to send its request head.
#[cfg(not(feature = "obs-off"))]
const HEAD_DEADLINE: Duration = Duration::from_millis(500);

/// Route handler: maps a request path to a response, or `None` to 404.
/// Consulted for every path without a built-in route.
pub type OpsHandler = Arc<dyn Fn(&str) -> Option<OpsResponse> + Send + Sync>;

/// One HTTP response: status code, content type, body.
#[derive(Clone, Debug)]
pub struct OpsResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
}

impl OpsResponse {
    pub fn ok(content_type: &'static str, body: String) -> Self {
        OpsResponse {
            status: 200,
            content_type,
            body,
        }
    }

    // Only called from the connection handler, which `obs-off` compiles out.
    #[cfg_attr(feature = "obs-off", allow(dead_code))]
    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            _ => "Error",
        }
    }
}

/// A running ops listener. Dropping (or calling [`shutdown`]) stops the
/// accept loop and joins the serving thread.
///
/// [`shutdown`]: OpsServer::shutdown
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// The bound address (resolves port 0 to the kernel-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serving thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(not(feature = "obs-off"))]
fn ops_requests() -> &'static Arc<crate::Counter> {
    static C: std::sync::OnceLock<Arc<crate::Counter>> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        crate::Registry::global().counter(
            "openmldb_obs_ops_requests_total",
            "HTTP requests served by the ops endpoint",
        )
    })
}

/// Resolve `path` against the built-in routes, then `handler`. Pure —
/// exercised directly by tests without a socket.
pub fn route(method: &str, path: &str, handler: &OpsHandler) -> OpsResponse {
    if method != "GET" {
        return OpsResponse {
            status: 405,
            content_type: "text/plain",
            body: "method not allowed\n".into(),
        };
    }
    match path {
        "/metrics" => OpsResponse::ok(
            "text/plain; version=0.0.4",
            crate::Registry::global().render(),
        ),
        "/report" => OpsResponse::ok("application/json", crate::Registry::global().render_json()),
        _ => handler(path).unwrap_or(OpsResponse {
            status: 404,
            content_type: "text/plain",
            body: "not found\n".into(),
        }),
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve on a background thread.
///
/// Compiled out under `obs-off`: returns `ErrorKind::Unsupported`.
#[cfg(not(feature = "obs-off"))]
pub fn serve(addr: &str, handler: OpsHandler) -> io::Result<OpsServer> {
    let listener = std::net::TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("openmldb-ops".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        ops_requests().inc();
                        let _ = handle_connection(stream, &handler);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })?;
    Ok(OpsServer {
        addr: bound,
        stop,
        thread: Some(thread),
    })
}

/// `obs-off` stub: the ops plane is compiled out with the rest of the
/// observability layer.
#[cfg(feature = "obs-off")]
pub fn serve(addr: &str, handler: OpsHandler) -> io::Result<OpsServer> {
    let _ = (addr, handler);
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "ops endpoint compiled out (obs-off)",
    ))
}

/// A plain-text error response.
#[cfg(not(feature = "obs-off"))]
fn refusal(status: u16, body: &str) -> OpsResponse {
    OpsResponse {
        status,
        content_type: "text/plain",
        body: format!("{body}\n"),
    }
}

/// The method and path of a request line `METHOD /path HTTP/x`, or `None`
/// when it is not one.
#[cfg(not(feature = "obs-off"))]
fn request_line(head: &[u8]) -> Option<(&str, &str)> {
    let line = head.split(|&b| b == b'\n').next()?;
    let line = std::str::from_utf8(line).ok()?.trim_end_matches('\r');
    let mut parts = line.split(' ');
    let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
    let well_formed = parts.next().is_none()
        && !method.is_empty()
        && method.bytes().all(|b| b.is_ascii_uppercase())
        && path.starts_with('/')
        && version.starts_with("HTTP/");
    well_formed.then_some((method, path))
}

/// Read one request head into `head` within [`HEAD_DEADLINE`] in total,
/// and answer it: routed, or refused (400 malformed, 408 too slow, 431 too
/// long). A head ends at its blank line, or where the client stops sending.
#[cfg(not(feature = "obs-off"))]
fn answer(stream: &mut std::net::TcpStream, handler: &OpsHandler) -> io::Result<OpsResponse> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = [0u8; MAX_HEAD];
    let mut len = 0usize;
    while !head[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        if len == head.len() {
            return Ok(refusal(431, "request head too large"));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(refusal(408, "request head timed out"));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut head[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(refusal(408, "request head timed out"));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(match request_line(&head[..len]) {
        Some((method, path)) => route(method, path, handler),
        None => refusal(400, "malformed request line"),
    })
}

#[cfg(not(feature = "obs-off"))]
fn handle_connection(mut stream: std::net::TcpStream, handler: &OpsHandler) -> io::Result<()> {
    // The accepted socket inherits the listener's non-blocking mode on some
    // platforms; serve the one request with bounded blocking reads instead.
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(HEAD_DEADLINE))?;
    let resp = answer(&mut stream, handler)?;
    let headers = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.status_text(),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(headers.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_extra() -> OpsHandler {
        Arc::new(|_| None)
    }

    #[test]
    fn route_serves_builtins_and_delegates() {
        let r = route("GET", "/metrics", &no_extra());
        assert_eq!(r.status, 200);
        let r = route("GET", "/report", &no_extra());
        assert_eq!(r.status, 200);
        assert!(r.body.starts_with("{\"metrics\""));
        let r = route("GET", "/nope", &no_extra());
        assert_eq!(r.status, 404);
        let r = route("POST", "/metrics", &no_extra());
        assert_eq!(r.status, 405);
        let handler: OpsHandler = Arc::new(|path| {
            (path == "/healthz")
                .then(|| OpsResponse::ok("application/json", "{\"ok\":true}".into()))
        });
        let r = route("GET", "/healthz", &handler);
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"ok\":true}");
    }

    /// Send `bytes` to `addr` and read the answer's status code (0: the
    /// connection closed without one).
    #[cfg(not(feature = "obs-off"))]
    fn status_of(addr: SocketAddr, bytes: &[u8]) -> u16 {
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(bytes).expect("write");
        let mut raw = String::new();
        let _ = conn.read_to_string(&mut raw);
        raw.split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn request_lines_parse_or_are_malformed() {
        assert_eq!(
            request_line(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/healthz"))
        );
        for bad in [
            &b""[..],
            b"\r\n\r\n",
            b"GET\r\n\r\n",
            b"GET /healthz\r\n\r\n",
            b"GET healthz HTTP/1.1\r\n\r\n",
            b"get /healthz HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1 extra\r\n\r\n",
            b"GET /healthz FTP/1.1\r\n\r\n",
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(
                request_line(bad),
                None,
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    /// Hostile clients of the one-thread responder: an over-long head is
    /// 431, a garbage request line 400, and a client trickling one byte
    /// every 100 ms holds the responder for at most [`HEAD_DEADLINE`] in
    /// total, so a second client's `/healthz` is answered within it.
    #[test]
    #[cfg(not(feature = "obs-off"))]
    #[cfg_attr(miri, ignore)]
    fn hostile_heads_are_refused_and_a_trickle_cannot_hold_the_responder() {
        use std::io::Write as _;
        use std::time::{Duration, Instant};
        let handler: OpsHandler = Arc::new(|path| {
            (path == "/healthz").then(|| OpsResponse::ok("application/json", "{}".into()))
        });
        let mut server = serve("127.0.0.1:0", handler).expect("bind");
        let addr = server.addr();

        let mut long = b"GET /healthz HTTP/1.1\r\nX: ".to_vec();
        long.resize(MAX_HEAD + 100, b'a');
        assert_eq!(status_of(addr, &long), 431);
        assert_eq!(status_of(addr, b"\x16\x03\x01garbage\r\n\r\n"), 400);
        assert_eq!(status_of(addr, b"GET /healthz HTTP/1.1\r\n\r\n"), 200);

        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = std::net::TcpStream::connect(addr).expect("connect");
                for b in b"GET /healthz HTTP/1.1\r\nX: ".iter().cycle().take(50) {
                    if stop.load(Ordering::Relaxed) || conn.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        // Let the responder pick the trickling connection up first.
        std::thread::sleep(Duration::from_millis(150));
        let started = Instant::now();
        assert_eq!(status_of(addr, b"GET /healthz HTTP/1.1\r\n\r\n"), 200);
        let waited = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        trickle.join().expect("trickle");
        server.shutdown();
        assert!(
            waited < HEAD_DEADLINE * 2,
            "second client waited {waited:?}"
        );
    }

    #[test]
    fn serve_round_trips_over_tcp_or_is_unsupported() {
        match serve("127.0.0.1:0", no_extra()) {
            Ok(mut server) => {
                assert!(crate::enabled(), "serve must fail under obs-off");
                let addr = server.addr();
                let mut conn = std::net::TcpStream::connect(addr).expect("connect");
                use std::io::{Read as _, Write as _};
                conn.write_all(b"GET /report HTTP/1.1\r\nHost: x\r\n\r\n")
                    .expect("write");
                let mut body = String::new();
                conn.read_to_string(&mut body).expect("read");
                assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
                assert!(body.contains("{\"metrics\""), "{body}");
                server.shutdown();
            }
            Err(e) => {
                assert!(!crate::enabled(), "bind failed with obs on: {e}");
                assert_eq!(e.kind(), io::ErrorKind::Unsupported);
            }
        }
    }
}
