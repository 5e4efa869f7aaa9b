//! A small HTTP/1.1 server on the wire crate's epoll machinery.
//!
//! Leader/follower: each of the `workers` threads waits on one shared
//! [`Epoll`](tdp_wire::sys::Epoll) set itself, taking one event per
//! wait so a burst of ready connections spreads across the workers.
//! The listener and every connection are registered `EPOLLONESHOT`, so
//! a fired registration belongs to exactly the one worker that woke
//! for it until that worker re-arms it. Woken for the listener, a
//! worker accepts everything pending and re-arms the listener; woken
//! for a connection, it reads the socket, answers every complete
//! (pipelined) request in the buffer by calling the handler inline,
//! and then re-arms the connection or closes it. No thread hands a
//! request to another, so a request costs one wake-up. Shutdown signals
//! a level-triggered eventfd that is never drained, which wakes every
//! worker at once.
//!
//! Scope: `POST` with `Content-Length` (JSON-RPC) and bare `GET`
//! (health probes). No chunked transfer, no TLS — the gateway fronts a
//! lab network, and clients are the bench harness, curl, and the
//! example programs.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdp_sync::Mutex;
use tdp_wire::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// How long a worker keeps retrying a `WouldBlock` write before it
/// declares the client stalled and drops the connection.
const WRITE_STALL: Duration = Duration::from_secs(5);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_STOP: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;

/// One parsed inbound request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Header names lowercased; values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// The response a handler returns.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain",
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            _ => "Error",
        }
    }

    fn render(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
                self.status,
                self.reason(),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        out.extend_from_slice(&self.body);
        out
    }
}

/// Request handler. Must be cheap to call concurrently; one invocation
/// per in-flight request, from worker threads.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

// ------------------------------------------------------------- parsing

/// Outcome of trying to cut one request off the front of a read buffer.
enum Parsed {
    /// Not enough bytes yet.
    Partial,
    /// One full request; `consumed` bytes should be drained.
    Done(HttpRequest, usize),
    /// Unrecoverable framing problem: answer with this status and
    /// close the connection.
    Bad(u16, &'static str),
}

fn parse_one(buf: &[u8]) -> Parsed {
    // Search no further than a head of MAX_HEAD bytes plus its blank
    // line could reach, so a huge head is refused whether it arrived in
    // one read or trickled in.
    let head_end = match find_head_end(&buf[..buf.len().min(MAX_HEAD + 4)]) {
        Some(i) => i,
        None if buf.len() >= MAX_HEAD + 4 => return Parsed::Bad(400, "header section too large"),
        None => return Parsed::Partial,
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Parsed::Bad(400, "non-UTF-8 header section"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Parsed::Bad(400, "malformed request line"),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Bad(400, "malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => return Parsed::Bad(400, "bad content-length"),
            };
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY {
        return Parsed::Bad(413, "body too large");
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Parsed::Partial;
    }
    let req = HttpRequest {
        method,
        path,
        headers,
        body: buf[body_start..total].to_vec(),
    };
    Parsed::Done(req, total)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn wants_close(req: &HttpRequest) -> bool {
    matches!(req.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
}

// ---------------------------------------------------------- connection

struct Conn {
    stream: TcpStream,
    token: u64,
    /// Bytes read off the socket but not yet consumed as requests.
    buf: Mutex<Vec<u8>>,
}

impl Conn {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

struct Shared {
    epoll: Epoll,
    /// Level-triggered and never drained: once signalled, every
    /// `epoll_wait` on the set returns it, so every worker stops.
    stop: EventFd,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
    handler: Handler,
}

impl Shared {
    fn close(&self, conn: &Conn) {
        // Delete before dropping the map entry so no worker can see a
        // readiness event for a token that was just freed.
        let _ = self.epoll.delete(conn.fd());
        self.conns.lock().remove(&conn.token);
    }

    fn rearm(&self, conn: &Conn) {
        if self
            .epoll
            .modify(conn.fd(), CONN_EVENTS, conn.token)
            .is_err()
        {
            self.close(conn);
        }
    }
}

// -------------------------------------------------------------- server

/// A running HTTP server; dropping it (or calling [`shutdown`]) stops
/// the worker threads.
///
/// [`shutdown`]: HttpServer::shutdown
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// `workers` threads, each of which waits on the epoll set, accepts,
    /// reads and runs the handler.
    pub fn bind(addr: &str, workers: usize, handler: Handler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            epoll: Epoll::new()?,
            stop: EventFd::new()?,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            handler,
        });
        shared
            .epoll
            .add(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)?;
        shared.epoll.add(shared.stop.fd(), EPOLLIN, TOKEN_STOP)?;

        // The workers own the listener between them: it closes when the
        // last one exits, so `shutdown` stops accepting once it has
        // joined them.
        let listener = Arc::new(listener);
        let threads = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("gw-http-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &listener))
                    .expect("spawn http worker")
            })
            .collect();
        Ok(HttpServer {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently-open client connections.
    pub fn open_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Stop accepting, close all connections, join all threads.
    pub fn shutdown(&mut self) {
        self.shared.stop.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.conns.lock().clear();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, listener: &TcpListener) {
    let mut events = [EpollEvent {
        events: 0,
        token: 0,
    }];
    loop {
        let token = match shared.epoll.wait(&mut events, -1) {
            Ok([ev]) => ev.token,
            Ok(_) => continue,
            Err(_) => return,
        };
        match token {
            TOKEN_STOP => return,
            TOKEN_LISTENER => {
                accept_all(shared, listener);
                if shared
                    .epoll
                    .modify(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)
                    .is_err()
                {
                    return;
                }
            }
            t => {
                let conn = shared.conns.lock().get(&t).cloned();
                if let Some(conn) = conn {
                    serve_conn(shared, &conn);
                }
            }
        }
    }
}

fn accept_all(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(Conn {
                    stream,
                    token,
                    buf: Mutex::new(Vec::new()),
                });
                shared.conns.lock().insert(token, Arc::clone(&conn));
                if shared.epoll.add(conn.fd(), CONN_EVENTS, token).is_err() {
                    shared.conns.lock().remove(&token);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Read whatever the socket has, answer every complete request in the
/// buffer, then re-arm the connection (or close it on EOF, error,
/// `connection: close` or a malformed request). The oneshot
/// registration is quiescent for the whole call, so the calling worker
/// has exclusive use of the connection.
fn serve_conn(shared: &Shared, conn: &Conn) {
    let eof = fill(conn);
    loop {
        let parsed = {
            let mut buf = conn.buf.lock();
            match parse_one(&buf) {
                Parsed::Done(req, consumed) => {
                    buf.drain(..consumed);
                    Ok(req)
                }
                Parsed::Partial => break,
                Parsed::Bad(status, why) => Err((status, why)),
            }
        };
        match parsed {
            Ok(req) => {
                let resp = (shared.handler)(&req);
                let close = wants_close(&req);
                if !write_all(conn, &resp.render(!close)) || close {
                    shared.close(conn);
                    return;
                }
            }
            Err((status, why)) => {
                let resp = HttpResponse::text(status, format!("bad request: {why}\n"));
                let _ = write_all(conn, &resp.render(false));
                shared.close(conn);
                return;
            }
        }
    }
    if eof {
        shared.close(conn);
    } else {
        shared.rearm(conn);
    }
}

/// Append everything the socket has to the connection's buffer. Returns
/// true when the peer has closed (or the socket failed).
fn fill(conn: &Conn) -> bool {
    let mut buf = conn.buf.lock();
    let mut chunk = [0u8; 8192];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return true,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // A short read emptied the socket: skip the read that
                // would only say so. Whatever arrives next, EOF
                // included, fires the re-armed registration.
                if n < chunk.len() {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Write the whole response, spinning briefly on `WouldBlock` (we never
/// register for `EPOLLOUT`; responses are small and clients that stall
/// a socket for [`WRITE_STALL`] get dropped).
fn write_all(conn: &Conn, mut data: &[u8]) -> bool {
    let deadline = Instant::now() + WRITE_STALL;
    while !data.is_empty() {
        match (&conn.stream).write(data) {
            Ok(0) => return false,
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &HttpRequest| {
                HttpResponse::json(200, format!("{{\"path\":\"{}\"}}", req.path))
            }),
        )
        .unwrap()
    }

    fn raw_roundtrip(addr: SocketAddr, req: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_get_and_post() {
        let srv = echo_server();
        let out = raw_roundtrip(
            srv.addr(),
            "GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("{\"path\":\"/health\"}"), "{out}");

        let body = r#"{"x":1}"#;
        let out = raw_roundtrip(
            srv.addr(),
            &format!(
                "POST /rpc HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(out.contains("\"path\":\"/rpc\""), "{out}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let srv = echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for i in 0..3 {
            s.write_all(format!("GET /r{i} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            let mut buf = [0u8; 4096];
            let mut got = String::new();
            while !got.contains(&format!("/r{i}")) {
                let n = (&s).read(&mut buf).unwrap();
                assert!(n > 0, "server closed mid-keep-alive");
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        }
    }

    #[test]
    fn pipelined_requests_all_answered() {
        let srv = echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Two requests in one write; second asks to close so
        // read_to_string terminates.
        s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.contains("/a") && out.contains("/b"), "{out}");
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let srv = echo_server();
        let out = raw_roundtrip(srv.addr(), "NOT-HTTP\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn shutdown_joins_threads() {
        let mut srv = echo_server();
        let addr = srv.addr();
        srv.shutdown();
        // Listener is gone: connecting now fails or is refused quickly.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }

    #[test]
    fn header_lookup_ignores_case() {
        let req = HttpRequest {
            method: "GET".into(),
            path: "/".into(),
            headers: vec![
                ("x-api-key".into(), "k1".into()),
                ("connection".into(), "Close".into()),
            ],
            body: Vec::new(),
        };
        assert_eq!(req.header("X-Api-Key"), Some("k1"));
        assert_eq!(req.header("x-api-key"), Some("k1"));
        assert_eq!(req.header("CONNECTION"), Some("Close"));
        assert_eq!(req.header("content-length"), None);
        assert!(wants_close(&req));
    }

    #[test]
    fn body_over_cap_gets_413_and_close() {
        let srv = echo_server();
        let out = raw_roundtrip(
            srv.addr(),
            &format!(
                "POST /rpc HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            ),
        );
        assert!(
            out.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
            "{out}"
        );
        assert!(out.contains("connection: close\r\n"), "{out}");

        // A body of exactly MAX_BODY is waited for, not refused.
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(format!("POST /rpc HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n").as_bytes())
            .unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 64];
        let err = (&s).read(&mut buf).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}"
        );
    }

    #[test]
    fn head_over_cap_gets_400_and_close() {
        let srv = echo_server();
        let head = |pad: usize| {
            format!(
                "GET /big HTTP/1.1\r\nconnection: close\r\nx-pad: {}\r\n\r\n",
                "a".repeat(pad)
            )
        };
        let out = raw_roundtrip(srv.addr(), &head(MAX_HEAD));
        assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{out}");
        assert!(out.contains("header section too large"), "{out}");

        // Just under the cap is served.
        let out = raw_roundtrip(srv.addr(), &head(MAX_HEAD - 100));
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
    }

    #[test]
    fn blocked_handler_does_not_delay_another_connection() {
        let (entered_tx, entered_rx) = crossbeam::channel::bounded::<()>(1);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(1);
        let srv = HttpServer::bind(
            "127.0.0.1:0",
            2,
            Arc::new(move |req: &HttpRequest| {
                if req.path == "/block" {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
                HttpResponse::json(200, format!("{{\"path\":\"{}\"}}", req.path))
            }),
        )
        .unwrap();

        let mut blocked = TcpStream::connect(srv.addr()).unwrap();
        blocked
            .write_all(b"GET /block HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("handler never entered");

        // One worker is parked in the handler; the other serves this.
        let out = raw_roundtrip(
            srv.addr(),
            "GET /fast HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(out.ends_with("{\"path\":\"/fast\"}"), "{out}");

        release_tx.send(()).unwrap();
        blocked
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut out = String::new();
        let _ = blocked.read_to_string(&mut out);
        assert!(out.ends_with("{\"path\":\"/block\"}"), "{out}");
    }

    #[test]
    fn request_split_across_writes_answered_once() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let srv = {
            let calls = Arc::clone(&calls);
            HttpServer::bind(
                "127.0.0.1:0",
                2,
                Arc::new(move |req: &HttpRequest| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    HttpResponse::json(200, req.body.clone())
                }),
            )
            .unwrap()
        };
        let body = r#"{"x":1}"#;
        let head = format!(
            "POST /rpc HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        // Half the head, the rest of it, then the body: each pause
        // makes the server re-arm with a partial request buffered.
        let (a, b) = head.split_at(10);
        for part in [a, b, body] {
            s.write_all(part.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        }
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
        assert!(out.ends_with(body), "{out}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn half_request_then_close_gets_no_response() {
        let srv = echo_server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"POST /rpc HTTP/1.1\r\ncontent-length: 10\r\n\r\n{\"x")
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while srv.open_connections() != 1 {
            assert!(Instant::now() < deadline, "connection never accepted");
            std::thread::sleep(Duration::from_millis(5));
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert_eq!(out, "");
        // The server forgets the connection before its socket closes.
        assert_eq!(srv.open_connections(), 0);
    }
}
