//! The line-delimited JSON transport, once. **Server half** ([`Endpoint`]):
//! bind, accept loop, thread per connection, and the connection loop — line
//! cap, idle timeout, blank-line skip, parse-error reply, reply-then-close
//! `shutdown`. What a request means is the owner's business (`ihtl-serve`'s
//! [`crate::Server`], `ihtl-router`'s `Router`): it passes a
//! `Fn(Request) -> Json` dispatcher. **Client half** ([`LineClient`]): dial
//! with timeouts, send one line, read one line — the router's worker links
//! and `ihtl-cli`.
//!
//! Both halves set `TCP_NODELAY` and put each message on the socket with one
//! `write_all` of the whole line. Handing `Json`'s `Display` fragments to
//! the `TcpStream` made every reply a train of small segments whose tail
//! Nagle held until the peer's delayed ACK: 44 ms per reply for every
//! synchronous client. The endpoint holds no lock, so none spans socket I/O.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::proto::{error_reply, Op, Request};

/// After an over-cap line is refused, up to this many caps' worth of the
/// rest of it is read and discarded before the connection is closed.
const DRAIN_CAPS: u64 = 64;

/// An endpoint's shutdown flag plus the address that wakes its accept loop.
#[derive(Clone)]
struct Stopper {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Stopper {
    fn request_shutdown(&self) {
        // ORDERING: SeqCst — shutdown is a once-per-process edge; the accept
        // loop's SeqCst load must see it in total order with the wake-up
        // connection below, and the cost is irrelevant off the hot path.
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound (not yet accepting) listener.
pub struct Endpoint {
    listener: TcpListener,
    stop: Stopper,
    role: &'static str,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
}

/// Handle to an endpoint whose owner runs on a background thread.
pub struct Handle {
    stop: Stopper,
    accept_thread: JoinHandle<()>,
}

impl Handle {
    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Stops the accept loop, then joins the owner's thread.
    pub fn shutdown(self) {
        self.stop.request_shutdown();
        let _ = self.accept_thread.join();
    }
}

impl Endpoint {
    /// Binds the listening socket (port 0 picks an ephemeral port). `role`
    /// names the threads (`<role>-accept`, `<role>-conn`); request lines
    /// longer than `max_line_bytes` are refused, and a connection whose
    /// client sends nothing for `idle_timeout` is closed (`None` = never).
    pub fn bind(
        addr: &str,
        role: &'static str,
        max_line_bytes: usize,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Endpoint> {
        let listener = TcpListener::bind(addr)?;
        // Resolved once, so the accept loop and the shutdown path never
        // need a fallible OS query.
        let addr = listener.local_addr()?;
        let stop = Stopper { flag: Arc::new(AtomicBool::new(false)), addr };
        Ok(Endpoint { listener, stop, role, max_line_bytes, idle_timeout })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.addr
    }

    /// Runs the accept loop on the current thread until shutdown (a
    /// `shutdown` request or [`Handle::shutdown`]). Every parsed request
    /// goes through `dispatch`, whose return value is the reply;
    /// `on_idle_close` runs once per connection closed by the idle timeout.
    pub fn run<D, I>(self, dispatch: D, on_idle_close: I)
    where
        D: Fn(Request) -> Json + Send + Sync + 'static,
        I: Fn() + Send + Sync + 'static,
    {
        let conn = Arc::new(Connections {
            dispatch,
            on_idle_close,
            stop: self.stop.clone(),
            max_line_bytes: self.max_line_bytes,
            idle_timeout: self.idle_timeout,
        });
        for stream in self.listener.incoming() {
            // ORDERING: SeqCst — pairs with Stopper::request_shutdown's swap.
            if self.stop.flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn = Arc::clone(&conn);
            let _ = std::thread::Builder::new()
                .name(format!("{}-conn", self.role))
                .spawn(move || conn.serve(stream));
        }
    }

    /// Runs `owner_run` — the owner's `run`, handed this endpoint back — on
    /// a background thread.
    pub fn spawn(self, owner_run: impl FnOnce(Endpoint) + Send + 'static) -> io::Result<Handle> {
        let stop = self.stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", self.role))
            .spawn(move || owner_run(self))?;
        Ok(Handle { stop, accept_thread })
    }
}

/// What every connection thread of one endpoint shares.
struct Connections<D, I> {
    dispatch: D,
    on_idle_close: I,
    stop: Stopper,
    max_line_bytes: usize,
    idle_timeout: Option<Duration>,
}

impl<D: Fn(Request) -> Json, I: Fn()> Connections<D, I> {
    fn serve(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // The timeout only governs reads between requests: a job in flight
        // blocks in `dispatch`, not in `read_line`, so slow jobs are unaffected.
        let _ = stream.set_read_timeout(self.idle_timeout);
        let Ok(mut writer) = stream.try_clone() else { return };
        let mut reader = BufReader::new(stream);
        // One buffer per connection, both ways: the request line is dead
        // once parsed, so the reply is rendered over it.
        let mut line = String::new();
        loop {
            line.clear();
            // take() bounds the line length; a longer line shows up as a "line"
            // with no terminating newline and non-empty content.
            let mut limited = (&mut reader).take(self.max_line_bytes as u64);
            match limited.read_line(&mut line) {
                Ok(0) => return, // client closed
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Idle expiry (both kinds occur across platforms). Closing
                    // frees the connection thread and its file descriptor.
                    (self.on_idle_close)();
                    let _ =
                        send(&mut writer, &mut line, &error_reply(None, "idle timeout, closing"));
                    return;
                }
                Err(_) => return,
            }
            if !line.ends_with('\n') && line.len() >= self.max_line_bytes {
                let _ = send(&mut writer, &mut line, &error_reply(None, "request line too long"));
                // Closing with the rest of the line unread sends an RST, which
                // can destroy the reply before the client reads it. So end our
                // side, then discard what is still coming (each read bounded
                // by the idle timeout) until the client closes its side.
                let _ = writer.shutdown(Shutdown::Write);
                let rest = (self.max_line_bytes as u64).saturating_mul(DRAIN_CAPS);
                let _ = io::copy(&mut reader.take(rest), &mut io::sink());
                return;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let request = Request::parse(trimmed);
            let is_shutdown = matches!(&request, Ok(req) if req.op == Op::Shutdown);
            let reply = request.map_or_else(|msg| error_reply(None, &msg), &self.dispatch);
            let sent = send(&mut writer, &mut line, &reply);
            // A reply can be far larger than any request (`include_values`);
            // an idle connection must not keep that much.
            line.shrink_to(self.max_line_bytes);
            if is_shutdown {
                let _ = writer.shutdown(Shutdown::Both);
                self.stop.request_shutdown();
                return;
            }
            if sent.is_err() {
                return;
            }
        }
    }
}

/// Renders `reply` and its newline into `buf` (replacing its contents), then
/// puts it on the socket in one write.
fn send(stream: &mut TcpStream, buf: &mut String, reply: &Json) -> io::Result<()> {
    use std::fmt::Write as _;
    buf.clear();
    let _ = writeln!(buf, "{reply}"); // writing into a String cannot fail
    stream.write_all(buf.as_bytes())
}

/// A message as it goes on the wire: one line, newline included.
pub fn wire_line(msg: &Json) -> String {
    format!("{msg}\n")
}

/// One client connection speaking the line protocol: strictly one request
/// line out, one reply line back.
pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    /// Dials `addr`. A timeout bounds the connect and every later read and
    /// write; `None` waits as long as the OS does.
    pub fn connect(addr: &str, timeout: Option<Duration>) -> io::Result<LineClient> {
        let stream = match timeout {
            None => TcpStream::connect(addr),
            Some(limit) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(ErrorKind::InvalidInput, "address resolves to nothing")
                })?;
                TcpStream::connect_timeout(&resolved, limit)
            }
        }?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_write_timeout(timeout);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineClient { stream, reader })
    }

    /// Sends `line` — a [`wire_line`], newline included, so a request
    /// rendered once goes to any number of peers without a copy — and
    /// returns the reply line. A peer that closes without replying is
    /// `UnexpectedEof`, not an empty reply.
    pub fn exchange(&mut self, line: &str) -> io::Result<String> {
        debug_assert!(line.ends_with('\n'), "a request without its newline is never answered");
        self.stream.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed the connection"));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ok_reply;
    use std::sync::atomic::AtomicUsize;

    /// A toy owner: every request is answered with its own `Op` rendered as
    /// a string; idle closes and the owner's after-loop step are observable.
    struct Toy {
        handle: Handle,
        idle_closes: Arc<AtomicUsize>,
        after_loop: Arc<AtomicBool>,
    }

    fn toy(max_line_bytes: usize, idle_timeout: Option<Duration>) -> Toy {
        let idle_closes = Arc::new(AtomicUsize::new(0));
        let after_loop = Arc::new(AtomicBool::new(false));
        let (closes, after) = (Arc::clone(&idle_closes), Arc::clone(&after_loop));
        let handle = Endpoint::bind("127.0.0.1:0", "toy", max_line_bytes, idle_timeout)
            .unwrap()
            .spawn(move |endpoint| {
                endpoint.run(
                    |req| {
                        ok_reply(req.id, Json::obj([("op", Json::from(format!("{:?}", req.op)))]))
                    },
                    move || {
                        closes.fetch_add(1, Ordering::SeqCst);
                    },
                );
                after.store(true, Ordering::SeqCst);
            })
            .unwrap();
        Toy { handle, idle_closes, after_loop }
    }

    fn dial(toy: &Toy) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(toy.handle.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// Reads one line; `None` at a clean EOF. A reset is an `Err` and fails
    /// the test — that is the point of the over-cap test.
    fn read_reply(reader: &mut BufReader<TcpStream>) -> Option<String> {
        let mut line = String::new();
        match reader.read_line(&mut line).expect("reply must be readable, not a reset") {
            0 => None,
            _ => {
                assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
                line.pop();
                Some(line)
            }
        }
    }

    #[test]
    fn oversize_line_is_answered_with_a_readable_error_then_eof() {
        // Twice the cap, and far more than the BufReader holds, so the
        // kernel still has unread bytes queued when the error goes out: the
        // old "reply, return" turned the close into an RST that beat the
        // reply to the client.
        let cap = 64 << 10;
        let toy = toy(cap, Some(Duration::from_secs(5)));
        let (mut writer, mut reader) = dial(&toy);
        let mut line = vec![b'x'; 2 * cap];
        line.push(b'\n');
        writer.write_all(&line).unwrap();
        assert_eq!(
            read_reply(&mut reader).as_deref(),
            Some("{\"ok\":false,\"error\":\"request line too long\"}")
        );
        assert_eq!(read_reply(&mut reader), None, "connection must close after the error");
        toy.handle.shutdown();
    }

    #[test]
    fn idle_connection_gets_a_notice_then_eof_and_the_hook_runs_once() {
        let toy = toy(1 << 20, Some(Duration::from_millis(100)));
        let (_writer, mut reader) = dial(&toy);
        assert_eq!(
            read_reply(&mut reader).as_deref(),
            Some("{\"ok\":false,\"error\":\"idle timeout, closing\"}")
        );
        assert_eq!(read_reply(&mut reader), None);
        assert_eq!(toy.idle_closes.load(Ordering::SeqCst), 1);
        toy.handle.shutdown();
    }

    #[test]
    fn blank_lines_are_skipped_and_a_bad_line_keeps_the_connection_usable() {
        let toy = toy(1 << 20, None);
        let (mut writer, mut reader) = dial(&toy);
        writer.write_all(b"\n  \n\r\n{\"op\":\"ping\",\"id\":1}\n").unwrap();
        assert_eq!(
            read_reply(&mut reader).as_deref(),
            Some("{\"id\":1,\"ok\":true,\"op\":\"Ping\"}"),
            "blank lines must produce no reply of their own"
        );
        // Error wording captured from the commit before the endpoint existed.
        for (bad, golden) in [
            ("not json", "{\"ok\":false,\"error\":\"JSON error at byte 0: expected 'null'\"}"),
            ("{\"op\":\"warp\",\"id\":2}", "{\"ok\":false,\"error\":\"unknown op 'warp'\"}"),
            ("{\"id\":3}", "{\"ok\":false,\"error\":\"request requires a string 'op' field\"}"),
        ] {
            writeln!(writer, "{bad}").unwrap();
            assert_eq!(read_reply(&mut reader).as_deref(), Some(golden), "{bad}");
        }
        writeln!(writer, "{{\"op\":\"list\"}}").unwrap();
        assert_eq!(read_reply(&mut reader).as_deref(), Some("{\"ok\":true,\"op\":\"List\"}"));
        assert_eq!(toy.idle_closes.load(Ordering::SeqCst), 0);
        toy.handle.shutdown();
    }

    #[test]
    fn shutdown_request_is_answered_then_the_loop_exits_and_the_handle_joins() {
        let toy = toy(1 << 20, None);
        let (mut writer, mut reader) = dial(&toy);
        writeln!(writer, "{{\"op\":\"shutdown\",\"id\":\"x\"}}").unwrap();
        assert_eq!(
            read_reply(&mut reader).as_deref(),
            Some("{\"id\":\"x\",\"ok\":true,\"op\":\"Shutdown\"}")
        );
        assert_eq!(read_reply(&mut reader), None, "shutdown closes its connection");
        let addr = toy.handle.addr();
        // Joins the owner's thread: its after-loop step has run by now.
        toy.handle.shutdown();
        assert!(toy.after_loop.load(Ordering::SeqCst));
        assert!(TcpStream::connect(addr).is_err(), "listener must be gone");
    }

    #[test]
    fn line_client_exchanges_and_reports_a_silent_close_as_eof() {
        let toy = toy(1 << 20, None);
        let addr = toy.handle.addr().to_string();
        for timeout in [None, Some(Duration::from_secs(5))] {
            let mut client = LineClient::connect(&addr, timeout).unwrap();
            for id in 0..3 {
                let reply = client.exchange(&format!("{{\"op\":\"ping\",\"id\":{id}}}\n")).unwrap();
                assert_eq!(reply, format!("{{\"id\":{id},\"ok\":true,\"op\":\"Ping\"}}\n"));
            }
        }
        toy.handle.shutdown();
        // A peer that reads the request and closes without a word.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let closer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(stream).read_line(&mut String::new()).unwrap();
        });
        let mut client = LineClient::connect(&addr, Some(Duration::from_secs(5))).unwrap();
        let err = client.exchange("{\"op\":\"ping\"}\n").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        closer.join().unwrap();
    }
}
