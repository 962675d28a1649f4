//! A small blocking HTTP/1.1 client for the load generator.
//!
//! It frames every response by `content-length`, keeps the connection
//! open unless the server answers `connection: close` (or speaks
//! HTTP/1.0), and counts the connections it opens. Today's server closes
//! after every response, so the benchmark pays one connect per request; a
//! server that keeps connections alive is measured as such without any
//! change here. Connections close with a reset, so a run leaves no
//! TIME_WAIT entries for the next one to pay for.

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a read may stall before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A complete response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body, exactly `content-length` bytes.
    pub body: String,
}

/// Why a request produced no response.
#[derive(Debug)]
pub enum HttpError {
    /// Connecting, writing or reading failed.
    Io(std::io::Error),
    /// The peer closed the connection before the response was complete.
    EarlyEof,
    /// The response was not HTTP/1.x or its framing was unusable.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::EarlyEof => f.write_str("connection closed mid-response"),
            HttpError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

/// One client: at most one open connection, reused while the server
/// allows it.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    /// Connect latencies, one per connection opened, in µs.
    pub connect_us: Vec<f64>,
}

impl Client {
    /// A client for the server at `addr` (`host:port`); connects lazily.
    #[must_use]
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_owned(),
            conn: None,
            connect_us: Vec::new(),
        }
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`HttpError`].
    pub fn get(&mut self, path: &str) -> Result<Response, HttpError> {
        self.request("GET", path, "")
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`HttpError`].
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, HttpError> {
        self.request("POST", path, body)
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, HttpError> {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            // A kept-alive connection the server closed while idle: the
            // request never reached it, so it is safe to send once more.
            Err((_, false)) if reused => self.exchange(method, path, body).map_err(|(e, _)| e),
            result => result.map_err(|(e, _)| e),
        }
    }

    /// One request/response on the open connection (opening one if
    /// needed). On error, also says whether any response byte arrived.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Response, (HttpError, bool)> {
        let result = self.exchange_inner(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange_inner(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Response, (HttpError, bool)> {
        if self.conn.is_none() {
            let start = Instant::now();
            let stream = TcpStream::connect(&self.addr).map_err(|e| (HttpError::Io(e), false))?;
            self.connect_us.push(start.elapsed().as_secs_f64() * 1e6);
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
            reset_on_close(&stream).map_err(|e| (HttpError::Io(e), false))?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        conn.get_mut()
            .write_all(&bytes)
            .map_err(|e| (HttpError::Io(e), false))?;
        let (response, keep) = read_response(conn)?;
        if !keep {
            self.conn = None;
        }
        Ok(response)
    }
}

/// `struct linger` of `setsockopt(2)`.
#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

/// Makes closing `stream` send a reset instead of a FIN (`SO_LINGER` with
/// a zero timeout), so the connection leaves no TIME_WAIT entry behind.
/// The client only closes after reading a whole response, so nothing is
/// lost. Without this, a `serve_zipf` run leaves ~40 000 TIME_WAIT
/// entries that live 60 s; the next run's server pays for their expiry
/// in its own CPU time, so back-to-back runs grew slower one after the
/// other.
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd as _;
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which stays open for the
    // whole call; `linger` is a valid `struct linger` that outlives the
    // call, and the length passed is its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Reads one response from `conn`; also says whether the connection may
/// carry another request.
fn read_response<R: std::io::BufRead>(conn: &mut R) -> Result<(Response, bool), (HttpError, bool)> {
    let mut line = String::new();
    let n = conn
        .read_line(&mut line)
        .map_err(|e| (HttpError::Io(e), false))?;
    if n == 0 {
        return Err((HttpError::EarlyEof, false));
    }
    let malformed = |m: String| (HttpError::Malformed(m), true);
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or_default().to_owned();
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("status line {:?}", line.trim_end())));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed(format!("status line {:?}", line.trim_end())))?;
    let mut length: Option<usize> = None;
    let mut keep = version == "HTTP/1.1";
    loop {
        line.clear();
        if conn
            .read_line(&mut line)
            .map_err(|e| (HttpError::Io(e), true))?
            == 0
        {
            return Err((HttpError::EarlyEof, true));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(malformed(format!("header {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse()
                    .map_err(|_| malformed(format!("content-length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = Vec::new();
    match length {
        Some(len) => {
            body.resize(len, 0);
            conn.read_exact(&mut body).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => (HttpError::EarlyEof, true),
                _ => (HttpError::Io(e), true),
            })?;
        }
        // Without a length only the end of the connection frames the body.
        None if !keep => {
            conn.read_to_end(&mut body)
                .map_err(|e| (HttpError::Io(e), true))?;
        }
        None => {
            return Err(malformed(
                "keep-alive response without content-length".into(),
            ))
        }
    }
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8".into()))?;
    Ok((Response { status, body }, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, Read as _};
    use std::net::TcpListener;

    /// Serves each of `replies` (raw bytes) on its own accepted
    /// connection, or several on one connection when they are joined in
    /// one entry; returns the address and the requests each connection
    /// carried.
    fn fake_server(
        replies: Vec<Vec<&'static str>>,
    ) -> (String, std::thread::JoinHandle<Vec<usize>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut served = Vec::new();
            for conn_replies in replies {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream);
                let mut requests = 0;
                for reply in conn_replies {
                    // Consume one request: head, then its declared body.
                    let mut len = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("read");
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            len = v.trim().parse().expect("length");
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut body = vec![0; len];
                    reader.read_exact(&mut body).expect("body");
                    requests += 1;
                    reader.get_mut().write_all(reply.as_bytes()).expect("write");
                }
                served.push(requests);
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn frames_by_content_length_and_keeps_the_connection() {
        let (addr, server) = fake_server(vec![vec![
            "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello",
            "HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok",
        ]]);
        let mut client = Client::new(&addr);
        let a = client.post("/v1/sim", "{}").expect("first");
        let b = client.get("/x").expect("second");
        assert_eq!((a.status, a.body.as_str()), (200, "hello"));
        assert_eq!((b.status, b.body.as_str()), (201, "ok"));
        assert_eq!(
            client.connect_us.len(),
            1,
            "keep-alive reuses the connection"
        );
        assert_eq!(server.join().expect("server"), vec![2]);
    }

    #[test]
    fn connection_close_opens_a_new_connection() {
        let close = "HTTP/1.1 200 OK\r\ncontent-length: 1\r\nconnection: close\r\n\r\nx";
        let (addr, server) = fake_server(vec![vec![close], vec![close]]);
        let mut client = Client::new(&addr);
        for _ in 0..2 {
            assert_eq!(client.get("/").expect("ok").body, "x");
        }
        assert_eq!(client.connect_us.len(), 2);
        assert_eq!(server.join().expect("server"), vec![1, 1]);
    }

    #[test]
    fn early_eof_is_an_error_not_a_short_body() {
        let (addr, server) = fake_server(vec![vec![
            "HTTP/1.1 200 OK\r\ncontent-length: 10\r\nconnection: close\r\n\r\nshort",
        ]]);
        let mut client = Client::new(&addr);
        assert!(matches!(client.get("/"), Err(HttpError::EarlyEof)));
        server.join().expect("server");
    }

    #[test]
    fn framing_rules_on_raw_bytes() {
        let parse = |raw: &str| read_response(&mut BufReader::new(raw.as_bytes()));
        let (r, keep) = parse("HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcEXTRA").expect("ok");
        assert_eq!(
            (r.body.as_str(), keep),
            ("abc", true),
            "stops at content-length"
        );
        let (r, keep) = parse("HTTP/1.0 200 OK\r\n\r\nto the end").expect("ok");
        assert_eq!((r.body.as_str(), keep), ("to the end", false));
        assert!(parse("HTTP/1.1 200 OK\r\n\r\nno length").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n").is_err());
        assert!(matches!(parse(""), Err((HttpError::EarlyEof, false))));
        assert!(parse("SSH-2.0 hello\r\n\r\n").is_err());
    }
}
