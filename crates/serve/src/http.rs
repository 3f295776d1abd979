//! A minimal, defensive HTTP/1.1 layer over `std::io`.
//!
//! The daemon serves a handful of fixed routes from plain
//! `TcpStream`s, so a full HTTP implementation is unnecessary — but
//! the parser faces the open network and must treat every byte as
//! hostile: request lines, headers, and bodies are all size-capped,
//! malformed input maps to a typed [`RequestError`] (never a panic),
//! and chunked transfer encoding is rejected up front.
//!
//! The core parser is *incremental*: [`try_parse`] inspects a byte
//! buffer and either yields a complete request plus the number of
//! bytes it consumed, asks for more bytes, or fails terminally. The
//! event loop feeds it from nonblocking reads (bytes can arrive
//! fragmented at any boundary).

use std::fmt;

/// Hard caps applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes for the request line plus all headers.
    pub max_head_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Decoded path component of the target, e.g. `/verify`.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
    /// HTTP minor version: 1 for `HTTP/1.1`, 0 for `HTTP/1.0`.
    pub minor_version: u8,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`,
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    /// `Connection` is treated as a comma-separated token list.
    pub fn keep_alive(&self) -> bool {
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    return false;
                }
                if token.eq_ignore_ascii_case("keep-alive") {
                    return true;
                }
            }
        }
        self.minor_version >= 1
    }
}

/// Why a byte stream cannot form a request. Each variant maps onto an HTTP
/// status via [`RequestError::status`].
#[derive(Debug)]
pub enum RequestError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line is malformed.
    BadHeader,
    /// Request line + headers exceed [`Limits::max_head_bytes`], or a
    /// single header count exceeds [`Limits::max_headers`].
    HeadTooLarge,
    /// `Content-Length` is missing on a method that carries a body.
    LengthRequired,
    /// `Content-Length` is unparsable.
    BadContentLength,
    /// The declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
    /// `Transfer-Encoding` other than identity.
    UnsupportedTransferEncoding,
}

impl RequestError {
    /// The HTTP status this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::BadRequestLine | RequestError::BadHeader => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::LengthRequired => 411,
            RequestError::BadContentLength => 400,
            RequestError::BodyTooLarge(_) => 413,
            RequestError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::BadRequestLine => write!(f, "malformed request line"),
            RequestError::BadHeader => write!(f, "malformed header"),
            RequestError::HeadTooLarge => write!(f, "request head too large"),
            RequestError::LengthRequired => write!(f, "Content-Length required"),
            RequestError::BadContentLength => write!(f, "unparsable Content-Length"),
            RequestError::BodyTooLarge(limit) => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            RequestError::UnsupportedTransferEncoding => {
                write!(f, "only identity transfer encoding is supported")
            }
        }
    }
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a full request; the caller
///   drains `consumed` bytes (any remainder is the next pipelined
///   request).
/// * `Ok(None)` — the bytes so far are a valid prefix; read more.
/// * `Err(_)` — the prefix can never become a valid request; answer
///   with [`RequestError::status`] and close.
///
/// The parser is pure: feeding it the same buffer twice is free of
/// side effects, so callers may re-invoke it on every read.
///
/// # Errors
///
/// Returns a [`RequestError`] describing the first violation.
pub fn try_parse(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        // No terminator yet; a head that is already over the cap can
        // never recover.
        if buf.len() > limits.max_head_bytes {
            return Err(RequestError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(RequestError::HeadTooLarge);
    }

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| RequestError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(RequestError::BadRequestLine)?;
    let (method, path, query, minor_version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= limits.max_headers {
            return Err(RequestError::HeadTooLarge);
        }
        headers.push(parse_header_line(line)?);
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        minor_version,
    };

    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(RequestError::UnsupportedTransferEncoding);
        }
    }
    let content_length = match request.header("content-length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| RequestError::BadContentLength)?,
        None => {
            if matches!(request.method.as_str(), "POST" | "PUT" | "PATCH") {
                return Err(RequestError::LengthRequired);
            }
            0
        }
    };
    if content_length > limits.max_body_bytes {
        return Err(RequestError::BodyTooLarge(limits.max_body_bytes));
    }

    let body_start = head_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    request.body = buf[body_start..consumed].to_vec();
    Ok(Some((request, consumed)))
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `(method, decoded path, decoded query pairs, HTTP minor version)`.
type RequestLine = (String, String, Vec<(String, String)>, u8);

fn parse_request_line(line: &str) -> Result<RequestLine, RequestError> {
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(RequestError::BadRequestLine)?;
    let target = parts.next().ok_or(RequestError::BadRequestLine)?;
    let version = parts.next().ok_or(RequestError::BadRequestLine)?;
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Err(RequestError::BadRequestLine);
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::BadRequestLine);
    }
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        _ => return Err(RequestError::BadRequestLine),
    };
    if !target.starts_with('/') {
        return Err(RequestError::BadRequestLine);
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or(RequestError::BadRequestLine)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or(RequestError::BadRequestLine)?;
            let v = percent_decode(v).ok_or(RequestError::BadRequestLine)?;
            query.push((k, v));
        }
    }
    Ok((method.to_owned(), path, query, minor_version))
}

fn parse_header_line(line: &str) -> Result<(String, String), RequestError> {
    let (name, value) = line.split_once(':').ok_or(RequestError::BadHeader)?;
    if name.is_empty()
        || name
            .bytes()
            .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
    {
        return Err(RequestError::BadHeader);
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
}

/// Percent-decodes a URL component (`+` becomes a space). `None` on
/// invalid escapes or non-UTF-8 results.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
                let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length`, `Connection`, and the status
    /// line are added by [`Response::serialize`]).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, value: &jsonio::Value) -> Self {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(value.to_json().into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status)
            .header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// A uniform JSON error body: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Response::json(
            status,
            &jsonio::Value::obj(vec![("error", jsonio::Value::str(message.into()))]),
        )
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Replaces the body.
    #[must_use]
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the full response to wire bytes, with
    /// `Connection: keep-alive` or `Connection: close` per the flag
    /// (always announced explicitly so HTTP/1.0 clients see it too).
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one request under the default limits; incomplete input
    /// is `Ok(None)`.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, RequestError> {
        try_parse(bytes, &Limits::default()).map(|parsed| parsed.map(|(req, _)| req))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /verify?file=a%20b.php&x=1 HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/verify");
        assert_eq!(req.query_param("file"), Some("a b.php"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.header("host"), Some("h"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /verify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn post_without_length_is_411() {
        let err = parse(b"POST /verify HTTP/1.1\r\nHost: h\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 411);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let limits = Limits {
            max_body_bytes: 4,
            ..Limits::default()
        };
        let err = try_parse(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            &limits,
        )
        .unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(64 * 1024)).as_bytes());
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn truncated_requests_ask_for_more() {
        for raw in [
            &b"GET / HTTP/1.1\r\nHost:"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"",
            b"GET",
        ] {
            assert!(parse(raw).unwrap().is_none(), "{raw:?}");
        }
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"GET/ HTTP/1.1\r\n\r\n"[..],
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET  / HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET /%zz HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
        ] {
            assert_eq!(parse(raw).unwrap_err().status(), 400, "{raw:?}");
        }
    }

    #[test]
    fn chunked_bodies_are_rejected() {
        let err =
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn response_wire_format() {
        let text = String::from_utf8(Response::text(200, "ok").serialize(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
    }

    #[test]
    fn try_parse_asks_for_more_until_complete() {
        let raw = b"POST /verify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let limits = Limits::default();
        // Every strict prefix is "need more bytes", never an error.
        for end in 0..raw.len() {
            assert!(
                try_parse(&raw[..end], &limits).unwrap().is_none(),
                "prefix of {end} bytes should be incomplete"
            );
        }
        let (req, consumed) = try_parse(raw, &limits).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.body, b"hello");
        assert_eq!(req.minor_version, 1);
    }

    #[test]
    fn try_parse_leaves_pipelined_bytes_unconsumed() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let limits = Limits::default();
        let (first, consumed) = try_parse(raw, &limits).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let (second, rest) = try_parse(&raw[consumed..], &limits).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let limits = Limits::default();
        let ka = |raw: &[u8]| try_parse(raw, &limits).unwrap().unwrap().0.keep_alive();
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"), "1.1 defaults to keep-alive");
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        assert!(!ka(
            b"GET / HTTP/1.1\r\nConnection: close, keep-alive\r\n\r\n"
        ));
    }

    #[test]
    fn serialize_announces_the_connection_decision() {
        let resp = Response::text(200, "ok");
        let keep = String::from_utf8(resp.serialize(true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        let close = String::from_utf8(resp.serialize(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert_eq!(resp.reason(), "OK");
        assert_eq!(Response::new(408).reason(), "Request Timeout");
    }

    #[test]
    fn oversized_head_without_terminator_fails_early() {
        let limits = Limits {
            max_head_bytes: 32,
            ..Limits::default()
        };
        let raw = vec![b'A'; 64];
        assert_eq!(try_parse(&raw, &limits).unwrap_err().status(), 431);
    }

    #[test]
    fn retry_after_header_round_trips() {
        let out = Response::error(429, "queue full")
            .header("Retry-After", "1")
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("429 Too Many Requests"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }
}
