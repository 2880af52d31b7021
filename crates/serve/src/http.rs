//! Minimal HTTP/1.1 request reader and response writer.
//!
//! Hand-rolled over [`BufRead`] because the build environment is fully
//! offline (the workspace vendors every dependency), and the service
//! needs only the subset a JSON API uses: request line + headers +
//! `Content-Length` body, one request per connection, `Connection:
//! close` on every response.
//!
//! The reader is hardened the same way the `.bench` readers are: every
//! malformed, truncated, oversized or torn input must come back as a
//! typed [`HttpError`] mapping to a well-formed 4xx response — never a
//! panic. `tests/http_fuzz.rs` byte-mangles valid requests to hold the
//! parser to that, mirroring the bench-format fuzz.

use std::io::BufRead;

use sttlock_campaign::json::Json;

/// Parse limits; defaults sized for JSON API traffic with room for a
/// large bench-format netlist in the body.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line, bytes.
    pub max_request_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Largest accepted `Content-Length` body, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method token, verbatim (e.g. `POST`).
    pub method: String,
    /// Request target, verbatim (e.g. `/v1/harden`).
    pub path: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Every way reading a request can fail. Each maps to one well-formed
/// 4xx via [`HttpError::response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed before sending a single byte — no response owed.
    ConnectionClosed,
    /// Read failure mid-request (timeout, reset) → 408.
    Io(String),
    /// Malformed request line → 400.
    BadRequestLine(String),
    /// Unsupported protocol version (only HTTP/1.0 and 1.1) → 400.
    BadVersion(String),
    /// Request line over [`Limits::max_request_line`] → 414.
    RequestLineTooLong,
    /// Malformed header line → 400.
    BadHeader(String),
    /// Header line over [`Limits::max_header_line`], or more than
    /// [`Limits::max_headers`] of them → 431.
    HeadersTooLarge,
    /// Unparseable `Content-Length` → 400.
    BadContentLength(String),
    /// `Content-Length` over [`Limits::max_body_bytes`] → 413.
    BodyTooLarge(usize),
    /// Connection closed before `Content-Length` bytes arrived → 400.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
}

impl HttpError {
    /// The status code this error maps to (4xx for every variant that
    /// owes a response).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::ConnectionClosed => 400, // not actually sent
            HttpError::Io(_) => 408,
            HttpError::BadRequestLine(_)
            | HttpError::BadVersion(_)
            | HttpError::BadHeader(_)
            | HttpError::BadContentLength(_)
            | HttpError::TruncatedBody { .. } => 400,
            HttpError::RequestLineTooLong => 414,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge(_) => 413,
        }
    }

    /// The response to write for this error, or `None` when the peer
    /// hung up before sending anything (nothing is owed).
    pub fn response(&self) -> Option<Response> {
        if *self == HttpError::ConnectionClosed {
            return None;
        }
        let detail = match self {
            HttpError::ConnectionClosed => unreachable!("handled above"),
            HttpError::Io(e) => format!("read failed: {e}"),
            HttpError::BadRequestLine(l) => format!("malformed request line: {l}"),
            HttpError::BadVersion(v) => format!("unsupported protocol version: {v}"),
            HttpError::RequestLineTooLong => "request line too long".to_owned(),
            HttpError::BadHeader(h) => format!("malformed header: {h}"),
            HttpError::HeadersTooLarge => "headers too large".to_owned(),
            HttpError::BadContentLength(v) => format!("bad content-length: {v}"),
            HttpError::BodyTooLarge(n) => format!("body of {n} bytes exceeds the limit"),
            HttpError::TruncatedBody { expected, got } => {
                format!("truncated body: expected {expected} bytes, got {got}")
            }
        };
        Some(Response::error(self.status(), &detail))
    }
}

/// Reads one line terminated by `\n`, rejecting lines over `max` bytes.
/// The returned line has `\r\n`/`\n` stripped. `Ok(None)` means clean
/// EOF before any byte of the line.
fn read_line(
    reader: &mut impl BufRead,
    max: usize,
    over_limit: HttpError,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        };
        if buf.is_empty() {
            // EOF. A partial line is torn input, not a clean close.
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Io("connection closed mid-line".to_owned()))
            };
        }
        let (consumed, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                line.extend_from_slice(&buf[..nl]);
                (nl + 1, true)
            }
            None => {
                line.extend_from_slice(buf);
                (buf.len(), false)
            }
        };
        reader.consume(consumed);
        if line.len() > max {
            return Err(over_limit);
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
    }
}

fn ascii_line(bytes: Vec<u8>, on_bad: impl Fn(String) -> HttpError) -> Result<String, HttpError> {
    match String::from_utf8(bytes) {
        Ok(s) => Ok(s),
        Err(e) => Err(on_bad(format!(
            "{} (not valid UTF-8)",
            String::from_utf8_lossy(e.as_bytes())
        ))),
    }
}

/// Reads and validates one request. Enforces every limit in `limits`;
/// any bytes following the body (pipelined requests, trailing garbage)
/// are left unread in `reader`.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let line = read_request_line(reader, limits)?;
    let (method, path, version) = split_request_line(&line)?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadVersion(version.to_owned()));
    }

    let mut headers = Vec::new();
    loop {
        let bytes = read_line(reader, limits.max_header_line, HttpError::HeadersTooLarge)?
            .ok_or_else(|| HttpError::Io("connection closed inside headers".to_owned()))?;
        if bytes.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let text = ascii_line(bytes, HttpError::BadHeader)?;
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(text.clone()))?;
        let name = name.trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(HttpError::BadHeader(text.clone()));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
    };
    let body = read_body(reader, &request, limits)?;
    Ok(Request { body, ..request })
}

fn read_request_line(reader: &mut impl BufRead, limits: &Limits) -> Result<String, HttpError> {
    let bytes = read_line(
        reader,
        limits.max_request_line,
        HttpError::RequestLineTooLong,
    )?
    .ok_or(HttpError::ConnectionClosed)?;
    ascii_line(bytes, HttpError::BadRequestLine)
}

fn split_request_line(line: &str) -> Result<(&str, &str, &str), HttpError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(HttpError::BadRequestLine(line.to_owned())),
    };
    if !method
        .chars()
        .all(|c| c.is_ascii_alphabetic() && c.is_ascii_uppercase())
    {
        return Err(HttpError::BadRequestLine(line.to_owned()));
    }
    Ok((method, path, version))
}

fn read_body(
    reader: &mut impl BufRead,
    request: &Request,
    limits: &Limits,
) -> Result<Vec<u8>, HttpError> {
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadHeader(
            "transfer-encoding: only identity is supported".to_owned(),
        ));
    }
    let Some(value) = request.header("content-length") else {
        return Ok(Vec::new());
    };
    let length: usize = value
        .parse()
        .map_err(|_| HttpError::BadContentLength(value.to_owned()))?;
    if length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge(length));
    }
    let mut body = vec![0u8; length];
    let mut got = 0usize;
    while got < length {
        match reader.read(&mut body[got..]) {
            Ok(0) => {
                return Err(HttpError::TruncatedBody {
                    expected: length,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    Ok(body)
}

/// A response ready to serialize. Always `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` header value in seconds, emitted when set (429/503
    /// backpressure responses tell well-behaved clients when to retry).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response from an already-rendered body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, detail: &str) -> Response {
        Response::json(
            status,
            Json::obj([("error", Json::from(detail))]).to_string(),
        )
    }

    /// Attaches a `Retry-After: secs` header.
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Serializes status line, headers and body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let retry = match self.retry_after {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            retry,
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut &bytes[..], &Limits::default())
    }

    #[test]
    fn a_post_with_a_body_round_trips() {
        let raw = b"POST /v1/harden HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/harden");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"), "case-insensitive");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw: &[u8] =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\ntrailing-garbage";
        let mut reader = raw;
        let first = read_request(&mut reader, &Limits::default()).unwrap();
        assert_eq!((first.path.as_str(), &first.body[..]), ("/a", &b"hi"[..]));
        let second = read_request(&mut reader, &Limits::default()).unwrap();
        assert_eq!(second.path, "/b");
        // The trailing garbage is the next "request": malformed, 4xx.
        let err = read_request(&mut reader, &Limits::default()).unwrap_err();
        assert_eq!(err.status() / 100, 4);
    }

    #[test]
    fn each_malformation_maps_to_its_4xx() {
        let limits = Limits {
            max_request_line: 64,
            max_headers: 4,
            max_header_line: 64,
            max_body_bytes: 128,
        };
        let cases: Vec<(Vec<u8>, u16)> = vec![
            (b"not a request line\r\n\r\n".to_vec(), 400),
            (b"GET /x SPDY/3\r\n\r\n".to_vec(), 400),
            (b"get /x HTTP/1.1\r\n\r\n".to_vec(), 400),
            (
                format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100)).into_bytes(),
                414,
            ),
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(), 400),
            (
                format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "v".repeat(100)).into_bytes(),
                431,
            ),
            (
                b"GET /x HTTP/1.1\r\na:1\r\nb:2\r\nc:3\r\nd:4\r\ne:5\r\n\r\n".to_vec(),
                431,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n".to_vec(),
                413,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".to_vec(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
                400,
            ),
        ];
        for (raw, expected) in cases {
            let err = read_request(&mut &raw[..], &limits).unwrap_err();
            assert_eq!(
                err.status(),
                expected,
                "input {:?} -> {err:?}",
                String::from_utf8_lossy(&raw)
            );
            let resp = err.response().expect("every malformation owes a response");
            assert_eq!(resp.status, expected);
        }
    }

    #[test]
    fn empty_input_is_a_clean_close_with_no_response() {
        let err = parse(b"").unwrap_err();
        assert_eq!(err, HttpError::ConnectionClosed);
        assert!(err.response().is_none());
    }

    #[test]
    fn responses_serialize_with_exact_content_length() {
        let resp = Response::json(200, "{\"ok\":true}".to_owned());
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");

        let err = Response::error(422, "flow failed: \"quoted\"");
        assert!(String::from_utf8(err.to_bytes())
            .unwrap()
            .contains("{\"error\":\"flow failed: \\\"quoted\\\"\"}"));
        let err = Response::error(400, "bad \\ \n\u{1} é");
        assert_eq!(err.body, "{\"error\":\"bad \\\\ \\n\\u0001 é\"}".as_bytes());
    }

    #[test]
    fn retry_after_is_emitted_only_when_set() {
        let plain = String::from_utf8(Response::error(429, "busy").to_bytes()).unwrap();
        assert!(!plain.contains("Retry-After"), "{plain}");

        let hinted = Response::error(429, "busy").with_retry_after(1);
        let text = String::from_utf8(hinted.to_bytes()).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(
            text.contains("\r\nConnection: close\r\n\r\n"),
            "headers must stay well-formed: {text}"
        );
    }
}
