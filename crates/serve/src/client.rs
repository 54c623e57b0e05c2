//! A minimal scripted client for the daemon's protocol.
//!
//! Shared by `memx-serve --self-drive`, the `serve_client` bench
//! binary and the wire-layer tests, so every consumer reads chunked
//! responses (and their trailers) the same way. One chunk is one row —
//! the client surfaces chunk payloads verbatim, which is what the
//! byte-identity gates diff against the offline reference.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a request came back as.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Chunk payloads in order (one evaluated row each) for chunked
    /// responses; empty otherwise.
    pub rows: Vec<Vec<u8>>,
    /// Trailer fields in wire order, names lowercased (chunked only).
    pub trailers: Vec<(String, String)>,
    /// The body for non-chunked responses; empty otherwise.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup (headers, then trailers).
    pub fn field(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .chain(self.trailers.iter())
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }
}

/// Why a request failed client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's response violated HTTP framing.
    Protocol(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// POSTs `body` to `/v1/evaluate` and reads the full response.
///
/// # Errors
///
/// [`ClientError`] on connect, write or response-framing failure.
pub fn post_evaluate(addr: SocketAddr, body: &str) -> Result<Response, ClientError> {
    request(addr, "POST", "/v1/evaluate", Some(body))
}

/// GETs `path` and reads the full response.
///
/// # Errors
///
/// [`ClientError`] on connect, write or response-framing failure.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
    request(addr, "GET", path, None)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: memx-serve\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader)?;
    // Wait for the daemon to close the connection, as asked: it frees
    // the connection's admission slot first, so a follow-up request
    // never races the slot release and gets shed. The response is
    // complete, so a reset instead of a clean close changes nothing.
    let _ = reader.read_to_end(&mut Vec::new());
    Ok(response)
}

/// Reads one response off `reader` (shared with the tests, which drive
/// raw sockets themselves).
///
/// # Errors
///
/// [`ClientError`] on framing violations or socket failure.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, ClientError> {
    let status_line = read_line(reader)?.ok_or(ClientError::Protocol("no status line"))?;
    let mut parts = status_line.split(' ');
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| ClientError::Protocol("status code"))?,
        _ => return Err(ClientError::Protocol("status line")),
    };
    let headers = read_fields(reader)?;
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));

    let mut rows = Vec::new();
    let mut trailers = Vec::new();
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader)?.ok_or(ClientError::Protocol("truncated chunks"))?;
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| ClientError::Protocol("chunk size"))?;
            if size == 0 {
                trailers = read_fields(reader)?;
                break;
            }
            let mut payload = vec![0u8; size];
            reader
                .read_exact(&mut payload)
                .map_err(|_| ClientError::Protocol("truncated chunk payload"))?;
            let mut crlf = [0u8; 2];
            reader
                .read_exact(&mut crlf)
                .map_err(|_| ClientError::Protocol("truncated chunk terminator"))?;
            rows.push(payload);
        }
    } else {
        let length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        match length {
            Some(length) => {
                body = vec![0u8; length];
                reader
                    .read_exact(&mut body)
                    .map_err(|_| ClientError::Protocol("truncated body"))?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
    }
    Ok(Response {
        status,
        headers,
        rows,
        trailers,
        body,
    })
}

/// Reads header/trailer fields until the blank line.
fn read_fields(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ClientError> {
    let mut fields = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(ClientError::Protocol("truncated fields"))?;
        if line.is_empty() {
            return Ok(fields);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ClientError::Protocol("field without `:`"))?;
        fields.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ClientError> {
    let mut raw = Vec::new();
    let n = reader.read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    if raw.last() == Some(&b'\n') {
        raw.pop();
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| ClientError::Protocol("non-UTF-8 line"))
}
