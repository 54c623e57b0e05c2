//! Wire-layer tests against a real daemon on loopback: abusive inputs
//! must produce clean errors with the engine still serviceable, and
//! served rows must stay byte-identical to the offline reference under
//! concurrency and cache warmth.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memx_core::cache::EvalCache;
use memx_memlib::MemLibrary;
use memx_serve::client;
use memx_serve::http::ReadLimits;
use memx_serve::server::{ServeConfig, Server};
use memx_serve::wire;

/// Boots a daemon on an ephemeral loopback port and returns its
/// address. The server thread is detached; the whole process exits with
/// the test binary.
fn boot(cfg: ServeConfig) -> SocketAddr {
    let server = Server::bind(MemLibrary::default_07um(), cfg).unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());
    addr
}

fn boot_default() -> SocketAddr {
    boot(ServeConfig::default())
}

/// The daemon must answer a well-formed request after the abuse; this
/// is the "engine still serviceable" check shared by the abuse tests.
fn assert_serviceable(addr: SocketAddr) {
    let demo = wire::demo_request_text();
    let response = client::post_evaluate(addr, &demo).unwrap();
    assert_eq!(response.status, 200);
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    let served: Vec<String> = response
        .rows
        .iter()
        .map(|r| String::from_utf8(r.clone()).unwrap())
        .collect();
    assert_eq!(served, offline);
}

fn raw_request(addr: SocketAddr, payload: &[u8]) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&stream).write_all(payload).unwrap();
    stream
}

#[test]
fn malformed_json_gets_400_and_engine_stays_serviceable() {
    let addr = boot_default();
    let body = "{not json";
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = raw_request(addr, head.as_bytes());
    let response = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(response.status, 400);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("\"status\":400"), "{text}");
    assert_serviceable(addr);
}

#[test]
fn oversized_body_gets_413() {
    let addr = boot(ServeConfig {
        read_limits: ReadLimits { max_body_bytes: 64 },
        ..ServeConfig::default()
    });
    let body = "x".repeat(65);
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = raw_request(addr, head.as_bytes());
    let response = client::read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(response.status, 413);
    // The demo body is itself over this daemon's 64-byte cap, so probe
    // serviceability with a request that fits.
    let stats = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
}

#[test]
fn truncated_chunked_body_is_dropped_cleanly() {
    let addr = boot(ServeConfig {
        // Short timeout so the daemon gives up on the stalled body
        // quickly instead of holding the handler for the default 10s.
        read_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });
    // Declare a chunk, send half of it, then close.
    let head = "POST /v1/evaluate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nff\r\n{\"spec\":";
    let stream = raw_request(addr, head.as_bytes());
    drop(stream);
    assert_serviceable(addr);
}

#[test]
fn mid_stream_disconnect_leaves_daemon_serviceable() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{demo}",
        demo.len()
    );
    let mut stream = raw_request(addr, head.as_bytes());
    // Read just the status line, then vanish mid-stream.
    let mut first = [0u8; 16];
    stream.read_exact(&mut first).unwrap();
    assert!(first.starts_with(b"HTTP/1.1 200"));
    drop(stream);
    assert_serviceable(addr);
}

#[test]
fn served_rows_match_offline_cold_and_warm_with_cache() {
    let dir = std::env::temp_dir().join(format!("memx-serve-test-{}", std::process::id()));
    // A directory left behind by an earlier process with the same pid
    // would make the cold pass warm.
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(EvalCache::open(&dir).unwrap());
    let addr = boot(ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    });
    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    for (pass, warm) in [("cold", false), ("warm", true)] {
        let response = client::post_evaluate(addr, &demo).unwrap();
        assert_eq!(response.status, 200, "{pass}");
        let served: Vec<String> = response
            .rows
            .iter()
            .map(|r| String::from_utf8(r.clone()).unwrap())
            .collect();
        assert_eq!(served, offline, "{pass}");
        assert_eq!(
            response.field("x-memx-rows"),
            Some(offline.len().to_string().as_str()),
            "{pass}"
        );
        // The per-request trailers read "<hits> hits / <misses> misses":
        // the cold pass hits nothing, the warm pass hits.
        let hits: u64 = ["x-memx-cache-scbd", "x-memx-cache-alloc"]
            .iter()
            .map(|name| {
                let value = response.field(name).unwrap();
                value
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(hits > 0, warm, "{pass} pass: {hits} cache hits");
    }
    // The warm pass must have hit the cache.
    let stats = cache.stats();
    assert!(
        stats.scbd_hits + stats.alloc_hits > 0,
        "no cache hits after a warm pass"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_each_get_byte_identical_rows() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let offline = wire::offline_rows(demo.as_bytes(), Default::default()).unwrap();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let demo = demo.clone();
            std::thread::spawn(move || client::post_evaluate(addr, &demo).unwrap())
        })
        .collect();
    for handle in handles {
        let response = handle.join().unwrap();
        assert_eq!(response.status, 200);
        let served: Vec<String> = response
            .rows
            .iter()
            .map(|r| String::from_utf8(r.clone()).unwrap())
            .collect();
        assert_eq!(served, offline);
    }
}

#[test]
fn saturated_daemon_sheds_with_503_and_retry_after() {
    let addr = boot(ServeConfig {
        handlers: 1,
        queue_depth: 0,
        // Generous: conn1 must stay parked on its unfinished body for
        // the whole test.
        read_timeout: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    });
    // conn1 occupies the only handler: headers complete, body withheld.
    let hold = raw_request(
        addr,
        b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 10\r\n\r\n",
    );
    // Give the accept loop time to hand conn1 to the handler.
    std::thread::sleep(Duration::from_millis(200));
    // conn2 must be shed deterministically: active == handlers + 0.
    let shed = raw_request(addr, b"GET /v1/stats HTTP/1.1\r\n\r\n");
    let response = client::read_response(&mut BufReader::new(shed)).unwrap();
    assert_eq!(response.status, 503);
    let retry: u64 = response.field("retry-after").unwrap().parse().unwrap();
    assert!(retry >= 1);
    // Releasing conn1 frees the handler; the daemon serves again.
    drop(hold);
    std::thread::sleep(Duration::from_millis(200));
    assert_serviceable(addr);

    let stats = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let parsed = memx_serve::json::parse(&stats.body).unwrap();
    assert!(parsed.get("rejected_requests").unwrap().as_u64().unwrap() >= 1);
}

#[test]
fn unknown_paths_and_methods_get_404_and_405() {
    let addr = boot_default();
    let missing = client::get(addr, "/nope").unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client::get(addr, "/v1/evaluate").unwrap();
    assert_eq!(wrong_method.status, 405);
}

#[test]
fn stats_counts_requests_and_rows() {
    let addr = boot_default();
    let demo = wire::demo_request_text();
    let rows = wire::offline_rows(demo.as_bytes(), Default::default())
        .unwrap()
        .len() as u64;
    client::post_evaluate(addr, &demo).unwrap();
    client::post_evaluate(addr, &demo).unwrap();
    // The counters are noted just after the response finishes; give the
    // handler a beat before reading them.
    std::thread::sleep(Duration::from_millis(200));
    let stats = client::get(addr, "/v1/stats").unwrap();
    let parsed = memx_serve::json::parse(&stats.body).unwrap();
    assert_eq!(parsed.get("requests").unwrap().as_u64().unwrap(), 2);
    assert_eq!(
        parsed.get("rows_streamed").unwrap().as_u64().unwrap(),
        2 * rows
    );
}

/// Keep-alive responses must not stall. Each response piece leaves the
/// daemon as one write on a no-delay socket; otherwise Nagle's algorithm
/// holds a response tail back until the client's delayed ACK, about
/// 40 ms per response on Linux.
#[test]
fn keep_alive_responses_do_not_stall() {
    let addr = boot_default();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let start = Instant::now();
    for _ in 0..10 {
        (&stream)
            .write_all(b"GET /v1/stats HTTP/1.1\r\nhost: memx-serve\r\n\r\n")
            .unwrap();
        let response = client::read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "10 keep-alive requests took {elapsed:?}"
    );
}
