//! End-to-end registry tests over real sockets: a daemon on an
//! ephemeral port, exercised through the wire client only — everything
//! a deployment would see, nothing reaching into the process.

// Test-only code; the workspace panic-hygiene lints exempt `#[test]`
// fns but not these shared helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use tfd_serve::{request, ServeConfig, Server};

fn spawn() -> tfd_serve::ServerHandle {
    Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn post(handle: &tfd_serve::ServerHandle, path: &str, body: &[u8]) -> tfd_serve::ClientResponse {
    request(
        handle.addr(),
        "POST",
        path,
        Some(("application/octet-stream", body)),
    )
    .expect("request")
}

fn get(handle: &tfd_serve::ServerHandle, path: &str) -> tfd_serve::ClientResponse {
    request(handle.addr(), "GET", path, None).expect("request")
}

/// Pulls `"field":value` out of a one-object JSON body without a
/// parser — good enough for the flat responses the daemon emits.
fn json_field(body: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    let start = body
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {body}"))
        + key.len();
    let rest = &body[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped[..stripped.find('"').expect("closing quote")].to_owned()
    } else {
        let end = rest
            .find([',', '}', ']'])
            .unwrap_or_else(|| panic!("value end in {body}"));
        rest[..end].to_owned()
    }
}

#[test]
fn upload_shape_provider_check_diff_evict() {
    let handle = spawn();

    // Ingest v1: plain integer ids.
    let r = post(
        &handle,
        "/v1/orders/ingest?format=json",
        b"{\"id\": 1, \"total\": 10}\n{\"id\": 2, \"total\": 20}\n",
    );
    assert_eq!(r.status, 200, "{}", r.text());
    let body = r.text();
    assert_eq!(json_field(&body, "version"), "1");
    assert_eq!(json_field(&body, "records"), "2");

    // Shape: the paper's notation, exactly what `tfd infer` prints.
    let r = get(&handle, "/v1/orders/shape");
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "• {id : int, total : int}\n");

    // Fingerprint is stable across reads.
    let fp1 = json_field(
        &get(&handle, "/v1/orders/fingerprint").text(),
        "fingerprint",
    );
    let fp2 = json_field(
        &get(&handle, "/v1/orders/fingerprint").text(),
        "fingerprint",
    );
    assert_eq!(fp1, fp2);
    assert_eq!(fp1.len(), 16, "{fp1}");

    // Providers: both surfaces, generated from the live shape.
    let r = get(&handle, "/v1/orders/provider/fsharp?root=Order");
    assert_eq!(r.status, 200);
    assert!(r.text().contains("member Id"), "{}", r.text());
    let r = get(&handle, "/v1/orders/provider/rust?module=gen&root=Order");
    assert_eq!(r.status, 200);
    assert!(r.text().contains("pub struct Order"), "{}", r.text());

    // Check: a conforming record and a straggler.
    let r = post(&handle, "/v1/orders/check", b"{\"id\": 3, \"total\": 30}\n");
    assert_eq!(json_field(&r.text(), "conforms"), "true");
    let r = post(
        &handle,
        "/v1/orders/check",
        b"{\"id\": \"oops\", \"total\": 1}\n",
    );
    assert_eq!(json_field(&r.text(), "conforms"), "false");

    // Ingest v2 widens: total becomes float, a new optional field.
    let r = post(
        &handle,
        "/v1/orders/ingest?format=json",
        b"{\"id\": 3, \"total\": 9.5, \"note\": \"x\"}\n",
    );
    assert_eq!(json_field(&r.text(), "version"), "2");

    // Diff v1 -> now: widening is backward-compatible, not forward.
    let r = get(&handle, "/v1/orders/diff/1");
    assert_eq!(r.status, 200, "{}", r.text());
    let body = r.text();
    assert_eq!(json_field(&body, "old_version"), "1");
    assert_eq!(json_field(&body, "new_version"), "2");
    assert_eq!(json_field(&body, "compatible"), "true");
    let r = get(&handle, "/v1/orders/diff/1?mode=forward");
    assert_eq!(json_field(&r.text(), "compatible"), "false");

    // Evict; the tenant is gone end to end.
    let r = request(handle.addr(), "DELETE", "/v1/orders", None).expect("request");
    assert_eq!(r.status, 200);
    assert_eq!(get(&handle, "/v1/orders/shape").status, 404);
    let r = request(handle.addr(), "DELETE", "/v1/orders", None).expect("request");
    assert_eq!(r.status, 404);

    handle.stop();
}

#[test]
fn concurrent_ingest_matches_sequential_fold() {
    let handle = spawn();

    // Disjoint slices with deliberately uneven schemas, so a
    // non-commutative fold would be caught.
    let slices: Vec<String> = (0..8)
        .map(|i| {
            let mut s = String::new();
            for j in 0..50 {
                match (i + j) % 3 {
                    0 => s.push_str(&format!("{{\"id\": {j}, \"kind_{i}\": true}}\n")),
                    1 => s.push_str(&format!("{{\"id\": {j}.5, \"note\": \"n{j}\"}}\n")),
                    _ => s.push_str(&format!("{{\"id\": {j}, \"note\": null}}\n")),
                }
            }
            s
        })
        .collect();

    // Sequential fold: one tenant, slices in order.
    for s in &slices {
        let r = post(&handle, "/v1/seq/ingest?format=json", s.as_bytes());
        assert_eq!(r.status, 200, "{}", r.text());
    }

    // Concurrent fold: another tenant, all slices raced from threads.
    std::thread::scope(|scope| {
        for s in &slices {
            scope.spawn(|| {
                let r = post(&handle, "/v1/par/ingest?format=json", s.as_bytes());
                assert_eq!(r.status, 200, "{}", r.text());
            });
        }
    });

    let seq = get(&handle, "/v1/seq/fingerprint");
    let par = get(&handle, "/v1/par/fingerprint");
    assert_eq!(
        json_field(&seq.text(), "fingerprint"),
        json_field(&par.text(), "fingerprint"),
        "concurrent ingest diverged from the sequential fold"
    );
    assert_eq!(json_field(&par.text(), "version"), "8");
    // The rendered shapes agree up to record-field order: fields are
    // *displayed* in first-seen order (which races), but the shapes are
    // semantically equal — the canonical fingerprint above is the
    // order-insensitive witness. Compare the sorted field sets.
    let field_set = |text: String| {
        let mut fields: Vec<String> = text
            .trim()
            .trim_start_matches("• {")
            .trim_end_matches('}')
            .split(", ")
            .map(str::to_owned)
            .collect();
        fields.sort();
        fields
    };
    assert_eq!(
        field_set(get(&handle, "/v1/seq/shape").text()),
        field_set(get(&handle, "/v1/par/shape").text())
    );

    handle.stop();
}

#[test]
fn malformed_uploads_never_kill_the_daemon() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_body_bytes: 4 * 1024,
            ..ServeConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    // Raw protocol garbage on the socket.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.write_all(b"\x00\x01NONSENSE\r\n\r\n").expect("write");
        // Half-close so the server's error-path drain sees EOF.
        s.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    // A fail-fast parse error: structured 400, stable error code.
    let r = post(&handle, "/v1/t/ingest?format=json", b"{\"a\": @}\n");
    assert_eq!(r.status, 400);
    let body = r.text();
    assert!(body.contains("\"code\":\"json-parse\""), "{body}");

    // Skip mode whose budget is exhausted: 400 with the nested cause.
    let r = post(
        &handle,
        "/v1/t/ingest?format=json&skip_errors=1&max_errors=1",
        b"{\"a\": @}\n{\"b\": @}\n{\"c\": @}\n",
    );
    assert_eq!(r.status, 400);
    assert!(r.text().contains("too-many-errors"), "{}", r.text());

    // Skip mode within budget folds the clean records.
    let r = post(
        &handle,
        "/v1/t/ingest?format=json&skip_errors=1",
        b"{\"a\": 1}\n{\"a\": @}\n{\"a\": 3}\n",
    );
    assert_eq!(r.status, 200, "{}", r.text());
    let body = r.text();
    assert_eq!(json_field(&body, "records"), "2");
    assert_eq!(json_field(&body, "skipped"), "1");

    // Bounded request size: over-cap bodies are refused up front.
    let big = vec![b'x'; 8 * 1024];
    let r = post(&handle, "/v1/t/ingest?format=json", &big);
    assert_eq!(r.status, 413);
    assert!(r.text().contains("body-too-large"), "{}", r.text());

    // Assorted bad requests, each a clean 4xx.
    assert_eq!(post(&handle, "/v1/t/ingest", b"{}\n").status, 400); // no format
    assert_eq!(
        post(&handle, "/v1/t/ingest?format=yaml", b"x\n").status,
        400
    );
    assert_eq!(
        post(&handle, "/v1/t/ingest?format=json&jobs=zero", b"{}\n").status,
        400
    );
    assert_eq!(get(&handle, "/v1/ghost/shape").status, 404);
    assert_eq!(get(&handle, "/nowhere").status, 404);
    assert_eq!(get(&handle, "/v1/t/provider/cobol").status, 404);
    assert_eq!(post(&handle, "/v1/t/shape", b"x").status, 405);
    assert_eq!(get(&handle, "/v1/t/diff/nope").status, 400);
    // Format conflicts are 409: one tenant, one format.
    let r = post(&handle, "/v1/t/ingest?format=csv", b"a,b\n1,2\n");
    assert_eq!(r.status, 409);
    assert!(r.text().contains("format-conflict"), "{}", r.text());
    // Empty corpus is 422, distinct from a parse failure.
    assert_eq!(
        post(&handle, "/v1/u/ingest?format=json", b"  \n").status,
        422
    );
    // A nesting override past the ceiling is refused before any parse
    // (unbounded, it would overflow a parser's stack and kill the
    // daemon); the ceiling itself is accepted.
    let deep = format!("{}1{}", "[".repeat(1000), "]".repeat(1000));
    let r = post(
        &handle,
        "/v1/v/ingest?format=json&max_depth=100000000",
        deep.as_bytes(),
    );
    assert_eq!(r.status, 400);
    assert!(r.text().contains("bad-query"), "{}", r.text());
    let at_ceiling = format!(
        "/v1/v/ingest?format=json&max_depth={}",
        tfd_core::recover::MAX_DEPTH_CEILING
    );
    assert_eq!(post(&handle, &at_ceiling, deep.as_bytes()).status, 200);
    // An absurd `jobs` is clamped to the host's cores, not obeyed: the
    // ingest answers, with the fingerprint a one-job ingest gets.
    let rows = b"{\"a\": 1, \"b\": \"x\"}\n{\"a\": 2.5}\n{\"b\": null}\n";
    let one = post(&handle, "/v1/j1/ingest?format=json&jobs=1", rows);
    let many = post(&handle, "/v1/jn/ingest?format=json&jobs=1000000", rows);
    assert_eq!(one.status, 200, "{}", one.text());
    assert_eq!(many.status, 200, "{}", many.text());
    assert_eq!(
        json_field(&many.text(), "fingerprint"),
        json_field(&one.text(), "fingerprint")
    );

    // After all of that abuse the daemon still serves.
    let r = get(&handle, "/v1/t/shape");
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "• {a : int}\n");

    handle.stop();
}

#[test]
fn stalled_connections_time_out_instead_of_pinning_handlers() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    // A slowloris-sized read timeout: a client that trickles (or stops
    // sending entirely) mid-header must be disconnected, not parked on
    // a handler thread forever.
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            read_timeout: Some(Duration::from_millis(200)),
            write_timeout: Some(Duration::from_millis(200)),
            ..ServeConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    // Send half a request head, then stall. The server's read times
    // out and it hangs up: we observe EOF well before a "generous"
    // multi-second budget, without ever completing the request.
    let started = Instant::now();
    let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(b"POST /v1/slow/ingest?format=json HTTP/1.1\r\nContent-Le")
        .expect("write");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out); // blocks until the server hangs up
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server did not disconnect a stalled client (took {:?})",
        started.elapsed()
    );

    // The daemon survived the stall and still serves real clients.
    let r = post(&handle, "/v1/live/ingest?format=json", b"{\"ok\": true}\n");
    assert_eq!(r.status, 200, "{}", r.text());

    handle.stop();
}

#[test]
fn over_cap_connections_get_503_and_the_refusal_is_counted() {
    use std::io::Write;
    use std::time::Duration;

    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 1,
            read_timeout: Some(Duration::from_millis(300)),
            write_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    // Occupy the single handler slot with a connection that stalls
    // mid-header. The accept loop is sequential, so by the time any
    // later connection is considered, this one holds the slot.
    let mut holder = std::net::TcpStream::connect(handle.addr()).expect("connect");
    holder
        .write_all(b"GET /v1/stats HTTP/1.1\r\n")
        .expect("write");

    // Everything else is refused up front with a clean 503 — not
    // queued, not hung.
    let r = get(&handle, "/v1/stats");
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("server-busy"), "{}", r.text());

    // Release the slot and let the stalled handler time out; the
    // daemon recovers and the refusal shows up in the stats counters.
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let body = loop {
        let r = get(&handle, "/v1/stats");
        if r.status == 200 {
            break r.text();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "handler slot never freed after the stalled client left"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(body.contains("\"capacity\":1"), "{body}");
    let refused: u64 = json_field(&body, "refused").parse().expect("refused count");
    assert!(refused >= 1, "{body}");

    handle.stop();
}

#[test]
fn stats_reports_tenants_and_reserved_name_is_refused() {
    let handle = spawn();
    post(&handle, "/v1/a/ingest?format=json", b"{\"x\": 1}\n");
    post(&handle, "/v1/b/ingest?format=csv", b"k,v\n1,2\n");

    let r = get(&handle, "/v1/stats");
    assert_eq!(r.status, 200);
    let body = r.text();
    assert!(body.contains("\"process\":"), "{body}");
    assert!(body.contains("\"connections\":"), "{body}");
    assert!(body.contains("\"active\":"), "{body}");
    assert!(body.contains("\"tenant\":\"a\""), "{body}");
    assert!(body.contains("\"format\":\"csv\""), "{body}");
    assert!(body.contains("\"retained_bytes\":"), "{body}");

    // "stats" is reserved: not ingestable, not evictable.
    let r = post(&handle, "/v1/stats/ingest?format=json", b"{}\n");
    assert_eq!(r.status, 404);
    let r = request(handle.addr(), "DELETE", "/v1/stats", None).expect("request");
    assert_eq!(r.status, 405);

    handle.stop();
}
