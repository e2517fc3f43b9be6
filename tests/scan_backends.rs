//! Scanner-backend parity suite.
//!
//! `tfd_value::scan` dispatches to whichever SIMD kernel the host
//! supports (AVX2/SSE2 on x86-64, NEON on aarch64) with the portable
//! SWAR kernel as the floor. Every compiled kernel must be
//! *byte-identical* to the one-byte-at-a-time reference on every input
//! — same `Some`/`None`, same index — or boundary scanning would place
//! record cuts differently depending on the machine the corpus happened
//! to be parsed on.
//!
//! The JSON structural-block walk (`scan::json_blocks`) is held to the
//! same standard at the level that matters, record boundaries: under
//! every backend, `tfd_json`'s `BoundaryScanner::feed` must report the
//! same boundaries and end state as `feed_naive`, the per-byte state
//! machine the walk replaced, at every chunking.
//!
//! This is deliberately ONE `#[test]` in its own integration binary:
//! `force_backend` flips a process-global dispatch table, so the parity
//! sweep must not race other tests in the same process.

use proptest::test_runner::TestRng;
use tfd_json::stream::BoundaryScanner;
use tfd_value::scan;

/// One-byte-at-a-time references, the semantics every kernel must match.
fn naive_any2(h: &[u8], a: u8, b: u8) -> Option<usize> {
    h.iter().position(|&x| x == a || x == b)
}
fn naive_any3(h: &[u8], a: u8, b: u8, c: u8) -> Option<usize> {
    h.iter().position(|&x| x == a || x == b || x == c)
}
fn naive_any5(h: &[u8], a: u8, b: u8, c: u8, d: u8, e: u8) -> Option<usize> {
    h.iter()
        .position(|&x| x == a || x == b || x == c || x == d || x == e)
}
fn naive_byte(h: &[u8], n: u8) -> Option<usize> {
    h.iter().position(|&x| x == n)
}

/// Checks all four arities on one haystack with one needle set.
fn check_all(backend: &str, h: &[u8], n: [u8; 5]) {
    let [a, b, c, d, e] = n;
    assert_eq!(
        scan::find_byte(h, a),
        naive_byte(h, a),
        "[{backend}] find_byte({a:#04x}) on {} bytes",
        h.len()
    );
    assert_eq!(
        scan::find_any2(h, a, b),
        naive_any2(h, a, b),
        "[{backend}] find_any2 on {} bytes",
        h.len()
    );
    assert_eq!(
        scan::find_any3(h, a, b, c),
        naive_any3(h, a, b, c),
        "[{backend}] find_any3 on {} bytes",
        h.len()
    );
    assert_eq!(
        scan::find_any5(h, a, b, c, d, e),
        naive_any5(h, a, b, c, d, e),
        "[{backend}] find_any5 on {} bytes",
        h.len()
    );
}

/// The crafted battery: every length across the probe/vector-width
/// boundaries, the needle planted at every position, plus the inputs
/// that historically trip SIMD scanners (high-bit bytes, all-match,
/// duplicate needles, match in the overlapped tail load).
fn crafted_battery(backend: &str) {
    // The boundary-scan needle sets the drivers actually use.
    let json = [b'"', b'\\', b'{', b'}', b'\n'];
    let csv = [b',', b'\n', b'\r', b'"', b'"'];
    let xml = [b'<', b'>', b'&', b'"', b'\''];

    for len in 0..130usize {
        // No match at all, at any length.
        check_all(backend, &vec![b'x'; len], json);
        // The needle at every single position.
        for pos in 0..len {
            let mut h = vec![b'x'; len];
            h[pos] = b'"';
            check_all(backend, &h, json);
            check_all(backend, &h, csv.map(|n| if n == b',' { b'"' } else { n }));
        }
    }

    // All-match: index 0 always wins.
    check_all(backend, &[b','; 100], csv);
    // High-bit bytes must not alias low needles under SWAR arithmetic
    // or signed SIMD compares.
    let high: Vec<u8> = (0..256)
        .map(|i| (i % 256) as u8)
        .cycle()
        .take(512)
        .collect();
    check_all(backend, &high, json);
    check_all(backend, &high, [0x80, 0xFF, 0x7F, 0x00, 0x01]);
    // Duplicate needles collapse to fewer distinct bytes.
    check_all(backend, b"aaabbbccc", [b'b', b'b', b'b', b'b', b'b']);
    check_all(
        backend,
        &xml.iter().cycle().copied().take(97).collect::<Vec<_>>(),
        xml,
    );
}

/// Randomised corpora from the shim's deterministic RNG: dense and
/// sparse alphabets at sizes spanning the probe, one vector, many
/// vectors, and the ragged tails between them.
fn random_battery(backend: &str, rng: &mut TestRng) {
    let sizes = [
        0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4096, 4099,
    ];
    for &size in &sizes {
        for case in 0..8 {
            // Alternate a tight alphabet (hits are everywhere) with a
            // wide one (hits are rare or absent).
            let span: u64 = if case % 2 == 0 { 6 } else { 251 };
            let h: Vec<u8> = (0..size)
                .map(|_| ((rng.next_u64() % span) as u8).wrapping_add(b'0'))
                .collect();
            let mut n = [0u8; 5];
            for slot in &mut n {
                *slot = ((rng.next_u64() % span) as u8).wrapping_add(b'0');
            }
            check_all(backend, &h, n);
        }
    }

    // Realistic record streams: the JSON/CSV boundary bytes embedded in
    // running text, like the corpora `streaming_agreement` generates.
    for _ in 0..64 {
        let recs = rng.next_u64() % 40 + 1;
        let mut text = String::new();
        for i in 0..recs {
            match rng.next_u64() % 3 {
                0 => text.push_str(&format!("{{\"id\": {i}, \"note\": \"n{i}\"}}\n")),
                1 => text.push_str(&format!("r{i},\"say \"\"hi\"\"\",{i}\r\n")),
                _ => text.push_str(&format!("<r id=\"{i}\">&amp;{i}</r>\n")),
            }
        }
        let h = text.as_bytes();
        check_all(backend, h, [b'"', b'\\', b'{', b'}', b'\n']);
        check_all(backend, h, [b',', b'\n', b'\r', b'"', b'"']);
        check_all(backend, h, [b'<', b'>', b'&', b'"', b'\'']);
    }
}

/// Chunk sizes every JSON boundary comparison feeds at: below, at and
/// above one 64-byte block, and a window holding many.
const JSON_CHUNKS: &[usize] = &[1, 7, 63, 64, 65, 100, 4096];

/// The boundaries `text` yields fed in `chunk`-byte pieces, and whether
/// it ends inside a record: through the block walk, or through the
/// per-byte machine alone.
fn json_cuts(text: &[u8], chunk: usize, naive: bool) -> (Vec<usize>, bool) {
    let mut s = BoundaryScanner::new();
    let mut cuts = Vec::new();
    for (k, piece) in text.chunks(chunk).enumerate() {
        let mut push = |off: usize| cuts.push(k * chunk + off);
        if naive {
            s.feed_naive(piece, &mut push);
        } else {
            s.feed(piece, &mut push);
        }
    }
    (cuts, s.in_record())
}

/// The block walk agrees with the per-byte machine on `text` at every
/// chunk size.
fn check_json(backend: &str, text: &[u8]) {
    for &chunk in JSON_CHUNKS {
        assert_eq!(
            json_cuts(text, chunk, false),
            json_cuts(text, chunk, true),
            "[{backend}] chunk {chunk} on {:?}",
            String::from_utf8_lossy(text)
        );
    }
}

/// `filler` bytes of string content that hold no special byte.
fn pad(filler: usize) -> String {
    "abcdefghij".chars().cycle().take(filler).collect()
}

/// The JSON cases that trip structural indexes. Each is swept over
/// every leading pad of 0..130 bytes, so with the walk starting one
/// byte into the text (past the first `{`) each crafted byte lands on
/// every bit of a block — bits 62 and 63 and bit 64, the next block's
/// bit 0, included — and on every window cut.
fn json_crafted(backend: &str) {
    for lead in 0..130 {
        let p = pad(lead);
        // Backslash runs of length 0–9, the run ending at every bit;
        // odd runs escape the quote after them.
        for run in 0..10 {
            let slashes = "\\".repeat(run);
            let close = if run % 2 == 1 { "\"" } else { "" };
            let rec = format!("{{\"s\":\"{p}{slashes}\"{close}, \"t\": [1]}}");
            check_json(backend, format!("{rec}\n{rec}\n{rec}").as_bytes());
        }
        // A quote at every bit, and an escaped quote across each edge.
        check_json(
            backend,
            format!("{{\"{p}\": \"x\\\"y\"}}\n[\"{p}\\\"\", {{}}]").as_bytes(),
        );
        // A stray backslash outside any string, before and after one.
        check_json(
            backend,
            format!("{{\"a\": 1 \\ , \"{p}\": \\\"q\"}} [\\\"{p}\"]").as_bytes(),
        );
        // Brackets and multi-byte UTF-8 inside strings.
        check_json(
            backend,
            format!("[\"{p}{{[}}]\", \"čaj 😀 {p}]\", {{\"}}\": \"{{\"}}]\n{{\"é\": [\"]]]\"]}}")
                .as_bytes(),
        );
        // Records closing at every offset of a block, back to back and
        // nested.
        check_json(
            backend,
            format!("[{p}]{{\"k\": [[{p}]]}}[] {{}}\n\n[[\"{p}\"]]").as_bytes(),
        );
        // Scalars, strings and junk between containers.
        check_json(
            backend,
            format!(
                "{{\"a\":[{p}]}} 17 \"s{p}\" true [1] ,, }} ] -0.5e+3 nul {{\"b\":[2]}} é 0 01 \
                 [\"{p}\"]\n-\n{{}}"
            )
            .as_bytes(),
        );
    }
    // Deep nesting: no record ends in most blocks.
    let deep = format!("{}{}", "[".repeat(300), "]".repeat(300));
    check_json(backend, format!("{deep} {deep}\n{deep}").as_bytes());
    // Unterminated records and strings at the end of the stream.
    check_json(backend, format!("{{\"a\": \"{}", pad(200)).as_bytes());
    check_json(backend, format!("[[{}\\", pad(200)).as_bytes());
}

/// Atom soup: random concatenations of JSON fragments, balanced or not,
/// so string, escape and depth state cross blocks and windows at random.
fn json_soup(backend: &str, rng: &mut TestRng) {
    const ATOMS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        "\\",
        "\\\\",
        "\\\"",
        " ",
        "\n",
        "\r\n",
        "a",
        "1",
        "-2.5e3",
        "true",
        "nul",
        ",",
        ":",
        "é",
        "😀",
        "{\"k\": \"v\"}",
        "[1, [2]]",
        "\"s\\\"q\"",
        "\"{[]}\"",
        "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz0123456789",
    ];
    for case in 0..400 {
        let atoms = 1 + rng.next_u64() as usize % 120;
        let mut text = String::new();
        // Every other soup opens a container, so the walk runs.
        if case % 2 == 0 {
            text.push('{');
        }
        for _ in 0..atoms {
            text.push_str(ATOMS[rng.next_u64() as usize % ATOMS.len()]);
        }
        check_json(backend, text.as_bytes());
    }
}

#[test]
fn every_backend_is_byte_identical_to_the_scalar_reference() {
    let backends = scan::available_backends();
    assert!(
        backends.contains(&"swar"),
        "the portable kernel must always be compiled in: {backends:?}"
    );
    let detected = scan::backend_name();
    assert!(
        backends.contains(&detected),
        "auto-detected backend {detected:?} not in {backends:?}"
    );

    let mut rng = TestRng::deterministic("scan_backend_parity");
    for backend in &backends {
        assert!(
            scan::force_backend(backend),
            "force_backend({backend:?}) refused a backend it advertised"
        );
        assert_eq!(scan::backend_name(), *backend);
        crafted_battery(backend);
        random_battery(backend, &mut rng);
        json_crafted(backend);
        json_soup(backend, &mut rng);
    }

    // Back to auto-detection; the winner must be the original choice.
    assert!(scan::force_backend("auto"));
    assert_eq!(scan::backend_name(), detected);
    // And an unknown name is refused without disturbing the selection.
    assert!(!scan::force_backend("avx-512-imaginary"));
    assert_eq!(scan::backend_name(), detected);
}
