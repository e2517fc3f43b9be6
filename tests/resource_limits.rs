//! Resource-cap regression suite (resilient ingest).
//!
//! Hostile inputs must surface bounded, deterministic errors — never
//! stack overflows or unbounded buffering — through the one-shot parse
//! and through the ingest pipeline from in-memory bytes and from a
//! reader, inline and on workers, with the whole record in one bundle or
//! straddling many reads.

mod common;

use common::ingest;
use tfd_core::engine::{self, Source};
use tfd_core::recover::{RecoveryMode, MAX_DEPTH_CEILING};
use tfd_core::stream::StreamError;
use tfd_core::{RecoveryPolicy, StreamFormat};
use tfd_value::Interner;

/// A JSON record nested `depth` arrays deep.
fn deep_json(depth: usize) -> String {
    format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
}

/// An XML record nested `depth` elements deep.
fn deep_xml(depth: usize) -> String {
    format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

/// Every (source, jobs, chunk) a single-record corpus is driven
/// through: in memory (the record in one bundle, inline and on workers)
/// and from a reader (small reads straddle the record; a huge read hands
/// it over whole).
fn runs(
    format: StreamFormat,
    corpus: &str,
    policy: RecoveryPolicy,
) -> Vec<(String, Result<tfd_core::recover::Recovered, StreamError>)> {
    let interner = Interner::new();
    let mut out = Vec::new();
    for (jobs, chunk) in [(1usize, 1usize << 16), (4, 1 << 16)] {
        let source = Source::Bytes(corpus.as_bytes());
        let got = ingest(format, source, jobs, chunk, policy, &interner);
        out.push((format!("bytes jobs {jobs}"), got));
    }
    for (chunk, jobs) in [(64usize, 1usize), (64, 4), (1 << 20, 2)] {
        let source = Source::Reader(Box::new(corpus.as_bytes()));
        let got = ingest(format, source, jobs, chunk, policy, &interner);
        out.push((format!("reader chunk {chunk} jobs {jobs}"), got));
    }
    out
}

/// Asserts every run rejects the corpus with an error whose message
/// contains `needle` — same kind everywhere.
fn assert_all_runs_reject(format: StreamFormat, corpus: &str, needle: &str) {
    for (label, got) in runs(format, corpus, RecoveryPolicy::default()) {
        let err = got.expect_err(&format!("{format:?} {label} must reject"));
        let msg = format!("{err}");
        assert!(msg.contains(needle), "{format:?} {label}: {msg}");
    }
}

#[test]
fn ten_thousand_deep_json_is_too_deep_everywhere() {
    let corpus = deep_json(10_000);
    // One-shot front-end first: the recursion guard, not the stack,
    // must stop it.
    let err = engine::parse_value_dyn_in(StreamFormat::Json, &corpus, &Interner::new())
        .expect_err("one-shot must reject");
    assert!(
        format!("{err}").contains("nesting exceeds limit of 128"),
        "{err}"
    );
    assert_all_runs_reject(StreamFormat::Json, &corpus, "nesting exceeds limit of 128");
}

#[test]
fn ten_thousand_deep_xml_is_too_deep_everywhere() {
    let corpus = deep_xml(10_000);
    let err = engine::parse_value_dyn_in(StreamFormat::Xml, &corpus, &Interner::new())
        .expect_err("one-shot must reject");
    assert!(
        format!("{err}").contains("nesting exceeds limit of 256"),
        "{err}"
    );
    assert_all_runs_reject(StreamFormat::Xml, &corpus, "nesting exceeds limit of 256");
}

/// A document exactly at the depth ceiling parses on a pipeline worker
/// (jobs 2) without overflowing its stack, for both nesting formats;
/// one level deeper is a clean `TooDeep`.
#[test]
fn documents_at_the_depth_ceiling_parse_on_workers() {
    let policy = RecoveryPolicy {
        max_depth: Some(MAX_DEPTH_CEILING),
        ..RecoveryPolicy::default()
    };
    let interner = Interner::new();
    for (format, at, over) in [
        (
            StreamFormat::Json,
            deep_json(MAX_DEPTH_CEILING),
            deep_json(MAX_DEPTH_CEILING + 1),
        ),
        (
            StreamFormat::Xml,
            deep_xml(MAX_DEPTH_CEILING),
            deep_xml(MAX_DEPTH_CEILING + 1),
        ),
    ] {
        // Two copies, so the second sits in a bundle of its own on the
        // other worker.
        let corpus = format!("{at}\n{at}\n");
        for source in [
            Source::Bytes(corpus.as_bytes()),
            Source::Reader(Box::new(corpus.as_bytes())),
        ] {
            let got = ingest(format, source, 2, at.len() + 1, policy, &interner)
                .unwrap_or_else(|e| panic!("{format:?} at the ceiling must parse: {e}"));
            assert_eq!(got.summary.records, 2, "{format:?}");
        }
        // Small windows, so the corpus spans several bundles and runs on
        // workers rather than inline.
        let source = Source::Bytes(over.as_bytes());
        let err = ingest(format, source, 2, over.len() / 4, policy, &interner)
            .expect_err("one level past the ceiling is too deep");
        assert!(
            err.to_string()
                .contains(&format!("nesting exceeds limit of {MAX_DEPTH_CEILING}")),
            "{format:?}: {err}"
        );
    }
}

#[test]
fn policy_max_depth_tightens_the_default() {
    let corpus = "{\"a\": 1}\n[[[[1]]]]\n{\"a\": 2}\n";
    let mut policy = RecoveryPolicy {
        max_depth: Some(3),
        ..RecoveryPolicy::default()
    };
    let interner = Interner::new();
    // Fail-fast: the deep record aborts the run.
    for (jobs, chunk) in [(1usize, 1usize << 16), (4, 1)] {
        let err = ingest(
            StreamFormat::Json,
            Source::Bytes(corpus.as_bytes()),
            jobs,
            chunk,
            policy,
            &interner,
        )
        .expect_err("fail-fast must reject");
        assert!(
            format!("{err}").contains("nesting exceeds limit of 3"),
            "{err}"
        );
    }
    // Skip: the deep record is dropped, the rest folds.
    policy.mode = RecoveryMode::Skip;
    for (jobs, chunk) in [(1usize, 1usize << 16), (4, 1)] {
        let got = ingest(
            StreamFormat::Json,
            Source::Bytes(corpus.as_bytes()),
            jobs,
            chunk,
            policy,
            &interner,
        )
        .expect("skip mode folds the shallow records");
        assert_eq!(got.summary.records, 2, "jobs {jobs}");
        assert_eq!(got.report.total(), 1, "jobs {jobs}");
        assert!(
            got.report.first().unwrap().to_string().contains("line 2"),
            "jobs {jobs}: {:?}",
            got.report.first()
        );
    }
}

#[test]
fn oversized_records_are_rejected_by_every_driver() {
    let big = format!("{{\"a\": \"{}\"}}\n", "x".repeat(1000));
    let corpus = format!("{{\"a\": \"s\"}}\n{big}{{\"a\": \"t\"}}\n");
    let mut policy = RecoveryPolicy {
        max_record_bytes: 64,
        ..RecoveryPolicy::default()
    };
    // Fail-fast: every run aborts with RecordTooLarge.
    for (label, got) in runs(StreamFormat::Json, &corpus, policy) {
        let err = got.expect_err("fail-fast must reject");
        assert!(
            format!("{err}").contains("exceeds size limit of 64"),
            "{label}: {err}"
        );
    }
    // Skip: the oversized record is dropped — from a reader in bounded
    // memory — and the rest folds, with the error at the record's line.
    policy.mode = RecoveryMode::Skip;
    for (label, got) in runs(StreamFormat::Json, &corpus, policy) {
        let got = got.expect("skip mode folds the small records");
        assert_eq!(got.summary.records, 2, "{label}");
        assert_eq!(got.report.total(), 1, "{label}");
        let first = got.report.first().unwrap().to_string();
        assert!(
            first.contains("exceeds size limit of 64"),
            "{label}: {first}"
        );
        assert!(first.contains("line 2"), "{label}: {first}");
    }
}

/// Faults in the middle of a bundle: an invalid-UTF-8 record and an
/// over-sized record among good ones. Skip mode drops exactly those two,
/// with the same report from every driver; fail-fast stops at the first.
/// Each corpus is run with the invalid record alone (under the default
/// cap, so the whole-corpus bundle is within it) and with the over-sized
/// one appended (past a 48-byte cap).
#[test]
fn faults_mid_bundle_cost_only_their_own_records() {
    let long = "y".repeat(100);
    let cases = [
        (
            StreamFormat::Json,
            &b"{\"a\": 1}\n{\"a\": \"\xff\"}\n{\"a\": 2}\n"[..],
            format!("{{\"a\": \"{long}\"}}\n{{\"a\": 3}}\n"),
            "input is not valid UTF-8 at line 2, column 8",
            "record exceeds size limit of 48 bytes at line 4, column 1",
        ),
        (
            StreamFormat::Xml,
            &b"<r a=\"1\"/>\n<r a=\"\xff\"/>\n<r a=\"2\"/>\n"[..],
            format!("<r>{long}</r>\n<r a=\"3\"/>\n"),
            "input is not valid UTF-8 at line 2, column 7",
            "record exceeds size limit of 48 bytes at line 4, column 1",
        ),
        (
            StreamFormat::Csv,
            &b"a,b\n1,x\n2,\xff\n3,z\n"[..],
            format!("4,{long}\n5,y\n"),
            "input is not valid UTF-8 on line 3",
            "record starting on line 5 exceeds size limit of 48 bytes",
        ),
    ];
    for (format, head, tail, utf8_error, cap_error) in &cases {
        let whole = [head, tail.as_bytes()].concat();
        for (bytes, cap, want, records) in [
            (*head, None, vec![*utf8_error], 2),
            (&whole[..], Some(48), vec![*utf8_error, *cap_error], 3),
        ] {
            let mut policy = RecoveryPolicy::skip();
            if let Some(cap) = cap {
                policy.max_record_bytes = cap;
            }
            let label = format!("{format:?} cap {cap:?}");
            for (source, jobs, chunk) in sources(bytes) {
                let interner = Interner::new();
                let got = ingest(*format, source, jobs, chunk, policy, &interner)
                    .unwrap_or_else(|e| panic!("{label} jobs {jobs} chunk {chunk}: {e}"));
                let errors: Vec<String> =
                    got.report.errors().iter().map(|e| e.to_string()).collect();
                assert_eq!(errors, want, "{label} jobs {jobs} chunk {chunk}");
                assert_eq!(
                    got.summary.records, records,
                    "{label} jobs {jobs} chunk {chunk}"
                );
            }
            policy.mode = RecoveryMode::FailFast;
            for (source, jobs, chunk) in sources(bytes) {
                let interner = Interner::new();
                let err = ingest(*format, source, jobs, chunk, policy, &interner)
                    .expect_err("fail-fast must reject");
                assert_eq!(
                    err.to_string(),
                    want[0],
                    "{label} jobs {jobs} chunk {chunk}"
                );
            }
        }
    }
}

/// `bytes` in memory as one bundle (inline and on workers) and in small
/// bundles, and from a reader in small and whole reads.
fn sources(bytes: &[u8]) -> Vec<(Source<'_>, usize, usize)> {
    vec![
        (Source::Bytes(bytes), 1, 1 << 16),
        (Source::Bytes(bytes), 2, 1 << 16),
        (Source::Bytes(bytes), 7, 16),
        (Source::Reader(Box::new(bytes)), 1, 1 << 16),
        (Source::Reader(Box::new(bytes)), 2, 7),
    ]
}
