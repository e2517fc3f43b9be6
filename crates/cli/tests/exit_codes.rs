//! End-to-end exit-code contract for the `tfd` binary.
//!
//! `--help` documents: 0 success, 1 usage error, 2 parse/resource
//! error, 3 I/O error, 4 analysis findings. These tests run the real
//! executable and assert the contract holds on every driver path, plus
//! the `--skip-errors` stderr summary format and the analysis report
//! channel (stdout, even on exit 4).

use std::path::PathBuf;
use std::process::{Command, Output};

fn tfd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tfd"))
        .args(args)
        .output()
        .expect("spawn tfd")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("tfd exited with a code")
}

fn write_temp(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("tfd-e2e-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn success_is_exit_zero_with_the_shape_on_stdout() {
    let f = write_temp("ok.json", "{\"a\": 1}\n{\"a\": 2, \"b\": true}\n");
    let out = tfd(&["infer", "--stream", &f]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("a : int"), "{stdout}");
    assert!(out.stderr.is_empty(), "{:?}", String::from_utf8(out.stderr));
}

#[test]
fn usage_errors_exit_one() {
    let f = write_temp("u.json", "{\"a\": 1}\n");
    for args in [
        &["infer", "--bogus-flag", &f][..],
        &["infer"][..],
        &["infer", "--format", "yaml", &f][..],
        &["infer", "--max-errors", "5", &f][..], // needs --skip-errors
        &["value", "--skip-errors", &f][..],
        &["infer", "--max-depth", "1025", &f][..], // past the ceiling
        &["infer", "--jobs", "2", "--max-depth", "100000000", &f][..],
    ] {
        let out = tfd(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {out:?}");
        assert!(!out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn parse_errors_exit_two_on_every_driver() {
    let f = write_temp("p.json", "{\"a\": 1}\n{\"a\": @}\n");
    for extra in [
        &[][..],
        &["--stream"][..],
        &["--jobs", "2"][..],
        &["--stream", "--jobs", "2"][..],
    ] {
        let mut args = vec!["infer"];
        args.extend_from_slice(extra);
        args.push(&f);
        let out = tfd(&args);
        assert_eq!(exit_code(&out), 2, "{extra:?}: {out:?}");
    }
}

#[test]
fn record_free_input_agrees_on_every_driver() {
    // A CSV header without rows is an empty table, `[⊥]`, whichever
    // driver reads it; empty JSON and XML input stay parse errors, and
    // so does a CSV file without even a header.
    let header_only = write_temp("header_only.csv", "a,b\n");
    let cases = [
        (header_only.as_str(), 0),
        (&*write_temp("no_records.json", ""), 2),
        (&*write_temp("no_records.xml", " \n"), 2),
        (&*write_temp("no_records.csv", ""), 2),
    ];
    for (f, code) in cases {
        for extra in [
            &[][..],
            &["--stream"][..],
            &["--jobs", "2"][..],
            &["--stream", "--jobs", "2"][..],
        ] {
            let mut args = vec!["infer"];
            args.extend_from_slice(extra);
            args.push(f);
            let out = tfd(&args);
            assert_eq!(exit_code(&out), code, "{f} {extra:?}: {out:?}");
            if code == 0 {
                assert_eq!(
                    String::from_utf8_lossy(&out.stdout).trim(),
                    "[⊥]",
                    "{extra:?}"
                );
            }
        }
    }
}

#[test]
fn exceeding_the_error_budget_exits_two() {
    let f = write_temp("b.json", "{\"a\": @}\n{\"b\": @}\n{\"c\": 1}\n");
    let out = tfd(&["infer", "--skip-errors", "--max-errors", "1", &f]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error budget exceeded"), "{stderr}");
}

#[test]
fn the_error_budget_is_per_input_file() {
    // Two bad records in each of two files: 4 in all, but never more
    // than 2 in one file's run.
    let a = write_temp("budget_a.json", "{\"a\": 1}\n{\"a\": @}\n{\"b\": @}\n");
    let b = write_temp("budget_b.json", "{\"c\": @}\n{\"a\": 2}\n[1,]\n");
    for extra in [
        &[][..],
        &["--stream"][..],
        &["--jobs", "2"][..],
        &["--stream", "--jobs", "2"][..],
    ] {
        for (budget, want) in [("2", 0), ("1", 2)] {
            let mut args = vec!["infer", "--skip-errors", "--max-errors", budget];
            args.extend_from_slice(extra);
            args.extend([a.as_str(), b.as_str()]);
            let out = tfd(&args);
            assert_eq!(exit_code(&out), want, "{args:?}: {out:?}");
        }
    }
}

#[test]
fn help_says_the_error_budget_is_per_file() {
    let stdout = String::from_utf8(tfd(&["--help"]).stdout).unwrap();
    assert!(stdout.contains("skipped in one input file"), "{stdout}");
}

#[test]
fn io_errors_exit_three() {
    for extra in [&[][..], &["--stream"][..], &["--jobs", "2"][..]] {
        let mut args = vec!["infer"];
        args.extend_from_slice(extra);
        args.push("/nonexistent/never/x.json");
        let out = tfd(&args);
        assert_eq!(exit_code(&out), 3, "{extra:?}: {out:?}");
    }
}

#[test]
fn skip_errors_prints_the_summary_on_stderr_and_exits_zero() {
    let f = write_temp("s.csv", "a,b\n1,x\n\"bad\"y,2\n3,z\n");
    let clean = write_temp("s_clean.csv", "a,b\n1,x\n3,z\n");
    let dirty_out = tfd(&["infer", "--stream", "--skip-errors", "--jobs", "2", &f]);
    assert_eq!(exit_code(&dirty_out), 0, "{dirty_out:?}");
    let clean_out = tfd(&["infer", "--stream", &clean]);
    assert_eq!(dirty_out.stdout, clean_out.stdout, "skip != clean subset");
    let stderr = String::from_utf8(dirty_out.stderr).unwrap();
    assert!(stderr.contains("skipped 1 malformed record"), "{stderr}");
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn breaking_diff_exits_four_with_the_report_on_stdout() {
    let old = write_temp("ev_old.csv", "id,score\n1,2.5\n2,3.0\n");
    let new = write_temp("ev_new.csv", "id,score\n1,high\n2,low\n");
    let out = tfd(&["diff", &old, &new]);
    assert_eq!(exit_code(&out), 4, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("type-changed"), "{stdout}");
    assert!(stdout.contains("$[].score"), "{stdout}");
    assert!(stdout.contains("breaking"), "{stdout}");
    assert!(out.stderr.is_empty(), "{:?}", String::from_utf8(out.stderr));
    // A corpus diffed against itself is identical: exit 0.
    let same = tfd(&["diff", "--mode", "full", &old, &old]);
    assert_eq!(exit_code(&same), 0, "{same:?}");
    let stdout = String::from_utf8(same.stdout).unwrap();
    assert!(stdout.contains("shapes are identical"), "{stdout}");
}

#[test]
fn diff_mode_decides_which_divergences_break() {
    // score becomes nullable: a widening — old values still conform.
    let old = write_temp("w_old.csv", "id,score\n1,2.5\n");
    let new = write_temp("w_new.csv", "id,score\n1,\n2,3.5\n");
    let back = tfd(&["diff", &old, &new]);
    assert_eq!(exit_code(&back), 0, "{back:?}");
    let stdout = String::from_utf8(back.stdout).unwrap();
    assert!(stdout.contains("nullability-introduced"), "{stdout}");
    let fwd = tfd(&["diff", "--mode", "forward", &old, &new]);
    assert_eq!(exit_code(&fwd), 4, "{fwd:?}");
}

#[test]
fn denied_lint_exits_four() {
    let f = write_temp("lint.csv", "id,score\n1,2.5\n2,high\n");
    let warn_only = tfd(&["analyze", &f]);
    assert_eq!(exit_code(&warn_only), 0, "{warn_only:?}");
    let denied = tfd(&["analyze", "--deny", "mixed-number-string", &f]);
    assert_eq!(exit_code(&denied), 4, "{denied:?}");
    let stdout = String::from_utf8(denied.stdout).unwrap();
    assert!(stdout.contains("error[mixed-number-string]"), "{stdout}");
}

#[test]
fn unsafe_access_path_exits_four() {
    let f = write_temp(
        "paths.json",
        r#"{"items": [{"name": "a", "note": null}, {"name": "b", "note": "x"}]}"#,
    );
    let safe = tfd(&["check-path", "--path", "items[].name", &f]);
    assert_eq!(exit_code(&safe), 0, "{safe:?}");
    let unsafe_out = tfd(&["check-path", "--path", "items[].note.len", &f]);
    assert_eq!(exit_code(&unsafe_out), 4, "{unsafe_out:?}");
    let stdout = String::from_utf8(unsafe_out.stdout).unwrap();
    assert!(stdout.contains("path-null-deref"), "{stdout}");
    // The `?` opt-chain satisfies the checker.
    let opted = tfd(&["check-path", "--path", "items[].note?", &f]);
    assert_eq!(exit_code(&opted), 0, "{opted:?}");
}

#[test]
fn json_analysis_output_is_a_single_object_on_stdout() {
    let old = write_temp("js_old.csv", "id,score\n1,2.5\n");
    let new = write_temp("js_new.csv", "id,score\n1,high\n");
    let out = tfd(&["diff", "--json", &old, &new]);
    assert_eq!(exit_code(&out), 4, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"compatible\":false"), "{stdout}");
    assert!(stdout.contains("\"kind\":\"type-changed\""), "{stdout}");
}

#[test]
fn stats_go_to_stderr_not_stdout() {
    let f = write_temp("stats.json", "{\"a\": 1}\n");
    let out = tfd(&["analyze", "--stats", &f]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("distinct names"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("distinct names"), "{stdout}");
}

#[test]
fn help_documents_the_contract_and_exits_zero() {
    let out = tfd(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "EXIT CODES",
        "--skip-errors",
        "--max-errors",
        "--max-record-bytes",
        "--max-depth",
        "analyze",
        "diff",
        "check-path",
        "--mode",
        "--deny",
        "--json",
        "--stats",
        "4   analysis findings",
    ] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}
