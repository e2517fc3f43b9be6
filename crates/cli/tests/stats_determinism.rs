//! `--stats` output is a function of the inputs, not of thread timing.
//!
//! With several input files at `--jobs` > 1, file workers run in
//! parallel; the per-file `interner[<file>]` lines must still come out
//! byte-identical from run to run — arena numbers included — and equal
//! to the sequential `--jobs 1` run, so the lines can be diffed across
//! `--jobs` settings.

use std::process::Command;

/// Runs `tfd` and returns its stderr, asserting success.
fn stderr_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tfd"))
        .args(args)
        .output()
        .expect("spawn tfd");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stderr).expect("UTF-8 stderr")
}

/// Six CSV files with per-file column names, so each file's arena holds
/// its own vocabulary.
fn six_csv_files() -> Vec<String> {
    let dir = std::env::temp_dir().join("tfd-stats-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    (1..=6)
        .map(|f| {
            let mut text = format!("id,name,col{f}\n");
            for r in 0..300 {
                text.push_str(&format!("{r},n-{f}-{r},{}\n", r * f));
            }
            let path = dir.join(format!("part{f}.csv"));
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect()
}

#[test]
fn parallel_stats_match_sequential_run_for_run() {
    let files = six_csv_files();
    let with = |extra: &[&str]| {
        let mut args = vec!["infer", "--stats"];
        args.extend_from_slice(extra);
        args.extend(files.iter().map(String::as_str));
        stderr_of(&args)
    };
    let sequential = with(&["--jobs", "1"]);
    assert_eq!(
        sequential
            .lines()
            .filter(|l| l.contains("interner["))
            .count(),
        6,
        "{sequential}"
    );
    for run in 0..20 {
        assert_eq!(with(&["--jobs", "2"]), sequential, "--jobs 2, run {run}");
    }
    let streamed = with(&["--stream", "--jobs", "1"]);
    for run in 0..5 {
        assert_eq!(
            with(&["--stream", "--jobs", "2", "--skip-errors"]),
            streamed,
            "--stream --jobs 2 --skip-errors, run {run}"
        );
    }
}
