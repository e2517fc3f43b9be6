//! Command-line argument handling and subcommands for `tfd`.
//!
//! All per-format work routes through the engine layer
//! (`tfd_core::engine`): the CLI decides *which* format and *how many
//! workers*, the engine does the rest.

use tfd_codegen::{generate_global, CodegenOptions, SourceFormat};
use tfd_core::analyze::{
    check_path, diff_global, fingerprint, lint_rule_names, run_lints, AccessPath, CompatMode,
    Diagnostic, LintConfig, LintLevel, PathReport, Severity,
};
use tfd_core::engine::IngestConfig;
use tfd_core::recover::{ErrorReport, MAX_DEPTH_CEILING};
use tfd_core::report::{diagnostics_json, diff_json, json_escape};
use tfd_core::stream::StreamError;
use tfd_core::{
    csh, engine, globalize_env, GlobalShape, InferOptions, RecoveryMode, RecoveryPolicy, Shape,
    StreamFormat,
};
use tfd_value::{Interner, Value};

const USAGE: &str = "\
tfd — types from data (shape inference for JSON/XML/CSV)

USAGE:
    tfd <COMMAND> [OPTIONS] FILE...

COMMANDS:
    infer     print the inferred shape in the paper's notation
    fsharp    print F#-style provided type signatures
    rust      print generated Rust typed-access code
    value     dump the universal data value of a document
    analyze   infer a shape, run shape lints over it and check access
              paths; prints the shape fingerprint and every finding
    diff      infer the shapes of exactly two corpora (old, new) and
              report every divergence, classified as safe or breaking
              under the chosen --mode
    check-path  verify --path access paths against the inferred shape:
              a safe path cannot fail on any conforming input
    serve     run the live schema registry: a daemon where tenants
              POST corpora, shapes fold incrementally (versioned), and
              providers, conformance checks and schema diffs are served
              from the registry over HTTP (see README for endpoints)
    stats     query a running registry (--addr) for process-wide and
              per-tenant interner/shape figures

OPTIONS:
    --format <json|xml|csv|html>  input format (default: guessed from extension)
    --global                   XML global (by-name) inference (§6.2)
    --env                      with --global: print the recursive
                               definitions table (the ShapeEnv) under
                               the root shape
    --stream                   chunk-fed parse→infer: records are folded
                               into the shape as they complete, so corpora
                               larger than RAM work (not with value/html)
    --chunk-size <bytes>       read size for --stream (default: 65536)
    --jobs <N>                 parallel parse→infer with N worker
                               threads (with or without --stream; the
                               corpus is cut into record bundles whose
                               shapes join with csh, so the result is
                               identical to --jobs 1; implies
                               record-stream reading, like --stream)
    --skip-errors              drop malformed records instead of aborting:
                               the parse re-syncs at the next record
                               boundary, the clean records are folded, and
                               a skip summary (count, first and last
                               errors) is printed on stderr — the shape
                               equals a run over the corpus with the bad
                               records deleted (not with value/html)
    --max-errors <N>           with --skip-errors: abort once more than N
                               records were skipped (default: 1000)
    --max-record-bytes <N>     hard cap on a single record's size in
                               bytes; a record that outgrows it fails (or,
                               with --skip-errors, is dropped) instead of
                               buffering without bound (default: 16777216)
    --max-depth <N>            cap on JSON/XML nesting depth, at most
                               1024 (defaults: JSON 128, XML 256)
    --module <name>            module name for `rust` (default: provided)
    --root <Name>              root type name (default: Root)
    --prefix <path>            support-crate path for `rust`
                               (default: ::types_from_data)
    --mode <backward|forward|full>
                               compatibility direction for `diff`
                               (default: backward — may every value of
                               the old shape be consumed by code
                               compiled against the new one?)
    --path <p>                 access path for analyze/check-path
                               (repeatable), e.g. items[].name — `.f`
                               projects a field, `[]` maps over a
                               collection, `?` opt-chains a nullable
    --allow <rule>             silence a lint rule (or `all`)
    --warn <rule>              report a lint rule (or `all`) as warning
    --deny <rule>              report a lint rule (or `all`) as error:
                               any finding makes `analyze` exit 4
                               (later --allow/--warn/--deny flags win)
    --json                     machine-readable analyze/diff/check-path/
                               stats output (one JSON object on stdout)
    --addr <host:port>         serve: address to bind (port 0 picks an
                               ephemeral port); stats: registry to query
    --max-body-bytes <N>       serve: cap on one uploaded corpus body in
                               bytes (default: 268435456)
    --max-connections <N>      serve: cap on concurrently handled
                               connections; excess requests get an
                               immediate 503 (default: 64)
    --stats                    print name-interner statistics to stderr:
                               one per-corpus delta as each file's name
                               arena drops, then the process-wide
                               retained total
    --help                     show this help

EXIT CODES:
    0   success
    1   usage error (bad flags, unknown command or format)
    2   the input failed to parse, exceeded --max-errors, or tripped a
        resource cap
    3   an input file could not be read
    4   analysis findings: `diff` found breaking divergences under
        --mode, a denied lint fired, or a checked access path is unsafe
        (the report still prints to stdout)
";

/// A CLI failure, carrying the exit-code contract documented in
/// `--help`: usage errors exit 1, parse/resource errors exit 2, I/O
/// errors exit 3 (success is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is wrong (unknown flag, command or format,
    /// missing files, contradictory flags). Exit code 1.
    Usage(String),
    /// The input failed to parse: a fail-fast parse error, an exceeded
    /// `--max-errors` budget, a tripped resource cap, or record-free
    /// input. Exit code 2.
    Parse(String),
    /// An input file could not be opened or read. Exit code 3.
    Io(String),
    /// The inputs parsed fine but the analysis found what the caller
    /// asked it to look for: breaking `diff` divergences, denied lint
    /// findings, or an unsafe access path. Exit code 4. The payload is
    /// the full report, which belongs on *stdout* (it is the command's
    /// output, not a malfunction).
    Analysis(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Parse(_) => 2,
            CliError::Io(_) => 3,
            CliError::Analysis(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Io(m) | CliError::Analysis(m) => {
                write!(f, "{m}")
            }
        }
    }
}

// Bare-string errors from argument handling are usage errors; parse and
// I/O failures are classified explicitly at their sites.
impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_owned())
    }
}

/// Runs the CLI; returns the text to print. Skip-mode summaries go to
/// stderr.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_warnings(args, &mut |w| eprintln!("tfd: {w}"))
}

/// [`run`] with the skip-summary channel exposed, so tests can capture
/// what a `--skip-errors` run reports without touching the process's
/// stderr.
pub fn run_with_warnings(args: &[String], warn: &mut dyn FnMut(&str)) -> Result<String, CliError> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        return Ok(USAGE.to_owned());
    }
    let command = args[0].as_str();
    let mut format: Option<Format> = None;
    let mut global = false;
    let mut env_table = false;
    let mut stream = false;
    let mut chunk_size = tfd_core::stream::DEFAULT_CHUNK_SIZE;
    let mut jobs: Option<usize> = None;
    let mut policy = RecoveryPolicy::default();
    let mut skip_errors = false;
    let mut max_errors_set = false;
    let mut recovery_flags = false;
    let mut module = "provided".to_owned();
    let mut root = "Root".to_owned();
    let mut prefix = "::types_from_data".to_owned();
    let mut mode = CompatMode::Backward;
    let mut paths: Vec<String> = Vec::new();
    let mut lint_config = LintConfig::new();
    let mut json = false;
    let mut stats = false;
    let mut addr: Option<String> = None;
    let mut max_body_bytes: Option<usize> = None;
    let mut max_connections: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();

    let mut i = 1usize;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                let v = args.get(i).ok_or("--format requires a value")?;
                format = Some(parse_format(v)?);
            }
            "--global" => global = true,
            "--env" => env_table = true,
            "--stream" => stream = true,
            "--chunk-size" => {
                i += 1;
                let v = args.get(i).ok_or("--chunk-size requires a value")?;
                chunk_size =
                    v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--chunk-size must be a positive integer, got {v}")
                    })?;
            }
            "--jobs" => {
                i += 1;
                let v = args.get(i).ok_or("--jobs requires a value")?;
                jobs = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--jobs must be a positive integer, got {v}"))?,
                );
            }
            "--skip-errors" => {
                skip_errors = true;
                recovery_flags = true;
            }
            "--max-errors" => {
                i += 1;
                let v = args.get(i).ok_or("--max-errors requires a value")?;
                policy.max_errors = v
                    .parse::<usize>()
                    .map_err(|_| format!("--max-errors must be a non-negative integer, got {v}"))?;
                max_errors_set = true;
                recovery_flags = true;
            }
            "--max-record-bytes" => {
                i += 1;
                let v = args.get(i).ok_or("--max-record-bytes requires a value")?;
                policy.max_record_bytes =
                    v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--max-record-bytes must be a positive integer, got {v}")
                    })?;
                recovery_flags = true;
            }
            "--max-depth" => {
                i += 1;
                let v = args.get(i).ok_or("--max-depth requires a value")?;
                policy.max_depth = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0 && n <= MAX_DEPTH_CEILING)
                        .ok_or_else(|| {
                            format!(
                                "--max-depth must be an integer from 1 to {MAX_DEPTH_CEILING}, got {v}"
                            )
                        })?,
                );
                recovery_flags = true;
            }
            "--module" => {
                i += 1;
                module = args.get(i).ok_or("--module requires a value")?.clone();
            }
            "--root" => {
                i += 1;
                root = args.get(i).ok_or("--root requires a value")?.clone();
            }
            "--prefix" => {
                i += 1;
                prefix = args.get(i).ok_or("--prefix requires a value")?.clone();
            }
            "--mode" => {
                i += 1;
                let v = args.get(i).ok_or("--mode requires a value")?;
                mode = v.parse::<CompatMode>()?;
            }
            "--path" => {
                i += 1;
                paths.push(args.get(i).ok_or("--path requires a value")?.clone());
            }
            level_flag @ ("--allow" | "--warn" | "--deny") => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("{level_flag} requires a lint rule name or `all`"))?;
                if v != "all" && !lint_rule_names().contains(&v.as_str()) {
                    return Err(format!(
                        "unknown lint rule {v} (expected all, {})",
                        lint_rule_names().join(", ")
                    )
                    .into());
                }
                let level = match level_flag {
                    "--allow" => LintLevel::Allow,
                    "--warn" => LintLevel::Warn,
                    _ => LintLevel::Deny,
                };
                lint_config.set(v, level);
            }
            "--json" => json = true,
            "--stats" => stats = true,
            "--addr" => {
                i += 1;
                addr = Some(
                    args.get(i)
                        .ok_or("--addr requires a host:port value")?
                        .clone(),
                );
            }
            "--max-body-bytes" => {
                i += 1;
                let v = args.get(i).ok_or("--max-body-bytes requires a value")?;
                max_body_bytes =
                    Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--max-body-bytes must be a positive integer, got {v}")
                    })?);
            }
            "--max-connections" => {
                i += 1;
                let v = args.get(i).ok_or("--max-connections requires a value")?;
                max_connections =
                    Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--max-connections must be a positive integer, got {v}")
                    })?);
            }
            "--help" | "-h" => return Ok(USAGE.to_owned()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option {flag}\n\n{USAGE}").into());
            }
            file => files.push(file.to_owned()),
        }
        i += 1;
    }
    // The registry commands take an address, not input files; they must
    // dodge the files-required check below.
    if command == "serve" || command == "stats" {
        if !files.is_empty() {
            return Err(format!(
                "{command} reads no input files (corpora arrive over HTTP); got {files:?}"
            )
            .into());
        }
        let addr = addr.ok_or_else(|| format!("{command} requires --addr host:port"))?;
        return if command == "serve" {
            run_serve(&addr, max_body_bytes, max_connections, warn)
        } else {
            run_registry_stats(&addr, json)
        };
    }
    if files.is_empty() {
        return Err(format!("no input files\n\n{USAGE}").into());
    }
    if skip_errors {
        policy.mode = RecoveryMode::Skip;
    } else if max_errors_set {
        return Err(
            "--max-errors only bounds how many records --skip-errors may drop; \
             pass --skip-errors too"
                .into(),
        );
    }

    let format = match format {
        Some(f) => f,
        None => guess_format(&files[0])?,
    };
    if env_table && !global {
        return Err("--env requires --global (the definitions table is the \
             §6.2 global-inference environment)"
            .into());
    }

    if command == "value" {
        if stream || jobs.is_some() || recovery_flags {
            return Err(
                "--stream/--jobs/--skip-errors/--max-* are not supported with the \
                 value command (they drive the record-stream engine, which folds \
                 records into the shape and drops them, never materializing values)"
                    .into(),
            );
        }
        // One arena for the whole invocation: the dumped values live
        // until they are rendered, then names and text are reclaimed
        // together when the arena drops at the end of this block.
        let interner = Interner::new();
        let values = read_values(&files, format, &interner)?;
        let mut out = String::new();
        for v in &values {
            out.push_str(&tfd_value::builder::to_pretty_string(v));
            out.push('\n');
        }
        emit_corpus_stats(stats, "corpus", &interner, warn);
        emit_stats(stats, warn);
        return Ok(out);
    }

    // One corpus → one shape, through whichever driver the flags chose,
    // so the analysis commands compose with --stream/--jobs/--skip-…
    // exactly like `infer` does. `diff` folds each corpus separately.
    let corpus_shape = |fs: &[String], warn: &mut dyn FnMut(&str)| -> Result<Shape, CliError> {
        if stream || jobs.is_some() || recovery_flags {
            // --stream reads each file in chunks; --jobs and the recovery
            // flags read it whole. Either way the record-stream pipeline
            // runs: skipping and the resource caps are defined over
            // record boundaries, which the one-shot front-ends never see.
            let flag = if stream { "--stream" } else { "--jobs" };
            let config = IngestConfig {
                jobs: jobs.unwrap_or(1),
                chunk_size,
                policy,
                ..IngestConfig::new(engine_format(format, flag)?)
            };
            engine_shape(fs, stream, &config, stats, warn)
        } else {
            oneshot_shape(fs, format, stats, warn)
        }
    };
    // The §6.2 global mode goes through the env-carrying form
    // (`GlobalShape`): recursion is represented by μ-references into the
    // definitions table, so `--global` reaches a true fixed point even
    // on mutually recursive corpora.
    let to_global = |shape: Shape| {
        if global {
            globalize_env(shape)
        } else {
            GlobalShape::plain(shape)
        }
    };
    let parsed_paths: Vec<AccessPath> = paths
        .iter()
        .map(|p| {
            p.parse()
                .map_err(|e| CliError::Usage(format!("--path {p}: {e}")))
        })
        .collect::<Result<_, _>>()?;

    if command == "diff" {
        if files.len() != 2 {
            return Err(format!(
                "diff compares exactly two corpora (old, new); got {} input file(s)",
                files.len()
            )
            .into());
        }
        let old = to_global(corpus_shape(&files[..1], warn)?);
        let new = to_global(corpus_shape(&files[1..], warn)?);
        let report = diff_global(&old, &new, mode);
        let text = if json {
            diff_json(&report)
        } else {
            report.to_string()
        };
        emit_stats(stats, warn);
        return if report.is_compatible() {
            Ok(text)
        } else {
            Err(CliError::Analysis(text))
        };
    }

    let global_shape = to_global(corpus_shape(&files, warn)?);

    if command == "analyze" || command == "check-path" {
        if command == "check-path" && parsed_paths.is_empty() {
            return Err("check-path needs at least one --path to verify".into());
        }
        let lints = if command == "analyze" {
            run_lints(&global_shape, &lint_config)
        } else {
            Vec::new()
        };
        let path_reports: Vec<(&AccessPath, PathReport)> = parsed_paths
            .iter()
            .map(|p| (p, check_path(&global_shape, p)))
            .collect();
        let failed = lints.iter().any(|d| d.severity == Severity::Error)
            || path_reports.iter().any(|(_, r)| !r.is_safe());
        let text = if json {
            render_analysis_json(command, &global_shape, &lints, &path_reports)
        } else {
            render_analysis(command, &global_shape, &lints, &path_reports)
        };
        emit_stats(stats, warn);
        return if failed {
            Err(CliError::Analysis(text))
        } else {
            Ok(text)
        };
    }

    let out = match command {
        "infer" if env_table => Ok(render_env_table(&global_shape)),
        "infer" => Ok(format!("{}\n", global_shape.inline())),
        "fsharp" => {
            let provided = if global {
                tfd_provider::provide_global(&global_shape, &root)
            } else {
                tfd_provider::provide_idiomatic(&global_shape.root, &root)
            };
            Ok(tfd_provider::signature(&provided))
        }
        "rust" => {
            let options = CodegenOptions {
                crate_prefix: prefix,
                format: match format {
                    Format::Json => Some(SourceFormat::Json),
                    Format::Xml => Some(SourceFormat::Xml),
                    Format::Csv => Some(SourceFormat::Csv),
                    Format::Html => None,
                },
                sample_text: None,
            };
            Ok(generate_global(&global_shape, &module, &root, &options))
        }
        other => Err(CliError::from(format!(
            "unknown command {other}\n\n{USAGE}"
        ))),
    };
    emit_stats(stats, warn);
    out
}

/// The `--stats` process summary, on the warning (stderr) channel so
/// it never mixes into command output: what is *still* retained across
/// all live arenas once the per-corpus arenas have dropped (the
/// process-default arena plus whatever the run reinterned into it).
fn emit_stats(enabled: bool, warn: &mut dyn FnMut(&str)) {
    if enabled {
        let s = tfd_value::intern::stats();
        warn(&format!(
            "interner: {} distinct names, {} bytes retained across {} live arena(s)",
            s.symbols, s.retained_bytes, s.arenas
        ));
    }
}

/// The `--stats` per-corpus delta: one corpus arena's footprint,
/// reported just before the arena drops and the figures go back down.
fn emit_corpus_stats(enabled: bool, label: &str, interner: &Interner, warn: &mut dyn FnMut(&str)) {
    if enabled {
        let s = interner.stats();
        warn(&format!(
            "interner[{label}]: {} distinct names, {} bytes retained (reclaimed when \
             corpus arena {} drops)",
            s.symbols,
            s.retained_bytes,
            interner.id()
        ));
    }
}

/// Human-readable `analyze`/`check-path` report.
fn render_analysis(
    command: &str,
    global: &GlobalShape,
    lints: &[Diagnostic],
    paths: &[(&AccessPath, PathReport)],
) -> String {
    let mut out = String::new();
    if command == "analyze" {
        out.push_str(&format!("fingerprint: {}\n", fingerprint(global)));
    }
    for d in lints {
        out.push_str(&format!("{d}\n"));
    }
    for (p, r) in paths {
        for d in &r.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        match (&r.result, r.is_safe()) {
            (Some(shape), true) => out.push_str(&format!("path {p}: safe — {shape}\n")),
            (_, safe) => out.push_str(&format!(
                "path {p}: {}\n",
                if safe { "safe" } else { "UNSAFE" }
            )),
        }
    }
    let errors = lints
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = lints
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let unsafe_paths = paths.iter().filter(|(_, r)| !r.is_safe()).count();
    if command == "analyze" {
        out.push_str(&format!(
            "{} lint finding(s): {errors} error(s), {warnings} warning(s)",
            lints.len()
        ));
        if !paths.is_empty() {
            out.push_str(&format!(
                "; {} path(s) checked, {unsafe_paths} unsafe",
                paths.len()
            ));
        }
        out.push('\n');
    } else {
        out.push_str(&format!(
            "{} path(s) checked, {unsafe_paths} unsafe\n",
            paths.len()
        ));
    }
    out
}

/// Machine-readable `analyze`/`check-path` report: one JSON object.
fn render_analysis_json(
    command: &str,
    global: &GlobalShape,
    lints: &[Diagnostic],
    paths: &[(&AccessPath, PathReport)],
) -> String {
    let mut out = String::from("{");
    if command == "analyze" {
        out.push_str(&format!("\"fingerprint\":\"{}\",", fingerprint(global)));
        out.push_str("\"diagnostics\":");
        out.push_str(&diagnostics_json(lints));
        out.push(',');
    }
    out.push_str("\"paths\":[");
    for (i, (p, r)) in paths.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"safe\":{},\"result\":{},\"diagnostics\":{}}}",
            json_escape(&p.to_string()),
            r.is_safe(),
            match &r.result {
                Some(shape) => format!("\"{}\"", json_escape(&shape.to_string())),
                None => "null".to_owned(),
            },
            diagnostics_json(&r.diagnostics)
        ));
    }
    out.push_str("]}\n");
    out
}

fn read_values(
    files: &[String],
    format: Format,
    interner: &Interner,
) -> Result<Vec<Value>, CliError> {
    files
        .iter()
        .map(|f| read_value(f, format, interner))
        .collect()
}

/// Renders the `--global --env` view: the root shape followed by the
/// recursive definitions table, one entry per line.
/// `tfd serve --addr HOST:PORT`: binds the registry daemon and blocks
/// in its accept loop until the process is killed. The bound address is
/// announced on stderr (useful with port 0).
fn run_serve(
    addr: &str,
    max_body_bytes: Option<usize>,
    max_connections: Option<usize>,
    warn: &mut dyn FnMut(&str),
) -> Result<String, CliError> {
    let defaults = tfd_serve::ServeConfig::default();
    let config = tfd_serve::ServeConfig {
        max_body_bytes: max_body_bytes.unwrap_or(defaults.max_body_bytes),
        max_connections: max_connections.unwrap_or(defaults.max_connections),
        ..defaults
    };
    let server = tfd_serve::Server::bind(addr, config)
        .map_err(|e| CliError::Io(format!("{addr}: bind failed: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    warn(&format!("serving schema registry on http://{local}/v1"));
    server.run();
    Ok(String::new())
}

/// `tfd stats --addr HOST:PORT`: asks a running registry for its
/// process-wide and per-tenant interner/shape figures. `--json` prints
/// the daemon's body verbatim; the default renders it for humans (via
/// the repo's own JSON front-end — the registry speaks a dialect the
/// engine can read back).
fn run_registry_stats(addr: &str, json: bool) -> Result<String, CliError> {
    let resp = tfd_serve::request(addr, "GET", "/v1/stats", None)
        .map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
    let body = resp.text();
    if resp.status != 200 {
        return Err(CliError::Io(format!(
            "{addr}: stats returned HTTP {}: {}",
            resp.status,
            body.trim()
        )));
    }
    if json {
        return Ok(body);
    }
    let interner = Interner::new();
    let v = engine::parse_value_dyn_in(StreamFormat::Json, &body, &interner)
        .map_err(|e| CliError::Parse(format!("{addr}: unparseable stats body: {e}")))?;
    let int_of = |v: Option<&Value>| match v {
        Some(Value::Int(n)) => *n,
        _ => 0,
    };
    let str_of = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let mut out = String::new();
    if let Some(p) = v.field("process") {
        out.push_str(&format!(
            "process interner: {} symbols, {} bytes retained across {} arena(s)\n",
            int_of(p.field("symbols")),
            int_of(p.field("retained_bytes")),
            int_of(p.field("arenas")),
        ));
    }
    if let Some(c) = v.field("connections") {
        out.push_str(&format!(
            "connections: {} active of {} allowed ({} accepted, {} refused)\n",
            int_of(c.field("active")),
            int_of(c.field("capacity")),
            int_of(c.field("accepted")),
            int_of(c.field("refused")),
        ));
    }
    let tenants = v.field("tenants").and_then(Value::elements).unwrap_or(&[]);
    out.push_str(&format!("{} tenant(s)\n", tenants.len()));
    for t in tenants {
        let intern = t.field("intern");
        out.push_str(&format!(
            "  {} [{}] v{} fingerprint {}: {} records, {} bytes in; arena: {} symbols, {} bytes retained\n",
            str_of(t.field("tenant")),
            str_of(t.field("format")),
            int_of(t.field("version")),
            str_of(t.field("fingerprint")),
            int_of(t.field("records")),
            int_of(t.field("bytes")),
            int_of(intern.and_then(|i| i.field("symbols"))),
            int_of(intern.and_then(|i| i.field("retained_bytes"))),
        ));
    }
    Ok(out)
}

fn render_env_table(global: &GlobalShape) -> String {
    let mut out = format!("{}\n", global.root);
    if global.env.is_empty() {
        out.push_str("(no global definitions)\n");
    } else {
        out.push_str("where\n");
        for (name, def) in global.env.iter() {
            out.push_str(&format!("  {name} = {}\n", Shape::Record(def.clone())));
        }
    }
    out
}

/// Lifts an engine [`StreamError`] for file `f` to a [`CliError`]:
/// reader failures are I/O errors (exit 3), everything else — parse
/// errors, exceeded budgets, tripped caps — is a parse error (exit 2).
fn engine_error(f: &str, e: StreamError) -> CliError {
    match e {
        StreamError::Io(_) => CliError::Io(format!("{f}: {e}")),
        other => CliError::Parse(format!("{f}: {other}")),
    }
}

/// The one-line `--skip-errors` summary for a file: how many records
/// were dropped, plus the first and last errors in document order.
fn format_report(f: &str, report: &ErrorReport) -> String {
    let first = report
        .first()
        .expect("a non-empty report has a first error");
    match report.last() {
        Some(last) if report.total() > 1 => format!(
            "{f}: skipped {} malformed records (first: {first}; last: {last})",
            report.total()
        ),
        _ => format!("{f}: skipped 1 malformed record ({first})"),
    }
}

/// The engine format for a CLI format (`html` has no streaming or
/// sharding front-end — it is the footnote-10 extension).
fn engine_format(format: Format, flag: &str) -> Result<StreamFormat, String> {
    match format {
        Format::Json => Ok(StreamFormat::Json),
        Format::Xml => Ok(StreamFormat::Xml),
        Format::Csv => Ok(StreamFormat::Csv),
        Format::Html => Err(format!("{flag} supports json, xml and csv inputs")),
    }
}

/// The record-stream pipeline, routed through the corpus-parallel
/// driver [`engine::infer_sources_parallel`]: one [`run`](engine::run)
/// and one scoped arena per input file, with the `--jobs` budget split
/// across files (a many-file corpus is embarrassingly parallel at the
/// file level). With `stream` each file is read in chunks in bounded
/// memory; otherwise it is read whole and bundled in memory. Results
/// come back in file order, so the `csh` merge of the per-file folds —
/// exactly the `infer_many` fold over the concatenated record sequence —
/// and the first-error-wins abort match the sequential per-file loop;
/// the result is lifted to the one-shot corpus shape (the CSV row fold
/// re-wraps as a collection, so every mode prints the same shape).
/// Record-free JSON and XML input is rejected, matching the one-shot
/// front-ends; a CSV header without rows folds to `[⊥]`, as there (the
/// pipeline itself rejects CSV input without a header).
/// Under `--skip-errors`, each file's skip summary is sent to `warn`.
fn engine_shape(
    files: &[String],
    stream: bool,
    config: &IngestConfig,
    stats: bool,
    warn: &mut dyn FnMut(&str),
) -> Result<Shape, CliError> {
    let sources: Vec<engine::CorpusSource<'_>> = files
        .iter()
        .map(|f| {
            if stream {
                engine::CorpusSource::Stream(f)
            } else {
                engine::CorpusSource::File(f)
            }
        })
        .collect();
    let results = engine::infer_sources_parallel(&sources, config);
    let mut combined = Shape::Bottom;
    for (f, result) in files.iter().zip(results) {
        let mut out = match result {
            Ok(out) => out,
            Err(e) => return Err(engine_error(f, e)),
        };
        if !out.recovered.report.is_empty() {
            warn(&format_report(f, &out.recovered.report));
        }
        if out.recovered.summary.records == 0 && config.format != StreamFormat::Csv {
            return Err(CliError::Parse(format!("{f}: input contains no records")));
        }
        // The fold's survivor is the schema-sized shape: migrate its
        // names into the process arena, then drop the corpus arena —
        // the file's whole data vocabulary is reclaimed right here.
        out.recovered.summary.shape.reintern(Interner::global());
        emit_corpus_stats(stats, f, &out.arena, warn);
        drop(out.arena);
        combined = csh(combined, out.recovered.summary.shape);
    }
    Ok(engine::wrap_corpus_shape_dyn(config.format, combined))
}

/// The default one-shot pipeline: each file parses whole into a value
/// inside its own name arena; the per-file shape (the same `csh` fold
/// [`tfd_core::infer_many`] computes over the concatenated values) is
/// reinterned into the process arena and the file's vocabulary is
/// reclaimed before the next file opens.
fn oneshot_shape(
    files: &[String],
    format: Format,
    stats: bool,
    warn: &mut dyn FnMut(&str),
) -> Result<Shape, CliError> {
    let mut combined = Shape::Bottom;
    for f in files {
        let interner = Interner::new();
        let value = read_value(f, format, &interner)?;
        let mut shape = infer(std::slice::from_ref(&value), format);
        shape.reintern(Interner::global());
        emit_corpus_stats(stats, f, &interner, warn);
        drop(value);
        drop(interner);
        combined = csh(combined, shape);
    }
    Ok(combined)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Xml,
    Csv,
    Html,
}

fn parse_format(s: &str) -> Result<Format, String> {
    match s {
        "json" => Ok(Format::Json),
        "xml" => Ok(Format::Xml),
        "csv" => Ok(Format::Csv),
        "html" => Ok(Format::Html),
        other => Err(format!(
            "unknown format {other} (expected json, xml, csv or html)"
        )),
    }
}

fn guess_format(file: &str) -> Result<Format, String> {
    let lower = file.to_ascii_lowercase();
    if lower.ends_with(".json") {
        Ok(Format::Json)
    } else if lower.ends_with(".xml") {
        Ok(Format::Xml)
    } else if lower.ends_with(".csv") || lower.ends_with(".tsv") {
        Ok(Format::Csv)
    } else if lower.ends_with(".html") || lower.ends_with(".htm") {
        Ok(Format::Html)
    } else {
        Err(format!(
            "cannot guess the format of {file}; pass --format json|xml|csv"
        ))
    }
}

fn read_value(file: &str, format: Format, interner: &Interner) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(file).map_err(|e| CliError::Io(format!("{file}: {e}")))?;
    match engine_format(format, "") {
        Ok(sformat) => engine::parse_value_dyn_in(sformat, &text, interner)
            .map_err(|e| CliError::Parse(format!("{file}: {e}"))),
        Err(_) => {
            // HTML: the footnote-10 extension, outside the engine (its
            // front-end interns into the process arena).
            let tables = tfd_html::parse_tables(&text);
            tables
                .first()
                .map(tfd_html::HtmlTable::to_value)
                .ok_or_else(|| CliError::Parse(format!("{file}: no <table> found")))
        }
    }
}

fn infer(values: &[Value], format: Format) -> Shape {
    let options = match engine_format(format, "") {
        Ok(sformat) => engine::infer_options_dyn(sformat),
        // HTML tables are CSV-like cell grids (§6.2 inference applies).
        Err(_) => InferOptions::csv(),
    };
    tfd_core::infer_many(values, &options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("tfd-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_args(args: &[&str]) -> Result<String, String> {
        run_cli(args).map_err(|e| e.to_string())
    }

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    /// Runs the CLI capturing the `--skip-errors` summaries instead of
    /// printing them to stderr.
    fn run_warned(args: &[&str]) -> (Result<String, CliError>, Vec<String>) {
        let mut warnings = Vec::new();
        let out = run_with_warnings(
            &args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
            &mut |w| warnings.push(w.to_owned()),
        );
        (out, warnings)
    }

    #[test]
    fn help_is_printed() {
        assert!(run_args(&[]).unwrap().contains("USAGE"));
        assert!(run_args(&["--help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn infer_prints_shape() {
        let f = write_temp("a.json", r#"[1, 2.5, null]"#);
        let out = run_args(&["infer", &f]).unwrap();
        assert_eq!(out.trim(), "[nullable float]");
    }

    #[test]
    fn infer_merges_multiple_files() {
        let f1 = write_temp("m1.json", r#"{ "x": 1 }"#);
        let f2 = write_temp("m2.json", r#"{ "x": 2, "y": true }"#);
        let out = run_args(&["infer", &f1, &f2]).unwrap();
        assert!(out.contains("y : nullable bool"), "{out}");
    }

    #[test]
    fn fsharp_prints_signature() {
        let f = write_temp("p.json", r#"[{ "name": "Jan", "age": 25 }]"#);
        let out = run_args(&["fsharp", "--root", "Person", &f]).unwrap();
        assert!(out.contains("member Name : string"), "{out}");
        assert!(out.contains("member Age : int"), "{out}");
    }

    #[test]
    fn rust_prints_module() {
        let f = write_temp("r.json", r#"{ "id": 7 }"#);
        let out = run_args(&["rust", "--module", "gen", "--root", "Thing", &f]).unwrap();
        assert!(out.contains("pub mod gen"), "{out}");
        assert!(out.contains("pub struct Thing"), "{out}");
        assert!(out.contains("pub fn id(&self)"), "{out}");
    }

    #[test]
    fn value_dumps_paper_notation() {
        let f = write_temp("v.xml", r#"<root id="1"/>"#);
        let out = run_args(&["value", &f]).unwrap();
        assert!(out.contains("root"), "{out}");
        assert!(out.contains("id \u{21a6} 1"), "{out}");
    }

    #[test]
    fn format_is_guessed_from_extension() {
        let f = write_temp("g.csv", "a,b\n1,2\n");
        let out = run_args(&["infer", &f]).unwrap();
        // Column a contains only 0/1 values → the §6.2 bit shape.
        assert!(out.contains("a : bit"), "{out}");
        assert!(out.contains("b : int"), "{out}");
        let unknown = write_temp("g.dat", "a,b\n1,2\n");
        assert!(run_args(&["infer", &unknown]).is_err());
        assert!(run_args(&["infer", "--format", "csv", &unknown]).is_ok());
    }

    #[test]
    fn global_flag_applies_xml_global_inference() {
        let f = write_temp(
            "g.xml",
            "<page><a><t x=\"1\"/></a><b><t y=\"2\"/></b></page>",
        );
        let plain = run_args(&["infer", &f]).unwrap();
        let global = run_args(&["infer", "--global", &f]).unwrap();
        assert_ne!(plain, global);
        assert_eq!(global.matches("x : nullable int").count(), 2, "{global}");
    }

    #[test]
    fn html_tables_infer_like_csv() {
        let f = write_temp(
            "t.html",
            "<table><tr><th>City</th><th>Temp</th></tr>\
             <tr><td>Prague</td><td>5</td></tr></table>",
        );
        let out = run_args(&["infer", &f]).unwrap();
        assert!(out.contains("City : string"), "{out}");
        assert!(out.contains("Temp : int"), "{out}");
    }

    #[test]
    fn stream_mode_matches_in_memory_inference() {
        // The same file must print the same shape with and without
        // --stream, for every format and tiny chunk sizes included.
        let cases = [
            ("s.csv", "id,name,score\n1,a,2.5\n2,b,\n"),
            ("s.xml", "<row id=\"1\"><v>x</v></row>"),
            ("s.json", r#"{"a": 1, "b": [true, null]}"#),
        ];
        for (name, content) in cases {
            let f = write_temp(name, content);
            let plain = run_args(&["infer", &f]).unwrap();
            for chunk in ["1", "7", "65536"] {
                let streamed = run_args(&["infer", "--stream", "--chunk-size", chunk, &f]).unwrap();
                assert_eq!(streamed, plain, "{name} at chunk size {chunk}");
            }
        }
    }

    #[test]
    fn stream_mode_merges_multiple_files() {
        let f1 = write_temp("sm1.json", r#"{ "x": 1 }"#);
        let f2 = write_temp("sm2.json", r#"{ "x": 2, "y": true }"#);
        let plain = run_args(&["infer", &f1, &f2]).unwrap();
        let streamed = run_args(&["infer", "--stream", &f1, &f2]).unwrap();
        assert_eq!(streamed, plain);
    }

    #[test]
    fn stream_mode_works_for_codegen_commands() {
        let f = write_temp("sg.csv", "a,b\n1,x\n");
        assert_eq!(
            run_args(&["fsharp", "--stream", &f]).unwrap(),
            run_args(&["fsharp", &f]).unwrap()
        );
        assert_eq!(
            run_args(&["rust", "--stream", "--module", "gen", &f]).unwrap(),
            run_args(&["rust", "--module", "gen", &f]).unwrap()
        );
    }

    #[test]
    fn stream_mode_rejects_value_and_html() {
        let f = write_temp("sv.json", "1");
        assert!(run_args(&["value", "--stream", &f]).is_err());
        let h = write_temp("sv.html", "<table><tr><td>1</td></tr></table>");
        assert!(run_args(&["infer", "--stream", &h]).is_err());
        assert!(run_args(&["infer", "--stream", "--chunk-size", "0", &f]).is_err());
        assert!(run_args(&["infer", "--stream", "--chunk-size", "x", &f]).is_err());
    }

    #[test]
    fn jobs_mode_matches_sequential_inference() {
        // Sharded parallel inference must print byte-identical output,
        // with and without --stream, for all three engine formats.
        let cases = [
            ("j.csv", "id,name,score\n1,a,2.5\n2,b,\n3,c,4.0\n"),
            ("j.xml", "<row id=\"1\"><v>x</v></row><row id=\"2\"/>"),
            ("j.json", "{\"a\": 1}\n{\"a\": 2.5, \"b\": [true, null]}\n"),
        ];
        for (name, content) in cases {
            let f = write_temp(name, content);
            let sequential = run_args(&["infer", "--stream", &f]).unwrap();
            for jobs in ["1", "2", "7"] {
                let par = run_args(&["infer", "--jobs", jobs, &f]).unwrap();
                assert_eq!(par, sequential, "{name} at --jobs {jobs}");
                let par_stream = run_args(&[
                    "infer",
                    "--stream",
                    "--jobs",
                    jobs,
                    "--chunk-size",
                    "16",
                    &f,
                ])
                .unwrap();
                assert_eq!(par_stream, sequential, "{name} at --stream --jobs {jobs}");
            }
        }
    }

    #[test]
    fn jobs_mode_works_for_codegen_and_global() {
        let f = write_temp("jg.csv", "a,b\n1,x\n2,y\n");
        assert_eq!(
            run_args(&["fsharp", "--jobs", "3", &f]).unwrap(),
            run_args(&["fsharp", "--stream", &f]).unwrap()
        );
        assert_eq!(
            run_args(&["rust", "--jobs", "3", "--module", "gen", &f]).unwrap(),
            run_args(&["rust", "--stream", "--module", "gen", &f]).unwrap()
        );
        let x = write_temp(
            "jg.xml",
            "<page><a><t x=\"1\"/></a><b><t y=\"2\"/></b></page>",
        );
        assert_eq!(
            run_args(&["infer", "--global", "--jobs", "4", &x]).unwrap(),
            run_args(&["infer", "--global", "--stream", &x]).unwrap()
        );
    }

    #[test]
    fn jobs_mode_reports_sequential_errors() {
        let f = write_temp("je.json", "{\"a\": 1}\n{\"b\": @}\n");
        let seq = run_args(&["infer", "--stream", &f]).unwrap_err();
        let par = run_args(&["infer", "--jobs", "4", &f]).unwrap_err();
        assert_eq!(par, seq);
        assert!(run_args(&["infer", "--jobs", "0", &f]).is_err());
        assert!(run_args(&["infer", "--jobs", "x", &f]).is_err());
        assert!(run_args(&["value", "--jobs", "2", &f]).is_err());
    }

    #[test]
    fn env_flag_prints_the_definitions_table() {
        let f = write_temp("e.xml", "<ul><li><ul><li/></ul></li></ul>");
        let out = run_args(&["infer", "--global", "--env", &f]).unwrap();
        assert!(out.contains("where"), "{out}");
        assert!(out.contains("ul = ul {"), "{out}");
        assert!(out.contains("li = li {"), "{out}");
        // Without --global the table flag is an error.
        assert!(run_args(&["infer", "--env", &f]).is_err());
        // A recursion-free corpus prints an empty table marker.
        let flat = write_temp("e2.xml", "<a><b/></a>");
        let out = run_args(&["infer", "--global", "--env", &flat]).unwrap();
        assert!(out.contains("(no global definitions)"), "{out}");
    }

    #[test]
    fn stream_mode_reports_parse_errors_with_positions() {
        let f = write_temp("se.json", "{\"a\": 1}\n{\"b\": @}\n");
        let err = run_args(&["infer", "--stream", &f]).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn stream_mode_rejects_record_free_input_like_the_oneshot_path() {
        // Both modes must reject input with nothing to infer from,
        // rather than --stream silently printing ⊥.
        for (name, content) in [
            ("e.json", "  \n "),
            ("e.xml", "<!-- only a comment -->"),
            ("e.csv", ""),
        ] {
            let f = write_temp(name, content);
            assert!(run_args(&["infer", &f]).is_err(), "{name} (one-shot)");
            let err = run_args(&["infer", "--stream", &f]).unwrap_err();
            assert!(
                err.contains("no records") || err.contains("no rows"),
                "{name} (stream): {err}"
            );
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_args(&["infer", "/nonexistent/x.json"]).is_err());
        assert!(run_args(&["bogus-command", "x.json"]).is_err());
        assert!(run_args(&["infer", "--format", "yaml", "x"]).is_err());
        let bad = write_temp("bad.json", "{");
        assert!(run_args(&["infer", &bad]).is_err());
    }

    #[test]
    fn errors_carry_the_documented_exit_codes() {
        let good = write_temp("code0.json", "{\"a\": 1}\n");
        assert!(run_cli(&["infer", &good]).is_ok());
        // 1: usage errors.
        assert_eq!(
            run_cli(&["infer", "--bogus", &good])
                .unwrap_err()
                .exit_code(),
            1
        );
        assert_eq!(run_cli(&["infer"]).unwrap_err().exit_code(), 1);
        // 2: parse errors, through every driver.
        let bad = write_temp("code2.json", "{\"a\": @}\n");
        for extra in [&[][..], &["--stream"][..], &["--jobs", "2"][..]] {
            let mut args = vec!["infer"];
            args.extend_from_slice(extra);
            args.push(&bad);
            assert_eq!(run_cli(&args).unwrap_err().exit_code(), 2, "{extra:?}");
        }
        // 3: unreadable input.
        for extra in [&[][..], &["--stream"][..], &["--jobs", "2"][..]] {
            let mut args = vec!["infer"];
            args.extend_from_slice(extra);
            args.push("/nonexistent/x.json");
            assert_eq!(run_cli(&args).unwrap_err().exit_code(), 3, "{extra:?}");
        }
        // The contract is user-visible.
        assert!(run_args(&["--help"]).unwrap().contains("EXIT CODES"));
    }

    #[test]
    fn skip_errors_drops_malformed_records_and_summarizes() {
        let dirty = write_temp(
            "skip.json",
            "{\"a\": 1}\n{\"a\": @}\n{\"a\": 2, \"b\": true}\n{\"a\": [1,]}\n{\"a\": 3}\n",
        );
        let clean = write_temp(
            "skip_clean.json",
            "{\"a\": 1}\n{\"a\": 2, \"b\": true}\n{\"a\": 3}\n",
        );
        // (--stream: the one-shot JSON front-end reads a single
        // document, while these corpora are record streams.)
        let want = run_args(&["infer", "--stream", &clean]).unwrap();
        // Fail-fast still aborts…
        assert_eq!(run_cli(&["infer", &dirty]).unwrap_err().exit_code(), 2);
        // …while every skip-mode driver folds exactly the clean subset.
        for extra in [
            &[][..],
            &["--jobs", "2"][..],
            &["--jobs", "7"][..],
            &["--stream"][..],
            &["--stream", "--chunk-size", "3", "--jobs", "2"][..],
        ] {
            let mut args = vec!["infer", "--skip-errors"];
            args.extend_from_slice(extra);
            args.push(&dirty);
            let (out, warnings) = run_warned(&args);
            assert_eq!(out.unwrap(), want, "{extra:?}");
            assert_eq!(warnings.len(), 1, "{extra:?}: {warnings:?}");
            assert!(
                warnings[0].contains("skipped 2 malformed records"),
                "{extra:?}: {}",
                warnings[0]
            );
            // First/last positions are stream-global document order.
            assert!(warnings[0].contains("first:"), "{}", warnings[0]);
            assert!(warnings[0].contains("line 2"), "{}", warnings[0]);
            assert!(warnings[0].contains("line 4"), "{}", warnings[0]);
        }
    }

    #[test]
    fn skip_errors_budget_aborts_with_a_parse_error() {
        let dirty = write_temp(
            "budget.json",
            "{\"a\": @}\n{\"b\": @}\n{\"c\": @}\n{\"d\": 1}\n",
        );
        for extra in [&[][..], &["--stream"][..], &["--jobs", "3"][..]] {
            let mut args = vec!["infer", "--skip-errors", "--max-errors", "2"];
            args.extend_from_slice(extra);
            args.push(&dirty);
            let err = run_cli(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra:?}");
            let msg = err.to_string();
            assert!(msg.contains("error budget exceeded"), "{extra:?}: {msg}");
            assert!(msg.contains("line 1"), "{extra:?}: {msg}");
        }
        // A generous budget lets the run through.
        let ok = run_cli(&["infer", "--skip-errors", "--max-errors", "3", &dirty]);
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn recovery_flags_imply_the_record_stream_engine() {
        // --max-depth without --stream/--jobs still reaches the engine.
        let deep = write_temp("deep.json", "[[[[[1]]]]]\n");
        let err = run_cli(&["infer", "--max-depth", "3", &deep]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("nesting"), "{err}");
        assert!(run_cli(&["infer", "--max-depth", "9", &deep]).is_ok());
        // --max-record-bytes likewise.
        let wide = write_temp("wide.json", "{\"a\": \"0123456789abcdef\"}\n");
        let err = run_cli(&["infer", "--max-record-bytes", "8", &wide]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("record exceeds"), "{err}");
    }

    #[test]
    fn analyze_reports_fingerprint_lints_and_paths() {
        let f = write_temp(
            "an.json",
            r#"{"items": [{"name": "a", "note": null}, {"name": "b", "note": "x"}]}"#,
        );
        let out = run_args(&["analyze", &f]).unwrap();
        assert!(out.contains("fingerprint: "), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
        let out = run_args(&["analyze", "--path", "items[].name", &f]).unwrap();
        assert!(out.contains("path $.items[].name: safe — string"), "{out}");
        // An unsafe path flips the command into the Analysis error.
        let err = run_cli(&["analyze", "--path", "items[].note.len", &f]).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("path-null-deref"), "{err}");
        // A malformed path is a usage error, not an analysis finding.
        let err = run_cli(&["analyze", "--path", "items[0]", &f]).unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn analyze_lint_levels_drive_the_exit_code() {
        // score is sometimes a float, sometimes a string → the
        // mixed-number-string lint fires (CSV columns inferred per-row).
        let f = write_temp("lint.csv", "id,score\n1,2.5\n2,high\n");
        let out = run_args(&["analyze", &f]).unwrap();
        assert!(out.contains("warning[mixed-number-string]"), "{out}");
        // Denied: same finding, error severity, exit 4.
        let err = run_cli(&["analyze", "--deny", "mixed-number-string", &f]).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(
            err.to_string().contains("error[mixed-number-string]"),
            "{err}"
        );
        // Allowed: silent again (later flags win over earlier ones).
        let out = run_args(&[
            "analyze",
            "--deny",
            "all",
            "--allow",
            "mixed-number-string",
            &f,
        ])
        .unwrap();
        assert!(out.contains("0 lint finding(s)"), "{out}");
        // Unknown rule names are usage errors that list the registry.
        let err = run_cli(&["analyze", "--deny", "bogus-rule", &f]).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("mixed-number-string"), "{err}");
    }

    #[test]
    fn diff_classifies_and_exits_by_mode() {
        let old = write_temp("d_old.csv", "id,score\n1,2.5\n");
        let widened = write_temp("d_new.csv", "id,score\n1,\n2,3.5\n");
        // Widening (score becomes nullable): backward-safe…
        let out = run_args(&["diff", &old, &widened]).unwrap();
        assert!(out.contains("nullability-introduced"), "{out}");
        assert!(out.contains("0 breaking"), "{out}");
        // …but forward-breaking, and full covers both directions.
        for mode in ["forward", "full"] {
            let err = run_cli(&["diff", "--mode", mode, &old, &widened]).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{mode}");
            assert!(err.to_string().contains("breaking"), "{mode}: {err}");
        }
        // Identical corpora: empty report, exit 0, in every mode.
        let out = run_args(&["diff", "--mode", "full", &old, &old]).unwrap();
        assert!(out.contains("shapes are identical"), "{out}");
        // Wrong arity and bad mode are usage errors.
        assert_eq!(run_cli(&["diff", &old]).unwrap_err().exit_code(), 1);
        assert_eq!(
            run_cli(&["diff", "--mode", "sideways", &old, &old])
                .unwrap_err()
                .exit_code(),
            1
        );
    }

    #[test]
    fn diff_composes_with_stream_and_jobs() {
        let old = write_temp("ds_old.csv", "id,score\n1,2.5\n2,3.0\n");
        let new = write_temp("ds_new.csv", "id,score\n1,high\n2,low\n");
        let plain = run_cli(&["diff", &old, &new]).unwrap_err();
        for extra in [&["--stream"][..], &["--jobs", "2"][..]] {
            let mut args = vec!["diff"];
            args.extend_from_slice(extra);
            args.extend([old.as_str(), new.as_str()]);
            let err = run_cli(&args).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{extra:?}");
            assert_eq!(err.to_string(), plain.to_string(), "{extra:?}");
        }
    }

    #[test]
    fn json_output_is_machine_readable() {
        let old = write_temp("j_old.csv", "id,score\n1,2.5\n");
        let new = write_temp("j_new.csv", "id,score\n1,high\n");
        let err = run_cli(&["diff", "--json", &old, &new]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.starts_with('{') && text.trim_end().ends_with('}'),
            "{text}"
        );
        assert!(text.contains("\"kind\":\"type-changed\""), "{text}");
        assert!(text.contains("\"compatible\":false"), "{text}");
        assert!(text.contains("\"breaking\":true"), "{text}");
        let f = write_temp("j_an.json", r#"{"a": 1}"#);
        let out = run_args(&["analyze", "--json", "--path", "a", &f]).unwrap();
        assert!(out.contains("\"fingerprint\":"), "{out}");
        assert!(out.contains("\"safe\":true"), "{out}");
        assert!(out.contains("\"result\":\"int\""), "{out}");
    }

    #[test]
    fn check_path_command_verifies_paths() {
        let f = write_temp(
            "cp.json",
            r#"{"user": {"name": "jan"}, "tags": ["a", "b"]}"#,
        );
        let out = run_args(&["check-path", "--path", "user.name", "--path", "tags[]", &f]).unwrap();
        assert!(out.contains("2 path(s) checked, 0 unsafe"), "{out}");
        let err = run_cli(&["check-path", "--path", "user.age", &f]).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("path-missing-field"), "{err}");
        // No paths given: usage error.
        assert_eq!(run_cli(&["check-path", &f]).unwrap_err().exit_code(), 1);
    }

    #[test]
    fn stats_flag_reports_per_corpus_deltas_and_a_process_summary() {
        let f = write_temp("st.json", r#"{"alpha": 1, "beta": true}"#);
        let (out, warnings) = run_warned(&["infer", "--stats", &f]);
        assert!(out.is_ok());
        // One per-corpus delta (the file's own arena) plus the
        // process-wide summary of what stays live after it drops.
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("interner["), "{}", warnings[0]);
        assert!(warnings[0].contains("distinct names"), "{}", warnings[0]);
        assert!(warnings[0].contains("reclaimed"), "{}", warnings[0]);
        assert!(warnings[1].contains("bytes retained"), "{}", warnings[1]);
        assert!(warnings[1].contains("live arena"), "{}", warnings[1]);
        // Also on analysis commands, and off by default.
        let (_, warnings) = run_warned(&["analyze", "--stats", &f]);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        let (_, warnings) = run_warned(&["infer", &f]);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn sequential_runs_drop_each_files_arena() {
        // Two files with disjoint vocabularies: each file's corpus arena
        // (named by `--stats`) is dead once the run returns, and only the
        // schema-sized survivors live on in the process arena — the
        // same names on a repeat run. Only arenas this test's runs
        // created are inspected: process-wide totals are shared with
        // every test running beside it.
        let a = write_temp(
            "seq_a.json",
            r#"{"seq_arena_key_a1": 1, "seq_arena_key_a2": 2}"#,
        );
        let b = write_temp(
            "seq_b.json",
            r#"{"seq_arena_key_b1": 1, "seq_arena_key_b2": 2}"#,
        );
        let run = || {
            let (out, warnings) = run_warned(&["infer", "--stats", &a, &b]);
            let ids: Vec<u32> = warnings
                .iter()
                .filter_map(|w| w.split("arena ").nth(1)?.split(' ').next()?.parse().ok())
                .collect();
            (out.unwrap(), ids)
        };
        let (first, first_ids) = run();
        let (second, second_ids) = run();
        assert_eq!(first, second);
        assert_eq!(first_ids.len(), 2, "one arena per file");
        assert_eq!(second_ids.len(), 2, "one arena per file");
        for id in first_ids.iter().chain(&second_ids) {
            assert!(
                !tfd_value::intern::is_live(*id),
                "file arena {id} outlived its run"
            );
        }
        for key in ["seq_arena_key_a1", "seq_arena_key_b2"] {
            assert!(Interner::global().lookup(key).is_some(), "{key} survives");
        }
    }

    #[test]
    fn recovery_flag_misuse_is_a_usage_error() {
        let f = write_temp("misuse.json", "{\"a\": 1}\n");
        for args in [
            &["infer", "--max-errors", "5", &f][..],
            &["infer", "--skip-errors", "--max-errors", "-1", &f][..],
            &["infer", "--max-record-bytes", "0", &f][..],
            &["infer", "--max-depth", "0", &f][..],
            &["value", "--skip-errors", &f][..],
            &["infer", "--skip-errors", "--format", "html", &f][..],
        ] {
            let err = run_cli(args).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{args:?}: {err}");
        }
    }
}
