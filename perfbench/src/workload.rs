//! The three workloads: what each generates from the seed, what the
//! program is asked to do with it, and what the answer must be.
//!
//! * `jsonl-uniform` — one large JSON-lines file of homogeneous records
//!   through `tfd infer --stream --jobs 2`. The common API-dump case:
//!   the fold and the interner do most of the work, the shard plan and
//!   the parallel reader matter, recovery and HTTP do none.
//! * `files-dirty` — a dozen medium XML and CSV files with heterogeneous
//!   records and 0.1% corrupted ones through `tfd infer --jobs 2
//!   --skip-errors`, once per format. The parsers, Skip-mode recovery
//!   and file-level parallelism do the work, and the fold keeps
//!   widening, so a fast path for homogeneous data that costs
//!   heterogeneous data shows up here.
//! * `registry-mixed` — an open loop at a fixed rate against
//!   `tfd serve`: small messy JSON ingests beside twice as many reads.
//!   Per-request fixed costs do the work; parse and fold do little.

use std::path::Path;

use tfd_codegen::{generate_global, CodegenOptions, SourceFormat};
use tfd_core::{GlobalShape, RecoveryPolicy, Shape, StreamFormat};
use tfd_serve::IngestRequest;
use tfd_value::corpus::Rng;

use crate::batch::{Invocation, Plan};
use crate::gen::{self, Corruption, RecordFile};
use crate::trace::Tracer;
use crate::{oracle, registry, Outcome};

/// Records in the `jsonl-uniform` file.
const UNIFORM_RECORDS: usize = 40_000;
/// Files per format in `files-dirty`, and records per file.
const DIRTY_FILES: usize = 6;
const XML_RECORDS: usize = 2_000;
const CSV_RECORDS: usize = 3_000;
/// Share of `files-dirty` records the injector corrupts.
const CORRUPT_RATE: f64 = 0.001;
/// Records in the sample file a batch-workload read infers from.
const SAMPLE_RECORDS: usize = 200;
/// Records per registry upload, and per `POST check` body.
pub const BATCH_RECORDS: usize = 200;
const CHECK_RECORDS: usize = 20;
/// Uploads of `registry-mixed` the per-layer corpus concatenates (the
/// open loop's length grows with `--seconds`; the layer inputs do not).
const LAYER_BATCHES: usize = 250;
/// Tenants of `registry-mixed`.
const TENANTS: usize = 3;
/// The offered rate of `registry-mixed`, requests per second: a third
/// ingests, two thirds reads. A committed constant well below what the
/// daemon saturates at on a 2-CPU host, so A/B runs stay comparable.
pub const OFFERED_RATE: f64 = 450.0;

/// One format's corpus: the generated files, where they are on disk,
/// and the reference answer.
pub struct Corpus {
    pub format: StreamFormat,
    pub files: Vec<RecordFile>,
    pub paths: Vec<String>,
    /// The reference record fold over every surviving record.
    pub fold: Shape,
}

impl Corpus {
    fn new(
        format: StreamFormat,
        files: Vec<RecordFile>,
        dir: &Path,
        stem: &str,
    ) -> Result<Corpus, String> {
        let ext = ext(format);
        let paths = files
            .iter()
            .enumerate()
            .map(|(i, f)| write(dir, &format!("{stem}-{i}.{ext}"), f.text()))
            .collect::<Result<Vec<_>, _>>()?;
        let fold = oracle::corpus_fold(format, &files);
        Ok(Corpus {
            format,
            files,
            paths,
            fold,
        })
    }

    pub fn records(&self) -> usize {
        self.files.iter().map(RecordFile::clean_records).sum()
    }

    pub fn injected(&self) -> usize {
        self.files.iter().map(|f| f.injected.len()).sum()
    }
}

/// One registry upload cut from the workload's inputs.
pub struct Batch {
    pub tenant: String,
    pub format: StreamFormat,
    pub body: String,
    pub records: usize,
    /// A few of the batch's records, for `POST check`.
    pub check: String,
}

impl Batch {
    /// The in-process twin of `POST …/ingest?format=…&jobs=1`.
    pub fn ingest_request(&self) -> IngestRequest<'_> {
        IngestRequest {
            format: self.format,
            body: self.body.as_bytes(),
            jobs: 1,
            policy: RecoveryPolicy::default(),
        }
    }
}

pub enum Kind {
    Batch(Plan),
    Registry,
}

pub struct Workload {
    pub name: String,
    pub corpora: Vec<Corpus>,
    /// The registry request stream over this workload's inputs.
    pub batches: Vec<Batch>,
    /// The tenants those uploads go to.
    pub tenants: Vec<String>,
    /// Reference record fold of each batch (`registry-mixed` only).
    pub batch_folds: Vec<Shape>,
    pub kind: Kind,
}

pub fn ext(format: StreamFormat) -> &'static str {
    match format {
        StreamFormat::Json => "json",
        StreamFormat::Xml => "xml",
        StreamFormat::Csv => "csv",
    }
}

fn write(dir: &Path, name: &str, text: &str) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Cuts a file's clean records into uploads of [`BATCH_RECORDS`]
/// (each CSV upload repeats the header).
fn cut(file: &RecordFile, format: StreamFormat, tenant: &str) -> Vec<Batch> {
    let header = &file.clean[..file.header_len];
    (0..file.spans.len())
        .step_by(BATCH_RECORDS)
        .map(|start| {
            let end = (start + BATCH_RECORDS).min(file.spans.len());
            let slice = |to: usize| {
                format!(
                    "{header}{}",
                    &file.clean[file.spans[start].start..file.spans[to - 1].end]
                )
            };
            Batch {
                tenant: tenant.to_owned(),
                format,
                body: slice(end),
                records: end - start,
                check: slice((start + CHECK_RECORDS).min(end)),
            }
        })
        .collect()
}

/// The options `tfd rust` and `GET …/provider/rust` generate code with.
pub fn codegen_options(format: StreamFormat) -> CodegenOptions {
    CodegenOptions {
        crate_prefix: "::types_from_data".to_owned(),
        format: Some(match format {
            StreamFormat::Json => SourceFormat::Json,
            StreamFormat::Xml => SourceFormat::Xml,
            StreamFormat::Csv => SourceFormat::Csv,
        }),
        sample_text: None,
    }
}

/// The `tfd rust` output a sample read must print: generated code for
/// the reference shape of the first [`SAMPLE_RECORDS`] records.
fn sample_read(format: StreamFormat, file: &RecordFile, dir: &Path) -> Result<Invocation, String> {
    let n = SAMPLE_RECORDS.min(file.spans.len());
    let sample = RecordFile {
        clean: file.clean[..file.spans[n - 1].end].to_owned(),
        spans: file.spans[..n].to_vec(),
        header_len: file.header_len,
        ..RecordFile::default()
    };
    let path = write(dir, &format!("sample.{}", ext(format)), &sample.clean)?;
    let shape = oracle::corpus_view(format, oracle::record_fold(format, &sample));
    let options = codegen_options(format);
    Ok(Invocation {
        args: ["rust", "--format", ext(format), "--stream", &path]
            .map(str::to_owned)
            .to_vec(),
        expect_stdout: generate_global(&GlobalShape::plain(shape), "provided", "Root", &options),
        expect_skipped: 0,
    })
}

fn infer_invocation(corpus: &Corpus, flags: &[&str]) -> Invocation {
    let mut args: Vec<String> = ["infer", "--format", ext(corpus.format)]
        .iter()
        .chain(flags)
        .map(|s| (*s).to_owned())
        .collect();
    args.extend(corpus.paths.iter().cloned());
    Invocation {
        args,
        expect_stdout: oracle::printed_shape(corpus.format, corpus.fold.clone()),
        expect_skipped: corpus.injected(),
    }
}

impl Workload {
    /// Generates the named workload's inputs from `seed` into `dir`.
    pub fn build(name: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Workload, String> {
        let sub = |k: u64| seed.wrapping_mul(1_000_003).wrapping_add(k);
        match name {
            "jsonl-uniform" => {
                let file = gen::jsonl_uniform(sub(0), UNIFORM_RECORDS);
                let read = sample_read(StreamFormat::Json, &file, dir)?;
                let batches = cut(&file, StreamFormat::Json, "uniform");
                let corpus = Corpus::new(StreamFormat::Json, vec![file], dir, "uniform")?;
                let plan = Plan {
                    passes: vec![infer_invocation(&corpus, &["--stream", "--jobs", "2"])],
                    reads: vec![read],
                    records: corpus.records(),
                };
                Ok(Workload {
                    name: name.to_owned(),
                    corpora: vec![corpus],
                    batches,
                    tenants: vec!["uniform".to_owned()],
                    batch_folds: Vec::new(),
                    kind: Kind::Batch(plan),
                })
            }
            "files-dirty" => {
                let mut xml: Vec<RecordFile> = (0..DIRTY_FILES as u64)
                    .map(|i| gen::xml_documents(sub(10 + i), XML_RECORDS))
                    .collect();
                let mut csv: Vec<RecordFile> = (0..DIRTY_FILES as u64)
                    .map(|i| gen::csv_table(sub(20 + i), CSV_RECORDS))
                    .collect();
                for (i, f) in xml.iter_mut().enumerate() {
                    gen::inject_corruption(
                        f,
                        Corruption::XmlUnquotedAttribute,
                        sub(30 + i as u64),
                        CORRUPT_RATE,
                    );
                }
                for (i, f) in csv.iter_mut().enumerate() {
                    gen::inject_corruption(
                        f,
                        Corruption::CsvCharAfterQuote,
                        sub(40 + i as u64),
                        CORRUPT_RATE,
                    );
                }
                let reads = vec![
                    sample_read(StreamFormat::Xml, &xml[0], dir)?,
                    sample_read(StreamFormat::Csv, &csv[0], dir)?,
                ];
                let mut batches = Vec::new();
                for (x, c) in xml.iter().zip(&csv) {
                    batches.extend(cut(x, StreamFormat::Xml, "items"));
                    batches.extend(cut(c, StreamFormat::Csv, "rows"));
                }
                let corpora = vec![
                    Corpus::new(StreamFormat::Xml, xml, dir, "dirty")?,
                    Corpus::new(StreamFormat::Csv, csv, dir, "dirty")?,
                ];
                let flags = ["--jobs", "2", "--skip-errors"];
                let plan = Plan {
                    passes: corpora
                        .iter()
                        .map(|c| infer_invocation(c, &flags))
                        .collect(),
                    reads,
                    records: corpora.iter().map(Corpus::records).sum(),
                };
                Ok(Workload {
                    name: name.to_owned(),
                    corpora,
                    batches,
                    tenants: vec!["items".to_owned(), "rows".to_owned()],
                    batch_folds: Vec::new(),
                    kind: Kind::Batch(plan),
                })
            }
            "registry-mixed" => {
                let ingests = (seconds * OFFERED_RATE / 3.0).ceil() as usize;
                let cfg = gen::messy_config();
                let mut rng = Rng::new(sub(50));
                let mut batch_folds = Vec::new();
                let mut whole = RecordFile::default();
                let mut batches = Vec::new();
                for b in 0..TENANTS + ingests {
                    let f = gen::messy_json_batch(&mut rng, &cfg, b, BATCH_RECORDS);
                    batch_folds.push(oracle::record_fold(StreamFormat::Json, &f));
                    if b < LAYER_BATCHES {
                        let base = whole.clean.len();
                        whole.clean.push_str(&f.clean);
                        whole
                            .spans
                            .extend(f.spans.iter().map(|r| r.start + base..r.end + base));
                    }
                    let mut cut = cut(&f, StreamFormat::Json, &format!("t{}", b % TENANTS));
                    batches.append(&mut cut);
                }
                let corpus = Corpus {
                    format: StreamFormat::Json,
                    paths: vec![write(dir, "registry.json", &whole.clean)?],
                    fold: batch_folds
                        .iter()
                        .take(LAYER_BATCHES)
                        .fold(Shape::Bottom, |a, s| tfd_core::csh(a, s.clone())),
                    files: vec![whole],
                };
                Ok(Workload {
                    name: name.to_owned(),
                    corpora: vec![corpus],
                    batches,
                    tenants: (0..TENANTS).map(|t| format!("t{t}")).collect(),
                    batch_folds,
                    kind: Kind::Registry,
                })
            }
            other => Err(format!(
                "unknown workload {other} (expected jsonl-uniform, files-dirty or registry-mixed)"
            )),
        }
    }

    /// The registry request stream's order: one warm-up upload per
    /// tenant (so every read finds its tenant), then every other batch.
    pub fn registry_plan(&self) -> (Vec<usize>, Vec<usize>) {
        let warmup: Vec<usize> = self
            .tenants
            .iter()
            .filter_map(|t| self.batches.iter().position(|b| &b.tenant == t))
            .collect();
        let rest = (0..self.batches.len())
            .filter(|b| !warmup.contains(b))
            .collect();
        (warmup, rest)
    }

    /// The end-to-end run: the metrics a user of the CLI or the daemon
    /// sees.
    pub fn run_end_to_end(&self, tfd: &str, seconds: f64, tracer: &mut Tracer) -> Outcome {
        match &self.kind {
            Kind::Batch(plan) => crate::batch::run(tfd, plan, seconds, tracer).outcome(plan),
            Kind::Registry => registry::run(tfd, self, seconds, tracer).outcome(),
        }
    }
}
