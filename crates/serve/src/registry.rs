//! The schema registry: per-tenant shape state behind short locks.
//!
//! Each tenant entry owns exactly three things the rest of the daemon
//! never touches directly:
//!
//! * a [`GlobalShape`] — the env-carrying Fig. 3 fold of every record
//!   the tenant ever ingested (the *record-level* fold; the corpus view
//!   is derived by the format's `wrap_corpus_shape` at read time),
//! * its own [`Interner`] **arena** — every name in the tenant's shape,
//!   version history and nothing else lives there, so
//!   [`Registry::evict`] reclaims the tenant's whole vocabulary by
//!   dropping the entry (the PR 8 payoff),
//! * a monotonically increasing **version**, bumped per ingest, with a
//!   schema-sized corpus-view snapshot per version so
//!   [`Registry::diff`] can classify evolution against any past
//!   version.
//!
//! Ingest itself runs *outside* the tenant lock: the corpus streams
//! through the engine's recovery drivers into a request-local arena,
//! and only the schema-sized summary is re-interned and absorbed under
//! the lock. Because the shape join is associative and commutative
//! (proved by the PR 5 differential suites), N concurrent ingests of
//! disjoint corpus slices reach a state byte-identical to the
//! sequential fold — the integration suite asserts fingerprint
//! equality over real sockets.
//!
//! Every public method returns owned, `Name`-free data (strings,
//! numbers, [`ErrorReport`]s): nothing that borrows a tenant arena ever
//! escapes the entry lock, so a concurrent eviction can never dangle a
//! caller's result.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use tfd_codegen::{generate_global, CodegenOptions, SourceFormat};
use tfd_core::analyze::{diff_global, fingerprint, CompatMode, ShapeFingerprint};
use tfd_core::recover::{ErrorReport, RecoveryPolicy};
use tfd_core::report::diff_json;
use tfd_core::stream::StreamError;
use tfd_core::{conforms_in, engine, GlobalShape, Shape, StreamFormat};
use tfd_value::intern::InternStats;
use tfd_value::Interner;

/// Most provider outputs a tenant keeps cached. Keys include the
/// fingerprint, so entries for superseded shapes are dead weight; the
/// cache is cleared rather than LRU-tracked once it fills.
const PROVIDER_CACHE_CAP: usize = 32;

/// Which generated-code surface `GET …/provider/{kind}` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderKind {
    /// F#-style provided-type signatures (`tfd fsharp`).
    Fsharp,
    /// Generated Rust typed-access code (`tfd rust`).
    Rust,
}

impl ProviderKind {
    /// Parses the URL segment (`fsharp` | `rust`).
    pub fn parse(s: &str) -> Option<ProviderKind> {
        match s {
            "fsharp" => Some(ProviderKind::Fsharp),
            "rust" => Some(ProviderKind::Rust),
            _ => None,
        }
    }
}

/// Why a registry operation failed. The server maps each variant to an
/// HTTP status ([`crate::server`] owns that table).
#[derive(Debug)]
pub enum RegistryError {
    /// No tenant with this name exists.
    NoSuchTenant(String),
    /// The tenant exists but has no such registered version.
    NoSuchVersion {
        /// The requested version.
        version: u64,
        /// The tenant's current (latest) version.
        latest: u64,
    },
    /// The tenant was created with a different ingest format; one
    /// tenant folds one format (the corpus-shape wrap differs).
    FormatConflict {
        /// The format the tenant was created with.
        expected: StreamFormat,
        /// The format this request asked for.
        got: StreamFormat,
    },
    /// The uploaded corpus contained no records at all.
    EmptyCorpus,
    /// The engine rejected the corpus (parse error, exhausted Skip
    /// budget, tripped resource cap).
    Stream(StreamError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NoSuchTenant(t) => write!(f, "no such tenant {t}"),
            RegistryError::NoSuchVersion { version, latest } => {
                write!(f, "no such version {version} (latest is {latest})")
            }
            RegistryError::FormatConflict { expected, got } => write!(
                f,
                "tenant ingests {expected:?} corpora, not {got:?} \
                 (evict and re-create to change formats)"
            ),
            RegistryError::EmptyCorpus => write!(f, "the uploaded corpus contains no records"),
            RegistryError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// What one successful ingest did.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The tenant's version after this ingest.
    pub version: u64,
    /// Records folded from this upload's clean subset.
    pub records: usize,
    /// Bytes consumed from this upload.
    pub bytes: u64,
    /// Fingerprint of the tenant's corpus shape after this ingest.
    pub fingerprint: ShapeFingerprint,
    /// What Skip-mode recovery dropped (empty under fail-fast).
    pub report: ErrorReport,
}

/// What a conformance check found.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The tenant version the records were checked against.
    pub version: u64,
    /// How many records the upload parsed into.
    pub records: usize,
    /// 0-based indices of records that do **not** conform.
    pub failures: Vec<usize>,
}

/// Generated provider code plus cache provenance.
#[derive(Debug)]
pub struct ProviderOutput {
    /// Fingerprint of the shape the code was generated from.
    pub fingerprint: ShapeFingerprint,
    /// The generated source text.
    pub code: Arc<String>,
    /// True when the fingerprint-keyed cache already held the code.
    pub cached: bool,
}

/// A classified diff against a past version.
#[derive(Debug)]
pub struct DiffOutcome {
    /// The version diffed against (the "old" side).
    pub old_version: u64,
    /// The current version (the "new" side).
    pub new_version: u64,
    /// Whether no entry breaks under the requested mode.
    pub compatible: bool,
    /// The full report as the shared `tfd diff --json` object.
    pub json: String,
}

/// One tenant's row in the stats report.
#[derive(Debug)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// The ingest format the tenant was created with.
    pub format: StreamFormat,
    /// Current version.
    pub version: u64,
    /// Fingerprint of the current corpus shape.
    pub fingerprint: ShapeFingerprint,
    /// Total records folded across all ingests.
    pub records: u64,
    /// Total bytes ingested.
    pub bytes: u64,
    /// The tenant arena's footprint (reclaimed whole on eviction).
    pub intern: InternStats,
}

/// What one tenant ingest request asks for (the query-parameter
/// equivalents of the CLI's driver flags).
#[derive(Debug)]
pub struct IngestRequest<'a> {
    /// The corpus format (`?format=json|xml|csv`).
    pub format: StreamFormat,
    /// The uploaded corpus bytes.
    pub body: &'a [u8],
    /// Parser worker threads (`?jobs=N`, like `--jobs`).
    pub jobs: usize,
    /// Recovery policy (`?skip_errors`, `?max_errors`, …).
    pub policy: RecoveryPolicy,
}

struct Tenant {
    format: StreamFormat,
    arena: Interner,
    fold: GlobalShape,
    version: u64,
    fingerprint: ShapeFingerprint,
    records: u64,
    bytes: u64,
    /// Corpus-view snapshot per version (`history[v - 1]` is version
    /// `v`). Snapshots are schema-sized, not corpus-sized.
    history: Vec<GlobalShape>,
    provider_cache: HashMap<String, Arc<String>>,
}

impl Tenant {
    fn new(format: StreamFormat) -> Tenant {
        Tenant {
            format,
            arena: Interner::new(),
            fold: GlobalShape::plain(Shape::Bottom),
            version: 0,
            fingerprint: ShapeFingerprint(0),
            records: 0,
            bytes: 0,
            history: Vec::new(),
            provider_cache: HashMap::new(),
        }
    }

    /// The one-shot corpus view of the record fold (CSV re-wraps rows
    /// as a collection; JSON/XML are identity) — what `GET /shape`
    /// prints and what fingerprints, diffs and providers run on.
    fn corpus_view(&self) -> GlobalShape {
        GlobalShape {
            root: engine::wrap_corpus_shape_dyn(self.format, self.fold.root.clone()),
            env: self.fold.env.clone(),
        }
    }
}

/// The registry: a map of named tenants, each independently locked.
///
/// The outer map lock is held only to look up or create entries; all
/// shape work happens under the per-tenant lock, so ingest into tenant
/// A never blocks reads of tenant B.
#[derive(Default)]
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Mutex<Tenant>>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn entry(&self, tenant: &str) -> Result<Arc<Mutex<Tenant>>, RegistryError> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .cloned()
            .ok_or_else(|| RegistryError::NoSuchTenant(tenant.to_owned()))
    }

    fn entry_or_create(&self, tenant: &str, format: StreamFormat) -> Arc<Mutex<Tenant>> {
        if let Some(e) = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
        {
            return e.clone();
        }
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(tenant.to_owned())
            .or_insert_with(|| Arc::new(Mutex::new(Tenant::new(format))))
            .clone()
    }

    /// Streams `req.body` through the engine's recovery drivers in a
    /// request-local arena, then joins the schema-sized summary into
    /// the tenant's shape under its lock and bumps the version. Creates
    /// the tenant on first ingest.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Stream`] when the engine rejects the corpus,
    /// [`EmptyCorpus`](RegistryError::EmptyCorpus) on record-free
    /// input, [`FormatConflict`](RegistryError::FormatConflict) when
    /// the tenant folds a different format.
    #[allow(clippy::expect_used)] // one source in, one result out — checked by the engine's contract
    pub fn ingest(
        &self,
        tenant: &str,
        req: &IngestRequest<'_>,
    ) -> Result<IngestOutcome, RegistryError> {
        // Parse + fold outside any lock through the engine's corpus
        // driver (the same entry multi-file `tfd infer` uses), in an
        // arena that dies with the request: the corpus's whole data
        // vocabulary (however many distinct keys it carries) is
        // reclaimed before the response is written; only the
        // schema-sized shape survives.
        let config = engine::IngestConfig {
            jobs: req.jobs.max(1),
            policy: req.policy,
            ..engine::IngestConfig::new(req.format)
        };
        let summary =
            engine::infer_sources_parallel(&[engine::CorpusSource::Bytes(req.body)], &config)
                .pop()
                .expect("one source in, one result out")
                .map_err(RegistryError::Stream)?;
        // The arena must outlive the reintern below, which migrates the
        // shape's names out of it into the tenant arena.
        let engine::FileSummary {
            recovered,
            arena: _request_arena,
        } = summary;
        if recovered.summary.records == 0 {
            return Err(RegistryError::EmptyCorpus);
        }

        let entry = self.entry_or_create(tenant, req.format);
        let mut t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        if t.format != req.format {
            return Err(RegistryError::FormatConflict {
                expected: t.format,
                got: req.format,
            });
        }
        // The short-lock join: migrate the summary's names into the
        // tenant arena, absorb (the env-carrying Fig. 3 fold — PR 5
        // proved the join order-insensitive, so concurrent ingests
        // commute), snapshot, bump.
        let mut shape = recovered.summary.shape;
        shape.reintern(&t.arena);
        let arena = t.arena.clone();
        t.fold.absorb(shape);
        t.fold.reintern(&arena);
        t.version += 1;
        t.records += recovered.summary.records as u64;
        t.bytes += recovered.summary.bytes;
        let corpus = t.corpus_view();
        t.fingerprint = fingerprint(&corpus);
        t.history.push(corpus);
        Ok(IngestOutcome {
            version: t.version,
            records: recovered.summary.records,
            bytes: recovered.summary.bytes,
            fingerprint: t.fingerprint,
            report: recovered.report,
        })
    }

    /// Renders the tenant's corpus shape in the paper's notation
    /// (exactly the `tfd infer` output); with `env`, the root plus the
    /// recursive-definitions table (the `--global --env` view).
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoSuchTenant`].
    pub fn shape(&self, tenant: &str, env: bool) -> Result<(u64, String), RegistryError> {
        let entry = self.entry(tenant)?;
        let t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let corpus = t.corpus_view();
        let text = if env {
            let mut out = format!("{}\n", corpus.root);
            if corpus.env.is_empty() {
                out.push_str("(no global definitions)\n");
            } else {
                out.push_str("where\n");
                for (name, def) in corpus.env.iter() {
                    out.push_str(&format!("  {name} = {}\n", Shape::Record(def.clone())));
                }
            }
            out
        } else {
            format!("{}\n", corpus.inline())
        };
        Ok((t.version, text))
    }

    /// The tenant's current version and corpus-shape fingerprint.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoSuchTenant`].
    pub fn fingerprint(&self, tenant: &str) -> Result<(u64, ShapeFingerprint), RegistryError> {
        let entry = self.entry(tenant)?;
        let t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        Ok((t.version, t.fingerprint))
    }

    /// Generated provider code for the tenant's current shape, served
    /// from the fingerprint-keyed cache when the shape hasn't moved.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoSuchTenant`].
    pub fn provider(
        &self,
        tenant: &str,
        kind: ProviderKind,
        module: &str,
        root: &str,
        prefix: &str,
    ) -> Result<ProviderOutput, RegistryError> {
        let entry = self.entry(tenant)?;
        let mut t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let fp = t.fingerprint;
        let key = format!(
            "{}:{module}:{root}:{prefix}:{fp}",
            match kind {
                ProviderKind::Fsharp => "fsharp",
                ProviderKind::Rust => "rust",
            }
        );
        if let Some(code) = t.provider_cache.get(&key) {
            return Ok(ProviderOutput {
                fingerprint: fp,
                code: code.clone(),
                cached: true,
            });
        }
        let corpus = t.corpus_view();
        let code = Arc::new(match kind {
            ProviderKind::Fsharp => {
                tfd_provider::signature(&tfd_provider::provide_global(&corpus, root))
            }
            ProviderKind::Rust => {
                let options = CodegenOptions {
                    crate_prefix: prefix.to_owned(),
                    format: Some(match t.format {
                        StreamFormat::Json => SourceFormat::Json,
                        StreamFormat::Xml => SourceFormat::Xml,
                        StreamFormat::Csv => SourceFormat::Csv,
                    }),
                    sample_text: None,
                };
                generate_global(&corpus, module, root, &options)
            }
        });
        if t.provider_cache.len() >= PROVIDER_CACHE_CAP {
            t.provider_cache.clear();
        }
        t.provider_cache.insert(key, code.clone());
        Ok(ProviderOutput {
            fingerprint: fp,
            code,
            cached: false,
        })
    }

    /// Parses `body` as records of `format` (defaulting to the
    /// tenant's) and checks each against the tenant's record shape
    /// under its environment — the §5 conformance relation, so a
    /// conforming record is guaranteed safe for every access the shape
    /// type-checks.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoSuchTenant`], or
    /// [`RegistryError::Stream`] when the records fail to parse.
    pub fn check(
        &self,
        tenant: &str,
        format: Option<StreamFormat>,
        body: &[u8],
    ) -> Result<CheckOutcome, RegistryError> {
        let entry = self.entry(tenant)?;
        let request_arena = Interner::new();
        let text = std::str::from_utf8(body).map_err(|_| {
            RegistryError::Stream(StreamError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "check body is not valid UTF-8",
            )))
        })?;
        let t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let format = format.unwrap_or(t.format);
        let values = engine::parse_many_values_dyn_in(format, text, &request_arena)
            .map_err(RegistryError::Stream)?;
        let failures: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| !conforms_in(&t.fold.root, v, Some(&t.fold.env)))
            .map(|(i, _)| i)
            .collect();
        Ok(CheckOutcome {
            version: t.version,
            records: values.len(),
            failures,
        })
    }

    /// Diffs registered version `version` (old) against the current
    /// shape (new) under `mode`, so clients can gate an upload on
    /// backward/forward compatibility.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoSuchTenant`] or
    /// [`NoSuchVersion`](RegistryError::NoSuchVersion).
    pub fn diff(
        &self,
        tenant: &str,
        version: u64,
        mode: CompatMode,
    ) -> Result<DiffOutcome, RegistryError> {
        let entry = self.entry(tenant)?;
        let t = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let index = usize::try_from(version.wrapping_sub(1)).ok();
        let old = index
            .and_then(|i| if version == 0 { None } else { t.history.get(i) })
            .ok_or(RegistryError::NoSuchVersion {
                version,
                latest: t.version,
            })?;
        let report = diff_global(old, &t.corpus_view(), mode);
        Ok(DiffOutcome {
            old_version: version,
            new_version: t.version,
            compatible: report.is_compatible(),
            json: diff_json(&report),
        })
    }

    /// Evicts a tenant: the entry (shape, history, provider cache — and
    /// the arena holding every one of their names) drops with the last
    /// reference, reclaiming the tenant's whole vocabulary. Returns
    /// `false` when no such tenant existed.
    pub fn evict(&self, tenant: &str) -> bool {
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(tenant)
            .is_some()
    }

    /// Per-tenant stats rows, sorted by tenant name.
    pub fn stats(&self) -> Vec<TenantStats> {
        let entries: Vec<(String, Arc<Mutex<Tenant>>)> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut rows: Vec<TenantStats> = entries
            .into_iter()
            .map(|(name, entry)| {
                let t = entry.lock().unwrap_or_else(PoisonError::into_inner);
                TenantStats {
                    name,
                    format: t.format,
                    version: t.version,
                    fingerprint: t.fingerprint,
                    records: t.records,
                    bytes: t.bytes,
                    intern: t.arena.stats(),
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parses the `?format=` query value (`json` | `xml` | `csv`).
pub fn parse_stream_format(s: &str) -> Option<StreamFormat> {
    match s {
        "json" => Some(StreamFormat::Json),
        "xml" => Some(StreamFormat::Xml),
        "csv" => Some(StreamFormat::Csv),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfd_core::RecoveryMode;

    fn ingest_req(format: StreamFormat, body: &[u8]) -> IngestRequest<'_> {
        IngestRequest {
            format,
            body,
            jobs: 1,
            policy: RecoveryPolicy::default(),
        }
    }

    #[test]
    fn ingest_folds_and_versions() {
        let reg = Registry::new();
        let out = reg
            .ingest(
                "t",
                &ingest_req(StreamFormat::Json, b"{\"a\": 1}\n{\"a\": 2}\n"),
            )
            .unwrap();
        assert_eq!(out.version, 1);
        assert_eq!(out.records, 2);
        let (v, shape) = reg.shape("t", false).unwrap();
        assert_eq!(v, 1);
        assert_eq!(shape, "• {a : int}\n");
        // A widening ingest bumps the version and moves the shape.
        let out2 = reg
            .ingest(
                "t",
                &ingest_req(StreamFormat::Json, b"{\"a\": 2.5, \"b\": true}\n"),
            )
            .unwrap();
        assert_eq!(out2.version, 2);
        assert_ne!(out.fingerprint, out2.fingerprint);
        let (_, shape) = reg.shape("t", false).unwrap();
        assert!(shape.contains("a : float"), "{shape}");
        assert!(shape.contains("b : nullable bool"), "{shape}");
        // Re-absorbing data the shape has seen is a no-op (Lemma 1),
        // but still registers a version.
        let out3 = reg
            .ingest("t", &ingest_req(StreamFormat::Json, b"{\"a\": 1}\n"))
            .unwrap();
        assert_eq!(out3.version, 3);
        assert_eq!(out3.fingerprint, out2.fingerprint);
    }

    #[test]
    fn csv_tenants_serve_the_wrapped_corpus_shape() {
        let reg = Registry::new();
        reg.ingest(
            "rows",
            &ingest_req(StreamFormat::Csv, b"id,name\n1,a\n2,b\n"),
        )
        .unwrap();
        let (_, shape) = reg.shape("rows", false).unwrap();
        assert!(shape.starts_with('['), "{shape}");
        assert!(shape.contains("id : int"), "{shape}");
        // Checks run against the *row* shape, so a bare row conforms.
        let ok = reg.check("rows", None, b"id,name\n3,c\n").unwrap();
        assert_eq!(ok.records, 1);
        assert!(ok.failures.is_empty());
        let bad = reg.check("rows", None, b"id,name\nnot-an-int,c\n").unwrap();
        assert_eq!(bad.failures, vec![0]);
    }

    #[test]
    fn format_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.ingest("t", &ingest_req(StreamFormat::Json, b"{\"a\": 1}\n"))
            .unwrap();
        let err = reg
            .ingest("t", &ingest_req(StreamFormat::Csv, b"a\n1\n"))
            .unwrap_err();
        assert!(
            matches!(err, RegistryError::FormatConflict { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn skip_mode_honors_the_policy() {
        let reg = Registry::new();
        let mut policy = RecoveryPolicy::skip();
        policy.max_errors = 10;
        let out = reg
            .ingest(
                "t",
                &IngestRequest {
                    format: StreamFormat::Json,
                    body: b"{\"a\": 1}\n{\"a\": @}\n{\"a\": 3}\n",
                    jobs: 2,
                    policy,
                },
            )
            .unwrap();
        assert_eq!(out.records, 2);
        assert_eq!(out.report.total(), 1);
        // Fail-fast rejects the same corpus outright.
        let err = reg
            .ingest(
                "bad",
                &IngestRequest {
                    format: StreamFormat::Json,
                    body: b"{\"a\": @}\n",
                    jobs: 1,
                    policy: RecoveryPolicy {
                        mode: RecoveryMode::FailFast,
                        ..RecoveryPolicy::default()
                    },
                },
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::Stream(_)), "{err:?}");
        // …and the failed ingest registered nothing.
        assert!(matches!(
            reg.shape("bad", false),
            Err(RegistryError::NoSuchTenant(_))
        ));
    }

    #[test]
    fn provider_cache_hits_on_unchanged_fingerprint() {
        let reg = Registry::new();
        reg.ingest("t", &ingest_req(StreamFormat::Json, b"{\"id\": 7}\n"))
            .unwrap();
        let first = reg
            .provider("t", ProviderKind::Rust, "gen", "Thing", "::types_from_data")
            .unwrap();
        assert!(!first.cached);
        assert!(first.code.contains("pub struct Thing"), "{}", first.code);
        let second = reg
            .provider("t", ProviderKind::Rust, "gen", "Thing", "::types_from_data")
            .unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.code, &second.code));
        // Different options miss; a moved shape misses.
        let fsharp = reg
            .provider("t", ProviderKind::Fsharp, "gen", "Thing", "")
            .unwrap();
        assert!(!fsharp.cached);
        assert!(fsharp.code.contains("member Id"), "{}", fsharp.code);
        reg.ingest(
            "t",
            &ingest_req(StreamFormat::Json, b"{\"id\": 7, \"x\": 1}\n"),
        )
        .unwrap();
        let third = reg
            .provider("t", ProviderKind::Rust, "gen", "Thing", "::types_from_data")
            .unwrap();
        assert!(!third.cached);
        assert_ne!(first.code.as_str(), third.code.as_str());
    }

    #[test]
    fn diff_classifies_against_past_versions() {
        let reg = Registry::new();
        reg.ingest("t", &ingest_req(StreamFormat::Json, b"{\"a\": 1}\n"))
            .unwrap();
        reg.ingest("t", &ingest_req(StreamFormat::Json, b"{\"a\": null}\n"))
            .unwrap();
        let d = reg.diff("t", 1, CompatMode::Backward).unwrap();
        assert_eq!((d.old_version, d.new_version), (1, 2));
        assert!(d.compatible); // nullability introduction widens
        assert!(d.json.contains("nullability-introduced"), "{}", d.json);
        let d = reg.diff("t", 1, CompatMode::Forward).unwrap();
        assert!(!d.compatible);
        // Self-diff is empty.
        let d = reg.diff("t", 2, CompatMode::Full).unwrap();
        assert!(d.compatible);
        assert!(d.json.contains("\"entries\":[]"), "{}", d.json);
        // Version 0 and future versions don't exist.
        assert!(matches!(
            reg.diff("t", 0, CompatMode::Full),
            Err(RegistryError::NoSuchVersion { latest: 2, .. })
        ));
        assert!(matches!(
            reg.diff("t", 9, CompatMode::Full),
            Err(RegistryError::NoSuchVersion { .. })
        ));
    }

    #[test]
    fn eviction_reclaims_the_tenant_arena() {
        let reg = Registry::new();
        let mut corpus = String::new();
        for i in 0..512 {
            corpus.push_str(&format!("{{\"evict_reclaim_key_{i}\": {i}}}\n"));
        }
        reg.ingest("t", &ingest_req(StreamFormat::Json, corpus.as_bytes()))
            .unwrap();
        let rows = reg.stats();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "t");
        assert!(rows[0].intern.symbols >= 512, "{:?}", rows[0].intern);
        let arena = reg.tenants.read().unwrap()["t"].lock().unwrap().arena.id();
        assert!(reg.evict("t"));
        assert!(!reg.evict("t"));
        assert!(reg.is_empty());
        // The tenant's whole vocabulary went with its arena, and none of
        // it reached the process arena. (The process-wide totals are
        // asserted in `tests/eviction_reclaims.rs`, a binary of its own:
        // tests running beside this one move them too.)
        assert!(!tfd_value::intern::is_live(arena));
        assert!(Interner::global().lookup("evict_reclaim_key_0").is_none());
    }

    #[test]
    fn empty_and_missing_are_distinct_errors() {
        let reg = Registry::new();
        assert!(matches!(
            reg.ingest("t", &ingest_req(StreamFormat::Json, b"  \n")),
            Err(RegistryError::EmptyCorpus)
        ));
        assert!(matches!(
            reg.shape("ghost", false),
            Err(RegistryError::NoSuchTenant(_))
        ));
        assert!(matches!(
            reg.fingerprint("ghost"),
            Err(RegistryError::NoSuchTenant(_))
        ));
    }
}
