//! Shared generators for the integration test suite.
//!
//! * [`value_strategy`] — a proptest strategy for arbitrary data values
//!   `d` (bounded depth/width, realistic field names);
//! * [`conforming`] — given a shape σ, deterministically generates a
//!   value `d′` with `S(d′) ⊑ σ` (used to instantiate Theorem 3);
//! * [`random_program`] — generates a random access program (client
//!   code) navigating a shape (used to instantiate Remark 1);
//! * [`Pieces`] / [`ingest`] — a `Read` source handing out a corpus in
//!   pieces of cycling sizes, and the one-call [`tfd_core::run`]
//!   shorthand the driver suites use.
//!
//! Each integration-test binary links this module separately, so some
//! helpers are unused in some binaries.
#![allow(dead_code)]

use proptest::prelude::*;
use std::io::Read;
use tfd_core::engine::{IngestConfig, Source};
use tfd_core::recover::Recovered;
use tfd_core::stream::StreamError;
use tfd_core::{Multiplicity, RecoveryPolicy, Shape, StreamFormat};
use tfd_provider::{naming::tag_member_name, AccessProgram, AccessStep};
use tfd_value::corpus::Rng;
use tfd_value::{Field, Interner, Value, BODY_NAME};

const FIELD_NAMES: &[&str] = &["a", "b", "name", "value", "x"];
const RECORD_NAMES: &[&str] = &[BODY_NAME, "item", "point"];

/// A proptest strategy for structural data values.
pub fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(|i| Value::Int(i % 1000)),
        (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 4.0)),
        any::<bool>().prop_map(Value::Bool),
        prop_oneof![Just("s"), Just("text"), Just("Jan")].prop_map(|s| Value::Str(s.to_owned())),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            (
                prop::sample::select(RECORD_NAMES),
                prop::collection::vec((prop::sample::select(FIELD_NAMES), inner), 0..4)
            )
                .prop_map(|(name, fields)| {
                    // Deduplicate field names (records are maps).
                    let mut seen: Vec<&str> = Vec::new();
                    let fields = fields
                        .into_iter()
                        .filter(|(n, _)| {
                            if seen.contains(n) {
                                false
                            } else {
                                seen.push(n);
                                true
                            }
                        })
                        .map(|(n, v)| Field::new(n, v))
                        .collect();
                    Value::Record {
                        name: name.into(),
                        fields,
                    }
                }),
        ]
    })
}

/// Deterministically generates a value whose inferred shape is preferred
/// over σ (i.e. a valid Theorem 3 input for a provider built from σ).
pub fn conforming(shape: &Shape, rng: &mut Rng) -> Value {
    match shape {
        // ⊥ has no inhabitants; it only occurs as an empty-collection
        // element, which the List case below handles.
        Shape::Bottom => Value::Null,
        Shape::Null => Value::Null,
        Shape::Bool => Value::Bool(rng.below(2) == 0),
        Shape::Int => Value::Int(rng.below(100) as i64),
        Shape::Bit => Value::Int(rng.below(2) as i64),
        // int ⊑ float: produce either encoding.
        Shape::Float => {
            if rng.chance(0.5) {
                Value::Float(rng.below(100) as f64 / 4.0)
            } else {
                Value::Int(rng.below(100) as i64)
            }
        }
        Shape::String => Value::Str(format!("s{}", rng.below(10))),
        Shape::Date => Value::Str(format!("2012-05-{:02}", 1 + rng.below(28))),
        Shape::Nullable(inner) => {
            if rng.chance(0.3) {
                Value::Null
            } else {
                conforming(inner, rng)
            }
        }
        Shape::List(element) => {
            if **element == Shape::Bottom {
                return Value::List(Vec::new());
            }
            if rng.chance(0.1) {
                return Value::Null; // null ⊑ [σ]
            }
            let n = rng.below(4) as usize;
            Value::List((0..n).map(|_| conforming(element, rng)).collect())
        }
        Shape::Record(r) => {
            let mut fields = Vec::new();
            for f in &r.fields {
                // A nullable field may be omitted entirely (row-variable
                // convention).
                if matches!(f.shape, Shape::Nullable(_) | Shape::Null) && rng.chance(0.3) {
                    continue;
                }
                fields.push(Field::new(f.name, conforming(&f.shape, rng)));
            }
            // Extra fields are allowed (rule 9).
            if rng.chance(0.2) {
                fields.push(Field::new("extra_field", Value::Int(rng.below(10) as i64)));
            }
            Value::Record {
                name: r.name,
                fields,
            }
        }
        Shape::Top(labels) => {
            if labels.is_empty() || rng.chance(0.2) {
                // The open world: any value at all.
                Value::Str("anything".to_owned())
            } else {
                let pick = rng.below(labels.len() as u64) as usize;
                conforming(&labels[pick], rng)
            }
        }
        Shape::HeteroList(cases) => {
            let mut items = Vec::new();
            for (case_shape, multiplicity) in cases {
                let count = match multiplicity {
                    Multiplicity::One => 1,
                    Multiplicity::ZeroOrOne => rng.below(2) as usize,
                    Multiplicity::Many => rng.below(3) as usize,
                };
                for _ in 0..count {
                    let mut v = conforming(case_shape, rng);
                    if v.is_null() {
                        // A null element would not count toward the
                        // case's tag; only collection cases can produce
                        // null here, and the empty collection is the
                        // null-equivalent that does carry the tag.
                        v = Value::List(Vec::new());
                    }
                    items.push(v);
                }
            }
            Value::List(items)
        }
        // A μ-reference without its definitions table: the best
        // conforming value derivable locally is an empty record of the
        // referenced name (these generators run on env-free shapes; the
        // env-aware paths have their own tests).
        Shape::Ref(n) => Value::Record {
            name: *n,
            fields: Vec::new(),
        },
    }
}

/// Env-aware [`conforming`]: generates a value of a [`GlobalShape`],
/// resolving μ-references through the definitions table. The `budget`
/// bounds recursion depth: once exhausted, nullable content collapses
/// to null and collections to empty — both conforming — so generation
/// terminates on any environment whose references sit in nullable or
/// collection position (which is all that global inference produces).
pub fn conforming_global(global: &tfd_core::GlobalShape, rng: &mut Rng) -> Value {
    conforming_in_env(&global.root, &global.env, 6, rng)
}

fn conforming_in_env(
    shape: &Shape,
    env: &tfd_core::ShapeEnv,
    budget: usize,
    rng: &mut Rng,
) -> Value {
    match shape {
        Shape::Ref(n) => match env.get(*n) {
            Some(def) => conforming_in_env(
                &Shape::Record(def.clone()),
                env,
                budget.saturating_sub(1),
                rng,
            ),
            // A dangling reference has no inhabitants; the generators
            // in this suite never produce one.
            None => Value::Null,
        },
        Shape::Nullable(inner) => {
            if budget == 0 || rng.chance(0.3) {
                Value::Null
            } else {
                conforming_in_env(inner, env, budget, rng)
            }
        }
        Shape::List(element) => {
            if budget == 0 || **element == Shape::Bottom {
                return Value::List(Vec::new());
            }
            let n = rng.below(3) as usize;
            Value::List(
                (0..n)
                    .map(|_| conforming_in_env(element, env, budget.saturating_sub(1), rng))
                    .collect(),
            )
        }
        Shape::Record(r) => {
            let mut fields = Vec::new();
            for f in &r.fields {
                if matches!(f.shape, Shape::Nullable(_) | Shape::Null) && rng.chance(0.3) {
                    continue; // row-variable convention: omit optional fields
                }
                fields.push(Field::new(
                    f.name,
                    conforming_in_env(&f.shape, env, budget, rng),
                ));
            }
            Value::Record {
                name: r.name,
                fields,
            }
        }
        // The remaining constructors contain no references: the env-free
        // generator is already correct for them.
        other => conforming(other, rng),
    }
}

/// Generates a random access program navigating `shape` (raw-mode member
/// names), returning the program and the shape of its result.
pub fn random_program(shape: &Shape, rng: &mut Rng, max_steps: usize) -> (AccessProgram, Shape) {
    let mut steps = Vec::new();
    let mut cur = shape.clone();
    for _ in 0..max_steps {
        match &cur {
            Shape::Record(r) if !r.fields.is_empty() => {
                let pick = rng.below(r.fields.len() as u64) as usize;
                steps.push(AccessStep::Member(r.fields[pick].name.as_str().to_owned()));
                cur = r.fields[pick].shape.clone();
            }
            Shape::Nullable(inner) => {
                steps.push(AccessStep::Unwrap);
                cur = (**inner).clone();
            }
            Shape::List(element) if **element != Shape::Bottom => {
                steps.push(AccessStep::Nth(rng.below(2) as usize));
                cur = (**element).clone();
            }
            Shape::Top(labels) if !labels.is_empty() => {
                let pick = rng.below(labels.len() as u64) as usize;
                steps.push(AccessStep::Case(tag_member_name(&labels[pick])));
                cur = labels[pick].clone();
            }
            _ => break,
        }
    }
    (AccessProgram::new(steps), cur)
}

/// A `Read` source that hands out `bytes` in pieces whose sizes cycle
/// through `sizes` (each read returns at most one piece), so a size
/// vector exercises many split positions: mid-escape, mid-UTF-8,
/// mid-CRLF, inside `""` and between adjacent tokens.
pub struct Pieces {
    bytes: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    k: usize,
}

impl Pieces {
    pub fn new(bytes: &[u8], sizes: &[usize]) -> Pieces {
        Pieces {
            bytes: bytes.to_vec(),
            pos: 0,
            sizes: if sizes.is_empty() {
                vec![1]
            } else {
                sizes.to_vec()
            },
            k: 0,
        }
    }
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.sizes[self.k % self.sizes.len()].max(1).min(buf.len());
        self.k += 1;
        let end = (self.pos + step).min(self.bytes.len());
        let n = end - self.pos;
        buf[..n].copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(n)
    }
}

/// The piece sizes every driver-level sweep cycles through.
pub const PIECE_SIZES: &[usize] = &[1, 2, 3, 7, 64, 4096];

/// One [`tfd_core::run`] over `source` with the format's defaults plus
/// `jobs`, `chunk_size` and `policy`.
pub fn ingest(
    format: StreamFormat,
    source: Source<'_>,
    jobs: usize,
    chunk_size: usize,
    policy: RecoveryPolicy,
    interner: &Interner,
) -> Result<Recovered, StreamError> {
    let config = IngestConfig {
        jobs,
        chunk_size,
        policy,
        ..IngestConfig::new(format)
    };
    tfd_core::run(source, &config, interner)
}

/// [`ingest`] over in-memory bytes, fail-fast.
pub fn ingest_bytes(
    format: StreamFormat,
    bytes: &[u8],
    jobs: usize,
    chunk_size: usize,
    interner: &Interner,
) -> Result<Recovered, StreamError> {
    ingest(
        format,
        Source::Bytes(bytes),
        jobs,
        chunk_size,
        RecoveryPolicy::default(),
        interner,
    )
}

/// [`ingest`] over a [`Pieces`] reader cycling through `sizes`.
pub fn ingest_pieces(
    format: StreamFormat,
    bytes: &[u8],
    sizes: &[usize],
    jobs: usize,
    policy: RecoveryPolicy,
    interner: &Interner,
) -> Result<Recovered, StreamError> {
    ingest(
        format,
        Source::Reader(Box::new(Pieces::new(bytes, sizes))),
        jobs,
        4096,
        policy,
        interner,
    )
}

/// Every rotation of [`PIECE_SIZES`], so each piece size also starts
/// the cycle once.
pub fn piece_rotations() -> Vec<Vec<usize>> {
    (0..PIECE_SIZES.len())
        .map(|r| {
            let mut v = PIECE_SIZES.to_vec();
            v.rotate_left(r);
            v
        })
        .collect()
}
