//! Deterministic synthetic document generators.
//!
//! The benchmark, the `ablation` example and the property tests need
//! realistic document corpora with controllable depth, record width and
//! "messiness" (missing fields, nulls, mixed number encodings — the
//! real-world problems §2.3 of the paper motivates). The generators here
//! use a small self-contained SplitMix64 PRNG so this crate stays
//! dependency-free and corpora are reproducible from a seed.

use crate::{body_name, Field, Value};

/// A tiny deterministic PRNG (SplitMix64), sufficient for corpus
/// generation. Not cryptographic.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        self.next_u64() % bound
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// Configuration for the synthetic JSON-like corpus generator.
///
/// Defaults produce the kind of "API response" documents the paper's
/// introduction describes: arrays of records with a few primitive fields,
/// occasional missing fields and nulls.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Maximum nesting depth of containers.
    pub max_depth: usize,
    /// Number of fields in each record.
    pub record_width: usize,
    /// Number of elements in each collection.
    pub list_len: usize,
    /// Probability that a record field is dropped (producing the
    /// missing-data patterns of §2.1).
    pub missing_field_prob: f64,
    /// Probability that a primitive is replaced by `null` (§2.3).
    pub null_prob: f64,
    /// Probability that an integer is rendered as a float (mixed number
    /// encodings, §2.1's `25` vs `3.5`).
    pub float_prob: f64,
    /// Probability that a number is encoded as a *string* (the World Bank
    /// `"35.14229"` pattern, §2.3).
    pub stringly_number_prob: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            max_depth: 4,
            record_width: 5,
            list_len: 8,
            missing_field_prob: 0.15,
            null_prob: 0.05,
            float_prob: 0.3,
            stringly_number_prob: 0.0,
        }
    }
}

/// Field-name pool used by the generator; realistic API-ish names.
const FIELD_NAMES: &[&str] = &[
    "id",
    "name",
    "age",
    "value",
    "date",
    "temp",
    "pressure",
    "humidity",
    "lat",
    "lon",
    "count",
    "pages",
    "indicator",
    "status",
    "kind",
    "speed",
    "country",
    "city",
    "total",
    "score",
];

/// Generates one synthetic document.
///
/// ```
/// use tfd_value::corpus::{generate, CorpusConfig, Rng};
/// let mut rng = Rng::new(42);
/// let doc = generate(&mut rng, &CorpusConfig::default());
/// let again = generate(&mut Rng::new(42), &CorpusConfig::default());
/// assert_eq!(doc, again); // deterministic in the seed
/// ```
pub fn generate(rng: &mut Rng, config: &CorpusConfig) -> Value {
    gen_value(rng, config, config.max_depth)
}

/// Generates a corpus of `n` documents sharing one structural "schema"
/// (same field layout) but with independent randomness in the leaves —
/// what multiple samples of the same API endpoint look like.
pub fn generate_corpus(seed: u64, n: usize, config: &CorpusConfig) -> Vec<Value> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| generate(&mut rng, config)).collect()
}

fn gen_primitive(rng: &mut Rng, config: &CorpusConfig) -> Value {
    if rng.chance(config.null_prob) {
        return Value::Null;
    }
    let n = rng.below(100) as i64;
    if rng.chance(config.stringly_number_prob) {
        return Value::Str(format!("{}.{:05}", n, rng.below(100_000)));
    }
    match rng.below(4) {
        0 => {
            if rng.chance(config.float_prob) {
                Value::Float(n as f64 + 0.5)
            } else {
                Value::Int(n)
            }
        }
        1 => Value::Str(format!("item-{n}")),
        2 => Value::Bool(n % 2 == 0),
        _ => {
            if rng.chance(config.float_prob) {
                Value::Float(n as f64 / 3.0)
            } else {
                Value::Int(n)
            }
        }
    }
}

fn gen_value(rng: &mut Rng, config: &CorpusConfig, depth: usize) -> Value {
    if depth <= 1 {
        return gen_primitive(rng, config);
    }
    match rng.below(3) {
        0 => gen_primitive(rng, config),
        1 => Value::List(
            (0..config.list_len)
                .map(|_| gen_value(rng, config, depth - 1))
                .collect(),
        ),
        _ => {
            let mut fields = Vec::with_capacity(config.record_width);
            for i in 0..config.record_width {
                if rng.chance(config.missing_field_prob) {
                    continue;
                }
                let name = FIELD_NAMES[i % FIELD_NAMES.len()];
                fields.push(Field::new(name, gen_value(rng, config, depth - 1)));
            }
            Value::Record {
                name: body_name(),
                fields,
            }
        }
    }
}

/// Generates a homogeneous "rows" document: a collection of `rows` flat
/// records of `width` primitive fields — the shape of a CSV file or a
/// tabular JSON API.
pub fn generate_table(seed: u64, rows: usize, width: usize) -> Value {
    let mut rng = Rng::new(seed);
    let config = CorpusConfig::default();
    Value::List(
        (0..rows)
            .map(|_| {
                let fields = (0..width)
                    .map(|i| {
                        let name = FIELD_NAMES[i % FIELD_NAMES.len()];
                        Field::new(name, gen_primitive(&mut rng, &config))
                    })
                    .collect();
                Value::Record {
                    name: body_name(),
                    fields,
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_below_respects_bound() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn rng_below_zero_panics() {
        Rng::new(1).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let c = CorpusConfig::default();
        let a = generate(&mut Rng::new(99), &c);
        let b = generate(&mut Rng::new(99), &c);
        assert_eq!(a, b);
    }

    #[test]
    fn generate_respects_max_depth() {
        let c = CorpusConfig {
            max_depth: 3,
            ..CorpusConfig::default()
        };
        for seed in 0..20 {
            let v = generate(&mut Rng::new(seed), &c);
            assert!(v.depth() <= 3, "depth {} for seed {seed}", v.depth());
        }
    }

    #[test]
    fn corpus_has_requested_size() {
        let docs = generate_corpus(5, 12, &CorpusConfig::default());
        assert_eq!(docs.len(), 12);
    }

    #[test]
    fn table_is_list_of_flat_records() {
        let t = generate_table(11, 20, 4);
        let rows = t.elements().unwrap();
        assert_eq!(rows.len(), 20);
        for row in rows {
            assert!(row.is_record());
            assert!(row.depth() <= 2);
            assert_eq!(row.fields().unwrap().len(), 4);
        }
    }

    #[test]
    fn missing_fields_do_occur() {
        let c = CorpusConfig {
            missing_field_prob: 0.5,
            max_depth: 2,
            record_width: 6,
            ..CorpusConfig::default()
        };
        let mut rng = Rng::new(17);
        let mut saw_narrow = false;
        for _ in 0..50 {
            if let Value::Record { fields, .. } = gen_value(&mut rng, &c, 2) {
                if fields.len() < 6 {
                    saw_narrow = true;
                }
            }
        }
        assert!(
            saw_narrow,
            "expected at least one record with dropped fields"
        );
    }
}
