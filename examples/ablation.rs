//! B6 — ablations of the paper's §6 design decisions.
//!
//! * **D1 — heterogeneous collections**: how often does inference reach
//!   for a labelled top with/without §6.4 hetero collections on a messy
//!   corpus?
//! * **D2 — the bit shape**: how many 0/1 CSV-style columns read as
//!   booleans vs ints with/without bit inference?
//! * **D3 — null-as-empty-collection**: how many accesses survive on a
//!   null-heavy corpus with the paper's choice (they all do — the
//!   alternative is counted as would-be failures)?
//!
//! Run with `cargo run --example ablation`.

use tfd_core::{infer_with, InferOptions, Shape};
use tfd_value::corpus::{generate_corpus, CorpusConfig, Rng};
use tfd_value::Value;

/// A messy corpus exhibiting the §2.3 real-world problems: missing
/// fields, nulls, and numbers encoded as strings.
fn messy_corpus(seed: u64, n: usize) -> Vec<Value> {
    let config = CorpusConfig {
        missing_field_prob: 0.3,
        null_prob: 0.15,
        stringly_number_prob: 0.2,
        ..CorpusConfig::default()
    };
    generate_corpus(seed, n, &config)
}

/// Counts collections whose *element* shape is a labelled top — the
/// weakly typed collections that §6.4's heterogeneous collections are
/// designed to avoid.
fn count_top_collections(shape: &Shape) -> usize {
    match shape {
        Shape::List(e) if e.is_top() => 1,
        Shape::List(e) => count_top_collections(e),
        Shape::Top(labels) => labels.iter().map(count_top_collections).sum(),
        Shape::Record(r) => r
            .fields
            .iter()
            .map(|f| count_top_collections(&f.shape))
            .sum(),
        Shape::Nullable(s) => count_top_collections(s),
        Shape::HeteroList(cases) => cases.iter().map(|(s, _)| count_top_collections(s)).sum(),
        _ => 0,
    }
}

fn d1_hetero() {
    println!("=== D1: heterogeneous collections vs labelled tops ===");
    println!("| corpus | hetero | top-typed collections | hetero cases |");
    println!("|--------|--------|-----------------------|--------------|");
    for seed in [1u64, 2, 3] {
        let corpus = messy_corpus(seed, 100);
        // Mix in WorldBank-style [record, array] heterogeneity.
        let mixed: Vec<Value> = corpus
            .chunks(2)
            .map(|pair| Value::List(pair.to_vec()))
            .collect();
        for hetero in [false, true] {
            let options = InferOptions {
                hetero_collections: hetero,
                ..InferOptions::formal()
            };
            let shape = tfd_core::infer_many(&mixed, &options);
            let tops = count_top_collections(&shape);
            let cases = match &shape {
                Shape::HeteroList(cases) => cases.len(),
                _ => 0,
            };
            println!("| seed {seed} | {hetero:<6} | {tops:>21} | {cases:>12} |");
        }
    }
    println!("(§6.4: hetero collections \"avoid inferring labelled top shapes in many common scenarios\")\n");
}

fn d2_bit() {
    println!("=== D2: the bit shape for 0/1 columns ===");
    let mut rng = Rng::new(5);
    let rows = 200usize;
    let table = Value::List(
        (0..rows)
            .map(|_| {
                Value::record(
                    tfd_value::BODY_NAME,
                    vec![
                        ("flag", Value::Int(rng.below(2) as i64)),
                        ("count", Value::Int(rng.below(50) as i64)),
                    ],
                )
            })
            .collect(),
    );
    for bits in [false, true] {
        let options = InferOptions {
            infer_bits: bits,
            ..InferOptions::formal()
        };
        let shape = infer_with(&table, &options);
        println!("infer_bits={bits}: {shape}");
    }
    println!("(§6.2: \"we also infer Autofilled as Boolean, because the sample contains only 0 and 1\")\n");
}

fn d3_null_collections() {
    println!("=== D3: null reads as the empty collection ===");
    let mut rng = Rng::new(8);
    let docs: Vec<Value> = (0..500)
        .map(|i| {
            Value::record(
                tfd_value::BODY_NAME,
                vec![(
                    "items",
                    if rng.below(4) == 0 {
                        Value::Null
                    } else {
                        Value::List(vec![Value::Int(i)])
                    },
                )],
            )
        })
        .collect();
    let nulls = docs
        .iter()
        .filter(|d| d.field("items") == Some(&Value::Null))
        .count();
    // With the paper's choice every access succeeds:
    let mut survived = 0usize;
    for d in &docs {
        let node = tfd_runtime::Node::new(d.clone());
        if node.field("items").unwrap().elements().is_ok() {
            survived += 1;
        }
    }
    println!("documents: {}, null collections: {nulls}", docs.len());
    println!(
        "accesses surviving with null→[] (paper's choice): {survived}/{}",
        docs.len()
    );
    println!(
        "would-be failures if null were rejected instead:  {nulls}/{}",
        docs.len()
    );
    println!(
        "(§3.1: \"a null collection is usually handled as an empty collection by client code\")\n"
    );
}

fn d2b_stringly() {
    println!("=== D2b: content-based primitive inference for JSON strings ===");
    let doc = tfd_json::parse(
        r#"[ { "date": "2012", "value": "35.14229" },
            { "date": "2010", "value": null } ]"#,
    )
    .unwrap()
    .to_value();
    for stringly in [false, true] {
        let options = InferOptions {
            stringly_primitives: stringly,
            ..InferOptions::formal()
        };
        let shape = infer_with(&doc, &options);
        println!("stringly_primitives={stringly}: {shape}");
    }
    println!("(§2.3: the World Bank type reads Value : option<float>, Date : int)\n");
}

fn main() {
    d1_hetero();
    d2_bit();
    d2b_stringly();
    d3_null_collections();
}
