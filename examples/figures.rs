//! Regenerates the paper's figure-level artifacts:
//!
//! * `--fig1`: mechanically verifies the Fig. 1 preference lattice and
//!   prints its Hasse edges;
//! * `--examples`: prints the inferred shape and provided type for every
//!   worked example in the paper (E1–E5) next to the paper's expected
//!   types.
//!
//! Run with `cargo run --example figures -- --fig1 --examples`.

use tfd_core::{infer_with, is_preferred, InferOptions, Shape};
use tfd_provider::{provide_idiomatic, signature};

fn fig1() {
    println!("=== Figure 1: the preferred shape relation ===\n");
    let record = Shape::record("P", [("x", Shape::Int)]);
    let shapes: Vec<Shape> = vec![
        Shape::Bottom,
        Shape::Null,
        Shape::Bit,
        Shape::Int,
        Shape::Float,
        Shape::Bool,
        Shape::String,
        Shape::Date,
        record.clone(),
        Shape::Int.ceil(),
        Shape::Float.ceil(),
        Shape::Bool.ceil(),
        Shape::String.ceil(),
        record.ceil(),
        Shape::list(Shape::Int),
        Shape::any(),
    ];
    // Print the covering relation (Hasse diagram edges): a ⊏ b with no c
    // strictly between.
    let strictly = |a: &Shape, b: &Shape| is_preferred(a, b) && !is_preferred(b, a);
    let mut edges = 0;
    for a in &shapes {
        for b in &shapes {
            if !strictly(a, b) {
                continue;
            }
            let covered = shapes.iter().any(|c| strictly(a, c) && strictly(c, b));
            if !covered {
                println!("  {a}  ⊑  {b}");
                edges += 1;
            }
        }
    }
    println!("\n{edges} covering edges verified (cf. the arrows of Fig. 1).\n");
}

fn show(title: &str, paper: &str, text: &str, options: &InferOptions, root: &str) {
    println!("=== {title} ===");
    let value = tfd_json::parse(text)
        .map(|j| j.to_value())
        .or_else(|_| tfd_xml::parse(text).map(|x| x.to_value()))
        .or_else(|_| tfd_csv::parse(text).map(|c| c.to_value()))
        .expect("sample parses in one of the three formats");
    let shape = infer_with(&value, options);
    println!("inferred shape: {shape}");
    let provided = provide_idiomatic(&shape, root);
    println!("provided type:\n{}", signature(&provided));
    println!("paper expectation: {paper}\n");
}

fn examples() {
    show(
        "E2 — §2.1 people.json",
        "Entity { Name : string, Age : option<float> }",
        r#"[ { "name":"Jan", "age":25 },
            { "name":"Tomas" },
            { "name":"Alexander", "age":3.5 } ]"#,
        &InferOptions::json(),
        "People",
    );
    show(
        "E3 — §2.2 document XML (labelled-top mode)",
        "Element { Heading/P : option<string>, Image : option<Image> }",
        "<doc><heading>H1</heading><p>P1</p><heading>H2</heading>\
         <p>P2</p><image source=\"xml.png\"/></doc>",
        &InferOptions {
            hetero_collections: false,
            singleton_collections: false,
            ..InferOptions::xml()
        },
        "Document",
    );
    show(
        "E4 — §2.3 World Bank",
        "WorldBank { Record : {Pages : int}, Array : [{Date : int, Indicator : string, Value : option<float>}] }",
        r#"[ { "pages": 5 },
            [ { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2012", "value": null },
              { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2010", "value": "35.14229" } ] ]"#,
        &InferOptions::json(),
        "WorldBank",
    );
    show(
        "E5 — §6.2 air-quality CSV",
        "Row { Ozone : float, Temp : option<int>, Date : string, Autofilled : bool (bit) }",
        "Ozone, Temp, Date, Autofilled\n41, 67, 2012-05-01, 0\n36.3, 72, 2012-05-02, 1\n\
         12.1, 74, 3 kveten, 0\n17.5, #N/A, 2012-05-04, 0\n",
        &InferOptions::csv(),
        "AirQuality",
    );
    show(
        "§6.2 — XML root/item",
        "Root { Id : int, Item : string }",
        r#"<root id="1"><item>Hello!</item></root>"#,
        &InferOptions::xml(),
        "Root",
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    if all || args.iter().any(|a| a == "--fig1") {
        fig1();
    }
    if all || args.iter().any(|a| a == "--examples") {
        examples();
    }
}
