//! End-to-end pipeline tests: the same logical data entering through
//! different front-ends, full sample→shape→provider→evaluation chains,
//! and codegen output sanity on the paper's documents.

use tfd_core::{infer_with, InferOptions, Shape};
use tfd_provider::{deep_eval, provide_idiomatic, signature};
use tfd_runtime::Node;

// A recursive XML provider: <ul> contains <li> contains <ul> — the §6.2
// global mode unifies the name classes into a mutually recursive
// definitions table, and codegen emits genuinely recursive Rust structs
// (`Ul` ↔ `Li`), compiled into this test binary right here.
types_from_data::xml_provider! {
    mod ul_tree;
    root UlTree;
    global;
    sample r#"<ul id="1"><li>leaf</li><li><ul id="2"><li>deep</li></ul></li></ul>"#;
}

/// The same table of people as JSON, XML and CSV. The front-ends encode
/// differently (JSON records are `•`, XML rows are named elements), but
/// the *fields* and their inferred primitive shapes must agree.
#[test]
fn same_data_through_three_front_ends() {
    let json =
        tfd_json::parse(r#"[ { "name": "Jan", "age": 25 }, { "name": "Tomas", "age": 30 } ]"#)
            .unwrap()
            .to_value();
    let xml = tfd_xml::parse(
        r#"<people><person name="Jan" age="25"/><person name="Tomas" age="30"/></people>"#,
    )
    .unwrap()
    .to_value();
    let csv = tfd_csv::parse("name,age\nJan,25\nTomas,30\n")
        .unwrap()
        .to_value();

    let formal = InferOptions::formal();

    // JSON: [• {name : string, age : int}]
    let json_shape = infer_with(&json, &formal);
    let Shape::List(json_row) = &json_shape else {
        panic!("{json_shape}")
    };
    let json_row = json_row.as_record().unwrap();

    // XML: people {• : [person {name : string, age : int}]}
    let xml_shape = infer_with(&xml, &formal);
    let xml_row = xml_shape
        .as_record()
        .unwrap()
        .field(tfd_value::BODY_NAME)
        .unwrap();
    let Shape::List(xml_row) = xml_row else {
        panic!("{xml_row}")
    };
    let xml_row = xml_row.as_record().unwrap();

    // CSV: [• {name : string, age : int}] (bit does not fire: ages aren't 0/1)
    let csv_shape = infer_with(&csv, &InferOptions::csv());
    let Shape::List(csv_row) = &csv_shape else {
        panic!("{csv_shape}")
    };
    let csv_row = csv_row.as_record().unwrap();

    for row in [json_row, xml_row, csv_row] {
        assert_eq!(row.field("name"), Some(&Shape::String), "in {row:?}");
        assert_eq!(row.field("age"), Some(&Shape::Int), "in {row:?}");
    }
}

/// Cross-format safety: a provider inferred from the JSON encoding
/// accepts rows from the CSV encoding of the same data (both are
/// `•`-named records with identical fields).
#[test]
fn provider_from_json_accepts_csv_rows() {
    let json = tfd_json::parse(r#"[ { "name": "Jan", "age": 25 } ]"#)
        .unwrap()
        .to_value();
    let shape = infer_with(&json, &InferOptions::formal());
    let provided = tfd_provider::provide(&shape);

    let csv = tfd_csv::parse("name,age\nGrace,85\nAlan,41\n")
        .unwrap()
        .to_value();
    deep_eval(&provided, &csv).expect("CSV rows conform to the JSON-inferred shape");
}

/// The full generated-code pipeline on every paper document: the emitted
/// Rust must at least be structurally complete (module, structs,
/// from_value, parse) for each sample. (Compilation of generated code is
/// covered by the macro tests, which compile five providers into the test
/// binary.)
#[test]
fn codegen_emits_complete_modules_for_all_paper_samples() {
    use tfd_codegen::{generate, CodegenOptions, SourceFormat};
    let cases: Vec<(&str, SourceFormat, Shape)> = vec![
        (
            "weather",
            SourceFormat::Json,
            infer_with(
                &tfd_json::parse(&std::fs::read_to_string("examples/data/weather.json").unwrap())
                    .unwrap()
                    .to_value(),
                &InferOptions::json(),
            ),
        ),
        (
            "worldbank",
            SourceFormat::Json,
            infer_with(
                &tfd_json::parse(&std::fs::read_to_string("examples/data/worldbank.json").unwrap())
                    .unwrap()
                    .to_value(),
                &InferOptions::json(),
            ),
        ),
        (
            "doc",
            SourceFormat::Xml,
            infer_with(
                &tfd_xml::parse(&std::fs::read_to_string("examples/data/doc.xml").unwrap())
                    .unwrap()
                    .to_value(),
                &InferOptions::xml(),
            ),
        ),
        (
            "airquality",
            SourceFormat::Csv,
            infer_with(
                &tfd_csv::parse(&std::fs::read_to_string("examples/data/airquality.csv").unwrap())
                    .unwrap()
                    .to_value(),
                &InferOptions::csv(),
            ),
        ),
    ];
    for (name, format, shape) in cases {
        let options = CodegenOptions {
            format: Some(format),
            ..CodegenOptions::default()
        };
        let code = generate(&shape, name, "Root", &options);
        assert!(
            code.contains(&format!("pub mod {name}")),
            "{name}: no module"
        );
        assert!(code.contains("pub fn from_value"), "{name}: no from_value");
        assert!(code.contains("pub fn parse"), "{name}: no parse");
        assert!(code.contains("pub fn load"), "{name}: no load");
        // Deterministic:
        assert_eq!(
            code,
            generate(&shape, name, "Root", &options),
            "{name}: nondeterministic"
        );
    }
}

/// The runtime and the Foo interpreter agree on accept/reject for the
/// paper's documents: if deep_eval succeeds, the Node-based access of the
/// same fields succeeds too.
#[test]
fn runtime_and_interpreter_agree_on_weather() {
    let value = tfd_json::parse(&std::fs::read_to_string("examples/data/weather.json").unwrap())
        .unwrap()
        .to_value();
    let shape = infer_with(&value, &InferOptions::formal());
    let provided = tfd_provider::provide(&shape);
    deep_eval(&provided, &value).expect("interpreter accepts the sample");

    // Mirror a few accesses through the runtime:
    let node = Node::new(value);
    assert_eq!(node.field("name").unwrap().as_str().unwrap(), "Prague");
    assert_eq!(
        node.field("sys")
            .unwrap()
            .field("country")
            .unwrap()
            .as_str()
            .unwrap(),
        "CZ"
    );
    assert_eq!(
        node.field("weather")
            .unwrap()
            .index(0)
            .unwrap()
            .field("main")
            .unwrap()
            .as_str()
            .unwrap(),
        "Clouds"
    );
}

/// The §1 access `main.temp` gives the same sum three ways: hand-written
/// matching on the parsed `Json` (the paper's "before"), the typed
/// runtime `Node` that generated code uses, and the Foo interpreter
/// running the provided member path.
#[test]
fn runtime_interpreter_and_hand_matching_sum_the_same_temps() {
    use tfd_foo::{run, Expr, Outcome};
    use tfd_json::Json;
    use tfd_value::Value;

    let values: Vec<Value> = (0..100)
        .map(|i| {
            tfd_json::parse(&format!(
                r#"{{ "name": "city-{i}", "main": {{ "temp": {}, "pressure": 1010 }} }}"#,
                i % 40
            ))
            .unwrap()
            .to_value()
        })
        .collect();

    let mut hand = 0.0;
    for doc in values.iter().map(Json::from_value) {
        let Json::Object(root) = doc else {
            panic!("incorrect format")
        };
        let Some((_, Json::Object(main))) = root.iter().find(|(k, _)| k == "main") else {
            panic!("incorrect format")
        };
        match main.iter().find(|(k, _)| k == "temp") {
            Some((_, Json::Int(i))) => hand += *i as f64,
            Some((_, Json::Float(f))) => hand += *f,
            _ => panic!("incorrect format"),
        }
    }

    let runtime: f64 = values
        .iter()
        .map(|v| {
            let node = Node::new(v.clone());
            node.field("main")
                .unwrap()
                .field("temp")
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .sum();

    let shape = infer_with(&values[0], &InferOptions::formal());
    let provided = tfd_provider::provide(&shape);
    let foo: f64 = values
        .iter()
        .map(|v| {
            let expr = Expr::member(Expr::member(provided.convert(v), "main"), "temp");
            match run(&provided.classes, &expr) {
                Outcome::Value(Expr::Data(Value::Int(i))) => i as f64,
                Outcome::Value(Expr::Data(Value::Float(f))) => f,
                other => panic!("unexpected {other:?}"),
            }
        })
        .sum();

    assert_eq!(runtime, hand);
    assert_eq!(foo, hand);
}

/// Inferring from *multiple files* (the multi-sample workflow of §3.4)
/// through the public API, mirroring `tfd infer a.json b.json`.
#[test]
fn multi_file_inference_generalizes() {
    let s1 = tfd_json::parse(r#"{ "v": 1 }"#).unwrap().to_value();
    let s2 = tfd_json::parse(r#"{ "v": 2.5, "w": "x" }"#)
        .unwrap()
        .to_value();
    let shape = tfd_core::infer_many([&s1, &s2], &InferOptions::formal());
    assert_eq!(
        shape,
        Shape::record(
            tfd_value::BODY_NAME,
            [("v", Shape::Float), ("w", Shape::String.ceil())]
        )
    );
    // Both samples satisfy the merged provider:
    let provided = tfd_provider::provide(&shape);
    deep_eval(&provided, &s1).unwrap();
    deep_eval(&provided, &s2).unwrap();
}

/// §6.3's extra member: every provided object keeps an escape hatch to
/// the underlying representation.
#[test]
fn raw_escape_hatch_is_always_available() {
    let value = tfd_json::parse(r#"{ "a": { "mixed": [1, "two"] } }"#)
        .unwrap()
        .to_value();
    let node = Node::new(value.clone());
    assert_eq!(node.raw(), &value);
    let inner = node.field("a").unwrap();
    assert_eq!(inner.raw(), value.field("a").unwrap());
}

/// Recursive provided types, end to end: the generated `Ul`/`Li` structs
/// reference each other, and — because the recursion is a real μ-type,
/// not a truncated expansion — they navigate documents *deeper than the
/// sample* without losing typing.
#[test]
fn recursive_xml_provider_compiles_and_round_trips() {
    // Round-trip the compile-time sample.
    let root = ul_tree::sample();
    assert_eq!(root.id().unwrap(), 1);
    let items = root.li().unwrap();
    assert_eq!(items.len(), 2);
    assert_eq!(items[0].string().unwrap().as_deref(), Some("leaf"));
    // The second <li> holds a nested <ul>: the accessor returns the same
    // provided type as the root — recursion through the generated types.
    let nested: ul_tree::Ul = items[1].array().unwrap().expect("nested ul").ul().unwrap();
    assert_eq!(nested.id().unwrap(), 2);
    assert_eq!(
        nested.li().unwrap()[0].string().unwrap().as_deref(),
        Some("deep")
    );

    // A document two levels deeper than the sample: the μ-type keeps
    // typing all the way down (the old finite-tree cut could not).
    let deep = ul_tree::parse(
        r#"<ul id="10"><li><ul id="20"><li><ul id="30"><li>bottom</li></ul></li></ul></li></ul>"#,
    )
    .unwrap();
    let mut level = deep;
    let mut ids = Vec::new();
    loop {
        ids.push(level.id().unwrap());
        let items = level.li().unwrap();
        match items[0].array().unwrap() {
            Some(arr) => level = arr.ul().unwrap(),
            None => {
                assert_eq!(items[0].string().unwrap().as_deref(), Some("bottom"));
                break;
            }
        }
    }
    assert_eq!(ids, vec![10, 20, 30]);
}

/// F#-style signatures are stable across runs (predictability, §6.5).
#[test]
fn signatures_are_deterministic() {
    let value = tfd_json::parse(&std::fs::read_to_string("examples/data/weather.json").unwrap())
        .unwrap()
        .to_value();
    let shape = infer_with(&value, &InferOptions::json());
    let a = signature(&provide_idiomatic(&shape, "Weather"));
    let b = signature(&provide_idiomatic(&shape, "Weather"));
    assert_eq!(a, b);
}
