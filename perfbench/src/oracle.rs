//! The output oracle: expected shapes folded from the retained
//! char-level reference parsers (`tfd_json::reference`,
//! `tfd_xml::reference`, `tfd_csv::reference`) with `infer_with` and
//! `csh`, never through the byte-level front-ends or the engine paths
//! the benchmark measures.

use tfd_core::{csh, infer_with, GlobalShape, InferOptions, Shape, StreamFormat};

use crate::gen::RecordFile;

fn options(format: StreamFormat) -> InferOptions {
    match format {
        StreamFormat::Json => InferOptions::json(),
        StreamFormat::Xml => InferOptions::xml(),
        StreamFormat::Csv => InferOptions::csv(),
    }
}

/// The record fold `σ = csh(σ, S(d))` over `file`'s records that survive
/// recovery (every record the injector left alone), in document order.
/// For CSV this is the row fold, as the record-stream engine computes it.
pub fn record_fold(format: StreamFormat, file: &RecordFile) -> Shape {
    let opts = options(format);
    let mut injected = file.injected.iter().peekable();
    let mut survivors = (0..file.spans.len()).filter(|i| {
        let skip = injected.peek() == Some(&i);
        if skip {
            injected.next();
        }
        !skip
    });
    let mut shape = Shape::Bottom;
    match format {
        StreamFormat::Json => {
            for i in survivors {
                let doc = tfd_json::reference::parse(file.record_text(i)).expect("generated JSON");
                shape = csh(shape, infer_with(&doc.to_value(), &opts));
            }
        }
        StreamFormat::Xml => {
            for i in survivors {
                let doc = tfd_xml::reference::parse(file.record_text(i)).expect("generated XML");
                shape = csh(shape, infer_with(&doc.to_value(), &opts));
            }
        }
        StreamFormat::Csv => {
            let mut text = file.clean[..file.header_len].to_owned();
            survivors
                .by_ref()
                .for_each(|i| text.push_str(file.record_text(i)));
            let table = tfd_csv::reference::parse(&text).expect("generated CSV");
            if let tfd_value::Value::List(rows) = table.to_value() {
                for row in &rows {
                    shape = csh(shape, infer_with(row, &opts));
                }
            }
        }
    }
    shape
}

/// The record fold over several files, joined in file order.
pub fn corpus_fold(format: StreamFormat, files: &[RecordFile]) -> Shape {
    files
        .iter()
        .fold(Shape::Bottom, |acc, f| csh(acc, record_fold(format, f)))
}

/// The corpus view of a record fold: CSV rows re-wrap as a collection.
pub fn corpus_view(format: StreamFormat, fold: Shape) -> Shape {
    match format {
        StreamFormat::Csv => Shape::list(fold),
        _ => fold,
    }
}

/// What `tfd infer` must print for a corpus whose record fold is `fold`.
pub fn printed_shape(format: StreamFormat, fold: Shape) -> String {
    format!(
        "{}\n",
        GlobalShape::plain(corpus_view(format, fold)).inline()
    )
}
