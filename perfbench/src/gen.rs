//! Deterministic input generators: every corpus is a function of the
//! workload seed alone, drawn from `tfd_value::corpus::Rng` with the
//! messiness knobs of `tfd_value::corpus::CorpusConfig`.

use std::fmt::Write as _;
use std::ops::Range;

use tfd_value::corpus::{CorpusConfig, Rng};

/// One generated corpus file: its clean text, where each record sits in
/// it, and (after [`inject_corruption`]) a dirty twin.
#[derive(Default)]
pub struct RecordFile {
    /// The clean text (a CSV file starts with its header line).
    pub clean: String,
    /// Byte range of each record in `clean`, in document order.
    pub spans: Vec<Range<usize>>,
    /// Byte length of the CSV header line (0 for JSON and XML).
    pub header_len: usize,
    /// Record indices the injector corrupted, ascending.
    pub injected: Vec<usize>,
    /// The text the program reads: `clean` with the injected records
    /// corrupted (`None` when nothing was injected).
    pub dirty: Option<String>,
}

impl RecordFile {
    fn record(&mut self, write: impl FnOnce(&mut String)) {
        let start = self.clean.len();
        write(&mut self.clean);
        self.clean.push('\n');
        self.spans.push(start..self.clean.len());
    }

    /// The text the program under test reads.
    pub fn text(&self) -> &str {
        self.dirty.as_deref().unwrap_or(&self.clean)
    }

    /// Record `i`'s clean text.
    pub fn record_text(&self, i: usize) -> &str {
        &self.clean[self.spans[i].clone()]
    }

    /// Records that survive recovery: every record not injected.
    pub fn clean_records(&self) -> usize {
        self.spans.len() - self.injected.len()
    }
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

const CITIES: &[&str] = &["Prague", "Cambridge", "Seattle", "Lagos", "Osaka", "Lima"];
const WORDS: &[&str] = &["alpha", "bravo", "delta", "echo", "kilo", "lima", "tango"];

/// Homogeneous API-dump records, one JSON object per line: every record
/// has the same keys and every leaf keeps its type, so after the first
/// record the fold never widens.
pub fn jsonl_uniform(seed: u64, n: usize) -> RecordFile {
    let mut rng = Rng::new(seed);
    let mut f = RecordFile::default();
    for i in 0..n {
        let tags = 1 + rng.below(3);
        let city = pick(&mut rng, CITIES);
        let zip = 10_000 + rng.below(89_999);
        let score = rng.below(10_000) as f64 / 100.0 + 0.25;
        let lat = rng.below(18_000) as f64 / 100.0 - 89.875;
        let lon = rng.below(36_000) as f64 / 100.0 - 179.875;
        let active = rng.chance(0.5);
        let day = 1 + rng.below(28);
        f.record(|s| {
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"user-{i}\",\"email\":\"u{i}@example.org\",\
                 \"score\":{score:.3},\"active\":{active},\
                 \"address\":{{\"city\":\"{city}\",\"zip\":{zip},\
                 \"geo\":{{\"lat\":{lat:.3},\"lon\":{lon:.3}}}}},\"tags\":["
            );
            for t in 0..tags {
                let _ = write!(
                    s,
                    "{}\"t{}\"",
                    if t == 0 { "" } else { "," },
                    (i as u64 + t) % 17
                );
            }
            let _ = write!(s, "],\"created\":\"2016-06-{day:02}T10:00:00Z\"}}");
        });
    }
    f
}

/// The §2.3 mess for registry uploads: fields go missing, leaves turn
/// null and numbers arrive as strings, at the rates the workload sets
/// in `cfg`.
pub fn messy_config() -> CorpusConfig {
    CorpusConfig {
        missing_field_prob: 0.2,
        null_prob: 0.1,
        stringly_number_prob: 0.1,
        ..CorpusConfig::default()
    }
}

/// How many distinct upload-specific keys there are: an upload carries
/// `ext_<batch mod EXT_KEYS>`, so early uploads keep widening their
/// tenant's shape and the shape settles once every key has been seen.
const EXT_KEYS: usize = 64;

/// One registry upload: `n` messy JSON records, one per line. Record 0
/// (and about one record in twenty) carries the upload's own key
/// `ext_<k>` (see [`EXT_KEYS`]).
pub fn messy_json_batch(rng: &mut Rng, cfg: &CorpusConfig, batch: usize, n: usize) -> RecordFile {
    let mut f = RecordFile::default();
    for i in 0..n {
        let mut fields: Vec<String> = vec![format!("\"id\":{}", batch * 1000 + i)];
        let mut field = |rng: &mut Rng, key: &str, value: String| {
            if rng.chance(cfg.missing_field_prob) {
                return;
            }
            let value = if rng.chance(cfg.null_prob) {
                "null".to_owned()
            } else {
                value
            };
            fields.push(format!("\"{key}\":{value}"));
        };
        let name = format!("\"{}-{}\"", pick(rng, WORDS), rng.below(1000));
        field(rng, "name", name);
        let cents = rng.below(100_000);
        let price = if rng.chance(cfg.stringly_number_prob) {
            format!("\"{}.{:02}\"", cents / 100, cents % 100)
        } else {
            format!("{}.{:02}", cents / 100, cents % 100 + 1)
        };
        field(rng, "price", price);
        let qty = if rng.chance(cfg.stringly_number_prob) {
            format!("\"{}\"", rng.below(50))
        } else {
            rng.below(50).to_string()
        };
        field(rng, "qty", qty);
        let rating = if rng.chance(cfg.float_prob) {
            format!("{}.5", rng.below(5))
        } else {
            rng.below(6).to_string()
        };
        field(rng, "rating", rating);
        let in_stock = rng.chance(0.5).to_string();
        field(rng, "in_stock", in_stock);
        let address = format!(
            "{{\"city\":\"{}\",\"zip\":{}}}",
            pick(rng, CITIES),
            10_000 + rng.below(89_999)
        );
        field(rng, "address", address);
        if i == 0 || rng.chance(0.05) {
            fields.push(format!("\"ext_{}\":{}", batch % EXT_KEYS, rng.below(100)));
        }
        f.record(|s| {
            s.push('{');
            s.push_str(&fields.join(","));
            s.push('}');
        });
    }
    f
}

/// Heterogeneous XML records, one `<item>` document per line: optional
/// attributes and elements, prices that mix ints, floats and strings,
/// and a variable number of repeated `<tag>` children.
pub fn xml_documents(seed: u64, n: usize) -> RecordFile {
    let mut rng = Rng::new(seed);
    let mut f = RecordFile::default();
    for i in 0..n {
        f.record(|s| {
            let _ = write!(s, "<item id=\"{i}\" sku=\"S-{}\"", rng.below(10_000));
            if rng.chance(0.6) {
                let _ = write!(
                    s,
                    " status=\"{}\"",
                    pick(&mut rng, &["active", "retired", "draft"])
                );
            }
            if rng.chance(0.3) {
                let _ = write!(s, " discount=\"0.{}\"", 1 + rng.below(9));
            }
            let _ = write!(
                s,
                "><name>{} {}</name>",
                pick(&mut rng, WORDS),
                rng.below(100)
            );
            match rng.below(5) {
                0 => {}
                1 => {
                    let _ = write!(s, "<price>{}</price>", rng.below(500));
                }
                2 => s.push_str("<price>n/a</price>"),
                _ => {
                    let _ = write!(s, "<price>{}.{}</price>", rng.below(500), 1 + rng.below(9));
                }
            }
            if rng.chance(0.7) {
                let _ = write!(s, "<qty>{}</qty>", rng.below(40));
            }
            for _ in 0..rng.below(4) {
                let _ = write!(s, "<tag>{}</tag>", pick(&mut rng, WORDS));
            }
            if rng.chance(0.25) {
                let _ = write!(
                    s,
                    "<note lang=\"en\">ships from {}</note>",
                    pick(&mut rng, CITIES)
                );
            }
            s.push_str("</item>");
        });
    }
    f
}

/// Columns a CSV file may carry beyond the four every file has; each
/// file keeps a seed-chosen subset, so files disagree on their columns.
const OPTIONAL_COLUMNS: &[&str] = &["date", "flag", "note", "discount", "region"];

/// A heterogeneous CSV file: `id,name,price,qty` plus a seed-chosen
/// subset of [`OPTIONAL_COLUMNS`], with empty cells and cells that mix
/// ints, floats and strings. Quotes only ever open a field (the char-
/// level reference parser mishandles a quote mid-field).
pub fn csv_table(seed: u64, n: usize) -> RecordFile {
    let mut rng = Rng::new(seed);
    let columns: Vec<&str> = OPTIONAL_COLUMNS
        .iter()
        .copied()
        .filter(|_| rng.chance(0.5))
        .collect();
    let mut f = RecordFile::default();
    f.clean.push_str("id,name,price,qty");
    for c in &columns {
        f.clean.push(',');
        f.clean.push_str(c);
    }
    f.clean.push('\n');
    f.header_len = f.clean.len();
    for i in 0..n {
        f.record(|s| {
            let _ = write!(s, "{i},");
            if rng.chance(0.1) {
                let _ = write!(
                    s,
                    "\"{}, {}\"",
                    pick(&mut rng, WORDS),
                    pick(&mut rng, CITIES)
                );
            } else {
                let _ = write!(s, "{}-{}", pick(&mut rng, WORDS), rng.below(100));
            }
            match rng.below(6) {
                0 => s.push(','),
                1 => s.push_str(",n/a"),
                2 => {
                    let _ = write!(s, ",{}", rng.below(500));
                }
                _ => {
                    let _ = write!(s, ",{}.{}", rng.below(500), rng.below(100));
                }
            }
            if rng.chance(0.85) {
                let _ = write!(s, ",{}", rng.below(40));
            } else {
                s.push(',');
            }
            for c in &columns {
                s.push(',');
                let empty = rng.chance(0.1);
                match (*c, empty) {
                    (_, true) => {}
                    ("date", _) => {
                        let _ = write!(s, "2012-{:02}-{:02}", 1 + rng.below(12), 1 + rng.below(28));
                    }
                    ("flag", _) => {
                        let _ = write!(s, "{}", rng.below(2));
                    }
                    ("note", _) => s.push_str(pick(&mut rng, WORDS)),
                    ("discount", _) => {
                        let _ = write!(s, "0.{}", 1 + rng.below(9));
                    }
                    _ => s.push_str(pick(&mut rng, CITIES)),
                }
            }
        });
    }
    f
}

/// How a record is broken. Each edit breaks exactly one record and
/// leaves the record boundaries intact, so Skip-mode recovery drops that
/// record and nothing else.
#[derive(Clone, Copy)]
pub enum Corruption {
    /// `id="7"` becomes `id=7`: an unquoted XML attribute value.
    XmlUnquotedAttribute,
    /// A row's leading `7,` becomes `"7"x,`: a character after a
    /// closing CSV quote.
    CsvCharAfterQuote,
}

/// Corrupts about `rate` of `file`'s records (at least one), chosen by
/// `seed`, filling `file.dirty` and returning the corrupted record
/// indices in ascending order (also kept in `file.injected`).
pub fn inject_corruption(
    file: &mut RecordFile,
    kind: Corruption,
    seed: u64,
    rate: f64,
) -> Vec<usize> {
    let n = file.spans.len();
    let want = ((n as f64 * rate).round() as usize).clamp(1, n);
    let mut rng = Rng::new(seed);
    let mut chosen = vec![false; n];
    let mut picked = 0;
    while picked < want {
        let i = rng.below(n as u64) as usize;
        if !chosen[i] {
            chosen[i] = true;
            picked += 1;
        }
    }
    let mut dirty = String::with_capacity(file.clean.len() + want * 4);
    dirty.push_str(&file.clean[..file.header_len]);
    let mut injected = Vec::with_capacity(want);
    for (i, &bad) in chosen.iter().enumerate() {
        let rec = file.record_text(i);
        if !bad {
            dirty.push_str(rec);
            continue;
        }
        injected.push(i);
        match kind {
            Corruption::XmlUnquotedAttribute => {
                let open = rec.find("id=\"").expect("every item has an id") + 3;
                let close = open + 1 + rec[open + 1..].find('"').expect("quoted id");
                dirty.push_str(&rec[..open]);
                dirty.push_str(&rec[open + 1..close]);
                dirty.push_str(&rec[close + 1..]);
            }
            Corruption::CsvCharAfterQuote => {
                let comma = rec.find(',').expect("every row has an id cell");
                let _ = write!(dirty, "\"{}\"x{}", &rec[..comma], &rec[comma..]);
            }
        }
    }
    file.dirty = Some(dirty);
    file.injected = injected.clone();
    injected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        assert_eq!(jsonl_uniform(3, 50).clean, jsonl_uniform(3, 50).clean);
        assert_eq!(xml_documents(3, 50).clean, xml_documents(3, 50).clean);
        assert_eq!(csv_table(3, 50).clean, csv_table(3, 50).clean);
        let cfg = messy_config();
        let a = messy_json_batch(&mut Rng::new(9), &cfg, 4, 30);
        let b = messy_json_batch(&mut Rng::new(9), &cfg, 4, 30);
        assert_eq!(a.clean, b.clean);
        assert!(a.clean.contains("\"ext_4\""));
    }

    #[test]
    fn injection_breaks_exactly_the_returned_records() {
        let mut f = csv_table(5, 2000);
        let injected = inject_corruption(&mut f, Corruption::CsvCharAfterQuote, 1, 0.001);
        assert_eq!(injected.len(), 2);
        assert_eq!(f.clean_records(), 1998);
        let dirty = f.dirty.as_deref().unwrap();
        assert_eq!(dirty.matches("\"x,").count(), 2);
        let mut x = xml_documents(5, 3000);
        let injected = inject_corruption(&mut x, Corruption::XmlUnquotedAttribute, 1, 0.001);
        assert_eq!(injected.len(), 3);
        assert_eq!(x.text().matches("<item id=\"").count(), 2997);
    }
}
