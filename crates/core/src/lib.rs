//! # tfd-core — the shape algebra and inference of *Types from data*
//!
//! This crate is the paper's primary contribution (§3):
//!
//! * [`Shape`] — the shape algebra σ (§3.1), with the labelled top shapes
//!   of §3.5, the heterogeneous collections of §6.4 and the `bit`/`date`
//!   primitive extensions of §6.2;
//! * [`is_preferred`] — the preferred shape relation `σ1 ⊑ σ2`
//!   (Definition 1, Fig. 1);
//! * [`csh`] / [`csh_all`] — the common preferred shape (least upper
//!   bound) function (Definition 2, Fig. 2 and Fig. 4);
//! * [`infer`] / [`infer_with`] / [`infer_many`] — shape inference from
//!   sample data `S(d1, …, dn)` (Fig. 3);
//! * [`globalize_env`] — the XML global (by-name) inference mode (§6.2),
//!   returning a [`GlobalShape`]: a root shape plus a [`ShapeEnv`]
//!   definitions table, with recursion represented by [`Shape::Ref`]
//!   μ-references ([`globalize`] is the finite-tree rendering);
//! * [`is_preferred_in`] / [`csh_in`] / [`conforms_in`] / [`tag_of_in`]
//!   — the algebra under a shape environment (coinductive μ-unfolding);
//! * [`tag_of`] — the shape tags of Fig. 4.
//!
//! # Example: the paper's §3.1 row-variable illustration
//!
//! ```
//! use tfd_core::{infer_many, InferOptions, Shape};
//! use tfd_value::{rec, Value};
//!
//! let p1 = rec("Point", [("x", Value::Int(3))]);
//! let p2 = rec("Point", [("x", Value::Int(3)), ("y", Value::Int(4))]);
//! let joined = infer_many([&p1, &p2], &InferOptions::formal());
//! assert_eq!(
//!     joined,
//!     Shape::record("Point", [("x", Shape::Int), ("y", Shape::Int.ceil())])
//! );
//! ```
//!
//! # Relationship to the formal development
//!
//! The subset reachable with [`InferOptions::formal`] is exactly the
//! paper's core calculus; every rule of Figures 1–4 has a corresponding
//! unit test in this crate, and the crate-level property tests (see
//! `tests/` at the workspace root) check Lemma 1 (csh is the least upper
//! bound) and the soundness of inference (`S(dᵢ) ⊑ S(d1, …, dn)`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod conforms;
pub mod corpus;
mod csh;
pub mod engine;
mod env;
mod global;
mod infer;
mod multiplicity;
mod prefer;
pub mod recover;
pub mod report;
mod shape;
pub mod stream;
mod tags;
mod walk;

pub use conforms::{conforms, conforms_in, value_matches_tag};
pub use corpus::{infer_files_parallel, infer_sources_parallel, CorpusSource, FileSummary};
pub use csh::{csh, csh_all, csh_in};
pub use engine::{run, CsvFormat, DataFormat, IngestConfig, JsonFormat, Source, XmlFormat};
pub use env::{GlobalShape, ShapeEnv};

/// [`csh`] for callers that only hold references: clones both arguments
/// and delegates. Tests and diagnostic tooling use this; the inference
/// hot path consumes shapes with [`csh`] directly and never clones.
pub fn csh_ref(a: &Shape, b: &Shape) -> Shape {
    csh(a.clone(), b.clone())
}
pub use global::{globalize, globalize_env, globalize_ref};
pub use infer::{infer, infer_many, infer_with, InferOptions};
pub use multiplicity::Multiplicity;
pub use prefer::{is_preferred, is_preferred_global, is_preferred_in};
pub use recover::{ErrorReport, Recovered, RecoveryMode, RecoveryPolicy};
pub use shape::{FieldShape, RecordShape, Shape};
pub use stream::{InferAccumulator, StreamFormat, StreamSummary};
pub use tags::{tag_of, tag_of_in, Tag};
