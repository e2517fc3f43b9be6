//! Order-theoretic laws of the shape algebra (Definition 1, Lemma 1).
//!
//! Property-tested on shapes inferred from randomly generated documents
//! (the shapes that actually arise in the system — ground shapes in the
//! paper's sense):
//!
//! * `⊑` is a partial order: reflexive, transitive, antisymmetric;
//! * `csh` is an upper bound of its arguments (Lemma 1's first half);
//! * `csh` is a *least* upper bound: below every competing upper bound
//!   drawn from the generated population (Lemma 1's second half,
//!   approximated over the sample);
//! * `csh` is commutative, idempotent and associative;
//! * inference is monotone: `S(dᵢ) ⊑ S(d1, …, dn)`;
//! * `⊑` and `hasShape` cohere: `S(d) ⊑ σ` implies `conforms(σ, d)`;
//! * the streaming fold's no-widen fast path only skips steps that are
//!   no-ops: whenever it accepts `d`, `csh(σ, S(d))` prints exactly as σ.

mod common;

use common::{conforming, value_strategy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tfd_core::stream::InferAccumulator;
use tfd_core::{conforms, csh, csh_ref, infer_many, infer_with, is_preferred, InferOptions, Shape};
use tfd_value::corpus::{generate_corpus, CorpusConfig, Rng};
use tfd_value::Value;

fn shape_of(d: &tfd_value::Value) -> Shape {
    infer_with(d, &InferOptions::formal())
}

/// Replaces every labelled top with the plain `any` (footnote 6).
fn erase_labels(shape: &Shape) -> Shape {
    match shape {
        Shape::Top(_) => Shape::any(),
        Shape::Record(r) => Shape::record(
            r.name,
            r.fields.iter().map(|f| (f.name, erase_labels(&f.shape))),
        ),
        Shape::Nullable(inner) => erase_labels(inner).ceil(),
        Shape::List(e) => Shape::list(erase_labels(e)),
        Shape::HeteroList(cases) => {
            Shape::HeteroList(cases.iter().map(|(s, m)| (erase_labels(s), *m)).collect())
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn preference_is_reflexive(d in value_strategy()) {
        let s = shape_of(&d);
        prop_assert!(is_preferred(&s, &s), "{s} not ⊑ itself");
    }

    #[test]
    fn preference_is_transitive(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        // Construct a guaranteed chain via csh: a ⊑ a⊔b ⊑ (a⊔b)⊔c.
        let sa = shape_of(&a);
        let sab = csh_ref(&sa, &shape_of(&b));
        let sabc = csh_ref(&sab, &shape_of(&c));
        prop_assert!(is_preferred(&sa, &sab));
        prop_assert!(is_preferred(&sab, &sabc));
        prop_assert!(is_preferred(&sa, &sabc), "transitivity failed: {sa} ⋢ {sabc}");
    }

    /// Antisymmetry holds *semantically*: with the row-variable reading
    /// of the record rules (a missing field reads as null) and footnote
    /// 6's label-blind tops, `⊑` is a preorder whose equivalence classes
    /// are "shapes admitting the same data values". Mutually preferred
    /// shapes must therefore accept exactly the same conforming values.
    #[test]
    fn mutual_preference_implies_same_conforming_values(
        a in value_strategy(),
        b in value_strategy(),
        seed in any::<u64>(),
    ) {
        let sa = shape_of(&a);
        let sb = shape_of(&b);
        if is_preferred(&sa, &sb) && is_preferred(&sb, &sa) {
            let mut rng = tfd_value::corpus::Rng::new(seed);
            for _ in 0..8 {
                let va = common::conforming(&sa, &mut rng);
                prop_assert!(
                    conforms(&sb, &va),
                    "{sa} ≡ {sb} but {va} conforms only to the first"
                );
                let vb = common::conforming(&sb, &mut rng);
                prop_assert!(
                    conforms(&sa, &vb),
                    "{sa} ≡ {sb} but {vb} conforms only to the second"
                );
            }
        }
    }

    #[test]
    fn csh_is_upper_bound(a in value_strategy(), b in value_strategy()) {
        let sa = shape_of(&a);
        let sb = shape_of(&b);
        let j = csh_ref(&sa, &sb);
        prop_assert!(is_preferred(&sa, &j), "{sa} ⋢ csh = {j}");
        prop_assert!(is_preferred(&sb, &j), "{sb} ⋢ csh = {j}");
    }

    #[test]
    fn csh_is_least_among_generated_upper_bounds(
        a in value_strategy(),
        b in value_strategy(),
        candidates in prop::collection::vec(value_strategy(), 1..4),
    ) {
        // Lemma 1: csh(a, b) is below every upper bound. We check against
        // upper bounds constructible from the generated population by
        // joining in more shapes.
        let sa = shape_of(&a);
        let sb = shape_of(&b);
        let j = csh_ref(&sa, &sb);
        for c in &candidates {
            let upper = csh_ref(&j, &shape_of(c));
            // `upper` is an upper bound of both a and b...
            prop_assert!(is_preferred(&sa, &upper));
            prop_assert!(is_preferred(&sb, &upper));
            // ...and the lub is below it.
            prop_assert!(
                is_preferred(&j, &upper),
                "csh({sa}, {sb}) = {j} ⋢ upper bound {upper}"
            );
        }
    }

    #[test]
    fn csh_is_commutative(a in value_strategy(), b in value_strategy()) {
        let sa = shape_of(&a);
        let sb = shape_of(&b);
        prop_assert_eq!(csh_ref(&sa, &sb), csh_ref(&sb, &sa));
    }

    #[test]
    fn csh_is_idempotent(a in value_strategy()) {
        let sa = shape_of(&a);
        prop_assert_eq!(csh_ref(&sa, &sa), sa.clone());
        // And absorbing with its own join:
        let j = csh_ref(&sa, &sa);
        prop_assert_eq!(csh_ref(&j, &sa), j);
    }

    #[test]
    fn csh_is_associative(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        let (sa, sb, sc) = (shape_of(&a), shape_of(&b), shape_of(&c));
        let left = csh_ref(&csh_ref(&sa, &sb), &sc);
        let right = csh_ref(&sa, &csh_ref(&sb, &sc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn inference_is_monotone_in_samples(
        samples in prop::collection::vec(value_strategy(), 1..5),
    ) {
        let joined = infer_many(&samples, &InferOptions::formal());
        for d in &samples {
            prop_assert!(
                is_preferred(&shape_of(d), &joined),
                "S({d}) ⋢ S(samples) = {joined}"
            );
        }
        // Adding a sample only generalizes (the stability precondition):
        let mut extended = samples.clone();
        extended.push(samples[0].clone());
        let joined2 = infer_many(&extended, &InferOptions::formal());
        prop_assert!(is_preferred(&joined, &joined2));
    }

    #[test]
    fn preference_implies_conformance(d in value_strategy(), sample in value_strategy()) {
        let shape = shape_of(&sample);
        if is_preferred(&shape_of(&d), &shape) {
            prop_assert!(
                conforms(&shape, &d),
                "S({d}) ⊑ {shape} but hasShape rejects the value"
            );
        }
    }

    #[test]
    fn bottom_and_top_are_extremes(d in value_strategy()) {
        let s = shape_of(&d);
        prop_assert!(is_preferred(&Shape::Bottom, &s));
        prop_assert!(is_preferred(&s, &Shape::any()));
        prop_assert_eq!(csh_ref(&s, &Shape::Bottom), s.clone());
        prop_assert!(csh_ref(&s, &Shape::any()).is_top());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Footnote 6: erasing top labels never changes the relation.
    #[test]
    fn labels_do_not_affect_preference(a in value_strategy(), b in value_strategy()) {
        let sa = shape_of(&a);
        let sb = shape_of(&b);
        prop_assert_eq!(
            is_preferred(&sa, &sb),
            is_preferred(&erase_labels(&sa), &erase_labels(&sb))
        );
    }
}

// --- The streaming fold's no-widen fast path ---

fn presets() -> [InferOptions; 4] {
    [
        InferOptions::formal(),
        InferOptions::json(),
        InferOptions::csv(),
        InferOptions::xml(),
    ]
}

/// Folds `samples` under `options`, and after each one probes the fast
/// path with `probes` values conforming to the running shape. Whenever
/// the accumulator says it covers a value, the general step must print
/// exactly as the running shape (`==` alone would forgive a field
/// reordering); at the end the fold must print as `infer_many`. Returns
/// how many probes the fast path accepted.
fn check_fast_path(
    samples: &[Value],
    options: &InferOptions,
    probes: usize,
    rng: &mut Rng,
) -> Result<usize, TestCaseError> {
    let mut acc = InferAccumulator::new(options.clone());
    let mut accepted = 0;
    for d in samples {
        let conforming_probes = (0..probes).map(|_| conforming(acc.shape(), rng));
        for probe in std::iter::once(d.clone()).chain(conforming_probes) {
            if acc.covers(&probe) {
                accepted += 1;
                let stepped = csh(acc.shape().clone(), infer_with(&probe, options));
                prop_assert_eq!(
                    stepped.to_string(),
                    acc.shape().to_string(),
                    "{:?}: the fast path took {} into {}",
                    options,
                    probe,
                    acc.shape()
                );
            }
        }
        acc.push(d);
    }
    prop_assert_eq!(
        acc.shape().to_string(),
        infer_many(samples, options).to_string(),
        "{:?}: the fold left infer_many",
        options
    );
    Ok(accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_path_skips_only_no_op_steps(
        samples in prop::collection::vec(value_strategy(), 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        for options in presets() {
            check_fast_path(&samples, &options, 4, &mut rng)?;
        }
    }
}

#[test]
fn fast_path_skips_only_no_op_steps_on_messy_corpora() {
    // The §2.3 mess: missing fields, nulls, mixed number encodings and
    // stringly numbers, over corpora sharing one schema.
    let messy = CorpusConfig {
        max_depth: 3,
        missing_field_prob: 0.2,
        null_prob: 0.1,
        float_prob: 0.3,
        stringly_number_prob: 0.1,
        ..CorpusConfig::default()
    };
    let mut accepted = 0;
    for seed in 0..64 {
        let corpus = generate_corpus(seed, 12, &messy);
        let mut rng = Rng::new(seed);
        for options in presets() {
            accepted += check_fast_path(&corpus, &options, 2, &mut rng)
                .unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }
    // The property must not hold vacuously. (Most records here are not
    // covered: the generator mixes leaf types per field, so σ soon holds
    // labelled tops, which the fast path leaves to `csh`.)
    assert!(
        accepted > 300,
        "the fast path accepted only {accepted} records"
    );
}

// --- μ-shapes: the algebra laws under a shape environment ---
//
// Generated μ-shapes are canonical by construction: records in the root
// use non-environment names, and environment names only ever appear as
// `Shape::Ref`s — exactly the form `globalize_env` produces.

const MU_NAMES: &[&str] = &["n0", "n1", "n2"];
const MU_FIELDS: &[&str] = &["a", "b", "c", "d"];

/// A leaf for μ-shape generation: primitives and references into the
/// three-name environment.
fn mu_leaf() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Int),
        Just(Shape::Float),
        Just(Shape::Bool),
        Just(Shape::String),
        prop::sample::select(MU_NAMES).prop_map(|n| Shape::Ref(n.into())),
    ]
}

/// A canonical shape over the μ-environment: leaves, nullable leaves,
/// collections and non-environment records.
fn mu_shape() -> impl Strategy<Value = Shape> {
    let wrapped = prop_oneof![
        mu_leaf(),
        mu_leaf().prop_map(Shape::ceil),
        mu_leaf().prop_map(Shape::list),
    ];
    prop_oneof![
        wrapped.clone(),
        (
            prop::sample::select(&["r", "q"][..]),
            prop::collection::vec((prop::sample::select(MU_FIELDS), wrapped), 0..3),
        )
            .prop_map(|(name, fields)| {
                let mut seen: Vec<&str> = Vec::new();
                Shape::record(
                    name,
                    fields.into_iter().filter(|(n, _)| {
                        if seen.contains(n) {
                            false
                        } else {
                            seen.push(n);
                            true
                        }
                    }),
                )
            }),
    ]
}

/// A definitions table for [`MU_NAMES`]: every name defined, bodies
/// drawn from the canonical μ-shape strategy (so definitions reference
/// each other and themselves — mutual recursion included).
fn mu_env() -> impl Strategy<Value = tfd_core::ShapeEnv> {
    let body = prop::collection::vec((prop::sample::select(MU_FIELDS), mu_shape()), 0..3);
    prop::collection::vec(body, MU_NAMES.len()..MU_NAMES.len() + 1).prop_map(|bodies| {
        tfd_core::ShapeEnv::from_defs(MU_NAMES.iter().zip(bodies).map(|(name, fields)| {
            let mut seen: Vec<&str> = Vec::new();
            (
                (*name).into(),
                tfd_core::RecordShape::new(
                    *name,
                    fields.into_iter().filter(|(n, _)| {
                        if seen.contains(n) {
                            false
                        } else {
                            seen.push(n);
                            true
                        }
                    }),
                ),
            )
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `csh(σ, σ) == σ` over generated μ-shapes, env-aware: the
    /// idempotence law survives the μ-extension, and a self-join never
    /// widens the definitions table.
    #[test]
    fn mu_csh_is_idempotent(env in mu_env(), s in mu_shape()) {
        let mut e = env.clone();
        let joined = tfd_core::csh_in(s.clone(), s.clone(), &mut e);
        prop_assert_eq!(&joined, &s, "csh(σ, σ) must equal σ");
        prop_assert_eq!(&e, &env, "a self-join must not widen the env");
    }

    /// `⊑` stays reflexive on μ-shapes (coinductive unfolding included).
    #[test]
    fn mu_preference_is_reflexive(env in mu_env(), s in mu_shape()) {
        prop_assert!(
            tfd_core::is_preferred_in(&s, &s, Some(&env)),
            "{} not ⊑ itself under its env", s
        );
    }

    /// Lemma 1's upper-bound half over μ-shapes: both arguments are
    /// preferred over their env-aware join.
    #[test]
    fn mu_csh_is_an_upper_bound(env in mu_env(), a in mu_shape(), b in mu_shape()) {
        let mut e = env.clone();
        let joined = tfd_core::csh_in(a.clone(), b.clone(), &mut e);
        prop_assert!(
            tfd_core::is_preferred_in(&a, &joined, Some(&e)),
            "{} ⋢ csh = {}", a, joined
        );
        prop_assert!(
            tfd_core::is_preferred_in(&b, &joined, Some(&e)),
            "{} ⋢ csh = {}", b, joined
        );
    }

    /// The env-aware join commutes on the nose, like the plain one.
    #[test]
    fn mu_csh_commutes(env in mu_env(), a in mu_shape(), b in mu_shape()) {
        let mut e1 = env.clone();
        let mut e2 = env.clone();
        prop_assert_eq!(
            tfd_core::csh_in(a.clone(), b.clone(), &mut e1),
            tfd_core::csh_in(b, a, &mut e2),
            "csh_in not commutative"
        );
        prop_assert_eq!(&e1, &e2, "env widening must be argument-order independent");
    }
}

#[test]
fn figure1_hasse_diagram_edges() {
    // The explicit edges of Fig. 1, bottom part (non-nullable shapes) and
    // top part (nullable shapes), checked one by one.
    use Shape::*;
    let record = Shape::record("P", [("x", Int)]);
    let edges: Vec<(Shape, Shape)> = vec![
        (Bottom, Int),
        (Bottom, Bool),
        (Bottom, String),
        (Bottom, record.clone()),
        (Int, Float),
        (Bottom, Null),
        (Null, Int.ceil()),
        (Null, Float.ceil()),
        (Null, Bool.ceil()),
        (Null, String.ceil()),
        (Null, record.clone().ceil()),
        (Null, Shape::list(Int)),
        (Int, Int.ceil()),
        (Float, Float.ceil()),
        (Bool, Bool.ceil()),
        (String, String.ceil()),
        (record.clone(), record.clone().ceil()),
        (Int.ceil(), Float.ceil()),
        (Int.ceil(), Shape::any()),
        (Shape::list(Int), Shape::any()),
        (String.ceil(), Shape::any()),
    ];
    for (lo, hi) in &edges {
        assert!(is_preferred(lo, hi), "Fig. 1 edge {lo} ⊑ {hi} missing");
    }
    // And some non-edges that the diagram implies:
    let non_edges: Vec<(Shape, Shape)> = vec![
        (Float, Int),
        (String, Int),
        (Bool, Int),
        (Int.ceil(), Int),
        (Shape::any(), Int.ceil()),
        (Shape::list(Int), Int.ceil()),
        (record.clone(), String),
        (Null, Int),
        (Null, record),
    ];
    for (a, b) in &non_edges {
        assert!(!is_preferred(a, b), "unexpected edge {a} ⊑ {b}");
    }
}
