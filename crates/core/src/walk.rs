//! The σ walk: whether `csh(σ, S(d))` is structurally σ, decided from
//! `d`'s events without building `d` or `S(d)`.
//!
//! This is the single definition of the fold's no-widen step (see
//! [`crate::stream`]). [`Walk`] follows σ alongside a record's
//! [events](tfd_value::visit::Visitor), top down, with one frame per
//! open record or collection, and declines at the first event σ might
//! not absorb. A built value replays its events into it
//! ([`InferAccumulator::covers`](crate::InferAccumulator::covers)); the
//! JSON front-end sends them straight from its parser.
//!
//! Each accepted case mirrors the `csh` rule that fires (see `csh.rs`);
//! anything else declines. The walk needs that no record in σ repeats a
//! field name. What a whole collection decides — how many items it held,
//! and so whether a heterogeneous collection inside it meets σ only
//! after a join with its siblings — is settled when the collection ends.

use crate::infer::{leaf_shape, InferOptions};
use crate::multiplicity::Multiplicity;
use crate::shape::RecordShape;
use crate::tags::{tag_of, Tag};
use crate::Shape;
use tfd_value::visit::{Leaf, Visitor};
use tfd_value::Name;

/// Cases a collection may have for the walk to count its items.
const MAX_CASES: usize = 16;

/// The stacks a walk works on, kept between walks so a steady-state
/// walk allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stacks {
    frames: Vec<Frame<'static>>,
    matched: Vec<usize>,
}

/// One open record or collection of the record being walked, with the
/// part of σ it must fit.
#[derive(Debug, Clone)]
enum Frame<'s> {
    /// A record, joined by (recd) with `r`.
    Record {
        r: &'s RecordShape,
        /// Fields seen so far.
        seen: usize,
        /// Where the next field's lookup scan starts.
        next: usize,
        /// The highest σ position matched so far.
        highest: Option<usize>,
        /// Scan steps left before the walk gives up on this record.
        budget: usize,
        /// Non-nullable σ fields matched.
        required: usize,
        /// Where this record's matched σ positions start in
        /// [`Walk::matched`].
        base: usize,
        single: bool,
    },
    /// A collection, joined by (list) with `[element]`.
    List {
        element: &'s Shape,
        items: usize,
        /// The tag of the first non-null item, under §6.4.
        tag: Option<Tag>,
        single: bool,
    },
    /// A collection merged (§6.4) with `cases`.
    Cases {
        cases: &'s [(Shape, Multiplicity)],
        items: usize,
        /// Items per case.
        hits: [u32; MAX_CASES],
        single: bool,
    },
}

impl Frame<'_> {
    /// `single`, common to every frame: a heterogeneous collection below
    /// this frame needs each collection from it up to hold at most one
    /// item. More items would make that collection meet σ only as the
    /// join of its items, and the join of two plain collections merges
    /// their elements, not their cases, which can leave the case merge
    /// with a new case.
    fn single(&mut self) -> &mut bool {
        match self {
            Frame::Record { single, .. }
            | Frame::List { single, .. }
            | Frame::Cases { single, .. } => single,
        }
    }
}

/// What a value about to start looks like, enough to find its case in
/// a heterogeneous collection.
enum Probe<'e> {
    Null,
    Record(&'e str),
    Collection,
    Leaf(&'e Shape),
}

impl Probe<'_> {
    /// Whether `s` has this value's tag.
    fn tags(&self, s: &Shape) -> bool {
        match (self, tag_of(s)) {
            (Probe::Null, _) => false,
            (Probe::Record(name), Tag::Name(n)) => spells(n, name),
            (Probe::Record(_), _) => false,
            (Probe::Collection, t) => t == Tag::Collection,
            (Probe::Leaf(leaf), t) => tag_of(leaf) == t,
        }
    }
}

/// Whether `name` is spelled `s` (interned spellings of one arena are
/// one string, so the pointer check settles most hits).
fn spells(name: Name, s: &str) -> bool {
    let n = name.as_str();
    n.len() == s.len() && (std::ptr::eq(n.as_ptr(), s.as_ptr()) || n == s)
}

/// A walk of one record against σ. Feed it the record's events, then
/// [`Walk::end`] says whether `csh(σ, S(d))` is σ.
#[derive(Debug)]
pub(crate) struct Walk<'s, 'b> {
    o: &'s InferOptions,
    frames: Vec<Frame<'s>>,
    /// The σ positions each open record matched, innermost last.
    stacks: &'b mut Stacks,
    /// The shape the next value must fit when a key (or nothing yet, for
    /// the root) precedes it.
    pending: Option<&'s Shape>,
    /// Every event so far was one σ absorbs.
    fits: bool,
}

/// An emptied `frames`, keeping its allocation, to be kept for a walk
/// over another σ. (Collecting an empty vector into one of another
/// lifetime reuses its buffer.)
#[allow(clippy::unnecessary_filter_map)] // the map changes the lifetime
fn recycle(mut frames: Vec<Frame<'_>>) -> Vec<Frame<'static>> {
    frames.clear();
    frames.into_iter().filter_map(|_| None).collect()
}

impl<'s, 'b> Walk<'s, 'b> {
    /// A walk of one record against `sigma`, working on `stacks`.
    pub(crate) fn new(sigma: &'s Shape, o: &'s InferOptions, stacks: &'b mut Stacks) -> Self {
        Walk {
            o,
            frames: std::mem::take(&mut stacks.frames),
            stacks,
            pending: Some(sigma),
            fits: true,
        }
    }

    /// Whether the walked record leaves σ unchanged; the stacks go back
    /// empty.
    pub(crate) fn end(self) -> bool {
        let fits = self.fits && self.pending.is_none() && self.frames.is_empty();
        self.stacks.matched.clear();
        self.stacks.frames = recycle(self.frames);
        fits
    }

    #[inline]
    fn step(&mut self, event: impl FnOnce(&mut Self) -> Option<()>) -> bool {
        self.fits = self.fits && event(self).is_some();
        self.fits
    }

    /// The shape the value starting now must fit, once the frame holding
    /// it has counted it. `None` declines.
    #[inline]
    fn slot(&mut self, probe: Probe<'_>) -> Option<&'s Shape> {
        if let Some(sigma) = self.pending.take() {
            return Some(sigma);
        }
        match self.frames.last_mut()? {
            Frame::Record { .. } => None,
            Frame::List { element, items, .. } => {
                *items += 1;
                Some(element)
            }
            Frame::Cases {
                cases, items, hits, ..
            } => {
                // The case of the item's tag (cases have distinct tags).
                *items += 1;
                let k = cases.iter().position(|(s, _)| probe.tags(s))?;
                hits[k] = hits[k].saturating_add(1);
                Some(&cases[k].0)
            }
        }
    }

    /// Under §6.4, a homogeneous collection's non-null items must share
    /// one tag, or `S(items)` would be a case list.
    #[inline]
    fn tag_item(&mut self, item: impl FnOnce() -> Tag) -> Option<()> {
        if let (true, Some(Frame::List { tag, .. })) =
            (self.o.hetero_collections, self.frames.last_mut())
        {
            let item = item();
            match tag {
                Some(first) if *first != item => return None,
                Some(_) => {}
                None => *tag = Some(item),
            }
        }
        Some(())
    }

    /// Closes a frame: a frame below a heterogeneous collection passes
    /// that on to the frame holding it.
    #[inline]
    fn close(&mut self, single: bool) -> Option<()> {
        if let (true, Some(top)) = (single, self.frames.last_mut()) {
            *top.single() = true;
        }
        Some(())
    }

    #[inline]
    fn on_leaf(&mut self, leaf: Leaf<'_>) -> Option<()> {
        if leaf == Leaf::Null {
            // (null): ⌈σ⌉ = σ for every σ that is not a σ̂; (eq) for null.
            let sigma = self.slot(Probe::Null)?;
            return matches!(
                sigma,
                Shape::Null
                    | Shape::Nullable(_)
                    | Shape::List(_)
                    | Shape::HeteroList(_)
                    | Shape::Top(_)
            )
            .then_some(());
        }
        let s = leaf_shape(leaf, self.o);
        let sigma = self.slot(Probe::Leaf(&s))?;
        primitive_fits(sigma, &s).then_some(())?;
        self.tag_item(|| tag_of(&s))
    }

    #[inline]
    fn on_record(&mut self, name: &str) -> Option<()> {
        let sigma = self.slot(Probe::Record(name))?;
        // (opt) and (top-incl): the record or label of the name absorbs it.
        let r = match strip_nullable(sigma) {
            Shape::Record(r) if spells(r.name, name) => r,
            Shape::Top(labels) if sorted_by_tag(labels) => {
                match labels.iter().find(|l| Probe::Record(name).tags(l))? {
                    Shape::Record(r) => r,
                    _ => return None,
                }
            }
            _ => return None,
        };
        self.tag_item(|| Tag::Name(r.name))?;
        self.frames.push(Frame::Record {
            r,
            seen: 0,
            next: 0,
            highest: None,
            budget: 8 * r.fields.len(),
            required: 0,
            base: self.stacks.matched.len(),
            single: false,
        });
        Some(())
    }

    /// The (recd) join keeps `r`'s field order when every field of the
    /// record names a field of `r`. Each key is looked up at its own
    /// index first, then by a scan onward from the previous match; the
    /// scans give up after a few passes over `r`, about what the hash
    /// join they replace costs.
    #[inline]
    fn on_key(&mut self, key: &str) -> Option<()> {
        let Walk {
            frames,
            stacks,
            pending,
            ..
        } = self;
        let matched = &mut stacks.matched;
        let Some(Frame::Record {
            r,
            seen,
            next,
            highest,
            budget,
            required,
            base,
            ..
        }) = frames.last_mut()
        else {
            return None;
        };
        let width = r.fields.len();
        let i = *seen;
        *seen += 1;
        *budget += 8;
        if *seen > width {
            return None;
        }
        let j = if r.fields.get(i).is_some_and(|g| spells(g.name, key)) {
            i
        } else {
            let k = (0..width).find(|k| spells(r.fields[(*next + k) % width].name, key))?;
            if k >= *budget {
                return None;
            }
            *budget -= k;
            (*next + k) % width
        };
        // Matches in rising σ order cannot repeat a σ field; out of
        // order, the key must not repeat an earlier one of the record.
        if highest.is_some_and(|h| j <= h) {
            if i >= *budget || matched[*base..].contains(&j) {
                return None;
            }
            *budget -= i;
        }
        *highest = (*highest).max(Some(j));
        *next = j + 1;
        let g = &r.fields[j].shape;
        *required += usize::from(g.is_non_nullable());
        *pending = Some(g);
        matched.push(j);
        Some(())
    }

    /// A record the join leaves as `r` may lack only fields that are
    /// already nullable (`⌈σ⌉ = σ`).
    #[inline]
    fn on_record_end(&mut self) -> Option<()> {
        let Some(&Frame::Record {
            r,
            seen,
            required,
            base,
            single,
            ..
        }) = self.frames.last()
        else {
            return None;
        };
        let complete = seen == r.fields.len()
            || required
                == r.fields
                    .iter()
                    .filter(|g| g.shape.is_non_nullable())
                    .count();
        complete.then_some(())?;
        self.frames.pop();
        self.stacks.matched.truncate(base);
        self.close(single)
    }

    fn on_list(&mut self) -> Option<()> {
        let sigma = self.slot(Probe::Collection)?;
        let frame = self.list_frame(sigma)?;
        self.tag_item(|| Tag::Collection)?;
        if let (Frame::Cases { .. }, Some(top)) = (&frame, self.frames.last_mut()) {
            *top.single() = true;
        }
        self.frames.push(frame);
        Some(())
    }

    /// The frame a collection opens under `sigma`: (list) over a
    /// homogeneous collection, the §6.4 case merge, through (opt) and
    /// (top-incl).
    fn list_frame(&self, sigma: &'s Shape) -> Option<Frame<'s>> {
        match strip_nullable(sigma) {
            Shape::List(element) => Some(Frame::List {
                element,
                items: 0,
                tag: None,
                single: false,
            }),
            Shape::HeteroList(cases) => (self.o.hetero_collections
                && cases.len() <= MAX_CASES
                && sorted_by_tag(cases.iter().map(|c| &c.0)))
            .then_some(Frame::Cases {
                cases,
                items: 0,
                hits: [0; MAX_CASES],
                single: false,
            }),
            Shape::Top(labels) if sorted_by_tag(labels) => {
                let label = labels.iter().find(|l| tag_of(l) == Tag::Collection)?;
                self.list_frame(label)
            }
            _ => None,
        }
    }

    fn on_list_end(&mut self) -> Option<()> {
        let o = self.o;
        let single = match *self.frames.last()? {
            Frame::List { items, single, .. } => {
                // A lone element the `singleton_collections` rule would
                // keep as a `1` case.
                let lone = o.hetero_collections && o.singleton_collections && items == 1;
                (!(lone || single && items > 1)).then_some(single)?
            }
            Frame::Cases {
                cases,
                items,
                ref hits,
                single,
            } => (!(single && items > 1) && counts_fit(cases, hits, o)).then_some(single)?,
            Frame::Record { .. } => return None,
        };
        self.frames.pop();
        self.close(single)
    }
}

impl Visitor for Walk<'_, '_> {
    #[inline]
    fn record_start(&mut self, name: &str) -> bool {
        self.step(|w| w.on_record(name))
    }
    #[inline]
    fn key(&mut self, key: &str) -> bool {
        self.step(|w| w.on_key(key))
    }
    #[inline]
    fn record_end(&mut self) -> bool {
        self.step(Walk::on_record_end)
    }
    #[inline]
    fn list_start(&mut self) -> bool {
        self.step(Walk::on_list)
    }
    #[inline]
    fn list_end(&mut self) -> bool {
        self.step(Walk::on_list_end)
    }
    #[inline]
    fn leaf(&mut self, leaf: Leaf<'_>) -> bool {
        self.step(|w| w.on_leaf(leaf))
    }
}

/// The §6.4 merge gives back `cases` when every case's multiplicity
/// already admits how often the items hit it (`ψ ⊔ ψ′ = ψ`, absence
/// included).
fn counts_fit(cases: &[(Shape, Multiplicity)], hits: &[u32], o: &InferOptions) -> bool {
    // How `S(items)` states each count: one tag makes a plain collection
    // (`*`), or under `singleton_collections` a lone element's `1`.
    let tags = hits.iter().filter(|&&n| n > 0).count();
    cases.iter().zip(hits).all(|(&(_, m), &n)| {
        let seen = match (tags, n) {
            (_, 0) => Multiplicity::ZeroOrOne,
            (1, 1) if o.singleton_collections => Multiplicity::One,
            (1, _) => Multiplicity::Many,
            (_, n) => Multiplicity::of_count(n as usize),
        };
        m.join(seen) == m
    })
}

/// (opt): `⌈csh(σ̂, S(d))⌉ = ⌈σ̂⌉` when σ̂ absorbs `S(d)`.
fn strip_nullable(sigma: &Shape) -> &Shape {
    match sigma {
        Shape::Nullable(inner) => inner,
        sigma => sigma,
    }
}

/// Whether `shapes` are in the strict tag order the top and case merges
/// leave them in (a merge re-sorts, so only sorted input comes back
/// unchanged).
fn sorted_by_tag<'s>(shapes: impl IntoIterator<Item = &'s Shape>) -> bool {
    let mut prev = None;
    shapes.into_iter().all(|s| {
        let tag = tag_of(s);
        let rising = prev.as_ref().is_none_or(|p| *p < tag);
        prev = Some(tag);
        rising
    })
}

/// Whether `csh(sigma, s)` is `sigma` for a primitive `s`: (eq), (num)
/// and the §6.2 bit/date rules, with `sigma` on the wide side, through
/// (opt) and (top-incl).
fn primitive_fits(sigma: &Shape, s: &Shape) -> bool {
    use Shape::{Bit, Bool, Date, Float, Int, Nullable, String, Top};
    match (sigma, s) {
        (Nullable(inner), s) => primitive_fits(inner, s),
        (Top(labels), s) => {
            let tag = tag_of(s);
            sorted_by_tag(labels)
                && labels
                    .iter()
                    .find(|l| tag_of(l) == tag)
                    .is_some_and(|l| primitive_fits(l, s))
        }
        _ => matches!(
            (sigma, s),
            (Int, Int | Bit)
                | (Float, Int | Float | Bit)
                | (Bool, Bool | Bit)
                | (Bit, Bit)
                | (String, String | Date)
                | (Date, Date)
        ),
    }
}
