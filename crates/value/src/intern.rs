//! Scoped name interning — the allocation-free representation of record
//! and field names, with per-corpus memory reclamation.
//!
//! Structured-data corpora repeat the same handful of names millions of
//! times: every CSV row re-states its column names, every JSON object in
//! an array re-states its keys, every XML element its tag. Materializing
//! an owned `String` per occurrence made names the dominant allocation of
//! the parse→infer hot path. [`Name`] replaces them with a small `Copy`
//! symbol backed by an **arena** — an [`Interner`] that owns its string
//! storage:
//!
//! * **O(1) equality and hashing** — interning canonicalizes spelling
//!   within an arena, so two same-arena `Name`s are equal iff they point
//!   at the same interned bytes. Every `Name` also carries a cached
//!   content hash, so hashing is O(1) *and* stable across arenas and
//!   process runs, and a cross-arena comparison rejects unequal
//!   spellings in O(1) before falling back to a content check.
//! * **Zero-cost resolution** — a `Name` carries a direct reference to
//!   its interned spelling, so [`Name::as_str`], [`Deref`] and `Display`
//!   never take a lock.
//! * **Deterministic ordering** — [`Ord`] compares string contents, so
//!   sorted output is stable across runs and across arenas.
//!
//! # Memory model: one arena per corpus
//!
//! Earlier revisions used a single process-global interner that leaked
//! every distinct spelling for the process lifetime (`Box::leak` by
//! design). That is fine for one-shot inference over a finite schema
//! vocabulary — the paper's setting — but it is an unbounded memory leak
//! for a long-running service ingesting corpora whose keys are *data*
//! (UUID-keyed JSON objects, per-request CSV headers): the vocabulary
//! never stops growing and nothing is ever reclaimed.
//!
//! The arena model fixes this:
//!
//! * [`Interner::new`] creates a **scoped arena**. Intern a corpus's
//!   names into it, fold the corpus, migrate whatever survives (the
//!   schema-sized shape) into a longer-lived arena with
//!   [`Name::reintern`], and drop the handle — every spelling the corpus
//!   introduced is freed. Cloning an `Interner` shares the arena
//!   (parallel shard workers clone one corpus handle).
//! * [`Interner::global`] is the **process-default arena**: never
//!   dropped, so its names really are `'static`. [`Name::new`] interns
//!   there, which keeps macros, doctests and one-shot CLI runs
//!   zero-setup. Long-lived shapes (the CLI's cross-file fold) live
//!   here too, re-interned from their corpus arenas.
//!
//! # Lifetime discipline
//!
//! A `Name` borrows its spelling from the owning arena's storage. The
//! type is `Copy` and carries no lifetime, so the compiler cannot
//! enforce the obvious rule: **a `Name` must not be resolved after its
//! arena is dropped** (names from the process-default arena are exempt —
//! that arena never drops). Resolving a dangling `Name` is
//! use-after-free. In debug builds, [`Name::as_str`] asserts that the
//! owning arena is still alive, which makes a missed [`Name::reintern`]
//! fail loudly in tests rather than silently reading freed memory.
//! Equality, hashing and ordering between names from *different* live
//! arenas are well-defined (content semantics) — re-interning before a
//! cross-corpus fold is a memory optimization, not a correctness
//! requirement.
//!
//! [`stats`] reports an honest, capacity-based estimate of retained
//! bytes per live arena and process-wide (see [`InternStats`]).
//!
//! # Parsing through a [`NameMemo`]
//!
//! An arena is shared: every shard worker of one ingest run interns
//! into the same table, and [`Interner::intern`] takes its lock for
//! every spelling. The JSON and XML parsers therefore put a
//! [`NameMemo`] in front of the arena for the length of one parse call.
//! A repeated key (the common case, since records re-state their keys)
//! is answered from the memo's private table with one hash and one byte
//! comparison, and takes no lock. Only a spelling the memo has not seen
//! reaches the arena. The memo hands out the arena's own [`Name`]s, so
//! the names, and the arena's [`Interner::stats`], are exactly what
//! interning every spelling directly would give.

// The one unsafe block in the workspace: lifetime-laundering an arena's
// `Box<str>` contents to `&'static str` (see the SAFETY comment in
// `Interner::intern`). The crate otherwise denies unsafe code.
#![allow(unsafe_code)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};

/// Arena id of the process-default arena ([`Interner::global`]).
const GLOBAL_ARENA: u32 = 0;

/// FNV-1a over a spelling — the cached content hash every [`Name`]
/// carries. Deterministic across arenas, threads and process runs.
fn content_hash(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in s.as_bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One arena's table: the canonical spellings it owns.
#[derive(Default)]
struct Table {
    /// Spelling → cached content hash. Keys borrow from `strings`.
    map: HashMap<&'static str, u32>,
    /// Owned storage. A `Box<str>`'s heap bytes are stable under moves
    /// of the box, so `map` keys and issued `Name`s stay valid while the
    /// arena lives.
    strings: Vec<Box<str>>,
    /// Sum of spelling lengths (the figure the old interner reported as
    /// its whole footprint).
    spelling_bytes: usize,
}

struct ArenaInner {
    id: u32,
    table: RwLock<Table>,
}

impl Drop for ArenaInner {
    fn drop(&mut self) {
        // Deregister, so process-wide stats stop counting this arena.
        // (The strings themselves are freed by the field drops below.)
        if let Some(reg) = registry_if_init() {
            reg.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&self.id);
        }
    }
}

type Registry = Mutex<HashMap<u32, Weak<ArenaInner>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn registry_if_init() -> Option<&'static Registry> {
    static INIT: OnceLock<()> = OnceLock::new();
    let _ = INIT.set(());
    Some(registry())
}

/// Monotonic arena id allocation — ids are never reused, so a dangling
/// arena id can never be mistaken for a live arena in debug checks.
fn next_arena_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(GLOBAL_ARENA + 1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A handle to a name arena: owns (a share of) the string storage every
/// [`Name`] interned through it points into.
///
/// Cloning is cheap (`Arc`) and shares the arena — the parallel drivers
/// clone one corpus handle into every shard worker. Memory is reclaimed
/// when the **last** handle drops.
///
/// ```
/// use tfd_value::{intern, Interner};
/// let before = intern::stats();
/// {
///     let corpus = Interner::new();
///     let n = corpus.intern("a-corpus-scoped-spelling");
///     assert_eq!(n, "a-corpus-scoped-spelling");
///     assert!(intern::stats().retained_bytes > before.retained_bytes);
/// } // ← the arena drops here and its spellings are freed
/// assert_eq!(intern::stats().retained_bytes, before.retained_bytes);
/// ```
#[derive(Clone)]
pub struct Interner {
    inner: Arc<ArenaInner>,
}

impl Interner {
    /// Creates a fresh scoped arena.
    pub fn new() -> Interner {
        let inner = Arc::new(ArenaInner {
            id: next_arena_id(),
            table: RwLock::new(Table::default()),
        });
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        reg.retain(|_, w| w.strong_count() > 0);
        reg.insert(inner.id, Arc::downgrade(&inner));
        Interner { inner }
    }

    /// The process-default arena: never dropped, so its names are truly
    /// `'static`. [`Name::new`] interns here — the zero-setup path for
    /// macros, doctests and one-shot runs, and the home of long-lived
    /// shapes that outlive any one corpus.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let inner = Arc::new(ArenaInner {
                id: GLOBAL_ARENA,
                table: RwLock::new(Table::default()),
            });
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(GLOBAL_ARENA, Arc::downgrade(&inner));
            Interner { inner }
        })
    }

    /// This arena's id (0 is the process-default arena).
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// Interns a spelling into this arena, returning its canonical
    /// symbol. Takes a read lock on the fast path and a write lock only
    /// for never-before-seen spellings. A caller interning many
    /// repeated spellings from one thread (a parser) goes through a
    /// [`NameMemo`] instead, whose hits take no lock at all.
    pub fn intern(&self, s: impl AsRef<str>) -> Name {
        let s = s.as_ref();
        let arena = self.inner.id;
        if let Some((&spelling, &chash)) = self
            .inner
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .get_key_value(s)
        {
            return Name {
                s: spelling,
                chash,
                arena,
            };
        }
        let mut t = self
            .inner
            .table
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((&spelling, &chash)) = t.map.get_key_value(s) {
            return Name {
                s: spelling,
                chash,
                arena,
            };
        }
        let chash = content_hash(s);
        let boxed: Box<str> = Box::from(s);
        // SAFETY: the heap bytes behind `boxed` are stable under moves of
        // the box and live exactly as long as the arena (`strings` is
        // append-only and dropped with `ArenaInner`). The `'static` is a
        // promise the *caller* keeps by not resolving a `Name` after its
        // arena drops — see the module docs' lifetime discipline; the
        // process-default arena never drops, so its names really are
        // `'static`.
        let spelling: &'static str = unsafe { &*std::ptr::from_ref::<str>(&*boxed) };
        t.strings.push(boxed);
        t.spelling_bytes += s.len();
        t.map.insert(spelling, chash);
        Name {
            s: spelling,
            chash,
            arena,
        }
    }

    /// Looks a spelling up without interning it. `None` means no name
    /// with this spelling exists in *this arena* — useful to answer
    /// negative lookups without growing the arena.
    pub fn lookup(&self, s: &str) -> Option<Name> {
        self.inner
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .get_key_value(s)
            .map(|(&spelling, &chash)| Name {
                s: spelling,
                chash,
                arena: self.inner.id,
            })
    }

    /// Number of distinct spellings interned into this arena.
    pub fn len(&self) -> usize {
        self.inner
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// `true` if nothing has been interned into this arena.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `name` was interned through this arena.
    pub fn owns(&self, name: Name) -> bool {
        name.arena == self.inner.id
    }

    /// A point-in-time snapshot of *this arena's* footprint (honest,
    /// capacity-based — see [`InternStats::retained_bytes`]).
    pub fn stats(&self) -> InternStats {
        let t = self
            .inner
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        InternStats {
            symbols: t.map.len(),
            spelling_bytes: t.spelling_bytes,
            retained_bytes: estimate_retained(&t),
            arenas: 1,
        }
    }
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("Interner")
            .field("id", &self.inner.id)
            .field("symbols", &s.symbols)
            .field("retained_bytes", &s.retained_bytes)
            .finish()
    }
}

/// Slots in a [`NameMemo`]'s table (a power of two).
const MEMO_SLOTS: usize = 256;
/// Names a [`NameMemo`] stores before it stops admitting: half the
/// slots, so a probe always ends at an empty slot within a few steps.
const MEMO_FILL: usize = MEMO_SLOTS / 2;
/// Lookups a [`NameMemo`] sends straight to the arena before it
/// allocates its table, so a tiny parse never pays for one.
const MEMO_LAZY: usize = 32;

/// A single-threaded memo in front of an [`Interner`], owned by one
/// parse call.
///
/// [`NameMemo::intern`] returns exactly the [`Name`] the arena returns
/// (same spelling pointer, same arena id), so a parse through a memo
/// is indistinguishable from one interning every spelling directly,
/// down to the arena's [`Interner::stats`]. A hit costs one FNV hash
/// (the content hash every `Name` carries) and one byte comparison,
/// and takes no lock. A miss interns into the arena and remembers the
/// result.
///
/// The table is an open-addressing array of 256 slots. It never evicts:
/// once it holds 128 names, further new spellings go to the arena
/// unremembered, so a key vocabulary larger than the table cannot make
/// it thrash. The table is allocated only after the memo has answered
/// its first 32 lookups, so a one-record parse allocates nothing.
///
/// ```
/// use tfd_value::{intern::NameMemo, Interner};
/// let corpus = Interner::new();
/// let mut memo = NameMemo::new(&corpus);
/// for _ in 0..100 {
///     assert_eq!(memo.intern("city").as_str(), corpus.intern("city").as_str());
/// }
/// assert_eq!(corpus.stats().symbols, 1);
/// ```
pub struct NameMemo<'a> {
    interner: &'a Interner,
    /// `None` until [`MEMO_LAZY`] lookups have gone to the arena.
    slots: Option<Box<[Option<Name>]>>,
    /// Lookups before the table exists, then names stored in it.
    count: usize,
}

impl<'a> NameMemo<'a> {
    /// An empty memo over `interner`.
    pub fn new(interner: &'a Interner) -> NameMemo<'a> {
        NameMemo {
            interner,
            slots: None,
            count: 0,
        }
    }

    /// [`Interner::intern`], answered from the memo when the spelling
    /// was seen before in this parse.
    pub fn intern(&mut self, s: &str) -> Name {
        let Some(slots) = self.slots.as_deref_mut() else {
            self.count += 1;
            if self.count == MEMO_LAZY {
                self.slots = Some(vec![None; MEMO_SLOTS].into_boxed_slice());
                self.count = 0;
            }
            return self.interner.intern(s);
        };
        let chash = content_hash(s);
        // Fibonacci hashing spreads FNV's weaker low bits over the index.
        let mut i =
            (chash.wrapping_mul(0x9e37_79b9) >> (u32::BITS - MEMO_SLOTS.trailing_zeros())) as usize;
        loop {
            match slots[i] {
                Some(n) if n.chash == chash && n.s == s => return n,
                Some(_) => i = (i + 1) % MEMO_SLOTS,
                None => break,
            }
        }
        let name = self.interner.intern(s);
        if self.count < MEMO_FILL {
            slots[i] = Some(name);
            self.count += 1;
        }
        name
    }
}

/// Capacity-based footprint estimate for one arena: spelling bytes, plus
/// the storage vector's slot capacity, plus the hash table's bucket
/// capacity (entry payload + one control byte per bucket). Allocator
/// rounding of individual string blocks is not modeled.
fn estimate_retained(t: &Table) -> usize {
    t.spelling_bytes
        + t.strings.capacity() * std::mem::size_of::<Box<str>>()
        + t.map.capacity() * (std::mem::size_of::<(&str, u32)>() + 1)
        + std::mem::size_of::<Table>()
}

/// A point-in-time snapshot of interner memory, reported per arena by
/// [`Interner::stats`] and process-wide by [`stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Number of distinct spellings currently interned.
    pub symbols: usize,
    /// Total bytes of interned string data (spelling lengths only — the
    /// figure the old grow-only interner *under*-reported as its whole
    /// footprint).
    pub spelling_bytes: usize,
    /// Honest retained-memory estimate: spelling bytes **plus** table
    /// and storage-vector capacity overhead (see the per-arena formula
    /// in the module source). Still an estimate — per-allocation
    /// rounding by the system allocator is not modeled — but it tracks
    /// real occupancy instead of assuming tables are free.
    pub retained_bytes: usize,
    /// Number of live arenas contributing to this snapshot (1 for a
    /// per-arena snapshot; the process-default arena counts once it has
    /// been touched).
    pub arenas: usize,
}

impl InternStats {
    /// Component-wise sum (process totals are sums over live arenas).
    fn absorb(&mut self, other: InternStats) {
        self.symbols += other.symbols;
        self.spelling_bytes += other.spelling_bytes;
        self.retained_bytes += other.retained_bytes;
        self.arenas += other.arenas;
    }
}

/// Process-wide interner snapshot: the sum over all **live** arenas.
/// Unlike the old grow-only interner, these figures go back *down* when
/// a corpus arena is dropped — per-corpus memory is reclaimed, and only
/// the process-default arena's (schema-sized) vocabulary persists.
///
/// ```
/// use tfd_value::{intern, Interner, Name};
/// let before = intern::stats();
/// Name::new("a-definitely-fresh-spelling");
/// let after = intern::stats();
/// assert!(after.symbols > before.symbols);
/// assert!(after.retained_bytes >= before.retained_bytes + "a-definitely-fresh-spelling".len());
///
/// // A dropped corpus arena takes its whole vocabulary with it.
/// let corpus = Interner::new();
/// for i in 0..512 {
///     corpus.intern(format!("corpus-name-{i}"));
/// }
/// assert!(intern::stats().symbols >= after.symbols + 512);
/// drop(corpus);
/// let dropped = intern::stats();
/// assert_eq!((dropped.symbols, dropped.retained_bytes), (after.symbols, after.retained_bytes));
/// ```
pub fn stats() -> InternStats {
    let arenas: Vec<Arc<ArenaInner>> = registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
        .filter_map(Weak::upgrade)
        .collect();
    let mut total = InternStats::default();
    for a in arenas {
        let t = a.table.read().unwrap_or_else(PoisonError::into_inner);
        total.absorb(InternStats {
            symbols: t.map.len(),
            spelling_bytes: t.spelling_bytes,
            retained_bytes: estimate_retained(&t),
            arenas: 1,
        });
    }
    total
}

/// Whether the arena with id `arena_id` is still alive — what a test
/// asserts about the arenas *it* created, instead of comparing
/// process-wide [`stats`] that concurrent work also moves.
///
/// ```
/// use tfd_value::{intern, Interner};
/// let corpus = Interner::new();
/// let id = corpus.id();
/// assert!(intern::is_live(id));
/// drop(corpus);
/// assert!(!intern::is_live(id));
/// ```
pub fn is_live(arena_id: u32) -> bool {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&arena_id)
        .is_some_and(|w| w.strong_count() > 0)
}

/// An interned record/field name: a small `Copy` symbol with O(1)
/// equality and hashing, content ordering, and lock-free resolution.
///
/// ```
/// use tfd_value::Name;
/// let a = Name::new("temperature");
/// let b = Name::new(String::from("temperature"));
/// assert_eq!(a, b);                 // pointer equality after interning
/// assert_eq!(a.as_str(), "temperature");
/// assert_eq!(a, "temperature");     // compares against plain strings too
/// assert!(a < Name::new("wind"));   // ordered by contents
/// ```
///
/// Names interned through different arenas compare by content (the
/// cached hash keeps the unequal case O(1)):
///
/// ```
/// use tfd_value::{Interner, Name};
/// let corpus = Interner::new();
/// assert_eq!(corpus.intern("city"), Name::new("city"));
/// assert_ne!(corpus.intern("city"), Name::new("country"));
/// ```
#[derive(Clone, Copy)]
pub struct Name {
    /// The interned spelling, borrowed from the owning arena's storage.
    /// Truly `'static` only for the process-default arena — see the
    /// module docs' lifetime discipline.
    s: &'static str,
    /// Cached FNV-1a content hash: O(1) hashing, stable across arenas
    /// and process runs.
    chash: u32,
    /// Owning arena id ([`GLOBAL_ARENA`] for the process-default arena).
    arena: u32,
}

impl Name {
    /// Interns a spelling into the process-default arena, returning its
    /// canonical symbol. For corpus-scoped interning use
    /// [`Interner::intern`].
    pub fn new(s: impl AsRef<str>) -> Name {
        Interner::global().intern(s)
    }

    /// Looks a spelling up in the process-default arena without
    /// interning it. `None` means no name with this spelling exists in
    /// the default arena (corpus arenas are not consulted).
    pub fn lookup(s: &str) -> Option<Name> {
        Interner::global().lookup(s)
    }

    /// The interned spelling. Never locks.
    ///
    /// The returned reference is borrowed from the owning arena; it is
    /// genuinely `'static` only for names from the process-default
    /// arena. Resolving a name whose scoped arena has been dropped is
    /// use-after-free — debug builds assert the arena is still alive.
    pub fn as_str(self) -> &'static str {
        self.debug_assert_arena_live();
        self.s
    }

    /// Migrates this name into `interner`, returning the equivalent
    /// symbol there (a no-op when the name already lives in that arena).
    /// This is how schema-sized survivors (a folded shape) outlive the
    /// corpus arena they were parsed in.
    pub fn reintern(self, interner: &Interner) -> Name {
        if self.arena == interner.inner.id {
            self
        } else {
            interner.intern(self.s)
        }
    }

    /// The owning arena's id (0 is the process-default arena).
    pub fn arena_id(self) -> u32 {
        self.arena
    }

    /// Number of distinct names in the process-default arena
    /// (diagnostics/tests).
    pub fn interned_count() -> usize {
        Interner::global().len()
    }

    /// Debug-build check that the owning arena is still registered —
    /// catching resolution of a `Name` that outlived its corpus arena
    /// (a missed [`Name::reintern`]) as a loud panic instead of a silent
    /// use-after-free. Arena ids are never reused, so a stale id cannot
    /// alias a newer arena.
    #[inline]
    fn debug_assert_arena_live(self) {
        #[cfg(debug_assertions)]
        {
            if self.arena != GLOBAL_ARENA {
                let live = registry()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&self.arena)
                    .is_some_and(|w| w.strong_count() > 0);
                debug_assert!(
                    live,
                    "Name resolved after its arena (id {}) was dropped; \
                     reintern names that must outlive their corpus",
                    self.arena
                );
            }
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.debug_assert_arena_live();
        self.s
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.debug_assert_arena_live();
        self.s
    }
}

impl PartialEq for Name {
    /// O(1): same-arena names compare by pointer (interning
    /// canonicalizes); cross-arena names compare by content, with the
    /// cached hash rejecting unequal spellings before any byte is read.
    fn eq(&self, other: &Self) -> bool {
        if self.arena == other.arena {
            std::ptr::eq(self.s, other.s)
        } else {
            self.chash == other.chash && self.s == other.s
        }
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    /// O(1): hashes the cached content hash — consistent with [`Eq`]
    /// across arenas, and stable across process runs.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.chash.hash(state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Content order (deterministic across runs and arenas), with an
    /// identity fast path.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.s, other.s) {
            std::cmp::Ordering::Equal
        } else {
            self.s.cmp(other.s)
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_ref())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_ref(), f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(s)
    }
}

impl From<Cow<'_, str>> for Name {
    fn from(s: Cow<'_, str>) -> Name {
        Name::new(s)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.as_ref().to_owned()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_ref() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_ref()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_ref()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn interning_canonicalizes() {
        let a = Name::new("alpha-test-name");
        let b = Name::new(String::from("alpha-test-name"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn distinct_spellings_differ() {
        assert_ne!(Name::new("left-name"), Name::new("right-name"));
    }

    #[test]
    fn ordering_is_by_content() {
        let mut names = [Name::new("zeta"), Name::new("beta"), Name::new("eta")];
        names.sort();
        let spellings: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
        assert_eq!(spellings, vec!["beta", "eta", "zeta"]);
    }

    #[test]
    fn display_and_debug_roundtrip() {
        let n = Name::new("display-roundtrip");
        assert_eq!(n.to_string(), "display-roundtrip");
        assert_eq!(format!("{n:?}"), "\"display-roundtrip\"");
        assert_eq!(Name::new(n), n);
    }

    #[test]
    fn compares_against_plain_strings() {
        let n = Name::new("plain-compare");
        assert_eq!(n, "plain-compare");
        assert_eq!("plain-compare", n);
        assert_eq!(n, String::from("plain-compare"));
        assert_ne!(n, "other");
    }

    #[test]
    fn deref_exposes_str_methods() {
        let n = Name::new("deref-methods");
        assert_eq!(n.len(), "deref-methods".len());
        assert!(n.starts_with("deref"));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(Name::lookup("never-interned-spelling-xyzzy").is_none());
        let n = Name::new("looked-up-spelling");
        assert_eq!(Name::lookup("looked-up-spelling"), Some(n));
    }

    #[test]
    fn record_equality_stays_order_insensitive_across_name_sources() {
        // Field names entering through different spellings' sources
        // (&str, String, concatenation) intern to the same symbols, and
        // record equality on Value stays order-insensitive.
        use crate::Value;
        let a = Value::record("P", vec![("x", Value::Int(3)), ("y", Value::Int(4))]);
        let b = Value::record(
            String::from("P"),
            vec![
                (format!("{}{}", "y", ""), Value::Int(4)),
                (String::from("x"), Value::Int(3)),
            ],
        );
        assert_eq!(a, b);
        assert_ne!(a, Value::record("P", vec![("x", Value::Int(3))]));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..64).map(|i| format!("concurrent-{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || names.iter().map(Name::new).collect::<Vec<Name>>())
            })
            .collect();
        let results: Vec<Vec<Name>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_thread in &results[1..] {
            assert_eq!(per_thread, &results[0]);
        }
        // All threads resolved each spelling to the same interned pointer.
        for (i, name) in results[0].iter().enumerate() {
            assert!(std::ptr::eq(name.as_str(), Name::new(&names[i]).as_str()));
        }
    }

    #[test]
    fn scoped_arena_reclaims_memory_on_drop() {
        // Only this test's own arena is inspected: process-wide `stats()`
        // also moves with the arenas of tests running beside it (its
        // drop-to-baseline contract is the doctest on `stats`, which runs
        // in a process of its own).
        let corpus = Interner::new();
        let id = corpus.id();
        for i in 0..512 {
            corpus.intern(format!("scoped-reclaim-{i}"));
        }
        assert_eq!(corpus.len(), 512);
        let peak = corpus.stats();
        assert_eq!((peak.symbols, peak.arenas), (512, 1));
        assert!(peak.retained_bytes >= peak.spelling_bytes);
        assert!(is_live(id));
        drop(corpus);
        assert!(!is_live(id));
        // None of the corpus vocabulary leaked into the default arena.
        assert!(Name::lookup("scoped-reclaim-0").is_none());
    }

    #[test]
    fn cross_arena_names_compare_by_content() {
        let a = Interner::new();
        let b = Interner::new();
        let na = a.intern("shared-spelling");
        let nb = b.intern("shared-spelling");
        let ng = Name::new("shared-spelling");
        assert_eq!(na, nb);
        assert_eq!(na, ng);
        assert_eq!(hash_of(&na), hash_of(&nb));
        assert_eq!(hash_of(&na), hash_of(&ng));
        assert_ne!(na, b.intern("other-spelling"));
        assert!(a.owns(na) && !a.owns(nb));
        // Ordering is content order regardless of arena.
        assert!(a.intern("aa") < b.intern("ab"));
        assert_eq!(na.cmp(&nb), std::cmp::Ordering::Equal);
    }

    #[test]
    fn reintern_migrates_between_arenas() {
        let corpus = Interner::new();
        let n = corpus.intern("migrant-name");
        let g = n.reintern(Interner::global());
        assert_eq!(g.arena_id(), Interner::global().id());
        assert_eq!(n, g);
        // Already-home names are returned unchanged.
        let same = g.reintern(Interner::global());
        assert!(std::ptr::eq(g.as_str(), same.as_str()));
        drop(corpus);
        // The migrated symbol survives its birth arena.
        assert_eq!(g.as_str(), "migrant-name");
    }

    #[test]
    fn arena_stats_are_capacity_honest() {
        let corpus = Interner::new();
        let empty = corpus.stats();
        assert_eq!(empty.symbols, 0);
        for i in 0..100 {
            corpus.intern(format!("honest-{i:03}"));
        }
        let s = corpus.stats();
        assert_eq!(s.symbols, 100);
        assert_eq!(s.spelling_bytes, 100 * "honest-000".len());
        // The honest estimate strictly exceeds the spelling-only figure:
        // tables and storage slots are not free.
        assert!(s.retained_bytes > s.spelling_bytes);
        assert_eq!(s.arenas, 1);
    }

    #[test]
    fn shared_handles_hit_one_arena() {
        let a = Interner::new();
        let b = a.clone();
        let n1 = a.intern("shared-handle-name");
        let n2 = b.intern("shared-handle-name");
        assert!(std::ptr::eq(n1.as_str(), n2.as_str()));
        assert_eq!(a.len(), 1);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn memo_hands_out_the_arenas_own_names() {
        // Two FNV-1a collisions: same content hash, hence the same
        // first memo slot, yet distinct names.
        let spellings = [
            "costarring",
            "liquid",
            "declinate",
            "macallums",
            "memo-a",
            "memo-b",
        ];
        assert_eq!(content_hash("costarring"), content_hash("liquid"));
        assert_eq!(content_hash("declinate"), content_hash("macallums"));
        let arena = Interner::new();
        let direct = Interner::new();
        let mut memo = NameMemo::new(&arena);
        for round in 0..50 {
            for s in spellings {
                let n = memo.intern(s);
                assert_eq!(n.as_str(), s, "round {round}");
                assert!(std::ptr::eq(n.as_str(), arena.intern(s).as_str()));
                assert_eq!(n.arena_id(), arena.id());
                direct.intern(s);
            }
        }
        assert_eq!(arena.stats(), direct.stats());
    }

    #[test]
    fn memo_allocates_lazily_and_stops_admitting_when_full() {
        let arena = Interner::new();
        let mut memo = NameMemo::new(&arena);
        for _ in 1..MEMO_LAZY {
            memo.intern("lazy");
        }
        assert!(memo.slots.is_none(), "a short parse allocates no table");
        memo.intern("lazy");
        assert!(memo.slots.is_some());
        let spellings: Vec<String> = (0..4 * MEMO_SLOTS).map(|i| format!("full-{i}")).collect();
        for s in spellings.iter().chain(&spellings) {
            assert!(std::ptr::eq(
                memo.intern(s).as_str(),
                arena.intern(s).as_str()
            ));
        }
        assert_eq!(memo.count, MEMO_FILL);
        assert_eq!(arena.len(), 1 + spellings.len());
    }

    #[test]
    fn concurrent_interning_into_one_shared_arena_agrees() {
        let arena = Interner::new();
        let names: Vec<String> = (0..64).map(|i| format!("arena-conc-{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let arena = arena.clone();
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| arena.intern(n)).collect::<Vec<Name>>()
                })
            })
            .collect();
        let results: Vec<Vec<Name>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_thread in &results[1..] {
            assert_eq!(per_thread, &results[0]);
        }
        // Every thread resolved each spelling to the same arena symbol,
        // and nothing spilled into the default arena.
        assert_eq!(arena.len(), 64);
        for (i, name) in results[0].iter().enumerate() {
            assert!(std::ptr::eq(
                name.as_str(),
                arena.intern(&names[i]).as_str()
            ));
            assert!(Name::lookup(&names[i]).is_none());
        }
    }
}
