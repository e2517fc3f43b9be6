//! `body_name()` is interned once and cached. This suite runs in its own
//! process, so nothing else interns into the process-default arena
//! between the two readings of its stats.

use tfd_value::{body_name, Interner, BODY_NAME};

#[test]
fn body_name_is_cached_in_the_default_arena() {
    let first = body_name();
    let symbols = Interner::global().stats().symbols;
    let second = body_name();
    assert_eq!(first, second);
    assert!(std::ptr::eq(first.as_str(), second.as_str()));
    assert_eq!(first.as_str(), BODY_NAME);
    assert_eq!(first.arena_id(), Interner::global().id());
    assert_eq!(Interner::global().stats().symbols, symbols);
}
