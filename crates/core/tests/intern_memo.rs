//! `TaskNames::intern` answers a repeat of the thread's last name from a
//! per-thread memo keyed by the table's id and the name's bytes. The memo
//! must never answer for the wrong table or the wrong bytes — each test
//! interns such near misses back to back — must fall back for names
//! longer than it holds, and must not touch the allocator on a hit or on
//! a miss of a known name.
//!
//! The allocator count is per thread, so the tests of this file may run
//! side by side.

use lg_core::{LookingGlass, TaskNames};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

#[test]
fn instances_interning_the_same_names_in_alternation_keep_their_own_ids() {
    let a = LookingGlass::builder().build();
    let b = LookingGlass::builder().build();
    // Different first names, so the shared names get different ids.
    let a0 = a.intern("only-in-a");
    let (b0, b1) = (b.intern("only-in-b"), b.intern("also-only-in-b"));
    for _ in 0..3 {
        for name in ["flood", "loose", "scoped"] {
            let (ia, ib) = (a.intern(name), b.intern(name));
            assert_eq!(a.names().lookup(name), Some(ia));
            assert_eq!(b.names().lookup(name), Some(ib));
            assert_ne!(ia, ib, "{name}: one table's id answered for the other");
        }
    }
    assert_eq!(a.intern("only-in-a"), a0);
    assert_eq!(
        (b.intern("only-in-b"), b.intern("also-only-in-b")),
        (b0, b1)
    );
    // A clone of a table shares its ids, memo included.
    let shared = a.names().clone();
    assert_eq!(shared.intern("flood"), a.intern("flood"));
    assert_eq!(shared.len(), a.names().len());
}

#[test]
fn a_reused_buffer_resolves_to_its_current_content() {
    let names = TaskNames::new();
    let mut buf = String::with_capacity(32);
    for round in 0..3 {
        for k in 0..10 {
            buf.clear();
            buf.push_str("task-");
            buf.push_str(&k.to_string());
            let id = names.intern(&buf);
            assert_eq!(
                names.resolve(id).as_deref(),
                Some(buf.as_str()),
                "round {round}"
            );
        }
    }
    assert_eq!(names.len(), 10);
    // Same length, one byte apart — in the tail, the first word, the
    // middle word.
    for (a, b) in [
        ("abcd", "abce"),
        ("abcdefgh-tail", "abcdefgX-tail"),
        ("0123456789abcdef-xyz", "01234567X9abcdef-xyz"),
    ] {
        let (x, y) = (names.intern(a), names.intern(b));
        assert_ne!(x, y, "{a} / {b}");
        assert_eq!(names.intern(a), x);
        assert_eq!(names.resolve(y).as_deref(), Some(b));
    }
    // A trailing NUL is a different name.
    assert_ne!(names.intern("nul"), names.intern("nul\0"));
}

#[test]
fn names_longer_than_the_memo_holds_resolve_correctly() {
    let names = TaskNames::new();
    let long = "a-task-name-well-past-the-inline-buffer-".repeat(3);
    let longer = format!("{long}!");
    let (l, m) = (names.intern(&long), names.intern(&longer));
    assert_ne!(l, m);
    for _ in 0..3 {
        assert_eq!(names.intern(&long), l);
        assert_eq!(names.intern(&longer), m);
    }
    assert_eq!(names.resolve(m).as_deref(), Some(longer.as_str()));
    // Prefixes of a long name are names of their own.
    let prefix = &long[..20];
    assert_ne!(names.intern(prefix), l);
    assert_eq!(names.len(), 3);
}

#[test]
fn repeated_names_make_no_allocator_calls() {
    let tables: Vec<TaskNames> = (0..4).map(|_| TaskNames::new()).collect();
    let words = ["flood", "loose", "scoped", "dag-node"];
    for t in &tables {
        for w in words {
            t.intern(w);
        }
    }
    // Hits: one name again and again, as a spawn loop interns it.
    let before = allocs();
    for _ in 0..1_000 {
        std::hint::black_box(tables[0].intern(std::hint::black_box("loose")));
    }
    assert_eq!(allocs() - before, 0, "a memo hit allocated");
    // Misses of known names: every call a new (table, name) pair.
    let before = allocs();
    for _ in 0..100 {
        for t in &tables {
            for w in words {
                std::hint::black_box(t.intern(w));
            }
        }
    }
    assert_eq!(allocs() - before, 0, "a memo miss allocated");
}
