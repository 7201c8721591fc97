//! A per-thread pool of node-sized blocks under [`Shared::from_owned`],
//! [`Shared::drop_owned`] and [`Retired::new`]'s deleter.
//!
//! A reclaim pass hands a batch of ≈ 128 blocks to `free()` at once and the
//! next 128 inserts ask `malloc` for them back; the allocator's per-thread
//! cache keeps a handful per size, the rest take its shared-arena path.
//! This keeps them on the thread instead: one LIFO stack per exact
//! [`Layout`] — `align == 8`, `size ≤ 256` in steps of 8; anything else goes
//! straight to the global allocator — capped at [`CLASS_CAP`] blocks each.
//! Blocks are allocated with `Layout::new::<T>()`, so a pooled block and a
//! `Box<T>` are interchangeable in both directions. A block in the pool is
//! *reclaimed*: garbage accounting never sees it ([`pooled_blocks`] counts
//! it apart).
//!
//! Debug builds fill a released block with `0xDD` and check the fill when
//! the block is handed out again, so a store into a node after the scheme
//! freed it fails at the next reuse; a release of a block that is already
//! all `0xDD` is a double retire and fails there. Under `cfg(miri)` or
//! `--cfg smr_asan` the cap is 0: every release reaches the allocator, whose
//! own use-after-free reports keep both stacks.
//!
//! [`Shared::from_owned`]: crate::Shared::from_owned
//! [`Shared::drop_owned`]: crate::Shared::drop_owned
//! [`Retired::new`]: crate::Retired::new

use std::alloc::{dealloc, Layout};
use std::cell::RefCell;

/// Largest pooled block, in bytes (the skip list's tower node is 192).
const MAX_SIZE: usize = 256;
const CLASSES: usize = MAX_SIZE / 8;

/// Blocks kept per size class and thread: twice the default reclaim batch,
/// so one scan's output fits on top of a half-used stack.
#[cfg(not(any(miri, smr_asan)))]
pub const CLASS_CAP: usize = 256;
/// Blocks kept per size class and thread: none under a sanitizer.
#[cfg(any(miri, smr_asan))]
pub const CLASS_CAP: usize = 0;

#[cfg(debug_assertions)]
const POISON: u8 = 0xDD;

struct Pool {
    /// `classes[c]` holds free blocks of `class_layout(c)`.
    classes: [Vec<*mut u8>; CLASSES],
}

fn class_layout(class: usize) -> Layout {
    Layout::from_size_align((class + 1) * 8, 8).expect("a size ≤ 256 with alignment 8")
}

fn class_of(layout: Layout) -> Option<usize> {
    // With `align == 8` a type's size is a multiple of 8; 0 is a ZST.
    (layout.align() == 8 && (8..=MAX_SIZE).contains(&layout.size())).then(|| layout.size() / 8 - 1)
}

impl Drop for Pool {
    fn drop(&mut self) {
        for (class, blocks) in self.classes.iter_mut().enumerate() {
            for block in blocks.drain(..) {
                // SAFETY: a pooled block was allocated with its class's
                // layout and is owned by the pool.
                unsafe { dealloc(block, class_layout(class)) };
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool { classes: [const { Vec::new() }; CLASSES] })
    };
}

#[cfg(debug_assertions)]
unsafe fn is_poisoned(block: *const u8, size: usize) -> bool {
    // SAFETY: the caller passes an allocated block of `size` bytes.
    (0..size).all(|i| unsafe { block.add(i).read() } == POISON)
}

/// Moves `value` into a block from this thread's pool, or a fresh `Box`
/// when the pool has none of its layout. Free it with [`release`] or
/// `Box::from_raw`.
#[inline]
pub fn alloc<T>(value: T) -> *mut T {
    let block = class_of(Layout::new::<T>()).and_then(|class| {
        POOL.try_with(|pool| pool.borrow_mut().classes[class].pop())
            .ok()?
    });
    let Some(block) = block else {
        return Box::into_raw(Box::new(value));
    };
    #[cfg(debug_assertions)]
    // SAFETY: a pooled block has `T`'s size.
    assert!(
        unsafe { is_poisoned(block, size_of::<T>()) },
        "pool: block {block:p} was written to after it was freed (use after retire)"
    );
    let ptr = block.cast::<T>();
    // SAFETY: the block has `T`'s layout and is owned by this call.
    unsafe { ptr.write(value) };
    ptr
}

/// Drops `*ptr` and returns its block to this thread's pool, or to the
/// allocator when the layout is not pooled, the class is full, or the
/// thread's pool is already destroyed.
///
/// # Safety
/// `ptr` must come from [`alloc`] or `Box::into_raw` of a `Box<T>`, be
/// owned by the caller, and not be used again.
#[inline]
pub unsafe fn release<T>(ptr: *mut T) {
    let layout = Layout::new::<T>();
    let Some(class) = class_of(layout) else {
        // SAFETY: per the contract this is a `Box<T>` allocation.
        drop(unsafe { Box::from_raw(ptr) });
        return;
    };
    #[cfg(debug_assertions)]
    // SAFETY: an allocated block of `T`'s size, per the contract.
    assert!(
        !unsafe { is_poisoned(ptr.cast(), layout.size()) },
        "pool: block {ptr:p} released twice (double retire)"
    );
    // The value goes first, outside the borrow: its `Drop` may release
    // other blocks (a node that owns children) into the same stack.
    // SAFETY: the caller owns a valid `T`.
    unsafe { ptr.drop_in_place() };
    #[cfg(debug_assertions)]
    // SAFETY: the block is `layout.size()` bytes and holds no value now.
    unsafe {
        ptr.cast::<u8>().write_bytes(POISON, layout.size());
    }
    let pooled = POOL.try_with(|pool| {
        let blocks = &mut pool.borrow_mut().classes[class];
        let room = blocks.len() < CLASS_CAP;
        if room {
            blocks.push(ptr.cast());
        }
        room
    });
    if pooled != Ok(true) {
        // SAFETY: `alloc` and `Box<T>` both allocate with `layout`.
        unsafe { dealloc(ptr.cast(), layout) };
    }
}

/// Blocks this thread's pool holds, all classes: reclaimed, not garbage.
pub fn pooled_blocks() -> usize {
    POOL.try_with(|pool| pool.borrow().classes.iter().map(Vec::len).sum())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

    /// Counts the live blocks of one layout size allocated by the threads
    /// that opted in with [`watch`], into that test's own counter: the rest
    /// of the parallel suite allocates through it uncounted.
    struct Counting;

    thread_local! {
        // No destructor, so the allocator may read it at any time — during
        // this thread's TLS destructors too.
        static WATCH: Cell<Option<(usize, &'static AtomicIsize)>> = const { Cell::new(None) };
    }

    fn count(layout: Layout, by: isize) {
        if let Some((size, live)) = WATCH.get() {
            if layout.size() == size {
                live.fetch_add(by, Relaxed);
            }
        }
    }

    // SAFETY: forwards to `System`; the counter is a side effect only.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout, 1);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            count(layout, -1);
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Counts this thread's live `T`-sized blocks into `live` from here on.
    fn watch<T>(live: &'static AtomicIsize) {
        WATCH.set(Some((size_of::<T>(), live)));
    }

    #[test]
    fn unpooled_layouts_bypass() {
        #[repr(align(16))]
        struct Wide(#[allow(dead_code)] u64);
        let before = pooled_blocks();
        unsafe {
            release(alloc(7u32));
            release(alloc(Wide(7)));
            release(alloc([0u64; 0]));
            release(alloc([0u64; MAX_SIZE / 8 + 1]));
        }
        assert_eq!(pooled_blocks(), before);
    }

    #[cfg(not(any(miri, smr_asan)))]
    mod pooled {
        use super::*;

        #[test]
        fn lifo_reuse_returns_the_same_address() {
            type T = [u64; 25];
            let before = pooled_blocks();
            let (a, b) = (alloc::<T>([1; 25]), alloc::<T>([2; 25]));
            unsafe {
                release(a);
                release(b);
            }
            assert_eq!(pooled_blocks(), before + 2);
            assert_eq!(alloc::<T>([3; 25]), b);
            assert_eq!(alloc::<T>([4; 25]), a);
            assert_eq!(unsafe { *a }, [4; 25]);
            assert_eq!(pooled_blocks(), before);
            unsafe {
                drop(Box::from_raw(a));
                drop(Box::from_raw(b));
            }
        }

        #[test]
        fn the_class_cap_holds_and_the_overflow_is_deallocated() {
            type T = [u64; 26];
            const OVER: usize = 10;
            static LIVE: AtomicIsize = AtomicIsize::new(0);
            watch::<T>(&LIVE);
            let live = || LIVE.load(Relaxed);
            let before = pooled_blocks();
            let blocks: Vec<_> = (0..CLASS_CAP + OVER).map(|_| alloc::<T>([5; 26])).collect();
            assert_eq!(live(), (CLASS_CAP + OVER) as isize);
            for &block in &blocks {
                unsafe { release(block) };
            }
            assert_eq!(pooled_blocks(), before + CLASS_CAP);
            assert_eq!(live(), CLASS_CAP as isize);
            // A full class serves `CLASS_CAP` allocations on its own.
            let again: Vec<_> = (0..CLASS_CAP).map(|_| alloc::<T>([6; 26])).collect();
            assert_eq!(live(), CLASS_CAP as isize);
            assert_eq!(pooled_blocks(), before);
            for block in again {
                // A pooled block freed as a `Box` is clean.
                drop(unsafe { Box::from_raw(block) });
            }
            assert_eq!(live(), 0);
        }

        #[test]
        fn a_box_released_into_the_pool_is_reused() {
            struct Counted(#[allow(dead_code)] [u64; 26], &'static AtomicIsize);
            impl Drop for Counted {
                fn drop(&mut self) {
                    self.1.fetch_add(1, Relaxed);
                }
            }
            static DROPS: AtomicIsize = AtomicIsize::new(0);
            static LIVE: AtomicIsize = AtomicIsize::new(0);
            watch::<Counted>(&LIVE);
            let live = || LIVE.load(Relaxed);
            let boxed = Box::into_raw(Box::new(Counted([7; 26], &DROPS)));
            unsafe { release(boxed) };
            assert_eq!(DROPS.load(Relaxed), 1);
            assert_eq!(live(), 1, "pooled, not deallocated");
            let reused = alloc(Counted([8; 26], &DROPS));
            assert_eq!(reused, boxed);
            drop(unsafe { Box::from_raw(reused) });
            assert_eq!(DROPS.load(Relaxed), 2);
            assert_eq!(live(), 0);
        }

        #[test]
        fn a_thread_that_exits_with_a_full_pool_leaks_nothing() {
            type T = [u64; 28];
            static LIVE: AtomicIsize = AtomicIsize::new(0);
            let live = || LIVE.load(Relaxed);
            std::thread::spawn(move || {
                watch::<T>(&LIVE);
                let blocks: Vec<_> = (0..CLASS_CAP).map(|_| alloc::<T>([9; 28])).collect();
                for block in blocks {
                    unsafe { release(block) };
                }
                assert_eq!(live(), CLASS_CAP as isize);
            })
            // `join` returns after the thread's TLS destructors have run.
            .join()
            .expect("the pool thread panicked");
            assert_eq!(live(), 0);
        }

        #[test]
        fn a_drop_that_releases_another_block_does_not_alias_the_list() {
            /// Owns a second block of its own layout, as a tree node owns
            /// its children.
            struct Parent(*mut Parent, #[allow(dead_code)] [u64; 28]);
            impl Drop for Parent {
                fn drop(&mut self) {
                    if !self.0.is_null() {
                        unsafe { release(self.0) };
                    }
                }
            }
            let before = pooled_blocks();
            let child = alloc(Parent(std::ptr::null_mut(), [1; 28]));
            let parent = alloc(Parent(child, [2; 28]));
            unsafe { release(parent) };
            assert_eq!(pooled_blocks(), before + 2);
            let first = alloc(Parent(std::ptr::null_mut(), [3; 28]));
            let second = alloc(Parent(std::ptr::null_mut(), [4; 28]));
            assert_eq!((first, second), (parent, child));
            unsafe {
                drop(Box::from_raw(first));
                drop(Box::from_raw(second));
            }
        }

        /// The trip-wire a late `invalidate` or `fetch_or_tag` on a stale
        /// pointer runs into: the store lands in a pooled block.
        #[cfg(debug_assertions)]
        #[test]
        #[should_panic(expected = "written to after it was freed")]
        fn a_store_into_a_freed_block_fails_at_its_reuse() {
            let stale = alloc([0u64; 30]);
            unsafe {
                release(stale);
                (*stale)[0] |= 2;
            }
            alloc([0u64; 30]);
        }

        #[cfg(debug_assertions)]
        #[test]
        #[should_panic(expected = "released twice")]
        fn a_double_release_fails_at_the_second() {
            let block = alloc([0u64; 31]);
            unsafe {
                release(block);
                release(block);
            }
        }
    }
}
