//! Hazard slots, slot arrays, and the owning [`HazardPointer`] handle.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use smr_common::{fence, Atomic, Shared};

/// A single-writer multi-reader hazard slot.
///
/// Padded to a cache-line pair: slots are written on every protection, and
/// sharing lines between threads would serialize the fast path.
#[repr(align(128))]
pub(crate) struct HazardSlot {
    /// The announced pointer (0 = nothing protected).
    pub(crate) data: AtomicUsize,
    /// Slot ownership flag.
    pub(crate) active: AtomicBool,
}

impl HazardSlot {
    const fn new() -> Self {
        Self {
            data: AtomicUsize::new(0),
            active: AtomicBool::new(false),
        }
    }
}

pub(crate) const SLOTS_PER_NODE: usize = 8;

/// A block of hazard slots; blocks form a global append-only list.
pub(crate) struct HazardArray {
    pub(crate) slots: [HazardSlot; SLOTS_PER_NODE],
    pub(crate) next: AtomicPtr<HazardArray>,
}

impl HazardArray {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| HazardSlot::new()),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// The global, grow-only list of hazard slots for one domain.
pub(crate) struct HazardList {
    head: AtomicPtr<HazardArray>,
    /// Total slots allocated so far, maintained on block push so that
    /// [`capacity`](HazardList::capacity) is O(1). Reclamation consults the
    /// capacity on every retire to size its adaptive scan threshold
    /// (Michael's `R = k·H` rule), so this must not walk the list.
    len: AtomicUsize,
}

impl HazardList {
    pub(crate) const fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    /// Acquires an inactive slot, growing the list if necessary.
    pub(crate) fn acquire(&self) -> *const HazardSlot {
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            let arr = unsafe { &*cur };
            for slot in &arr.slots {
                if !slot.active.load(Ordering::Relaxed)
                    && slot
                        .active
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    return slot;
                }
            }
            cur = arr.next.load(Ordering::Acquire);
        }
        // All slots taken: push a fresh block at the head.
        let block = Box::into_raw(Box::new(HazardArray::new()));
        let arr = unsafe { &*block };
        arr.slots[0].active.store(true, Ordering::Relaxed);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            arr.next.store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange(head, block, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_add(SLOTS_PER_NODE, Ordering::Relaxed);
                    return &arr.slots[0];
                }
                Err(h) => head = h,
            }
        }
    }

    /// Collects every announced pointer into `out` (unsorted).
    pub(crate) fn collect_protected(&self, out: &mut Vec<usize>) {
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            let arr = unsafe { &*cur };
            for slot in &arr.slots {
                let p = slot.data.load(Ordering::Acquire);
                if p != 0 {
                    out.push(p);
                }
            }
            cur = arr.next.load(Ordering::Acquire);
        }
    }

    /// Total number of slots currently allocated. O(1): reads the counter
    /// maintained by [`acquire`](HazardList::acquire), it does not walk the
    /// block list (the adaptive reclaim threshold reads this per retire).
    pub(crate) fn capacity(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

impl Drop for HazardList {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next.load(Ordering::Relaxed);
        }
    }
}

/// An owned hazard slot.
///
/// Protection is announce-then-validate:
/// [`protect_raw`](HazardPointer::protect_raw) announces,
/// [`try_protect`](HazardPointer::try_protect) announces and validates
/// against the link the pointer was read from (the original HP validation,
/// which over-approximates unreachability — paper §2.2).
///
/// A slot stays on the OS thread that took it: the handle is neither
/// `Send` nor `Sync`, so a reclaimer that is its domain's only registered
/// participant knows every slot it could race with is its own. Slots move
/// between threads only inside their registration (`hp::Thread`, whose
/// `Send` says so).
///
/// ```compile_fail
/// let mut thread = hp::default_domain().register();
/// let slot = thread.hazard_pointer();
/// std::thread::spawn(move || slot.reset());
/// ```
pub struct HazardPointer {
    slot: *const HazardSlot,
}

impl HazardPointer {
    pub(crate) fn from_slot(slot: *const HazardSlot) -> Self {
        Self { slot }
    }

    /// Consumes the handle, returning the raw slot without deactivating it.
    pub(crate) fn into_slot(self) -> *const HazardSlot {
        let slot = self.slot;
        std::mem::forget(self);
        slot
    }

    #[inline]
    fn slot(&self) -> &HazardSlot {
        unsafe { &*self.slot }
    }

    /// Announces protection of `ptr` without validating.
    #[inline]
    pub fn protect_raw<T>(&self, ptr: *mut T) {
        self.slot().data.store(ptr as usize, Ordering::Release);
    }

    /// Clears the announcement.
    #[inline]
    pub fn reset(&self) {
        self.slot().data.store(0, Ordering::Release);
    }

    /// The currently announced word (tests/diagnostics).
    #[inline]
    pub fn protected_word(&self) -> usize {
        self.slot().data.load(Ordering::Acquire)
    }

    /// Announces `ptr` and validates that `src` still holds exactly `ptr`
    /// (tag included). On failure returns the current value of `src`.
    ///
    /// This is the original HP protection: if the source link changed — the
    /// node was unlinked from it, or the source was marked — the node may
    /// already be retired, so protection fails.
    #[inline]
    pub fn try_protect<T>(&self, ptr: Shared<T>, src: &Atomic<T>) -> Result<(), Shared<T>> {
        let cur = fence::announce_then_validate(
            || {
                self.protect_raw(ptr.as_raw());
                // The announce-to-validate window: a thread stalled here has
                // published a hazard that retirers must already honor.
                smr_common::fault_point!("hp::protect::after_announce");
            },
            || src.load(Ordering::Acquire),
        );
        if cur == ptr {
            Ok(())
        } else {
            self.reset();
            Err(cur)
        }
    }

    /// Repeatedly announces and validates until the load from `src` is
    /// protected; returns the protected value (Treiber-stack style
    /// protection against a root pointer).
    #[inline]
    pub fn protect<T>(&self, src: &Atomic<T>) -> Shared<T> {
        let mut ptr = src.load(Ordering::Acquire);
        loop {
            if ptr.is_null() {
                self.reset();
                return ptr;
            }
            match self.try_protect(ptr, src) {
                Ok(()) => return ptr,
                Err(new) => ptr = new,
            }
        }
    }

    /// Swaps which slot each handle owns (hand-over-hand traversal).
    #[inline]
    pub fn swap(a: &mut Self, b: &mut Self) {
        std::mem::swap(&mut a.slot, &mut b.slot);
    }
}

impl Drop for HazardPointer {
    fn drop(&mut self) {
        let slot = self.slot();
        slot.data.store(0, Ordering::Release);
        slot.active.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_grows_and_reuses() {
        let list = HazardList::new();
        let a = list.acquire();
        let b = list.acquire();
        assert_ne!(a, b);
        let cap1 = list.capacity();
        // Release a slot by dropping its handle, then reacquire: capacity
        // must not grow.
        drop(HazardPointer::from_slot(a));
        let c = list.acquire();
        assert_eq!(list.capacity(), cap1);
        drop(HazardPointer::from_slot(b));
        drop(HazardPointer::from_slot(c));
    }

    #[test]
    fn acquire_many_grows_capacity() {
        let list = HazardList::new();
        let hps: Vec<_> = (0..40)
            .map(|_| HazardPointer::from_slot(list.acquire()))
            .collect();
        assert!(list.capacity() >= 40);
        let mut out = Vec::new();
        hps[0].protect_raw(0x1000 as *mut u8);
        list.collect_protected(&mut out);
        assert_eq!(out, vec![0x1000]);
    }

    #[test]
    fn protect_validate_against_atomic() {
        let list = HazardList::new();
        let hp = HazardPointer::from_slot(list.acquire());
        let a = Atomic::new(1u64);
        let p = a.load(Ordering::Relaxed);
        assert!(hp.try_protect(p, &a).is_ok());
        assert_eq!(hp.protected_word(), p.as_raw() as usize);

        // After the link changes, validation fails and reports the new value.
        let q = Shared::from_owned(2u64);
        a.store(q, Ordering::Release);
        let err = hp.try_protect(p, &a).unwrap_err();
        assert!(err.ptr_eq(q));
        assert_eq!(hp.protected_word(), 0);

        unsafe {
            p.drop_owned();
            a.into_owned();
        }
    }

    #[test]
    fn tagged_source_fails_validation() {
        // Marking the source link (logical deletion of the source) must fail
        // protection even though the pointer part still matches.
        let list = HazardList::new();
        let hp = HazardPointer::from_slot(list.acquire());
        let a = Atomic::new(3u64);
        let p = a.load(Ordering::Relaxed);
        a.fetch_or_tag(smr_common::tagged::TAG_DELETED, Ordering::AcqRel);
        assert!(hp.try_protect(p, &a).is_err());
        unsafe {
            a.into_owned();
        }
    }
}
