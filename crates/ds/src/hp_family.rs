//! Abstraction over the two hazard-pointer threads (`hp::Thread`,
//! `hp_plus::Thread`).
//!
//! HP++ is an *extension* of HP (paper §4.2): an HP++ thread can retire with
//! the original over-approximating strategy. Structures whose traversal is
//! inherently careful (the skiplist's multi-level find) are written once
//! against this trait and instantiated for both schemes — the HP++
//! instantiation is the paper's "hybrid" mode.

use hp::HazardPointer;
use smr_common::SchemeDomain;

/// A per-thread hazard-pointer context: slot acquisition plus plain
/// (over-approximation-validated) retirement.
pub trait HpFamily: Send + Sized + 'static {
    /// Where the thread registers and its garbage is charged.
    type Domain: SchemeDomain<Handle = Self>;

    /// Registers the current thread with the scheme's default domain.
    fn register() -> Self {
        Self::Domain::global().register()
    }

    /// Acquires a hazard pointer.
    fn hazard_pointer(&mut self) -> HazardPointer;

    /// Retires a node protected by validated hazard pointers.
    ///
    /// # Safety
    /// Same contract as [`hp::Thread::retire`].
    unsafe fn retire<T>(&mut self, ptr: *mut T);
}

impl HpFamily for hp::Thread {
    type Domain = hp::Domain;

    fn hazard_pointer(&mut self) -> HazardPointer {
        hp::Thread::hazard_pointer(self)
    }

    unsafe fn retire<T>(&mut self, ptr: *mut T) {
        hp::Thread::retire(self, ptr)
    }
}

impl HpFamily for hp_plus::Thread {
    type Domain = hp_plus::Domain;

    fn hazard_pointer(&mut self) -> HazardPointer {
        hp_plus::Thread::hazard_pointer(self)
    }

    unsafe fn retire<T>(&mut self, ptr: *mut T) {
        hp_plus::Thread::retire(self, ptr)
    }
}
