//! Asymmetric light/heavy fences (HP++ paper §3.4).
//!
//! The protection fast path (`TryProtect`) replaces its sequentially
//! consistent fence with a *light* fence — a compiler fence that emits no
//! instruction — while the reclamation slow path issues a *heavy*
//! process-wide fence that forces every other thread through a full barrier.
//! On Linux the heavy fence is the `membarrier(2)` syscall with
//! `MEMBARRIER_CMD_PRIVATE_EXPEDITED` (the equivalent of Windows'
//! `FlushProcessWriteBuffers`). Where `membarrier` is unavailable, both sides
//! fall back to plain `SeqCst` fences, which is always correct (the pair of
//! SC fences the paper starts from) just slower on the protection path.
//!
//! # The announce/observe protocol
//!
//! Every scheme in the workspace that uses this pair follows the same
//! Dekker-shaped protocol between a hot **announcer** and a rare
//! **observer**:
//!
//! * The announcer *publishes* a word (a hazard slot, a pinned-epoch state),
//!   issues [`light`], then *validates* by re-reading the shared source (the
//!   link the pointer came from, the global epoch). The
//!   [`announce_then_validate`] helper packages this side.
//! * The observer first issues [`heavy`], then reads every announcer's
//!   published word (a hazard scan, an epoch-advance check over all
//!   participants).
//!
//! The heavy fence forces a full barrier on every running thread, so it
//! cannot be the case that the observer misses an announcement *and* the
//! announcer's validating re-read misses the observer's prior update: one
//! side always sees the other, exactly as if both had issued `SeqCst`
//! fences. HP's `try_protect` (announce a hazard, validate the source link)
//! and EBR's `pin` (announce a pinned epoch, validate the global epoch)
//! are the two announcers; HP's hazard scan and EBR's `try_advance` are the
//! matching observers.
//!
//! Under Miri the strategy is forced to the symmetric fallback: Miri cannot
//! emulate the `membarrier` syscall, and the `SeqCst` pair keeps the
//! protocol checkable.

use std::sync::atomic::{compiler_fence, fence, AtomicBool, Ordering};
use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod membarrier_impl {
    // Values from linux/membarrier.h.
    pub const MEMBARRIER_CMD_QUERY: libc::c_int = 0;
    pub const MEMBARRIER_CMD_PRIVATE_EXPEDITED: libc::c_int = 1 << 3;
    pub const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: libc::c_int = 1 << 4;

    fn sys_membarrier(cmd: libc::c_int) -> libc::c_long {
        unsafe { libc::syscall(libc::SYS_membarrier, cmd, 0 as libc::c_int) }
    }

    /// Registers for private-expedited membarrier; returns whether usable.
    pub fn try_register() -> bool {
        let supported = sys_membarrier(MEMBARRIER_CMD_QUERY);
        if supported < 0 {
            return false;
        }
        if supported & (MEMBARRIER_CMD_PRIVATE_EXPEDITED as libc::c_long) == 0 {
            return false;
        }
        sys_membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) >= 0
    }

    /// Issues the process-wide barrier. Must only be called after a
    /// successful [`try_register`].
    pub fn barrier() {
        let ret = sys_membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED);
        debug_assert!(ret >= 0, "membarrier failed after registration");
    }
}

/// Which fence strategy is active for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Asymmetric: light = compiler fence, heavy = `membarrier(2)`.
    Asymmetric,
    /// Symmetric fallback: both sides are `SeqCst` fences.
    SeqCst,
}

fn strategy_cell() -> &'static OnceLock<Strategy> {
    static CELL: OnceLock<Strategy> = OnceLock::new();
    &CELL
}

/// The fence strategy in use (detected once, on first use).
///
/// Set `SMR_NO_MEMBARRIER=1` to force the symmetric fallback (useful for
/// benchmarking the cost of the optimization, and on kernels without
/// `membarrier`).
pub fn strategy() -> Strategy {
    let strategy = *strategy_cell().get_or_init(|| {
        // Miri has no membarrier shim; the symmetric fallback keeps the
        // fence protocol exercisable under the interpreter.
        if cfg!(miri) || std::env::var_os("SMR_NO_MEMBARRIER").is_some() {
            return Strategy::SeqCst;
        }
        #[cfg(target_os = "linux")]
        {
            if membarrier_impl::try_register() {
                return Strategy::Asymmetric;
            }
        }
        Strategy::SeqCst
    });
    if strategy == Strategy::Asymmetric {
        ASYMMETRIC.store(true, Ordering::Relaxed);
    }
    strategy
}

/// Set once [`strategy`] has resolved to [`Strategy::Asymmetric`]; never
/// cleared. [`light`]'s fast path reads this one byte instead of the
/// `OnceLock`, whose state check costs a traversal step four instructions
/// and a taken branch. `Relaxed` suffices: the flag publishes no data, and
/// it is set only after the `OnceLock` holds `Asymmetric`, which every
/// [`heavy`] reads through [`strategy`] itself.
static ASYMMETRIC: AtomicBool = AtomicBool::new(false);

/// The light fence issued on the protection fast path (per `TryProtect`).
///
/// With the asymmetric strategy this compiles to nothing (it only prevents
/// compiler reordering); the matching heavy fence on the reclamation side
/// supplies the ordering. The fast path is a load of a static flag and an
/// untaken branch; until the flag is set — the strategy not yet detected,
/// or symmetric — the cold path detects it and fences accordingly.
#[inline]
pub fn light() {
    if ASYMMETRIC.load(Ordering::Relaxed) {
        compiler_fence(Ordering::SeqCst);
    } else {
        light_slow();
    }
}

#[cold]
#[inline(never)]
fn light_slow() {
    match strategy() {
        Strategy::Asymmetric => compiler_fence(Ordering::SeqCst),
        Strategy::SeqCst => fence(Ordering::SeqCst),
    }
}

/// The announcer side of the announce/observe protocol (module docs):
/// `publish` a word, issue the [`light`] fence, then run the validating
/// re-read `validate` and return its result.
///
/// `publish` must be a store the matching observer reads after its
/// [`heavy`] fence; `validate` must re-read the shared source the observer
/// updates, so a failed validation can be retried by the caller.
#[inline]
pub fn announce_then_validate<R>(publish: impl FnOnce(), validate: impl FnOnce() -> R) -> R {
    publish();
    light();
    validate()
}

/// The heavy process-wide fence issued on the reclamation slow path.
/// Counted in [`crate::counters::heavy_fences`].
#[inline]
pub fn heavy() {
    crate::counters::incr_heavy_fence();
    match strategy() {
        Strategy::Asymmetric => {
            #[cfg(target_os = "linux")]
            membarrier_impl::barrier();
            #[cfg(not(target_os = "linux"))]
            fence(Ordering::SeqCst);
        }
        Strategy::SeqCst => fence(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_is_stable() {
        let a = strategy();
        let b = strategy();
        assert_eq!(a, b);
    }

    #[test]
    fn fences_do_not_crash() {
        for _ in 0..100 {
            light();
        }
        for _ in 0..10 {
            heavy();
        }
    }

    #[test]
    fn heavy_fence_orders_across_threads() {
        // Dekker: each side stores round `r` to its flag, fences — one
        // light, one heavy — and loads the other's. The pair guarantees
        // that in no round do both loads miss. The two sides are the only
        // threads and enter each round through a two-party spin barrier, so
        // their fences overlap in time: with compiler fences on both sides
        // instead, the test fails within its 200 rounds on a 2-vCPU x86-64
        // host.
        use std::sync::atomic::{AtomicUsize, Ordering::*};

        use crate::CachePadded;

        fn spin_until(done: impl Fn() -> bool) {
            for spins in 1u32.. {
                if done() {
                    return;
                }
                // Mostly on-core; a yield now and then lets a side whose
                // peer lost its CPU get it back.
                if spins % 1024 == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }

        let rounds = if cfg!(miri) { 8 } else { 200 };
        let flags = [(); 2].map(|()| CachePadded::new(AtomicUsize::new(0)));
        let arrived = AtomicUsize::new(0);
        // Per round, whether `side` saw the other side's store.
        let run = |side: usize| -> Vec<bool> {
            (1..=rounds)
                .map(|r| {
                    arrived.fetch_add(1, AcqRel);
                    spin_until(|| arrived.load(Acquire) >= 2 * r);
                    flags[side].store(r, Relaxed);
                    if side == 0 {
                        light();
                    } else {
                        heavy();
                    }
                    flags[1 - side].load(Relaxed) >= r
                })
                .collect()
        };
        let (saw0, saw1) = std::thread::scope(|s| {
            let other = s.spawn(|| run(1));
            (run(0), other.join().unwrap())
        });
        let both_missed = saw0.iter().zip(&saw1).filter(|(a, b)| !**a && !**b).count();
        assert_eq!(both_missed, 0, "a light/heavy pair missed both stores");
    }
}
