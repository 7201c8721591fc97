//! Thread placement: the fix for the bimodal KV numbers.
//!
//! An unpinned 1-client/1-shard service measures 0.17 Mops when client and
//! worker land on different CPUs and 0.48 Mops when they share one, for
//! identical code. Every workload therefore pins its busy threads, and the
//! result records which placement it got; runs with different placements
//! are not comparable.

use std::fmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The two busy threads sit on two different CPUs.
    Split,
    /// One allowed CPU: both busy threads share it.
    Shared,
    /// The affinity calls failed; the scheduler decides.
    Unpinned,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Placement::Split => "split",
            Placement::Shared => "shared",
            Placement::Unpinned => "unpinned",
        })
    }
}

/// What two busy threads get when each is pinned inside `allowed`.
pub fn classify(allowed: &[usize], pinned: bool) -> Placement {
    match (pinned, allowed.len()) {
        (false, _) | (_, 0) => Placement::Unpinned,
        (true, 1) => Placement::Shared,
        (true, _) => Placement::Split,
    }
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    // SAFETY: `cpu_set_t` is a plain bit array for which all-zero is valid,
    // and the pointer and size describe exactly that one value.
    let set = unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
            return Vec::new();
        }
        set
    };
    (0..1024)
        .filter(|&cpu| libc::CPU_ISSET(cpu, &set))
        .collect()
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current(cpus: &[usize]) -> bool {
    // SAFETY: as in `allowed_cpus`; the kernel only reads the mask.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        for &cpu in cpus {
            libc::CPU_SET(cpu, &mut set);
        }
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_follows_the_allowed_mask() {
        assert_eq!(classify(&[0, 1], true), Placement::Split);
        assert_eq!(classify(&[3, 7, 9], true), Placement::Split);
        assert_eq!(classify(&[5], true), Placement::Shared);
        assert_eq!(classify(&[0, 1], false), Placement::Unpinned);
        assert_eq!(classify(&[], true), Placement::Unpinned);
        assert_eq!(Placement::Split.to_string(), "split");
    }

    #[test]
    fn threads_spawned_after_a_pin_inherit_it() {
        // Affinity is per thread, so this does not disturb parallel tests.
        std::thread::spawn(|| {
            let allowed = allowed_cpus();
            assert!(!allowed.is_empty(), "sched_getaffinity failed");
            let last = *allowed.last().unwrap();
            assert!(pin_current(&[last]));
            assert_eq!(allowed_cpus(), vec![last]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![last], "child did not inherit the pin");
            // Re-pinning the parent leaves the child's mask alone, which is
            // what keeps the KV worker on the last CPU.
            assert!(pin_current(&allowed[..1]));
            assert_eq!(allowed_cpus(), vec![allowed[0]]);
        })
        .join()
        .unwrap();
    }
}
