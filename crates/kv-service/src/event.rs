//! The eventcount every sleep on the KV path uses: paper §3.4's announce /
//! observe handshake, with a lock that only sleepers, and the notifies that
//! find one, touch. A sleeper announces ([`EventCount::prepare_wait`]),
//! re-checks its condition, then sleeps or withdraws; a waker publishes its
//! condition, then notifies. Each side puts one `fence(SeqCst)` between its
//! write and its read, so the waker sees the announcement or the re-check
//! sees the condition. The word counts announced sleepers, so that one
//! withdrawal cannot erase another; a notify takes every announcement it
//! finds, so the notifies after it cost only the fence and the load again.

use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{fence, AtomicU64};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One announced sleeper, in the word's low half; one epoch, in its high.
const SLEEPER: u64 = 1;
const EPOCH: u64 = 1 << 32;

/// The epoch a prepared wait was announced in.
#[must_use = "a prepared wait ends in commit_wait or cancel_wait"]
pub(crate) struct Key(u64);

#[derive(Debug, Default)]
pub(crate) struct EventCount {
    /// `epoch << 32 | sleepers announced in it`; the epoch moves under the
    /// lock.
    state: AtomicU64,
    /// Sleepers inside `cv.wait` that no notify has ended yet.
    blocked: Mutex<u32>,
    cv: Condvar,
    /// Commits that really slept, and notifies that ended a sleep.
    pub(crate) sleeps: AtomicU64,
    pub(crate) wakes: AtomicU64,
}

impl EventCount {
    /// Announces a sleeper, which re-checks its condition next.
    pub(crate) fn prepare_wait(&self) -> Key {
        let key = Key(self.state.fetch_add(SLEEPER, Relaxed) >> 32);
        fence(SeqCst);
        key
    }

    /// Withdraws an announcement whose re-check found the condition true,
    /// unless a notify took it already.
    pub(crate) fn cancel_wait(&self, key: Key) {
        let mine = |s: u64| (s >> 32 == key.0).then(|| s - SLEEPER);
        let _ = self.state.fetch_update(Relaxed, Relaxed, mine);
    }

    /// Sleeps until a notify after the announcement (at once if one came
    /// already) or until `until`; false if `until` came first.
    pub(crate) fn commit_wait(&self, key: Key, until: Option<Instant>) -> bool {
        let (cv, mut slept) = (&self.cv, false);
        let mut blocked = self.blocked.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.state.load(Relaxed) >> 32 != key.0 {
                break true;
            }
            let left = until.map(|at| at.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                // No notify took this sleeper: the epoch has not moved.
                *blocked -= slept as u32;
                self.state.fetch_sub(SLEEPER, Relaxed);
                break false;
            }
            if !std::mem::replace(&mut slept, true) {
                *blocked += 1;
                self.sleeps.fetch_add(1, Relaxed);
            }
            blocked = match left {
                None => cv.wait(blocked).unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    cv.wait_timeout(blocked, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Ends every announced wait; call after publishing the condition.
    /// Returns whether it ended a sleep. Never panics, not even on a
    /// poisoned lock: a dying worker's drop guard calls it.
    pub(crate) fn notify(&self) -> bool {
        fence(SeqCst);
        if !self.has_sleepers() {
            return false;
        }
        let mut blocked = self.blocked.lock().unwrap_or_else(PoisonError::into_inner);
        // The next epoch, with no sleeper announced in it.
        let now = self.state.load(Relaxed);
        self.state
            .store((now | (EPOCH - 1)).wrapping_add(1), Relaxed);
        if std::mem::take(&mut *blocked) == 0 {
            return false;
        }
        drop(blocked);
        self.wakes.fetch_add(1, Relaxed);
        self.cv.notify_all();
        true
    }

    /// Whether a sleeper has announced itself (and may be asleep).
    pub(crate) fn has_sleepers(&self) -> bool {
        self.state.load(Relaxed) as u32 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::Acquire, Ordering::Release};

    /// How long a test waits before it calls a wake lost.
    const LOST: Duration = Duration::from_secs(20);

    /// A notify with nobody announced returns false; one with a sleeper
    /// announced but not yet committed also returns false and takes the
    /// announcement, and that sleeper's commit, its epoch moved, returns
    /// at once (its cancel, likewise, withdraws nothing).
    #[test]
    fn notify_with_nobody_asleep_returns_false_and_moved_epochs_end_commits() {
        let ec = EventCount::default();
        assert!(!ec.notify());
        let (key, other) = (ec.prepare_wait(), ec.prepare_wait());
        assert!(!ec.notify());
        assert!(!ec.has_sleepers(), "the notify left an announcement");
        assert!(ec.commit_wait(key, Some(Instant::now() + LOST)));
        ec.cancel_wait(other);
        let key = ec.prepare_wait();
        assert!(ec.has_sleepers(), "a cancel withdrew a later announcement");
        ec.cancel_wait(key);
        assert!(!ec.has_sleepers());
        assert_eq!((ec.sleeps.load(Relaxed), ec.wakes.load(Relaxed)), (0, 0));
    }

    #[test]
    fn a_timed_out_commit_returns_false() {
        let ec = EventCount::default();
        let began = Instant::now();
        let key = ec.prepare_wait();
        assert!(!ec.commit_wait(key, Some(began + Duration::from_millis(20))));
        assert!(began.elapsed() >= Duration::from_millis(20));
        assert_eq!((ec.sleeps.load(Relaxed), ec.wakes.load(Relaxed)), (1, 0));
        // The timed-out sleeper is no longer counted as blocked.
        let key = ec.prepare_wait();
        assert!(!ec.notify());
        assert!(ec.commit_wait(key, None));
    }

    /// Three sleepers wait out every round number, which two notifiers
    /// take turns to publish, under one finite deadline: a wait that
    /// reaches it lost a wake.
    #[test]
    fn no_wake_is_lost_across_sleepers_and_notifiers() {
        const ROUNDS: u32 = 10_000;
        const SLEEPERS: u32 = 3;
        let (ec, round, acks) = (EventCount::default(), AtomicU32::new(0), AtomicU32::new(0));
        let (ec, round, acks) = (&ec, &round, &acks);
        let deadline = Instant::now() + LOST;
        std::thread::scope(|s| {
            for _ in 0..SLEEPERS {
                s.spawn(move || {
                    let mut seen = 0;
                    while seen < ROUNDS {
                        let key = ec.prepare_wait();
                        let now = round.load(Acquire);
                        if now == seen {
                            let woken = ec.commit_wait(key, Some(deadline));
                            assert!(woken, "lost wake after round {seen}");
                        } else {
                            ec.cancel_wait(key);
                            seen = now;
                            acks.fetch_add(1, Release);
                        }
                    }
                });
            }
            for turn in 0..2 {
                s.spawn(move || {
                    for r in (1..=ROUNDS).filter(|r| r % 2 == turn) {
                        while acks.load(Acquire) < (r - 1) * SLEEPERS {
                            assert!(Instant::now() < deadline, "lost wake before round {r}");
                            std::thread::yield_now();
                        }
                        round.store(r, Release);
                        ec.notify();
                    }
                });
            }
        });
        assert!(ec.wakes.load(Relaxed) <= ec.sleeps.load(Relaxed));
        assert!(!ec.has_sleepers());
    }
}
