//! Named fault-injection points for adversarial robustness testing.
//!
//! Robust-reclamation work (PEBR, DEBRA+, Hyaline) treats stalled and
//! crashed threads as first-class adversaries. This module gives every
//! scheme in the workspace a way to *become* that adversary
//! deterministically: hot paths are annotated with named injection points
//! ([`fault_point!`](crate::fault_point)), and a test installs a `FaultPlan` that makes a
//! specific hit of a specific point stall, delay, yield-storm, or panic.
//!
//! # Zero cost when disabled
//!
//! Without the `fault-injection` cargo feature, `fault_point!` expands to
//! an empty block — the annotated hot paths (`hp::try_protect`, `ebr::pin`,
//! `hpp::try_unlink`, …) compile to exactly the code they had before the
//! points existed. Everything below this paragraph describes the engine
//! that exists only *with* the feature.
//!
//! # Driving the engine
//!
//! A test builds a plan and installs it:
//!
//! ```ignore
//! let plan = fault::plan()
//!     .at("hp::reclaim::before_fence", 1, FaultAction::Stall)
//!     .install();                  // serializes with other plans
//! // ... spawn the victim, wait for fault::stalled_count(..) == 1 ...
//! fault::release("hp::reclaim::before_fence");
//! drop(plan);                      // disarms, releases all stalls
//! ```
//!
//! `at(point, n, action)` fires on the `n`-th hit, `every(point, n, action)`
//! on each multiple of `n`. `seeded(seed, period)` adds yield-storm fuzzing:
//! every hit no trigger matches consults a per-thread xorshift PRNG and with
//! probability `1/period` performs a short yield storm. Decisions are a pure function of
//! the seed and the thread's registration order, so a seed reproduces the
//! same per-thread injection sequence. No stall outlives 30 s, so a
//! forgotten release can never hang CI.
//!
//! Every taken injection is recorded; `take_log` returns the log for
//! determinism assertions (same seed ⇒ same log).

/// Marks a named fault-injection point.
///
/// Expands to nothing unless the `fault-injection` feature is enabled, in
/// which case it forwards to `fault::hit`. Point names
/// are namespaced `crate::operation::window`, e.g.
/// `"hp::protect::after_announce"`; DESIGN.md §1.7 lists every point and
/// the invariant it attacks.
#[cfg(not(feature = "fault-injection"))]
#[macro_export]
macro_rules! fault_point {
    ($name:expr) => {{}};
}

/// Marks a named fault-injection point.
///
/// The `fault-injection` feature is enabled, so this forwards to
/// [`fault::hit`](crate::fault::hit), which consults the installed
/// [`FaultPlan`](crate::fault::FaultPlan) and may stall, delay, yield, or
/// panic here.
#[cfg(feature = "fault-injection")]
#[macro_export]
macro_rules! fault_point {
    ($name:expr) => {
        $crate::fault::hit($name)
    };
}

#[cfg(feature = "fault-injection")]
pub use engine::{
    hit, hits, plan, release, release_all, stalled_count, take_log, FaultAction, FaultPlan,
    InstalledPlan, LogEntry,
};

#[cfg(feature = "fault-injection")]
mod engine {
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    /// What an armed injection point does when its trigger matches.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum FaultAction {
        /// Sleep for the given duration (a preempted thread).
        Delay(Duration),
        /// Call `yield_now` this many times (an unlucky scheduling burst).
        YieldStorm(u32),
        /// Park until [`release`]/[`release_all`] (a stalled thread). A
        /// stall never outlives 30 s.
        Stall,
        /// Panic with an `"injected fault"` payload (a dying thread; the
        /// test catches it at the thread or `catch_unwind` boundary).
        Panic,
    }

    #[derive(Clone)]
    struct Trigger {
        /// Fire on hit `nth` exactly, or on every multiple when `every`.
        nth: u64,
        every: bool,
        action: FaultAction,
    }

    impl Trigger {
        fn matches(&self, hits: u64) -> bool {
            if self.every {
                hits.is_multiple_of(self.nth)
            } else {
                hits == self.nth
            }
        }
    }

    /// One taken injection, for determinism assertions.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct LogEntry {
        /// The point that fired.
        pub point: String,
        /// Which hit of that point fired (1-based).
        pub hit: u64,
        /// The action that was performed.
        pub action: FaultAction,
    }

    #[derive(Default)]
    struct PointRec {
        hits: u64,
        triggers: Vec<Trigger>,
    }

    #[derive(Default)]
    struct Config {
        points: HashMap<String, PointRec>,
        /// Seeded yield-storm fuzzing: `(seed, period)`.
        seeded: Option<(u64, u64)>,
        /// Bumped on every plan install so per-thread PRNGs reseed.
        plan_epoch: u64,
        log: Vec<LogEntry>,
    }

    struct StallState {
        generation: u64,
        released: HashSet<String>,
        parked: HashMap<String, usize>,
    }

    /// Whether a plan is installed.
    static ARMED: AtomicBool = AtomicBool::new(false);
    /// Upper bound on any single stall.
    const STALL_MAX: Duration = Duration::from_secs(30);
    /// Threads get a stable index in registration order for seeded PRNGs.
    static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);
    static PLAN_EPOCH: AtomicU64 = AtomicU64::new(0);

    fn config() -> &'static Mutex<Config> {
        static CONFIG: OnceLock<Mutex<Config>> = OnceLock::new();
        CONFIG.get_or_init(|| Mutex::new(Config::default()))
    }

    fn stall_state() -> &'static (Mutex<StallState>, Condvar) {
        static STALL: OnceLock<(Mutex<StallState>, Condvar)> = OnceLock::new();
        STALL.get_or_init(|| {
            (
                Mutex::new(StallState {
                    generation: 0,
                    released: HashSet::new(),
                    parked: HashMap::new(),
                }),
                Condvar::new(),
            )
        })
    }

    /// Plans are process-global state; installing one takes this lock so
    /// concurrently running tests cannot contaminate each other.
    fn plan_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // A panicking fault test poisons the lock by design; the config is
        // reset on every install, so poison carries no bad state.
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_config() -> MutexGuard<'static, Config> {
        config().lock().unwrap_or_else(|e| e.into_inner())
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// Per-thread PRNG for seeded mode, reseeded whenever a new plan is
    /// installed so runs with the same seed replay the same decisions.
    fn seeded_decision(seed: u64, period: u64) -> Option<FaultAction> {
        use std::cell::Cell;
        thread_local! {
            // (plan epoch this state belongs to, xorshift state)
            static RNG: Cell<(u64, u64)> = const { Cell::new((u64::MAX, 0)) };
            static THREAD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        let idx = THREAD_IDX.with(|i| {
            if i.get() == usize::MAX {
                i.set(THREAD_SEQ.fetch_add(1, Ordering::Relaxed));
            }
            i.get()
        });
        let epoch = PLAN_EPOCH.load(Ordering::Relaxed);
        let r = RNG.with(|c| {
            let (e, mut s) = c.get();
            if e != epoch {
                s = splitmix64(seed ^ (idx as u64).wrapping_mul(0x9e3779b97f4a7c15));
                if s == 0 {
                    s = 1;
                }
            }
            // xorshift64
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            c.set((epoch, s));
            s
        });
        if r.is_multiple_of(period) {
            Some(FaultAction::YieldStorm(1 + ((r >> 32) % 8) as u32))
        } else {
            None
        }
    }

    /// Records a hit of `name` and performs whatever the active schedule
    /// asks for. Called by [`fault_point!`](crate::fault_point); not meant
    /// to be invoked directly.
    #[inline]
    pub fn hit(name: &'static str) {
        if ARMED.load(Ordering::Acquire) {
            on_hit(name);
        }
    }

    fn on_hit(name: &'static str) {
        let action = {
            let mut cfg = lock_config();
            let seeded = cfg.seeded;
            let rec = cfg.points.entry(name.to_string()).or_default();
            rec.hits += 1;
            let hits = rec.hits;
            let mut action = rec
                .triggers
                .iter()
                .find(|t| t.matches(hits))
                .map(|t| t.action.clone());
            if action.is_none() {
                if let Some((seed, period)) = seeded {
                    action = seeded_decision(seed, period);
                }
            }
            if let Some(a) = &action {
                cfg.log.push(LogEntry {
                    point: name.to_string(),
                    hit: hits,
                    action: a.clone(),
                });
            }
            action
        };
        match action {
            None => (),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::YieldStorm(n)) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            Some(FaultAction::Panic) => {
                panic!("injected fault: {name}");
            }
            Some(FaultAction::Stall) => do_stall(name),
        }
    }

    fn do_stall(name: &str) {
        let (m, cv) = stall_state();
        let mut st = m.lock().unwrap_or_else(|e| e.into_inner());
        let my_gen = st.generation;
        *st.parked.entry(name.to_string()).or_insert(0) += 1;
        let deadline = Instant::now() + STALL_MAX;
        while st.generation == my_gen && !st.released.contains(name) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                eprintln!("fault: stall at {name} outlived {STALL_MAX:?}, resuming");
                break;
            }
            let (g, _) = cv
                .wait_timeout(st, left.min(Duration::from_millis(100)))
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
        if let Some(n) = st.parked.get_mut(name) {
            *n -= 1;
        }
    }

    /// Number of times `name` has been crossed under the current plan.
    pub fn hits(name: &str) -> u64 {
        lock_config().points.get(name).map_or(0, |r| r.hits)
    }

    /// Number of threads currently parked in a [`FaultAction::Stall`] at
    /// `name` — the handshake tests use to know the victim is wedged.
    pub fn stalled_count(name: &str) -> usize {
        let (m, _) = stall_state();
        m.lock()
            .unwrap_or_else(|e| e.into_inner())
            .parked
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Opens the gate at `name`: wakes threads stalled there now, and makes
    /// future stalls at that point fall straight through.
    pub fn release(name: &str) {
        let (m, cv) = stall_state();
        m.lock()
            .unwrap_or_else(|e| e.into_inner())
            .released
            .insert(name.to_string());
        cv.notify_all();
    }

    /// Wakes every stalled thread (all points).
    pub fn release_all() {
        let (m, cv) = stall_state();
        {
            let mut st = m.lock().unwrap_or_else(|e| e.into_inner());
            st.generation += 1;
            st.released.clear();
        }
        cv.notify_all();
    }

    /// Drains and returns the injection log (each taken action, in order).
    pub fn take_log() -> Vec<LogEntry> {
        std::mem::take(&mut lock_config().log)
    }

    /// Starts building a [`FaultPlan`].
    pub fn plan() -> FaultPlan {
        FaultPlan {
            triggers: Vec::new(),
            seeded: None,
        }
    }

    /// A schedule of injections, built with [`plan`] and activated with
    /// [`FaultPlan::install`].
    #[derive(Default)]
    pub struct FaultPlan {
        triggers: Vec<(String, Trigger)>,
        seeded: Option<(u64, u64)>,
    }

    impl FaultPlan {
        /// Fire `action` on exactly the `nth` hit (1-based) of `point`.
        pub fn at(mut self, point: &str, nth: u64, action: FaultAction) -> Self {
            assert!(nth > 0, "hits are 1-based");
            self.triggers.push((
                point.to_string(),
                Trigger {
                    nth,
                    every: false,
                    action,
                },
            ));
            self
        }

        /// Fire `action` on every `n`-th hit of `point`.
        pub fn every(mut self, point: &str, n: u64, action: FaultAction) -> Self {
            assert!(n > 0, "period must be positive");
            self.triggers.push((
                point.to_string(),
                Trigger {
                    nth: n,
                    every: true,
                    action,
                },
            ));
            self
        }

        /// Adds seeded yield-storm fuzzing on every point not matched by an
        /// explicit trigger (probability `1/period` per hit, per-thread
        /// deterministic; see the module docs).
        pub fn seeded(mut self, seed: u64, period: u64) -> Self {
            assert!(period > 0);
            self.seeded = Some((seed, period));
            self
        }

        /// Arms the plan. The returned guard serializes with every other
        /// plan in the process; dropping it disarms the engine, clears the
        /// schedule, and releases any still-stalled thread.
        pub fn install(self) -> InstalledPlan {
            let serial = plan_lock();
            {
                let mut cfg = lock_config();
                cfg.points.clear();
                cfg.log.clear();
                cfg.seeded = self.seeded;
                cfg.plan_epoch += 1;
                PLAN_EPOCH.store(cfg.plan_epoch, Ordering::Relaxed);
                for (point, trig) in self.triggers {
                    cfg.points.entry(point).or_default().triggers.push(trig);
                }
            }
            {
                let (m, _) = stall_state();
                let mut st = m.lock().unwrap_or_else(|e| e.into_inner());
                st.released.clear();
            }
            ARMED.store(true, Ordering::Release);
            InstalledPlan { _serial: serial }
        }
    }

    /// Guard returned by [`FaultPlan::install`]; see there.
    pub struct InstalledPlan {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for InstalledPlan {
        fn drop(&mut self) {
            // Disarm first so no new stall can begin, then free the parked.
            ARMED.store(false, Ordering::Release);
            {
                let mut cfg = lock_config();
                cfg.points.clear();
                cfg.seeded = None;
                cfg.log.clear();
            }
            release_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn hits_count_and_triggers_fire() {
            let _plan = plan()
                .at("test::point::a", 3, FaultAction::YieldStorm(1))
                .every("test::point::b", 2, FaultAction::YieldStorm(1))
                .install();
            for _ in 0..6 {
                hit("test::point::a");
                hit("test::point::b");
            }
            assert_eq!(hits("test::point::a"), 6);
            assert_eq!(hits("test::point::b"), 6);
            let log = take_log();
            let a_fires = log.iter().filter(|e| e.point == "test::point::a").count();
            let b_fires = log.iter().filter(|e| e.point == "test::point::b").count();
            assert_eq!(a_fires, 1, "nth=3 fires exactly once in 6 hits");
            assert_eq!(b_fires, 3, "every:2 fires 3 times in 6 hits");
        }

        #[test]
        fn uninstalled_points_are_silent() {
            // No plan: hits fall through without recording.
            hit("test::point::silent");
            let _plan = plan().install();
            assert_eq!(hits("test::point::silent"), 0);
        }

        #[test]
        fn stall_parks_until_released() {
            let _plan = plan()
                .at("test::point::stall", 1, FaultAction::Stall)
                .install();
            let t = std::thread::spawn(|| {
                hit("test::point::stall");
            });
            while stalled_count("test::point::stall") == 0 {
                std::thread::yield_now();
            }
            assert_eq!(stalled_count("test::point::stall"), 1);
            release("test::point::stall");
            t.join().unwrap();
            assert_eq!(stalled_count("test::point::stall"), 0);
            // The gate stays open for later hits.
            hit("test::point::stall");
        }

        #[test]
        fn injected_panic_unwinds_with_payload() {
            let _plan = plan()
                .at("test::point::boom", 2, FaultAction::Panic)
                .install();
            hit("test::point::boom");
            let err = std::panic::catch_unwind(|| hit("test::point::boom")).unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("injected fault"), "payload: {msg}");
        }

        #[test]
        fn seeded_decisions_replay_for_same_seed() {
            // Only this test's own entries: a parallel test crossing a real
            // point (`backoff::park`) while the plan is armed is logged too.
            let run = |seed: u64| -> Vec<LogEntry> {
                let _plan = plan().seeded(seed, 4).install();
                for _ in 0..200 {
                    hit("test::point::seeded");
                }
                let mut log = take_log();
                log.retain(|e| e.point.starts_with("test::point::"));
                log
            };
            let a = run(42);
            let b = run(42);
            assert!(!a.is_empty(), "period 4 over 200 hits must fire");
            assert_eq!(a, b, "same seed must replay the same injections");
        }

        #[test]
        fn plan_drop_disarms_and_clears() {
            {
                let _plan = plan()
                    .at("test::point::tmp", 1, FaultAction::YieldStorm(1))
                    .install();
                hit("test::point::tmp");
                assert_eq!(hits("test::point::tmp"), 1);
            }
            let _plan = plan().install();
            assert_eq!(hits("test::point::tmp"), 0, "hits cleared with the plan");
        }
    }
}
