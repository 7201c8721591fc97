//! Bounded MPSC command ring: the shard's front door.
//!
//! Vyukov-style sequence-stamped slots: each slot carries a `seq` counter
//! that encodes whether it is free for the producer at position `pos`
//! (`seq == pos`), holds a published entry (`seq == pos + 1`), or still
//! belongs to a previous lap. Producers claim positions with a CAS on
//! `tail`; the single consumer (the shard worker) pops in position order,
//! so per-producer FIFO is preserved end to end — the batch-drain ordering
//! guarantee the tests pin down.
//!
//! Backpressure: a full ring makes producers wait in
//! [`smr_common::Backoff`]'s spin → yield → park escalator — bounded
//! memory, no busy-spin, no hidden unbounded queue. Once a producer
//! escalates to parking it parks on the `space` doorbell, which the
//! consumer rings when it frees a slot and `close()` broadcasts — so no
//! producer can stay parked on a retired ring. Pushes optionally carry a
//! deadline so a wedged (alive but stalled) worker cannot block a client
//! past its op budget.
//!
//! Sleep/wake, worker side: the worker parks on a condvar when the ring is
//! empty. The `sleeping` flag plus re-check under the doorbell mutex closes
//! the lost wakeup race; a coarse wait timeout is belt and braces only.
//! The doorbell is rung on demand: by a push whose caller is blocked on it
//! or that brings the backlog to one worker batch
//! ([`Ring::push_deadline`]), else by whoever next waits for progress
//! ([`Ring::flush`]); the coarse timeout bounds what nobody waits for.
//! When the batch it just ran held a command whose caller has nothing else
//! in flight, it first polls the ring for [`IDLE_SPIN_BUDGET_NS`]
//! ([`Ring::spin_for_work`]): that caller's next command is one reply
//! round trip away, and a park + doorbell wake costs about the budget.
//!
//! Sleep/wake, client side: a reply wait spins, yields, and then *registers*
//! on its [`ResponseSlot`] and parks; whoever resolves a registered slot
//! unparks exactly that thread. The slot's one state word carries all of
//! it — see the state diagram on [`ResponseSlot`].
//!
//! Crash story: when the worker dies (panic or shutdown), it *retires* the
//! ring — closed + `worker_gone` — after which any client waiting on a
//! response rescues the queue itself: it drains every published entry under
//! `rescue` and fails it with [`ShardDown`]. Nothing ever blocks on a dead
//! shard.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use smr_common::time::mono_ns;
use smr_common::{counters, Backoff, CachePadded};

use crate::ShardDown;

/// One key-value command. `u64 → u64` mirrors the workload engine's key
/// space; the store layer is generic underneath if that ever widens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Read `key`.
    Get { key: u64 },
    /// Insert `key → value`; fails (None reply) if the key exists.
    Put { key: u64, value: u64 },
    /// Remove `key`, replying with the removed value.
    Del { key: u64 },
    /// Chaos vector: the worker panics while "executing" this command (its
    /// reply resolves to the shard-down error through the reply guard).
    /// Used by the supervision tests, the chaos campaigns and the recovery
    /// benchmark to kill a *specific* shard deterministically — never part
    /// of a production workload. `key` only routes it.
    Crash { key: u64 },
}

impl Command {
    /// The key this command routes on.
    pub fn key(&self) -> u64 {
        match *self {
            Command::Get { key }
            | Command::Put { key, .. }
            | Command::Del { key }
            | Command::Crash { key } => key,
        }
    }
}

/// Why a push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The ring is closed (shutdown or dead worker); the command was never
    /// queued.
    Closed,
    /// The push deadline elapsed while the ring stayed full; the command
    /// was never queued.
    TimedOut,
}

/// How long an idle worker polls the ring for a blocked caller's next
/// command before it parks: the measured cost of one park plus one doorbell
/// wake on the reference host (≈ 50 µs through the kernel's timer slack and
/// the futex round trip). Spinning for as long as the alternative costs is
/// the classic 2-competitive rent-or-buy bound: never more than twice the
/// cost of the better choice made with hindsight.
const IDLE_SPIN_BUDGET_NS: u64 = 50_000;
/// Polls between two `yield_now` + clock reads inside that budget (≈ 2–6 µs
/// of pauses by CPU generation). The yield is what lets a client sharing the
/// worker's only CPU run at all; the clock is read nowhere else in the spin.
const IDLE_SPIN_SLICE: u32 = 128;
/// Longest single park of the worker: how late a published command runs
/// when nobody rang for it — a sub-batch window its client never drains, or
/// a push that raced the worker to sleep with no waiter behind it.
const DOORBELL_BACKSTOP: Duration = Duration::from_millis(50);
/// Longest single park of a reply wait. The targeted unpark is the wake
/// protocol; this only bounds how late a waiter notices a worker that died
/// or wedged without resolving its slot.
const REPLY_BACKSTOP: Duration = Duration::from_millis(1);
/// Reply polls that read no clock: [`Backoff`]'s default spin phase. Every
/// later step is a syscall (yield or park), beside which the deadline and
/// worker-death checks are free.
const CLOCK_FREE_POLLS: u32 = 6;

// Reply-slot states. Unresolved states are `PENDING` or `WAITING`, each with
// or without the `BLOCKED` bit; a resolved state is final until the client
// re-arms the slot.
//
//            arm(false)            arm(true)              (client, sole owner)
//               │                     │
//            PENDING           PENDING_BLOCKED
//               │ register()          │ register()        (client, about to park)
//            WAITING           WAITING|BLOCKED
//               └──────────┬──────────┘
//                          │ one `swap`                   (worker or rescuer)
//          DONE_NONE · DONE_SOME · DROPPED
//
/// Bit 0 of an unresolved state: the caller has nothing else in flight, so
/// its next command cannot arrive before this reply does.
const BLOCKED: u32 = 1;
const PENDING: u32 = 0;
const PENDING_BLOCKED: u32 = PENDING | BLOCKED;
/// The caller stored its `Thread` in `waiter` and parks; the resolver owes
/// it an unpark.
const WAITING: u32 = 2;
const DONE_NONE: u32 = 4;
const DONE_SOME: u32 = 5;
const DROPPED: u32 = 6;

/// A one-shot reply cell shared by the submitting client and the worker.
/// Clients pool and reuse slots across commands ([`arm`](Self::arm)), so
/// the steady state allocates nothing.
///
/// Exactly one party resolves an armed slot, with exactly one `swap` of
/// `state`: the worker that popped the command (through its
/// [`ReplyGuard`]), or a rescuer that popped it off a dead worker's ring.
/// The swap's previous value hands the resolver, for free, whether the
/// caller is blocked on this reply and whether it parked.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    state: AtomicU32,
    /// Set by a resolver that found the caller registered, once it has
    /// taken the handle and before it unparks it. Lets a waiter whose park
    /// ran out tell a wake that is merely late from one that is not coming;
    /// touched on neither side's fast path (it fills `state`'s padding).
    woke: AtomicBool,
    value: AtomicU64,
    /// The parked caller's handle. Written by the client before its
    /// `register` CAS, taken by the resolver whose swap returned `WAITING`;
    /// the state word says whose turn it is, so the cell needs no lock.
    waiter: UnsafeCell<Option<Thread>>,
}

// SAFETY: `state`, `woke` and `value` are atomics. `waiter` is written only
// by the client while the slot is unresolved and unregistered (nobody else
// looks at it then), and read only by the one resolver whose swap saw
// `WAITING`, which the client's Release CAS in `register` ordered after the
// write. The client does not write it again before re-arming the slot, and
// `Client::take_slot` re-arms only a slot whose resolver has dropped its
// `Arc`.
unsafe impl Sync for ResponseSlot {}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            state: AtomicU32::new(PENDING),
            woke: AtomicBool::new(false),
            value: AtomicU64::new(0),
            waiter: UnsafeCell::new(None),
        }
    }

    /// Rearms a pooled slot for the next command; `blocked` records that
    /// the caller will have nothing else in flight. Caller must be the only
    /// owner left (the previous command resolved and its resolver let go).
    pub(crate) fn arm(&self, blocked: bool) {
        let state = if blocked { PENDING_BLOCKED } else { PENDING };
        self.state.store(state, Relaxed);
        if self.woke.load(Relaxed) {
            self.woke.store(false, Relaxed);
        }
    }

    /// The resolver's single write. Returns whether the caller was blocked
    /// on this reply.
    fn resolve(&self, done: u32) -> bool {
        // AcqRel: Release publishes `value` with the result; Acquire pairs
        // with `register`'s Release so the waiter handle is visible.
        let prev = self.state.swap(done, AcqRel);
        debug_assert!(prev < DONE_NONE, "reply slot resolved twice");
        if prev & WAITING != 0 {
            // SAFETY: the swap returned `WAITING`, so the client published
            // the cell and will not touch it until it re-arms the slot,
            // which it cannot while the caller of `resolve` holds its `Arc`.
            let thread = unsafe { (*self.waiter.get()).take() };
            self.woke.store(true, Release);
            if let Some(thread) = thread {
                thread.unpark();
            }
        }
        prev & BLOCKED != 0
    }

    fn complete(&self, result: Option<u64>) -> bool {
        match result {
            Some(v) => {
                self.value.store(v, Relaxed);
                self.resolve(DONE_SOME)
            }
            None => self.resolve(DONE_NONE),
        }
    }

    /// Client side: announce that this thread is about to park on the slot.
    /// False if the slot resolved first.
    fn register(&self) -> bool {
        // SAFETY: the slot is unresolved and unregistered, or resolved with
        // a previous state other than `WAITING`; either way no resolver
        // reads the cell (see the `Sync` impl).
        unsafe { *self.waiter.get() = Some(std::thread::current()) };
        let mut state = self.state.load(Relaxed);
        while state < WAITING {
            match self
                .state
                .compare_exchange_weak(state, state | WAITING, Release, Relaxed)
            {
                Ok(_) => return true,
                Err(now) => state = now,
            }
        }
        false
    }

    /// Client side, after a park ran its full length and found the reply
    /// already there: whether the resolver's wake is at least on its way.
    /// The resolver sets the flag a few instructions after its swap, so a
    /// short grace covers a wake that is merely late.
    fn wake_was_sent(&self) -> bool {
        (0..1 << 12).any(|_| {
            std::hint::spin_loop();
            self.woke.load(Acquire)
        })
    }

    /// Client side: non-blocking result check.
    pub(crate) fn poll(&self) -> Option<Result<Option<u64>, ShardDown>> {
        match self.state.load(Acquire) {
            DONE_NONE => Some(Ok(None)),
            DONE_SOME => Some(Ok(Some(self.value.load(Relaxed)))),
            DROPPED => Some(Err(ShardDown)),
            _ => None,
        }
    }
}

/// The obligation to resolve one popped command exactly once: publish its
/// result with [`complete`](Self::complete), or fail it as [`ShardDown`] on
/// drop — the store op panicked under the worker, or a rescuer drained the
/// command off a dead worker's ring. Once `complete` has run the guard is
/// disarmed for good, so nothing it does later can land on the command the
/// client re-armed the slot for.
pub(crate) struct ReplyGuard {
    slot: Arc<ResponseSlot>,
    armed: bool,
}

impl ReplyGuard {
    pub(crate) fn new(slot: Arc<ResponseSlot>) -> Self {
        Self { slot, armed: true }
    }

    /// Publishes the result. Returns whether the caller was blocked on it.
    pub(crate) fn complete(&mut self, result: Option<u64>) -> bool {
        debug_assert!(self.armed, "reply completed twice");
        self.armed = false;
        self.slot.complete(result)
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            self.slot.resolve(DROPPED);
        }
    }
}

/// Why a response wait ended without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitError {
    /// The worker died before (or while) executing the command; the slot
    /// is resolved and safe to pool again.
    Down,
    /// The deadline elapsed with the command still pending. The worker may
    /// complete the slot *later*, so the caller must abandon it — never
    /// return it to a reuse pool.
    TimedOut,
}

pub(crate) type Entry = (Command, Arc<ResponseSlot>);

/// A time budget that starts at its first look at the clock, so an
/// operation that stays on its fast path reads none. Every slow path (full
/// ring, closed ring, a reply past its spin phase) checks it before it
/// waits, which anchors it within a few polls of the operation's start.
pub(crate) struct Deadline {
    timeout: Duration,
    at: Option<Instant>,
}

impl Deadline {
    pub(crate) fn after(timeout: Duration) -> Self {
        Self { timeout, at: None }
    }

    /// Time left at `now`; `None` once the deadline has passed.
    fn left(&mut self, now: Instant) -> Option<Duration> {
        let at = *self.at.get_or_insert(now + self.timeout);
        (now < at).then(|| at - now)
    }

    pub(crate) fn passed(&mut self) -> bool {
        self.left(Instant::now()).is_none()
    }
}

struct Slot {
    seq: AtomicUsize,
    entry: UnsafeCell<MaybeUninit<Entry>>,
}

/// The worker's pillow: where it sleeps when the ring is empty.
struct Doorbell {
    sleeping: AtomicBool,
    /// Whether the worker is inside `cv.wait`; a ringer that finds it is
    /// not skips the futex wake (the worker re-checks `sleeping` first).
    lock: Mutex<bool>,
    cv: Condvar,
    /// Times the worker went to sleep here. Written by the worker alone.
    parks: AtomicU64,
    /// Rings that found the worker asleep and paid the futex wake; at most
    /// one per park.
    wakes: AtomicU64,
}

/// The producers' pillow: where pushes park once their backoff escalates
/// and the ring stays full. The consumer rings it when it frees a slot
/// (only when `waiters != 0`, so the hot pop path pays one relaxed load)
/// and `close()` broadcasts so nobody stays parked on a dead shard. The
/// bounded wait below is a backstop against the register/park race, not
/// the wake protocol.
struct SpaceBell {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

pub(crate) struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    /// Producer cursor.
    tail: CachePadded<AtomicUsize>,
    /// Consumer cursor. Atomic only so the rescue path can take over after
    /// the worker dies; a live worker is the sole writer.
    head: CachePadded<AtomicUsize>,
    /// Queued commands at which a push rings a sleeping worker unasked:
    /// one worker batch, or the whole ring if that is smaller.
    wake_backlog: usize,
    closed: AtomicBool,
    /// Set (after `closed`) once the worker has exited; enables rescue.
    worker_gone: AtomicBool,
    /// Serializes post-mortem drains between rescuing clients.
    rescue: Mutex<()>,
    doorbell: Doorbell,
    space: SpaceBell,
    /// Reply waits that ran a full [`REPLY_BACKSTOP`] park and found their
    /// slot resolved by someone who never sent them a wake: a reply that
    /// reached its caller by the timer. Zero while the wake protocol holds.
    /// (Elapsed time alone cannot tell: a worker stalled for about the
    /// backstop resolves and wakes just as the park runs out.)
    reply_backstops: AtomicU64,
}

// Entries are moved across threads through the slots; Command and
// Arc<ResponseSlot> are both Send.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// `capacity` rounds up to a power of two; `batch` is the worker's.
    pub(crate) fn with_capacity(capacity: usize, batch: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                entry: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: cap - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
            wake_backlog: batch.clamp(1, cap),
            closed: AtomicBool::new(false),
            worker_gone: AtomicBool::new(false),
            rescue: Mutex::new(()),
            doorbell: Doorbell {
                sleeping: AtomicBool::new(false),
                lock: Mutex::new(false),
                cv: Condvar::new(),
                parks: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
            },
            space: SpaceBell {
                waiters: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            },
            reply_backstops: AtomicU64::new(0),
        }
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Acquire)
    }

    pub(crate) fn is_worker_gone(&self) -> bool {
        self.worker_gone.load(Acquire)
    }

    /// Whether the worker is parked on the doorbell (or about to be).
    pub(crate) fn is_worker_parked(&self) -> bool {
        self.doorbell.sleeping.load(Relaxed)
    }

    pub(crate) fn worker_parks(&self) -> u64 {
        self.doorbell.parks.load(Relaxed)
    }

    pub(crate) fn doorbell_wakes(&self) -> u64 {
        self.doorbell.wakes.load(Relaxed)
    }

    pub(crate) fn reply_backstops(&self) -> u64 {
        self.reply_backstops.load(Relaxed)
    }

    /// Enqueues a command. Blocks (via backoff, escalating to parking on
    /// the space doorbell) while the ring is full; fails when the ring is
    /// closed, or stays full past `deadline` (wedged worker). A failed push
    /// never queued the command, so the response slot stays safe to reuse.
    ///
    /// A sleeping worker is woken only if the caller is `blocked` on this
    /// command or the backlog has reached `wake_backlog` (as a full ring
    /// has); otherwise by [`flush`](Self::flush) or its
    /// [`DOORBELL_BACKSTOP`]. An awake worker costs a push one relaxed load.
    pub(crate) fn push_deadline(
        &self,
        cmd: Command,
        resp: Arc<ResponseSlot>,
        blocked: bool,
        deadline: &mut Deadline,
    ) -> Result<(), PushError> {
        let mut backoff = Backoff::new();
        loop {
            if self.closed.load(Acquire) {
                return Err(PushError::Closed);
            }
            let pos = self.tail.load(Relaxed);
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Acquire);
            let lag = seq.wrapping_sub(pos) as isize;
            if lag == 0 {
                if self
                    .tail
                    .compare_exchange_weak(pos, pos.wrapping_add(1), Relaxed, Relaxed)
                    .is_ok()
                {
                    unsafe { (*slot.entry.get()).write((cmd, resp)) };
                    slot.seq.store(pos.wrapping_add(1), Release);
                    if self.doorbell.sleeping.load(Relaxed)
                        && (blocked
                            || pos.wrapping_add(1).wrapping_sub(self.head.load(Relaxed))
                                >= self.wake_backlog)
                    {
                        self.ring_doorbell();
                    }
                    return Ok(());
                }
                backoff.cas_failed();
            } else if lag < 0 {
                // Full: a whole lap behind. Wait for the consumer.
                smr_common::fault_point!("kv::ring::full");
                // The push that filled the ring rang; this closes its
                // store→load gap before anyone parks behind it.
                self.flush();
                if deadline.passed() {
                    return Err(PushError::TimedOut);
                }
                if backoff.is_parking() {
                    self.wait_for_space();
                } else {
                    backoff.snooze();
                }
            } else {
                // A producer ahead of us claimed the slot but has not
                // published yet; its publish is imminent.
                std::hint::spin_loop();
            }
        }
    }

    /// Whether the producer-side next slot is still a lap behind (full).
    fn is_full(&self) -> bool {
        let pos = self.tail.load(Relaxed);
        let seq = self.slots[pos & self.mask].seq.load(Acquire);
        (seq.wrapping_sub(pos) as isize) < 0
    }

    /// Producer: park until the consumer frees a slot or the ring closes.
    /// The re-check after registering closes the lost-wakeup race against
    /// `pop`/`close`; the 1 ms timeout is a backstop only.
    fn wait_for_space(&self) {
        // This *is* the park phase of the producer's escalator; account for
        // it like `Backoff::snooze` would so the contention counters (and
        // the backpressure tests reading them) keep seeing parks.
        counters::incr_backoff_park();
        self.space.waiters.fetch_add(1, SeqCst);
        {
            let guard = self.space.lock.lock().unwrap();
            if self.is_full() && !self.closed.load(SeqCst) {
                let _ = self
                    .space
                    .cv
                    .wait_timeout(guard, Duration::from_millis(1));
            }
        }
        self.space.waiters.fetch_sub(1, SeqCst);
    }

    /// Consumer side: wake parked producers after freeing a slot. Cheap
    /// when nobody is parked (one relaxed load).
    fn ring_space_bell(&self) {
        if self.space.waiters.load(Relaxed) != 0 {
            let _guard = self.space.lock.lock().unwrap();
            self.space.cv.notify_all();
        }
    }

    /// Dequeues the next published entry. Single consumer: only the shard
    /// worker while it lives, then rescuers serialized by `rescue`.
    pub(crate) fn pop(&self) -> Option<Entry> {
        let pos = self.head.load(Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let entry = unsafe { (*slot.entry.get()).assume_init_read() };
        // Free the slot for the producer one lap ahead.
        slot.seq
            .store(pos.wrapping_add(self.mask).wrapping_add(1), Release);
        self.head.store(pos.wrapping_add(1), Release);
        self.ring_space_bell();
        Some(entry)
    }

    /// Whether the consumer-side next entry is published.
    fn has_next(&self) -> bool {
        let pos = self.head.load(Relaxed);
        self.slots[pos & self.mask].seq.load(Acquire) == pos.wrapping_add(1)
    }

    /// Worker: poll for the next command (or the close) for up to
    /// [`IDLE_SPIN_BUDGET_NS`] instead of parking. Only worth it when a
    /// blocked caller's next command is known to be a round trip away;
    /// behind pipelined traffic it would trade the batching that parking
    /// buys (one wake per ≈ 20 commands) for a synchronous hand-over of
    /// every command, so the worker asks for it per batch. Returns whether
    /// there is something to do.
    pub(crate) fn spin_for_work(&self) -> bool {
        let start = mono_ns();
        loop {
            for _ in 0..IDLE_SPIN_SLICE {
                if self.has_next() || self.closed.load(Relaxed) {
                    return true;
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
            if mono_ns().saturating_sub(start) >= IDLE_SPIN_BUDGET_NS {
                return false;
            }
        }
    }

    /// Worker: sleep until a producer rings the doorbell or the ring
    /// closes. Returns immediately if either is already true.
    pub(crate) fn wait_for_work(&self) {
        self.doorbell.sleeping.store(true, SeqCst);
        if self.has_next() || self.closed.load(SeqCst) {
            self.doorbell.sleeping.store(false, SeqCst);
            return;
        }
        let mut parked = self.doorbell.lock.lock().unwrap();
        if self.doorbell.sleeping.load(SeqCst) && !self.has_next() && !self.closed.load(SeqCst) {
            self.doorbell.parks.fetch_add(1, Relaxed);
            *parked = true;
            // The timeout covers what the wake rules leave to it: a push
            // that raced this park and a sub-batch window nobody waits on.
            let waited = self.doorbell.cv.wait_timeout(parked, DOORBELL_BACKSTOP);
            parked = waited.unwrap().0;
            *parked = false;
        }
        self.doorbell.sleeping.store(false, SeqCst);
    }

    /// Wakes the worker. For callers that have just seen `sleeping` set.
    fn ring_doorbell(&self) {
        if self.doorbell.sleeping.swap(false, SeqCst) {
            let mut parked = self.doorbell.lock.lock().unwrap();
            if std::mem::take(&mut *parked) {
                self.doorbell.wakes.fetch_add(1, Relaxed);
                self.doorbell.cv.notify_all();
            }
        }
    }

    /// Wakes the worker if it sleeps on queued commands: called by whoever
    /// needs them to run — `Client::drain` once per shard of its window, a
    /// reply wait before every yield or park, a producer facing a full
    /// ring. The fence orders the caller's pushes before its `sleeping`
    /// load, as the worker's SeqCst store orders `sleeping` before its last
    /// look at the ring: one side sees the other, so a caller that waits
    /// loses no doorbell. An empty ring means the caller's commands were
    /// popped; their replies need no wake.
    pub(crate) fn flush(&self) {
        fence(SeqCst);
        if self.doorbell.sleeping.load(Relaxed)
            && self.head.load(Relaxed) != self.tail.load(Relaxed)
        {
            self.ring_doorbell();
        }
    }

    /// Stops accepting new commands, wakes the worker to drain what is
    /// already queued, and broadcasts to producers parked on a full ring so
    /// none of them stays parked on a dead shard.
    pub(crate) fn close(&self) {
        self.closed.store(true, SeqCst);
        {
            let _guard = self.doorbell.lock.lock().unwrap();
            self.doorbell.sleeping.store(false, SeqCst);
            self.doorbell.cv.notify_all();
        }
        let _guard = self.space.lock.lock().unwrap();
        self.space.cv.notify_all();
    }

    /// Worker's last act (normal exit *and* unwind): close, hand the
    /// consumer role to rescuers, and fail whatever is still queued.
    pub(crate) fn retire(&self) {
        self.close();
        self.worker_gone.store(true, SeqCst);
        self.rescue_drain();
    }

    /// Post-mortem drain: pops every published entry and fails it. Only
    /// meaningful once `worker_gone`; callers race benignly via `rescue`.
    pub(crate) fn rescue_drain(&self) {
        let _guard = self.rescue.lock().unwrap();
        while let Some((_, resp)) = self.pop() {
            drop(ReplyGuard::new(resp));
        }
    }

    /// Client-side wait for a response on `slot`, rescuing the ring if the
    /// worker died underneath us. A [`WaitError::TimedOut`] slot may still
    /// be completed by the worker later — the caller must abandon it, not
    /// pool it.
    ///
    /// Spin, then yield, then park *on the slot*: the resolver's swap sees
    /// the registration and unparks this thread, so a parked wait ends with
    /// the reply, not with a timer. The spin phase reads no clock, does not
    /// look for a dead worker and rings no doorbell; all three start with
    /// the first yield.
    pub(crate) fn wait_response_deadline(
        &self,
        slot: &ResponseSlot,
        deadline: &mut Deadline,
    ) -> Result<Option<u64>, WaitError> {
        let mut backoff = Backoff::new();
        let mut polls = 0u32;
        let mut registered = false;
        loop {
            if let Some(result) = slot.poll() {
                return result.map_err(|ShardDown| WaitError::Down);
            }
            if polls < CLOCK_FREE_POLLS {
                polls += 1;
                backoff.snooze();
                continue;
            }
            if self.is_worker_gone() {
                // Our entry is published (push returned Ok), so a rescue
                // pass must resolve it — unless the worker died while
                // executing it, in which case its reply guard already
                // marked it dropped.
                self.rescue_drain();
                if let Some(result) = slot.poll() {
                    return result.map_err(|ShardDown| WaitError::Down);
                }
            }
            // From here on every step is a syscall: make sure the worker is
            // not asleep on the command this wait is for.
            self.flush();
            let now = Instant::now();
            let Some(left) = deadline.left(now) else {
                return Err(WaitError::TimedOut);
            };
            let park_for = REPLY_BACKSTOP.min(left);
            if !backoff.is_parking() {
                backoff.snooze();
                continue;
            }
            if !registered {
                registered = slot.register();
                if !registered {
                    continue;
                }
            }
            // The park phase of this wait's escalator, counted as
            // `Backoff::snooze` counts its own.
            counters::incr_backoff_park();
            std::thread::park_timeout(park_for);
            if park_for == REPLY_BACKSTOP
                && now.elapsed() >= REPLY_BACKSTOP
                && slot.poll().is_some()
                && !slot.wake_was_sent()
            {
                self.reply_backstops.fetch_add(1, Relaxed);
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Entries may remain if the service was dropped without shutdown.
        while let Some((_, resp)) = self.pop() {
            drop(ReplyGuard::new(resp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deadline of a test that means not to have one.
    const FOREVER: Duration = Duration::from_secs(3600);

    impl Ring {
        /// Enqueues a command nobody is blocked on.
        fn push(&self, cmd: Command, resp: Arc<ResponseSlot>) -> Result<(), PushError> {
            self.push_deadline(cmd, resp, false, &mut Deadline::after(FOREVER))
        }

        fn wait_response(&self, slot: &ResponseSlot) -> Result<Option<u64>, ShardDown> {
            self.wait_response_deadline(slot, &mut Deadline::after(FOREVER))
                .map_err(|_| ShardDown)
        }
    }

    fn entry(key: u64) -> (Command, Arc<ResponseSlot>) {
        (Command::Get { key }, Arc::new(ResponseSlot::new()))
    }

    #[test]
    fn fifo_within_capacity_and_across_wraparound() {
        let ring = Ring::with_capacity(8, 4);
        // Three laps through an 8-slot ring.
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..3 {
            for _ in 0..8 {
                let (c, r) = entry(next_push);
                ring.push(c, r).unwrap();
                next_push += 1;
            }
            while let Some((c, _)) = ring.pop() {
                assert_eq!(c.key(), next_pop);
                next_pop += 1;
            }
        }
        assert_eq!(next_pop, 24);
        assert!(!ring.has_next());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::with_capacity(1000, 4).capacity(), 1024);
        assert_eq!(Ring::with_capacity(1, 4).capacity(), 2);
    }

    #[test]
    fn push_after_close_is_rejected() {
        let ring = Ring::with_capacity(4, 4);
        ring.close();
        let (c, r) = entry(1);
        assert_eq!(ring.push(c, r), Err(PushError::Closed));
    }

    #[test]
    fn retire_fails_queued_commands() {
        let ring = Ring::with_capacity(8, 4);
        let slots: Vec<_> = (0..4)
            .map(|k| {
                let (c, r) = entry(k);
                ring.push(c, r.clone()).unwrap();
                r
            })
            .collect();
        ring.retire();
        for s in &slots {
            assert_eq!(s.poll(), Some(Err(ShardDown)));
        }
        assert_eq!(ring.wait_response(&slots[0]), Err(ShardDown));
    }

    #[test]
    fn push_deadline_times_out_on_full_ring() {
        let ring = Ring::with_capacity(2, 4);
        for k in 0..2 {
            let (c, r) = entry(k);
            ring.push(c, r).unwrap();
        }
        let (c, r) = entry(9);
        let started = Instant::now();
        let mut deadline = Deadline::after(Duration::from_millis(20));
        assert_eq!(
            ring.push_deadline(c, r, false, &mut deadline),
            Err(PushError::TimedOut)
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_producer_parked_on_full_ring() {
        let ring = Arc::new(Ring::with_capacity(2, 4));
        for k in 0..2 {
            let (c, r) = entry(k);
            ring.push(c, r).unwrap();
        }
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let (c, r) = entry(9);
                ring.push(c, r)
            })
        };
        // Let the producer reach the full branch and escalate to parking.
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }

    #[test]
    fn wait_response_deadline_times_out_while_pending() {
        let ring = Ring::with_capacity(4, 4);
        let (c, r) = entry(1);
        ring.push(c, Arc::clone(&r)).unwrap();
        // No consumer: the wait must end at the deadline, not hang.
        let mut deadline = Deadline::after(Duration::from_millis(20));
        assert_eq!(
            ring.wait_response_deadline(&r, &mut deadline),
            Err(WaitError::TimedOut)
        );
    }

    #[test]
    fn response_slot_roundtrip_and_reuse() {
        let s = ResponseSlot::new();
        assert_eq!(s.poll(), None);
        assert!(!s.complete(Some(7)));
        assert_eq!(s.poll(), Some(Ok(Some(7))));
        s.arm(true);
        assert_eq!(s.poll(), None);
        // The resolver learns the caller was blocked from its own swap.
        assert!(s.complete(None));
        assert_eq!(s.poll(), Some(Ok(None)));
        s.arm(false);
        assert!(!s.resolve(DROPPED));
        assert_eq!(s.poll(), Some(Err(ShardDown)));
    }

    #[test]
    fn reply_slot_with_its_arc_header_stays_within_40_bytes() {
        // Two Arc counts + state + value + waiter: the saturated path must
        // not gain a cache line per command.
        assert!(std::mem::size_of::<ResponseSlot>() + 16 <= 40);
    }

    /// The PR-11 re-arm race: the worker's guard used to run a late
    /// `PENDING → DROPPED` CAS after `complete`, which could land on the
    /// command the client had meanwhile re-armed the slot for.
    #[test]
    fn guard_dropped_after_complete_leaves_a_rearmed_slot_pending() {
        let slot = Arc::new(ResponseSlot::new());
        let mut guard = ReplyGuard::new(Arc::clone(&slot));
        guard.complete(Some(1));
        assert_eq!(slot.poll(), Some(Ok(Some(1))));
        // Client: reads the reply, pools the slot, re-arms it for its next
        // command — all before the worker leaves `execute`.
        slot.arm(false);
        drop(guard);
        assert_eq!(slot.poll(), None, "a stale guard failed the next command");
        assert_eq!(slot.state.load(Relaxed), PENDING);
    }

    #[test]
    fn guard_dropped_without_a_result_fails_the_command() {
        let slot = Arc::new(ResponseSlot::new());
        drop(ReplyGuard::new(Arc::clone(&slot)));
        assert_eq!(slot.poll(), Some(Err(ShardDown)));
    }

    #[test]
    fn resolving_a_registered_slot_unparks_its_waiter() {
        let ring = Arc::new(Ring::with_capacity(4, 4));
        let (c, r) = entry(1);
        ring.push(c, Arc::clone(&r)).unwrap();
        let waiter = {
            let (ring, r) = (Arc::clone(&ring), Arc::clone(&r));
            std::thread::spawn(move || ring.wait_response(&r))
        };
        // Resolve only once the waiter has registered, so the reply can
        // reach it through the unpark alone.
        while r.state.load(Acquire) & WAITING == 0 {
            std::thread::yield_now();
        }
        let (_, resp) = ring.pop().unwrap();
        ReplyGuard::new(resp).complete(Some(5));
        assert_eq!(waiter.join().unwrap(), Ok(Some(5)));
        assert_eq!(ring.reply_backstops(), 0);
    }

    /// A worker loop as bare as the protocol allows: echo the key, sleep on
    /// the doorbell when dry.
    fn echo_worker(ring: &Arc<Ring>) -> std::thread::JoinHandle<()> {
        let ring = Arc::clone(ring);
        std::thread::spawn(move || loop {
            match ring.pop() {
                Some((cmd, resp)) => {
                    ReplyGuard::new(resp).complete(Some(cmd.key()));
                }
                None if ring.is_closed() => break,
                None => ring.wait_for_work(),
            }
        })
    }

    /// Blocks until the worker has begun a park it was not in before.
    fn await_fresh_park(ring: &Ring, parks_seen: &mut u64) {
        while ring.worker_parks() == *parks_seen || !*ring.doorbell.lock.lock().unwrap() {
            std::thread::yield_now();
        }
        *parks_seen = ring.worker_parks();
    }

    #[test]
    fn pushes_ring_only_for_a_blocked_caller_or_a_full_batch() {
        let ring = Arc::new(Ring::with_capacity(16, 4));
        let worker = echo_worker(&ring);
        let mut parks = 0;
        // Three queued commands nobody is blocked on: under the batch of 4.
        // (Retried if the worker's own backstop fired in the meantime.)
        let replies = loop {
            await_fresh_park(&ring, &mut parks);
            let replies: Vec<_> = (0..3)
                .map(|k| {
                    let (c, r) = entry(k);
                    ring.push(c, Arc::clone(&r)).unwrap();
                    r
                })
                .collect();
            if ring.worker_parks() == parks && ring.is_worker_parked() {
                break replies;
            }
        };
        assert_eq!(ring.doorbell_wakes(), 0, "a sub-batch push rang");
        assert!(replies.iter().all(|r| r.poll().is_none()));
        // The fourth makes a batch.
        let (c, r) = entry(3);
        ring.push(c, Arc::clone(&r)).unwrap();
        assert_eq!(ring.wait_response(&r), Ok(Some(3)));
        assert_eq!(ring.doorbell_wakes(), 1);
        // One command whose caller is blocked on it rings at once.
        await_fresh_park(&ring, &mut parks);
        let (c, r) = entry(9);
        r.arm(true);
        ring.push_deadline(c, Arc::clone(&r), true, &mut Deadline::after(FOREVER))
            .unwrap();
        assert_eq!(ring.doorbell_wakes(), 2);
        assert_eq!(ring.wait_response(&r), Ok(Some(9)));
        assert!(ring.doorbell_wakes() <= ring.worker_parks());
        ring.close();
        worker.join().unwrap();
    }

    /// The push-side doorbell gap, staged: the worker is parked and an entry
    /// is published that nobody rang for — what a push leaves behind when
    /// its `sleeping` load overtook its own `seq` store. A caller that
    /// waits fetches its reply with its own fenced ring, long before the
    /// worker's backstop.
    #[test]
    fn a_waiter_rings_for_an_entry_published_behind_a_parked_worker() {
        let ring = Arc::new(Ring::with_capacity(8, 4));
        let worker = echo_worker(&ring);
        let mut parks = 0;
        for attempt in 0.. {
            await_fresh_park(&ring, &mut parks);
            let wakes = ring.doorbell_wakes();
            let (c, r) = entry(7);
            ring.push(c, Arc::clone(&r)).unwrap();
            assert_eq!(ring.doorbell_wakes(), wakes, "a sub-batch push rang");
            let began = Instant::now();
            assert_eq!(ring.wait_response(&r), Ok(Some(7)));
            let took = began.elapsed();
            // No wake paid: the worker's own timer beat the waiter to it.
            if ring.doorbell_wakes() == wakes + 1 {
                assert!(
                    took < DOORBELL_BACKSTOP / 4,
                    "the waiter rang, and still waited {took:?}"
                );
                break;
            }
            assert!(attempt < 8, "every reply came by the worker's backstop");
        }
        ring.close();
        worker.join().unwrap();
    }

    #[test]
    fn deadline_starts_at_its_first_reading() {
        let mut deadline = Deadline::after(Duration::from_millis(30));
        std::thread::sleep(Duration::from_millis(40));
        assert!(!deadline.passed(), "the budget ran before anyone looked");
        std::thread::sleep(Duration::from_millis(40));
        assert!(deadline.passed());
    }

    #[test]
    fn idle_spin_sees_a_push_and_gives_up_after_its_budget() {
        let ring = Arc::new(Ring::with_capacity(4, 4));
        let t = mono_ns();
        assert!(!ring.spin_for_work());
        let spent = mono_ns() - t;
        assert!(spent >= IDLE_SPIN_BUDGET_NS, "gave up after {spent} ns");
        let (c, r) = entry(1);
        ring.push(c, r).unwrap();
        assert!(ring.spin_for_work());
        ring.pop().unwrap();
        ring.close();
        assert!(ring.spin_for_work(), "a closed ring must end the spin");
    }
}
