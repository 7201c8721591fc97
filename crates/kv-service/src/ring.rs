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
//! Sleep/wake: every sleep here is one [`EventCount`] handshake and ends on
//! a notify or on the caller's own deadline, never on a timer. Producers
//! facing a full ring spin, yield, then sleep on `space`, which the consumer
//! notifies per batch (and `close()` too). The worker sleeps on `work` when
//! the ring is empty; a push notifies it only if its caller is blocked on
//! it or the backlog reaches one worker batch ([`Ring::push_deadline`]),
//! else whoever next waits on this ring does ([`Ring::flush`]), or
//! `close()`: a sub-batch window nobody waits for stays queued. Behind a
//! blocked caller, the worker first polls for [`IDLE_SPIN_BUDGET_NS`]
//! ([`Ring::spin_for_work`]), about what a park + wake costs. A reply wait
//! polls its [`ResponseSlot`], yields, then *registers* on it and parks
//! until its deadline; the resolver unparks exactly that thread.
//!
//! Slot ownership: a client owns its reply slots and *lends* one to each
//! entry it pushes — the entry holds a bare pointer, not a reference
//! count. The resolver's last access to a slot is the write of its final
//! state, so an owner that has read that state may lend it again or free
//! it. An owner that cannot wait for it (a command abandoned at its
//! deadline, a client dropped with commands in flight) hands the slot to
//! the ring ([`Ring::adopt`]), which frees it once resolved.
//!
//! Crash story: when the worker dies (panic or shutdown), it *retires* the
//! ring — closed + `worker_gone` — after which any client waiting on a
//! response rescues the queue itself: it drains every published entry under
//! `rescue` and fails it. Nothing ever blocks on a dead shard.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use smr_common::time::mono_ns;
use smr_common::util::prefetch;
use smr_common::{counters, Backoff, CachePadded};

use crate::event::EventCount;

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
/// Reply polls that read no clock, one `spin_loop` apart: the ≈ 63 pauses
/// of [`Backoff`]'s spin phase, spent at a flat rate so that a reply is read
/// within one pause of its arrival instead of a doubling gap after it. Every
/// later step is a syscall (yield or park), beside which the deadline and
/// worker-death checks are free.
const CLOCK_FREE_POLLS: u32 = 64;

// Reply-slot states: `generation << 3 | WAITING? | code`, where the code is
// that of the slot's last resolution (0 for a new slot) and the generation
// counts resolutions. A client lends a slot in the state it last read, and
// the slot is pending for as long as it stays there, registered or not.
//
//     (gen, code) ──── register() ────▶ (gen, code) | WAITING    (client, about to park)
//          └────────────────┬──────────────────┘
//                           │ one final write                  (worker or rescuer:
//     (gen + 1, DONE_NONE · DONE_SOME · DROPPED)                its last access)
//
const DONE_NONE: u32 = 1;
const DONE_SOME: u32 = 2;
/// Also the mask of the code bits.
const DROPPED: u32 = 3;
/// The caller stored its `Thread` in `waiter` and parks; the resolver owes
/// it an unpark.
const WAITING: u32 = 4;
/// Bit 0 of a lent slot pointer: the caller has nothing else in flight, so
/// its next command cannot arrive before this reply does.
const BLOCKED: usize = 1;

/// A one-shot reply cell, owned by one client (or, once abandoned, by a
/// ring's [`adopt`](Ring::adopt) list) and lent to the entry of one command
/// at a time. Clients pool and reuse slots across commands
/// ([`lend`](Self::lend)), so the steady state allocates nothing.
///
/// Exactly one party resolves a lent slot: the worker that popped the
/// command (through its [`ReplyGuard`]), or a rescuer that popped it off a
/// dead worker's ring. Its last access is one `Release` write of the next
/// generation's state — a CAS from the state the slot was lent in, or,
/// when the caller registered, a store after the resolver has taken the
/// waiter handle. An owner that reads that state therefore holds the slot
/// alone again. The client writes nothing to the slot to lend it again, so
/// the one line both sides touch per command moves twice: to the resolver
/// and back. That state word is a one-waiter eventcount whose epoch is the
/// generation; it cannot be an [`EventCount`], whose notify touches the
/// slot after the write its owner may already have read.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    state: AtomicU32,
    value: AtomicU64,
    /// The parked caller's handle. Written by the client before its
    /// `register` CAS, taken by the resolver that found `WAITING`; the state
    /// word says whose turn it is, so the cell needs no lock.
    waiter: UnsafeCell<Option<Thread>>,
}

// SAFETY: `state` and `value` are atomics. `waiter` is written by
// the client only while no resolver may read it: before the Release CAS in
// `register` publishes it, or after the client read the next generation
// (Acquire), which the resolver writes after its last look at the cell.
// The resolver reads it only after it found `WAITING` (Acquire, pairing
// with `register`), and takes it before its final write.
unsafe impl Sync for ResponseSlot {}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            state: AtomicU32::new(0),
            value: AtomicU64::new(0),
            waiter: UnsafeCell::new(None),
        }
    }

    /// Readies a slot for the next command and returns the state it is
    /// lent in — its last resolution's, which the caller has read (or a new
    /// slot's). Caller must hold the slot alone: it is new, or the caller
    /// read its last resolution.
    pub(crate) fn lend(&self) -> u32 {
        self.state.load(Relaxed)
    }

    /// The resolver's one write of a final state, and its last access to
    /// the slot: the owner may free it the moment it reads that state.
    fn resolve(&self, done: u32) {
        // The state the slot was lent in, maybe with `WAITING`. Its owner
        // wrote nothing here since it read it, so this load hits the line
        // the resolver already shares. Acquire, here and on a failed CAS,
        // pairs with `register`'s Release so the waiter handle is visible
        // (an ordering on the access itself, not a fence: ThreadSanitizer
        // does not see fences).
        let mut now = self.state.load(Acquire);
        if now & WAITING == 0 {
            // Release publishes `value` with the result, and everything
            // this resolver did to the slot before letting go.
            match self
                .state
                .compare_exchange(now, next_generation(now, done), Release, Acquire)
            {
                Ok(_) => return,
                Err(registered) => now = registered,
            }
        }
        debug_assert!(now & WAITING != 0, "reply slot resolved twice");
        // SAFETY: the caller registered: it published the cell and does not
        // touch it again before it reads the final state stored below.
        let thread = unsafe { (*self.waiter.get()).take() };
        self.state.store(next_generation(now, done), Release);
        if let Some(thread) = thread {
            thread.unpark();
        }
    }

    /// Client side: announce that this thread is about to park on the slot
    /// lent in state `lent`. False if the slot resolved first.
    fn register(&self, lent: u32) -> bool {
        // SAFETY: the slot is unregistered, so no resolver reads the cell
        // (see the `Sync` impl).
        unsafe { *self.waiter.get() = Some(std::thread::current()) };
        self.state
            .compare_exchange(lent, lent | WAITING, Release, Relaxed)
            .is_ok()
    }

    /// Client side: hints the lines [`poll`](Self::poll) reads (`state` and
    /// `value`) into this core's cache, ahead of the poll.
    pub(crate) fn prefetch(&self) {
        prefetch(&self.state);
        prefetch(&self.value);
    }

    /// Client side: non-blocking result check of the slot lent in state
    /// `lent`.
    pub(crate) fn poll(&self, lent: u32) -> Option<Result<Option<u64>, WaitError>> {
        let state = self.state.load(Acquire);
        if state & !WAITING == lent {
            return None;
        }
        match state & DROPPED {
            DONE_NONE => Some(Ok(None)),
            DONE_SOME => Some(Ok(Some(self.value.load(Relaxed)))),
            _ => Some(Err(WaitError::Down)),
        }
    }
}

/// The state a resolution of a slot now in `now` writes: the next
/// generation, with code `done` and without `WAITING`.
fn next_generation(now: u32, done: u32) -> u32 {
    (now | WAITING | DROPPED).wrapping_add(1) | done
}

/// The obligation to resolve one popped command exactly once: publish its
/// result with [`complete`](Self::complete), or fail it as
/// [`WaitError::Down`] on drop — the store op panicked under the worker, or
/// a rescuer drained the command off a dead worker's ring. Once `complete`
/// has run the guard is disarmed for good, so nothing it does later can
/// land on the command the client lent the slot to next. [`Ring::pop`]
/// hands one out with every command.
pub(crate) struct ReplyGuard {
    slot: Lent,
    armed: bool,
}

impl ReplyGuard {
    fn new(slot: Lent) -> Self {
        Self { slot, armed: true }
    }

    /// Publishes the result. Returns whether the caller was blocked on it.
    pub(crate) fn complete(&mut self, result: Option<u64>) -> bool {
        debug_assert!(self.armed, "reply completed twice");
        self.armed = false;
        // SAFETY: unresolved until `resolve`, the last access.
        let slot = unsafe { self.slot.get() };
        let done = match result {
            Some(v) => {
                slot.value.store(v, Relaxed);
                DONE_SOME
            }
            None => DONE_NONE,
        };
        slot.resolve(done);
        self.slot.blocked()
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            // SAFETY: unresolved; `resolve` is the last access.
            unsafe { self.slot.get() }.resolve(DROPPED);
        }
    }
}

/// What a ring entry holds of its reply slot: a pointer lent by the slot's
/// owner, with [`BLOCKED`] in bit 0, so an entry stays a command plus one
/// word.
struct Lent(*const ResponseSlot);

impl Lent {
    fn new(slot: &ResponseSlot, blocked: bool) -> Self {
        // Bit 0 of the slot's address is free.
        const { assert!(std::mem::align_of::<ResponseSlot>() > 1) };
        Self((slot as *const ResponseSlot).map_addr(|a| a | blocked as usize))
    }

    fn blocked(&self) -> bool {
        self.0.addr() & BLOCKED != 0
    }

    /// # Safety
    ///
    /// The slot is unresolved: its owner keeps it allocated until it reads
    /// a final state ([`Ring::push_deadline`]'s contract), and the caller
    /// is the one resolver, which has not written that state yet.
    unsafe fn get(&self) -> &ResponseSlot {
        unsafe { &*self.0.map_addr(|a| a & !BLOCKED) }
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

/// A popped command and the obligation to answer it.
pub(crate) type Entry = (Command, ReplyGuard);

/// A time budget that starts at its first look at the clock, so an
/// operation that stays on its fast path reads none. Every slow path (full
/// ring, closed ring, a reply past its spin phase) checks it before it
/// waits, which anchors it within a few polls of the operation's start.
pub(crate) struct Deadline {
    timeout: Duration,
    /// When it passes; set by the first look ([`passed`](Self::passed)).
    pub(crate) at: Option<Instant>,
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
    entry: UnsafeCell<MaybeUninit<(Command, Lent)>>,
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
    /// Where the worker sleeps on an empty ring, its doorbell: `sleeps`
    /// counts its parks, `wakes` the notifies that ended one.
    pub(crate) work: EventCount,
    /// Where producers sleep on a full ring; notified per batch, not pop.
    pub(crate) space: EventCount,
    /// Slots whose owners let go before their resolvers did; see
    /// [`adopt`](Self::adopt).
    adopted: Mutex<Vec<(Arc<ResponseSlot>, u32)>>,
}

// SAFETY: entries move across threads through the slots. A `Command` is
// plain data; a `Lent` points at a `Sync` reply slot that its owner keeps
// allocated while the entry exists (`push_deadline`'s contract), and only
// the consumer that popped the entry touches it. Every other field is an
// atomic or a lock.
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
            work: EventCount::default(),
            space: EventCount::default(),
            adopted: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Acquire)
    }

    pub(crate) fn is_worker_gone(&self) -> bool {
        self.worker_gone.load(Acquire)
    }

    /// Enqueues a command. Blocks (via backoff, escalating to sleeping on
    /// `space`) while the ring is full; fails when the ring is closed, or
    /// stays full past `deadline` (wedged worker). A failed push never
    /// queued the command, so the response slot stays safe to reuse.
    ///
    /// A sleeping worker is woken only if the caller is `blocked` on this
    /// command or the backlog has reached `wake_backlog` (as a full ring
    /// has); otherwise by the next [`flush`](Self::flush) or `close`. An
    /// awake worker costs a push one relaxed load.
    ///
    /// # Safety
    ///
    /// The caller holds `slot` alone and readied it with
    /// [`ResponseSlot::lend`]. If the push succeeds, the slot stays
    /// allocated until its owner reads it resolved ([`ResponseSlot::poll`])
    /// or hands it to this ring's [`adopt`](Self::adopt).
    pub(crate) unsafe fn push_deadline(
        &self,
        cmd: Command,
        slot: &ResponseSlot,
        blocked: bool,
        deadline: &mut Deadline,
    ) -> Result<(), PushError> {
        // Built on the first contention: most pushes meet none.
        let mut backoff = None::<Backoff>;
        loop {
            if self.closed.load(Acquire) {
                return Err(PushError::Closed);
            }
            let pos = self.tail.load(Relaxed);
            let ring_slot = &self.slots[pos & self.mask];
            let seq = ring_slot.seq.load(Acquire);
            let lag = seq.wrapping_sub(pos) as isize;
            if lag == 0 {
                if self
                    .tail
                    .compare_exchange_weak(pos, pos.wrapping_add(1), Relaxed, Relaxed)
                    .is_ok()
                {
                    // SAFETY: the tail CAS made this producer the slot's
                    // only writer until the `seq` store publishes it.
                    unsafe { (*ring_slot.entry.get()).write((cmd, Lent::new(slot, blocked))) };
                    ring_slot.seq.store(pos.wrapping_add(1), Release);
                    if self.work.has_sleepers()
                        && (blocked
                            || pos.wrapping_add(1).wrapping_sub(self.head.load(Relaxed))
                                >= self.wake_backlog)
                    {
                        self.work.notify();
                    }
                    return Ok(());
                }
                backoff.get_or_insert_with(Backoff::new).cas_failed();
            } else if lag < 0 {
                // Full: a whole lap behind. Wait for the consumer.
                smr_common::fault_point!("kv::ring::full");
                // The push that filled the ring rang; this closes its
                // store→load gap before anyone parks behind it.
                self.flush();
                if deadline.passed() {
                    return Err(PushError::TimedOut);
                }
                let backoff = backoff.get_or_insert_with(Backoff::new);
                if !backoff.is_parking() {
                    backoff.snooze();
                    continue;
                }
                // The park phase of this push's escalator, counted as
                // `Backoff::snooze` counts its own.
                counters::incr_backoff_park();
                let key = self.space.prepare_wait();
                if self.is_full() && !self.closed.load(Relaxed) {
                    // Anchored by `passed`; a lost wake times the push out.
                    if !self.space.commit_wait(key, deadline.at) {
                        return Err(PushError::TimedOut);
                    }
                } else {
                    self.space.cancel_wait(key);
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

    /// Dequeues the next published entry. Single consumer: only the shard
    /// worker while it lives, then rescuers serialized by `rescue`. Whoever
    /// pops notifies `space`.
    pub(crate) fn pop(&self) -> Option<Entry> {
        let pos = self.head.load(Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let (cmd, lent) = unsafe { (*slot.entry.get()).assume_init_read() };
        // Free the slot for the producer one lap ahead.
        slot.seq
            .store(pos.wrapping_add(self.mask).wrapping_add(1), Release);
        self.head.store(pos.wrapping_add(1), Release);
        Some((cmd, ReplyGuard::new(lent)))
    }

    /// Takes over a slot lent to one of this ring's entries whose owner
    /// cannot wait for its resolver to let go: a command abandoned at its
    /// deadline, an undrained command of a dropped client, or
    /// `inject_crash`'s; `lent` is the state it was lent in. The slot is
    /// freed once resolved — at a later adoption — or with the ring, which
    /// resolves every entry it still holds first.
    pub(crate) fn adopt(&self, slot: Arc<ResponseSlot>, lent: u32) {
        let mut adopted = self.adopted.lock().unwrap_or_else(|e| e.into_inner());
        adopted.retain(|(slot, lent)| slot.poll(*lent).is_none());
        adopted.push((slot, lent));
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

    /// Worker: sleep until the ring has an entry or is closed, and a push,
    /// a waiter's [`flush`](Self::flush) or `close` notifies. `idle` runs
    /// once the re-check under the prepared wait finds the ring empty: a
    /// notify meanwhile ends the sleep before it starts, so it delays no
    /// command the doorbell would have run.
    pub(crate) fn wait_for_work(&self, idle: impl FnOnce()) {
        let key = self.work.prepare_wait();
        if self.has_next() || self.closed.load(Relaxed) {
            self.work.cancel_wait(key);
        } else {
            idle();
            self.work.commit_wait(key, None);
        }
    }

    /// Wakes the worker if it sleeps on queued commands: called by whoever
    /// needs them to run — `Client::drain` per shard of its window, a reply
    /// wait before every yield or park, a producer facing a full ring. The
    /// fence pairs with the worker's `prepare_wait`'s. `head`, the worker's
    /// hot line, is read only if it may sleep: an empty ring means the
    /// caller's commands were popped, and their replies need no wake.
    pub(crate) fn flush(&self) {
        fence(SeqCst);
        if self.work.has_sleepers() && self.head.load(Relaxed) != self.tail.load(Relaxed) {
            self.work.notify();
        }
    }

    /// Stops accepting new commands, and wakes the worker to drain what is
    /// already queued and every producer asleep on a full ring.
    pub(crate) fn close(&self) {
        self.closed.store(true, SeqCst);
        self.work.notify();
        self.space.notify();
    }

    /// Worker's last act (normal exit *and* unwind): close, hand the
    /// consumer role to rescuers, and fail whatever is still queued.
    pub(crate) fn retire(&self) {
        self.close();
        self.worker_gone.store(true, SeqCst);
        // Pairs with a waiter's `flush`: a push that passed the `closed`
        // check above but published after the pass below has a waiter
        // whose `worker_gone` check, behind that fence, sees this store.
        fence(SeqCst);
        self.rescue_drain();
    }

    /// Post-mortem drain: pops every published entry and fails it. Only
    /// meaningful once `worker_gone`; callers race benignly via `rescue`.
    pub(crate) fn rescue_drain(&self) {
        let _guard = self.rescue.lock().unwrap();
        // Each popped entry's guard fails its command as it drops.
        while self.pop().is_some() {}
        self.space.notify();
    }

    /// Client-side wait for a response on `slot`, lent in state `lent`,
    /// rescuing the ring if the worker died underneath us. A
    /// [`WaitError::TimedOut`] slot may still be completed by the worker
    /// later — the caller must hand it to [`adopt`](Self::adopt), not pool
    /// it.
    ///
    /// Poll, then yield, then park *on the slot* until the deadline; the
    /// resolver sees the registration and unparks this thread. The
    /// [`CLOCK_FREE_POLLS`] polls read no clock, do not look for a dead
    /// worker and ring no doorbell; all three start with the first yield.
    pub(crate) fn wait_response_deadline(
        &self,
        slot: &ResponseSlot,
        lent: u32,
        deadline: &mut Deadline,
    ) -> Result<Option<u64>, WaitError> {
        for _ in 0..CLOCK_FREE_POLLS {
            if let Some(result) = slot.poll(lent) {
                return result;
            }
            std::hint::spin_loop();
        }
        // The polls above were the spin phase.
        let mut backoff = Backoff::past_spin();
        let mut registered = false;
        loop {
            // From here on every step is a syscall: make sure the worker is
            // not asleep on the command this wait is for.
            self.flush();
            // Behind that fence (`retire`'s pairs with it), and before this
            // wait parks with nobody left to resolve its entry.
            if self.is_worker_gone() {
                // Our entry is published (push returned Ok), so a rescue
                // pass must resolve it — unless the worker died while
                // executing it, in which case its reply guard already
                // marked it dropped.
                self.rescue_drain();
            }
            // Before the poll: a wait that slept to its deadline times out,
            // so a lost wake fails the call instead of slowing it down.
            let Some(left) = deadline.left(Instant::now()) else {
                return Err(WaitError::TimedOut);
            };
            if let Some(result) = slot.poll(lent) {
                return result;
            }
            if !backoff.is_parking() {
                backoff.snooze();
                continue;
            }
            if !registered {
                smr_common::fault_point!("kv::reply::register");
                registered = slot.register(lent);
                if !registered {
                    // Resolved first: the next poll reads it.
                    continue;
                }
            }
            // The park phase of this wait's escalator, counted as
            // `Backoff::snooze` counts its own.
            counters::incr_backoff_park();
            std::thread::park_timeout(left);
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Entries may remain if the service was dropped without shutdown.
        // Fail them while their slots are still owned; `adopted` drops
        // after this.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test's deadline for any wait: reaching it means a wake was lost.
    const LOST: Duration = Duration::from_secs(20);

    /// A slot lent to one pushed command, and the state it was lent in.
    #[derive(Debug)]
    struct Sent {
        slot: Arc<ResponseSlot>,
        lent: u32,
    }

    impl Sent {
        fn poll(&self) -> Option<Result<Option<u64>, WaitError>> {
            self.slot.poll(self.lent)
        }
    }

    impl Ring {
        fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Lends `slot` to `Get { key }`. The ring adopts a handle, so the
        /// test may drop its own whenever it likes.
        fn lend(
            &self,
            key: u64,
            slot: &Arc<ResponseSlot>,
            blocked: bool,
            deadline: &mut Deadline,
        ) -> Result<Sent, PushError> {
            let lent = slot.lend();
            // SAFETY: readied by `lend`, and adopted by this ring once
            // queued.
            unsafe { self.push_deadline(Command::Get { key }, slot, blocked, deadline)? };
            self.adopt(Arc::clone(slot), lent);
            let slot = Arc::clone(slot);
            Ok(Sent { slot, lent })
        }

        /// Enqueues `Get { key }`, which nobody is blocked on, on a fresh
        /// slot.
        fn push(&self, key: u64) -> Result<Sent, PushError> {
            let slot = Arc::new(ResponseSlot::new());
            self.lend(key, &slot, false, &mut Deadline::after(LOST))
        }

        fn wait_response(&self, sent: &Sent) -> Result<Option<u64>, WaitError> {
            let reply =
                self.wait_response_deadline(&sent.slot, sent.lent, &mut Deadline::after(LOST));
            assert_ne!(reply, Err(WaitError::TimedOut), "lost wake");
            reply
        }
    }

    #[test]
    fn fifo_within_capacity_and_across_wraparound() {
        let ring = Ring::with_capacity(8, 4);
        // Three laps through an 8-slot ring.
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..3 {
            for _ in 0..8 {
                ring.push(next_push).unwrap();
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
        assert_eq!(ring.push(1).err(), Some(PushError::Closed));
    }

    #[test]
    fn retire_fails_queued_commands() {
        let ring = Ring::with_capacity(8, 4);
        let slots: Vec<_> = (0..4).map(|k| ring.push(k).unwrap()).collect();
        ring.retire();
        for s in &slots {
            assert_eq!(s.poll(), Some(Err(WaitError::Down)));
        }
        assert_eq!(ring.wait_response(&slots[0]), Err(WaitError::Down));
    }

    #[test]
    fn push_deadline_times_out_on_full_ring() {
        let ring = Ring::with_capacity(2, 4);
        for k in 0..2 {
            ring.push(k).unwrap();
        }
        let started = Instant::now();
        let mut deadline = Deadline::after(Duration::from_millis(20));
        let slot = Arc::new(ResponseSlot::new());
        assert_eq!(
            ring.lend(9, &slot, false, &mut deadline).err(),
            Some(PushError::TimedOut)
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_producer_parked_on_full_ring() {
        let ring = Arc::new(Ring::with_capacity(2, 4));
        for k in 0..2 {
            ring.push(k).unwrap();
        }
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(9).err())
        };
        // Let the producer reach the full branch and escalate to parking.
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Some(PushError::Closed));
    }

    #[test]
    fn wait_response_deadline_times_out_while_pending() {
        let ring = Ring::with_capacity(4, 4);
        let r = ring.push(1).unwrap();
        // No consumer: the wait must end at the deadline, not hang.
        let mut deadline = Deadline::after(Duration::from_millis(20));
        assert_eq!(
            ring.wait_response_deadline(&r.slot, r.lent, &mut deadline),
            Err(WaitError::TimedOut)
        );
    }

    #[test]
    fn response_slot_roundtrip_and_reuse() {
        let ring = Ring::with_capacity(4, 4);
        let s = ring.push(1).unwrap();
        assert_eq!(s.poll(), None);
        assert!(!ring.pop().unwrap().1.complete(Some(7)));
        assert_eq!(s.poll(), Some(Ok(Some(7))));
        // Lent again without a write: the result stays readable until the
        // next one lands.
        let s = ring
            .lend(2, &s.slot, true, &mut Deadline::after(LOST))
            .unwrap();
        assert_eq!(s.poll(), None);
        // The resolver learns the caller was blocked from the entry.
        assert!(ring.pop().unwrap().1.complete(None));
        assert_eq!(s.poll(), Some(Ok(None)));
        let s = ring
            .lend(3, &s.slot, false, &mut Deadline::after(LOST))
            .unwrap();
        let (_, unanswered) = ring.pop().unwrap();
        drop(unanswered);
        assert_eq!(s.poll(), Some(Err(WaitError::Down)));
    }

    #[test]
    fn reply_slot_with_its_arc_header_stays_within_40_bytes() {
        // The pool's `Arc` header (two counts, which no command touches) +
        // state + value + waiter: one slot is one 48-byte malloc chunk, and
        // the saturated path gains no cache line per command.
        assert!(std::mem::size_of::<ResponseSlot>() + 16 <= 40);
    }

    /// The PR-11 re-arm race: the worker's guard used to run a late
    /// `PENDING → DROPPED` CAS after `complete`, which could land on the
    /// command the client had meanwhile re-armed the slot for.
    #[test]
    fn guard_dropped_after_complete_leaves_a_rearmed_slot_pending() {
        let ring = Ring::with_capacity(4, 4);
        let sent = ring.push(1).unwrap();
        let (_, mut guard) = ring.pop().unwrap();
        guard.complete(Some(1));
        assert_eq!(sent.poll(), Some(Ok(Some(1))));
        // Client: reads the reply, pools the slot, lends it to its next
        // command — all before the worker leaves `execute`.
        let lent = sent.slot.lend();
        drop(guard);
        assert_eq!(
            sent.slot.poll(lent),
            None,
            "a stale guard failed the next command"
        );
        assert_eq!(sent.slot.state.load(Relaxed), lent);
    }

    #[test]
    fn guard_dropped_without_a_result_fails_the_command() {
        let ring = Ring::with_capacity(4, 4);
        let sent = ring.push(1).unwrap();
        let (_, guard) = ring.pop().unwrap();
        drop(guard);
        assert_eq!(sent.poll(), Some(Err(WaitError::Down)));
    }

    /// The resolver's final write is its last access to the slot. A client
    /// that lends the slot again and registers on it the moment it reads a
    /// result must never meet the resolver still inside the waiter cell
    /// (ThreadSanitizer watches the cell), and every wake must arrive by
    /// unpark, since a parked waiter sleeps until its deadline.
    #[test]
    fn a_slot_lent_again_the_moment_it_resolves_meets_no_resolver() {
        const ROUNDS: u64 = 10_000;
        // Declared first so it outlives the ring: the test is its owner.
        let slot = ResponseSlot::new();
        let ring = Ring::with_capacity(4, 4);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    // Resolve only a registered slot, so every round hands
                    // the waiter cell over.
                    while slot.state.load(Acquire) & WAITING == 0 {
                        std::thread::yield_now();
                    }
                    let (cmd, mut reply) = ring.pop().expect("registered before pushing");
                    reply.complete(Some(cmd.key()));
                }
            });
            for round in 0..ROUNDS {
                let lent = slot.lend();
                let mut deadline = Deadline::after(LOST);
                // SAFETY: readied by `lend`; `slot` outlives the ring, whose
                // entries are all resolved inside this scope.
                unsafe {
                    ring.push_deadline(Command::Get { key: round }, &slot, false, &mut deadline)
                }
                .unwrap();
                let reply = ring.wait_response_deadline(&slot, lent, &mut deadline);
                assert_eq!(reply, Ok(Some(round)), "lost wake");
            }
        });
    }

    /// A worker loop as bare as the protocol allows: echo the key, sleep on
    /// the doorbell when dry.
    fn echo_worker(ring: &Arc<Ring>) -> std::thread::JoinHandle<()> {
        let ring = Arc::clone(ring);
        std::thread::spawn(move || loop {
            match ring.pop() {
                Some((cmd, mut reply)) => {
                    reply.complete(Some(cmd.key()));
                }
                None if ring.is_closed() => break,
                None => ring.wait_for_work(|| {}),
            }
        })
    }

    /// The push-side doorbell gap, staged: the worker is parked and an entry
    /// is published that nobody rang for — what a push leaves behind when
    /// its sleeper hint load overtook its own `seq` store. Only a caller
    /// that waits can fetch its reply, with its own fenced notify.
    #[test]
    fn a_waiter_rings_for_an_entry_published_behind_a_parked_worker() {
        let ring = Arc::new(Ring::with_capacity(8, 4));
        let worker = echo_worker(&ring);
        // Asleep in its first park, which nothing but a notify ends.
        while ring.work.sleeps.load(Relaxed) == 0 || !ring.work.has_sleepers() {
            std::thread::yield_now();
        }
        let r = ring.push(7).unwrap();
        assert_eq!(ring.work.wakes.load(Relaxed), 0, "a sub-batch push rang");
        assert_eq!(ring.wait_response(&r), Ok(Some(7)));
        assert_eq!(ring.work.wakes.load(Relaxed), 1);
        ring.close();
        joins("the worker slept through close", worker);
    }

    /// Joins `thread`, failing the test (not hanging it) if the thread has
    /// not finished within [`LOST`].
    fn joins(what: &str, thread: std::thread::JoinHandle<()>) {
        let deadline = Instant::now() + LOST;
        while !thread.is_finished() {
            assert!(Instant::now() < deadline, "lost wake: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join().unwrap();
    }

    /// The worker's re-check between announcing its sleep and sleeping: an
    /// entry published, or a close, before the announcement is seen there,
    /// since no push or close after it is left to notify.
    #[test]
    fn the_worker_never_sleeps_on_a_queued_entry_or_a_closed_ring() {
        let ring = Arc::new(Ring::with_capacity(8, 4));
        // Sub-batch, and nobody asleep: this push notifies nobody.
        ring.push(1).unwrap();
        let r = Arc::clone(&ring);
        joins(
            "an entry was queued",
            std::thread::spawn(move || r.wait_for_work(|| {})),
        );
        ring.pop().unwrap();
        ring.close();
        let r = Arc::clone(&ring);
        joins(
            "the ring was closed",
            std::thread::spawn(move || r.wait_for_work(|| {})),
        );
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
        ring.push(1).unwrap();
        assert!(ring.spin_for_work());
        ring.pop().unwrap();
        ring.close();
        assert!(ring.spin_for_work(), "a closed ring must end the spin");
    }
}
