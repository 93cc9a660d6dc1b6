//! # qtls-sync — hermetic synchronization primitives
//!
//! A std-only shim providing the lock API the rest of the workspace was
//! written against (`parking_lot`-style, non-poisoning) plus the cache
//! padding wrapper the QAT ring model needs (`crossbeam`-style). It
//! exists so the default feature set of every crate resolves and builds
//! with **zero external dependencies** — the precondition for running
//! tier-1 verify offline.
//!
//! Semantics relative to `std::sync`:
//!
//! - [`Mutex::lock`], [`RwLock::read`] and [`RwLock::write`] return the
//!   guard directly instead of a `Result`: a panic while holding a lock
//!   does **not** poison it. The protected state in this codebase is
//!   either trivially valid at all times (queues, flags, maps) or
//!   re-validated by the consumer, so poisoning adds failure modes
//!   without adding safety.
//! - [`Condvar::wait`]/[`Condvar::wait_for`] take `&mut MutexGuard` (the
//!   `parking_lot` shape) rather than consuming and returning the guard.
//! - [`CachePadded`] aligns its contents to 64 bytes so the ring's
//!   producer and consumer cursors live on distinct cache lines.
//! - [`Parker`] is a one-token sleep/wake handle (the
//!   `thread::park`/`unpark` contract, but shareable before the sleeping
//!   thread is known): a wake that races the sleep is never lost.
//!   [`WakeSlot`] is where an event source keeps its consumer's parker.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` never fails.
///
/// Wraps [`std::sync::Mutex`]; a panic in a critical section releases
/// the lock and later callers simply see the state as the panicking
/// thread left it (non-poisoning).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// RAII guard for [`Mutex`]. The inner `Option` is only ever `None`
/// transiently inside [`Condvar::wait`]/[`Condvar::wait_for`], which
/// need to hand the std guard to the std condvar by value.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard present outside of wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_deref_mut()
            .expect("guard present outside of wait")
    }
}

/// A reader-writer lock whose `read()`/`write()` never fail
/// (non-poisoning; see [`Mutex`]).
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-access guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive-access guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Create a new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access, blocking while a writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire exclusive access, blocking until all guards are released.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable paired with [`Mutex`], using the
/// `&mut MutexGuard` waiting style.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's mutex and sleep until notified;
    /// the lock is re-acquired before returning. Spurious wakeups are
    /// possible — callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside of wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Like [`wait`](Condvar::wait) but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present outside of wait");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

const EMPTY: u8 = 0;
const PARKED: u8 = 1;
const NOTIFIED: u8 = 2;

/// A one-token sleep/wake handle for a single sleeper and any number of
/// wakers. [`unpark`](Parker::unpark) leaves a token;
/// [`park_timeout`](Parker::park_timeout) consumes one, sleeping until
/// it arrives or the timeout passes. A wake-up that lands before the
/// sleeper parks makes the next park return at once, so the sleeper's
/// protocol is simply: park, *then* look for work — whoever publishes
/// work publishes first and unparks second.
///
/// Waking a thread that is not parked costs one atomic swap.
#[derive(Default)]
pub struct Parker {
    state: AtomicU8,
    lock: Mutex<()>,
    cond: Condvar,
    /// Unparks that found the sleeper parked.
    wakes: AtomicU64,
}

impl Parker {
    /// A parker with no token.
    pub const fn new() -> Self {
        Parker {
            state: AtomicU8::new(EMPTY),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            wakes: AtomicU64::new(0),
        }
    }

    /// Consume the token, sleeping up to `timeout` for one. May return
    /// early without a token (spurious wake-up); callers re-check their
    /// work sources either way.
    pub fn park_timeout(&self, timeout: Duration) {
        if self
            .state
            .compare_exchange(NOTIFIED, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return;
        }
        let mut guard = self.lock.lock();
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.cond.wait_for(&mut guard, timeout);
        }
        // Takes the token if one arrived, withdraws PARKED if not.
        self.state.store(EMPTY, Ordering::SeqCst);
    }

    /// Leave a token and wake the sleeper if it is parked.
    pub fn unpark(&self) {
        if self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            // The sleeper holds `lock` from its PARKED store until it is
            // inside the wait, so taking it here orders the notify after
            // the wait began.
            drop(self.lock.lock());
            self.cond.notify_one();
        }
    }

    /// Is the sleeper parked right now (racy; monitoring and tests)?
    pub fn is_parked(&self) -> bool {
        self.state.load(Ordering::SeqCst) == PARKED
    }

    /// How many [`unpark`](Parker::unpark) calls found the sleeper
    /// parked and woke it — as opposed to leaving a token for a sleeper
    /// that was awake (monitoring and tests).
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

/// A parker is a [`Waker`](std::task::Waker): waking leaves the token.
/// A blocking caller sleeping on its own parker hands it to whatever
/// completes its work in this form.
impl std::task::Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.unpark();
    }
}

/// Where an event source keeps the [`Parker`] of whoever consumes its
/// events. Sources (sockets, queues, ring pairs) are usually built
/// before the loop that will sleep on them, so the target is bound late
/// and may be absent. The source publishes its event, then calls
/// [`wake`](WakeSlot::wake); the consumer [`set`](WakeSlot::set)s its
/// parker, then checks the source once for events that came earlier.
#[derive(Default)]
pub struct WakeSlot(RwLock<Option<Arc<Parker>>>);

impl WakeSlot {
    /// A slot with nobody to wake.
    pub const fn new() -> Self {
        WakeSlot(RwLock::new(None))
    }

    /// Wake `parker` from now on (replaces any previous registration).
    pub fn set(&self, parker: Arc<Parker>) {
        *self.0.write() = Some(parker);
    }

    /// Unpark the registered parker, if any.
    pub fn wake(&self) {
        if let Some(parker) = self.0.read().as_ref() {
            parker.unpark();
        }
    }
}

/// Pads and aligns `T` to a 64-byte cache line so that two adjacent
/// `CachePadded` fields can never share a line (no false sharing between
/// e.g. a ring's producer and consumer cursors).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in cache-line padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap, discarding the padding.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_not_poisoned_by_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 7;
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: the next lock() just works.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cond) = &*pair2;
            let mut done = lock.lock();
            *done = true;
            cond.notify_all();
        });
        let (lock, cond) = &*pair;
        let mut done = lock.lock();
        while !*done {
            cond.wait(&mut done);
        }
        assert!(*done);
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cond = Condvar::new();
        let mut g = lock.lock();
        let r = cond.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
        // The guard must still be usable (lock re-acquired).
        drop(g);
        assert!(lock.try_lock().is_some());
    }

    #[test]
    fn parker_token_outlives_the_race_with_park() {
        // Wake first, park second: the token makes the park a no-op.
        let p = Parker::new();
        p.unpark();
        p.unpark(); // one token, not two
        let t0 = std::time::Instant::now();
        p.park_timeout(Duration::from_secs(30));
        assert!(t0.elapsed() < Duration::from_secs(10));
        // The token is consumed: the next park runs out its timeout.
        let t0 = std::time::Instant::now();
        p.park_timeout(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn parker_wakes_a_parked_thread() {
        let p = Arc::new(Parker::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            let mut rounds = 0u32;
            // Every message is published before its unpark, so a park
            // that returns finds it (or a spurious return retries).
            while rounds < 1000 {
                p2.park_timeout(Duration::from_secs(30));
                while rx.try_recv().is_ok() {
                    rounds += 1;
                }
            }
        });
        let t0 = std::time::Instant::now();
        for _ in 0..1000 {
            tx.send(()).unwrap();
            p.unpark();
        }
        t.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(20), "a wake was lost");
    }

    #[test]
    fn cache_padded_layout() {
        use std::mem::{align_of, size_of};
        // The padding guarantee the ring relies on: each wrapped cursor
        // starts on its own 64-byte line.
        assert_eq!(align_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(size_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(align_of::<CachePadded<u8>>(), 64);
        assert_eq!(size_of::<CachePadded<u8>>(), 64);
        // Larger-than-a-line payloads round up to a multiple of 64.
        assert_eq!(size_of::<CachePadded<[u8; 65]>>(), 128);
    }

    #[test]
    fn cache_padded_deref() {
        let mut p = CachePadded::new(5u32);
        *p += 1;
        assert_eq!(*p, 6);
        assert_eq!(p.into_inner(), 6);
        assert_eq!(*CachePadded::from(9u8), 9);
    }
}
