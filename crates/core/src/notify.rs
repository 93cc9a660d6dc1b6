//! Async event notification schemes (paper §3.4 / §4.4).
//!
//! Two mechanisms deliver "your crypto result is ready" to the event
//! loop:
//!
//! 1. **FD-based** — an eventfd-like [`VirtualFd`] registered with an
//!    epoll-like [`FdSelector`]. Faithful to the baseline design and,
//!    like the real thing, every signal/wait/clear crosses the
//!    (simulated) user/kernel boundary; the crossings are *counted* so
//!    tests and benches can observe exactly the overhead the paper's
//!    kernel-bypass scheme removes.
//! 2. **Kernel-bypass** — an application-defined [`AsyncQueue`] of async
//!    handlers, appended to by the response callback and drained at the
//!    end of the main event loop. No kernel crossings at all.
//!
//! Either is handed to a [`WaitCtx`](crate::wait_ctx::WaitCtx) as a
//! [`Waker`] — the paper's `(callback, callback_arg)` pair:
//! [`AsyncQueue::waker`] appends its token (the connection id), a
//! `VirtualFd` is signalled. A blocking caller's [`Parker`] is the third
//! waker (`qtls_sync`).
//!
//! Both can carry the event loop's [`Parker`]: a completion delivered
//! from a foreign thread (the timer poller's) then wakes a loop that
//! went to sleep with nothing else to do.

use qtls_sync::{Condvar, Mutex, Parker, WakeSlot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Duration;

/// Global-ish meter of simulated user/kernel mode switches. One meter is
/// shared per worker so the QAT+A vs QTLS notification cost is directly
/// measurable.
#[derive(Debug, Default)]
pub struct KernelCostMeter {
    /// Simulated syscalls that crossed into the kernel.
    pub mode_switches: AtomicU64,
}

impl KernelCostMeter {
    /// Record `n` user/kernel mode switches.
    pub fn record(&self, n: u64) {
        self.mode_switches.fetch_add(n, Ordering::Relaxed);
    }

    /// Total recorded switches.
    pub fn total(&self) -> u64 {
        self.mode_switches.load(Ordering::Relaxed)
    }
}

/// An eventfd-like notification FD: a counter that becomes "readable"
/// when signalled.
pub struct VirtualFd {
    /// Identity within its selector.
    pub id: u64,
    counter: AtomicU64,
    selector: Mutex<Option<Arc<SelectorInner>>>,
    meter: Mutex<Option<Arc<KernelCostMeter>>>,
}

impl VirtualFd {
    /// Create an unregistered FD.
    pub fn new(id: u64) -> Self {
        VirtualFd {
            id,
            counter: AtomicU64::new(0),
            selector: Mutex::new(None),
            meter: Mutex::new(None),
        }
    }

    /// Signal readiness (the response callback's `write(fd)` — one
    /// kernel crossing).
    pub fn signal(&self) {
        self.counter.fetch_add(1, Ordering::Release);
        if let Some(m) = self.meter.lock().as_ref() {
            m.record(1);
        }
        if let Some(sel) = self.selector.lock().clone() {
            sel.wake();
        }
    }

    /// Is the FD readable?
    pub fn is_ready(&self) -> bool {
        self.counter.load(Ordering::Acquire) > 0
    }

    /// Consume readiness (the application's `read(fd)` — one kernel
    /// crossing). Returns the number of events consumed.
    pub fn clear(&self) -> u64 {
        if let Some(m) = self.meter.lock().as_ref() {
            m.record(1);
        }
        self.counter.swap(0, Ordering::AcqRel)
    }
}

/// Waking signals the FD (the response callback's `write(fd)`); the
/// selector then reports the FD's id, which names the connection.
impl Wake for VirtualFd {
    fn wake(self: Arc<Self>) {
        self.signal();
    }
}

struct SelectorInner {
    lock: Mutex<()>,
    cond: Condvar,
    /// The event loop that multiplexes over this selector, if it sleeps
    /// elsewhere than in [`FdSelector::wait_ready`].
    waker: WakeSlot,
}

impl SelectorInner {
    fn wake(&self) {
        {
            let _g = self.lock.lock();
            self.cond.notify_all();
        }
        self.waker.wake();
    }
}

/// An epoll-like readiness multiplexer over [`VirtualFd`]s.
pub struct FdSelector {
    inner: Arc<SelectorInner>,
    fds: Mutex<Vec<Arc<VirtualFd>>>,
    meter: Arc<KernelCostMeter>,
}

impl Default for FdSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl FdSelector {
    /// New selector with its own cost meter.
    pub fn new() -> Self {
        FdSelector {
            inner: Arc::new(SelectorInner {
                lock: Mutex::new(()),
                cond: Condvar::new(),
                waker: WakeSlot::new(),
            }),
            fds: Mutex::new(Vec::new()),
            meter: Arc::new(KernelCostMeter::default()),
        }
    }

    /// The kernel-crossing meter.
    pub fn meter(&self) -> &Arc<KernelCostMeter> {
        &self.meter
    }

    /// Wake `waker` whenever a registered FD is signalled (the loop
    /// sleeping in its own `epoll_wait` equivalent).
    pub fn set_waker(&self, waker: Arc<Parker>) {
        self.inner.waker.set(waker);
    }

    /// Register an FD (`epoll_ctl(ADD)` — one kernel crossing).
    pub fn register(&self, fd: Arc<VirtualFd>) {
        self.meter.record(1);
        *fd.selector.lock() = Some(Arc::clone(&self.inner));
        *fd.meter.lock() = Some(Arc::clone(&self.meter));
        self.fds.lock().push(fd);
    }

    /// Deregister an FD (`epoll_ctl(DEL)` — one kernel crossing).
    pub fn deregister(&self, id: u64) {
        self.meter.record(1);
        self.fds.lock().retain(|fd| fd.id != id);
    }

    /// Collect ready FD ids without blocking (`epoll_wait(timeout=0)` —
    /// one kernel crossing).
    pub fn poll_ready(&self) -> Vec<u64> {
        self.meter.record(1);
        self.fds
            .lock()
            .iter()
            .filter(|fd| fd.is_ready())
            .map(|fd| fd.id)
            .collect()
    }

    /// Block up to `timeout` for readiness (`epoll_wait` — one kernel
    /// crossing), then return ready FD ids.
    pub fn wait_ready(&self, timeout: Duration) -> Vec<u64> {
        self.meter.record(1);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let ready: Vec<u64> = self
                .fds
                .lock()
                .iter()
                .filter(|fd| fd.is_ready())
                .map(|fd| fd.id)
                .collect();
            if !ready.is_empty() {
                return ready;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            let mut g = self.inner.lock.lock();
            self.inner.cond.wait_for(&mut g, deadline - now);
        }
    }
}

/// The kernel-bypass notification channel: an application-defined queue
/// of async-handler tokens, drained at the end of the main event loop
/// (paper §3.4). `T` is whatever the application needs to reschedule the
/// paused connection (e.g. a connection id + handler discriminant).
pub struct AsyncQueue<T> {
    queue: Mutex<VecDeque<T>>,
    /// The event loop that drains this queue, woken on every push.
    waker: WakeSlot,
}

impl<T> Default for AsyncQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AsyncQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        AsyncQueue {
            queue: Mutex::new(VecDeque::new()),
            waker: WakeSlot::new(),
        }
    }

    /// Wake `waker` on every push (a push from the draining loop's own
    /// thread just leaves it a token).
    pub fn set_waker(&self, waker: Arc<Parker>) {
        self.waker.set(waker);
    }

    /// Insert at the tail (called by the response callback — pure user
    /// space, no kernel crossing).
    pub fn push(&self, item: T) {
        self.queue.lock().push_back(item);
        self.waker.wake();
    }

    /// Remove from the head.
    pub fn pop(&self) -> Option<T> {
        self.queue.lock().pop_front()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        self.queue.lock().drain(..).collect()
    }

    /// Number of queued handlers.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

/// The kernel-bypass callback and its argument: waking appends `token`
/// to `queue`.
struct QueueWaker {
    queue: Arc<AsyncQueue<u64>>,
    token: u64,
}

impl Wake for QueueWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.token);
    }
}

impl AsyncQueue<u64> {
    /// A waker that appends `token` (the async-handler information the
    /// application registered, e.g. a connection id) to this queue.
    pub fn waker(self: &Arc<Self>, token: u64) -> Waker {
        Waker::from(Arc::new(QueueWaker {
            queue: Arc::clone(self),
            token,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_signal_and_clear() {
        let fd = VirtualFd::new(3);
        assert!(!fd.is_ready());
        fd.signal();
        fd.signal();
        assert!(fd.is_ready());
        assert_eq!(fd.clear(), 2);
        assert!(!fd.is_ready());
    }

    #[test]
    fn selector_poll_ready() {
        let sel = FdSelector::new();
        let a = Arc::new(VirtualFd::new(1));
        let b = Arc::new(VirtualFd::new(2));
        sel.register(Arc::clone(&a));
        sel.register(Arc::clone(&b));
        assert!(sel.poll_ready().is_empty());
        b.signal();
        assert_eq!(sel.poll_ready(), vec![2]);
    }

    #[test]
    fn selector_wait_wakes_on_signal() {
        let sel = FdSelector::new();
        let fd = Arc::new(VirtualFd::new(9));
        sel.register(Arc::clone(&fd));
        let fd2 = Arc::clone(&fd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            fd2.signal();
        });
        let ready = sel.wait_ready(Duration::from_secs(5));
        assert_eq!(ready, vec![9]);
        t.join().unwrap();
    }

    #[test]
    fn selector_wait_times_out() {
        let sel = FdSelector::new();
        let fd = Arc::new(VirtualFd::new(9));
        sel.register(fd);
        let ready = sel.wait_ready(Duration::from_millis(10));
        assert!(ready.is_empty());
    }

    #[test]
    fn kernel_crossings_counted() {
        let sel = FdSelector::new();
        let fd = Arc::new(VirtualFd::new(1));
        sel.register(Arc::clone(&fd)); // 1
        fd.signal(); // 2
        sel.poll_ready(); // 3
        fd.clear(); // 4
        sel.deregister(1); // 5
        assert_eq!(sel.meter().total(), 5);
    }

    #[test]
    fn one_waker_type_covers_queue_and_fd() {
        let queue = Arc::new(AsyncQueue::<u64>::new());
        let fd = Arc::new(VirtualFd::new(4));
        let wakers: Vec<Waker> = vec![queue.waker(31), Arc::clone(&fd).into()];
        for waker in &wakers {
            waker.wake_by_ref();
        }
        assert_eq!(queue.drain(), vec![31]);
        assert!(fd.is_ready());
        assert_eq!(fd.clear(), 1);
    }

    #[test]
    fn foreign_push_and_signal_wake_the_parked_loop() {
        // The loop parks first (an hour: only a wake ends it), the
        // foreign thread publishes second — in both schemes.
        let parker = Arc::new(Parker::new());
        let queue = Arc::new(AsyncQueue::<u64>::new());
        queue.set_waker(Arc::clone(&parker));
        let sel = FdSelector::new();
        sel.set_waker(Arc::clone(&parker));
        let fd = Arc::new(VirtualFd::new(5));
        sel.register(Arc::clone(&fd));
        let t0 = std::time::Instant::now();
        std::thread::scope(|scope| {
            let (q, fd) = (Arc::clone(&queue), Arc::clone(&fd));
            scope.spawn(move || q.waker(17).wake());
            while queue.is_empty() {
                parker.park_timeout(Duration::from_secs(3600));
            }
            scope.spawn(move || Waker::from(fd).wake());
            while sel.poll_ready().is_empty() {
                parker.park_timeout(Duration::from_secs(3600));
            }
        });
        assert_eq!(queue.drain(), vec![17]);
        assert!(t0.elapsed() < Duration::from_secs(60), "woken by timeout");
    }

    #[test]
    fn async_queue_is_fifo_and_free_of_kernel_costs() {
        let q = AsyncQueue::new();
        q.push(1u32);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.drain(), vec![2, 3]);
        assert!(q.is_empty());
    }
}
