//! Bounded lock-free MPMC ring buffer — the software model of a QAT
//! hardware request/response ring.
//!
//! Implementation follows the well-known Vyukov bounded-queue design:
//! each slot carries a sequence number that encodes whether it is ready
//! for a producer or a consumer, so `push`/`pop` need only one CAS each.
//! A full request ring returns [`RingFull`], which is exactly the
//! submission-failure case §3.2 of the paper handles by pausing the
//! offload job and retrying later.
//!
//! Both ends also move runs: [`Ring::push_batch`] publishes many values
//! under one producer-cursor CAS (one doorbell), and [`Ring::pop_batch`]
//! claims the run of ready values of one *batch class* at the head under
//! one consumer-cursor CAS — how an engine takes a doorbell's records
//! for one multi-buffer pass. A value's class is stamped on its slot at
//! push, so a consumer reads it before claiming without touching the
//! value.

use qtls_sync::CachePadded;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Error returned when pushing to a full ring (the value is handed back).
#[derive(Debug)]
pub struct RingFull<T>(pub T);

/// The batch class [`Ring::pop_batch`] never batches: a value of this
/// class always leaves the ring alone.
pub const SOLO: u8 = 0;

struct Slot<T> {
    /// Sequence: `pos` when ready for producer, `pos + 1` when occupied.
    seq: AtomicUsize,
    /// The value's batch class, stored before `seq` publishes the value.
    class: AtomicU8,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer ring.
pub struct Ring<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
    /// A value's batch class, read once per value, at push.
    class_of: fn(&T) -> u8,
}

unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Create a ring with capacity `cap` (rounded up to a power of two,
    /// minimum 2) whose values are all of one batch class.
    pub fn new(cap: usize) -> Self {
        Self::with_classes(cap, |_| 1)
    }

    /// A ring whose [`Self::pop_batch`] takes runs of one batch class,
    /// `class_of(&value)`; a value of class [`SOLO`] travels alone.
    pub fn with_classes(cap: usize, class_of: fn(&T) -> u8) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let buf: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                class: AtomicU8::new(SOLO),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            buf,
            mask: cap - 1,
            enqueue_pos: CachePadded::new(AtomicUsize::new(0)),
            dequeue_pos: CachePadded::new(AtomicUsize::new(0)),
            class_of,
        }
    }

    /// Capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The number of published values at the head of the ring: the run
    /// a consumer could take right now. A slot a producer has claimed but
    /// not yet published is not counted, so when nothing else consumes,
    /// that many pops succeed. Racy under concurrent consumers, and a
    /// walk over the run; for waits and monitoring, not the hot path.
    pub fn len(&self) -> usize {
        let pos = self.dequeue_pos.load(Ordering::Relaxed);
        (0..self.buf.len())
            .take_while(|&n| {
                self.buf[(pos + n) & self.mask].seq.load(Ordering::Acquire) == pos + n + 1
            })
            .count()
    }

    /// Whether no published value is at the head of the ring (racy; for
    /// waits and monitoring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a value; on a full ring the value is returned in [`RingFull`].
    pub fn push(&self, value: T) -> Result<(), RingFull<T>> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot ready for a producer at `pos`; try to claim it.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.class.store((self.class_of)(&value), Ordering::Relaxed);
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Slot still holds an unconsumed value from a lap ago:
                // the ring is full.
                return Err(RingFull(value));
            } else {
                // Another producer claimed `pos`; reload.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Push values from the front of `items` under ONE cursor publish:
    /// the batch claims as many contiguous free slots as are available
    /// (up to `items.len()`) with a single CAS on the enqueue cursor —
    /// the software analogue of writing the ring's tail register once
    /// per batch instead of once per request — then fills the slots and
    /// releases their sequence numbers in order.
    ///
    /// Returns the number of values pushed; values that did not fit
    /// remain in `items`. A return of `0` means the ring was full.
    pub fn push_batch(&self, items: &mut VecDeque<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        loop {
            let pos = self.enqueue_pos.load(Ordering::Relaxed);
            // Count contiguous producer-ready slots starting at `pos`.
            // The scan self-limits at `capacity`: slot `pos + cap` is
            // slot `pos` again, whose sequence cannot match both.
            let mut n = 0usize;
            while n < items.len() {
                let slot = &self.buf[(pos + n) & self.mask];
                if slot.seq.load(Ordering::Acquire) != pos + n {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                let seq = self.buf[pos & self.mask].seq.load(Ordering::Acquire);
                if (seq as isize) < pos as isize {
                    // Head slot still holds an unconsumed value from a
                    // lap ago: the ring is full.
                    return 0;
                }
                // Another producer claimed `pos` between loads; retry.
                continue;
            }
            if self
                .enqueue_pos
                .compare_exchange_weak(pos, pos + n, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // Slots [pos, pos + n) are ours; fill and publish in order
            // so consumers see a contiguous run.
            for i in 0..n {
                let slot = &self.buf[(pos + i) & self.mask];
                let value = items.pop_front().expect("counted above");
                slot.class.store((self.class_of)(&value), Ordering::Relaxed);
                unsafe { (*slot.val.get()).write(value) };
                slot.seq.store(pos + i + 1, Ordering::Release);
            }
            return n;
        }
    }

    /// Pop a value, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        // Mark the slot free for the producer one lap ahead.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the run of ready values at the head of the ring that share
    /// the first one's batch class — at most `k` of them, and only the
    /// first when its class is [`SOLO`] — appending them to `out` in FIFO
    /// order. The run is claimed under ONE CAS on the dequeue cursor,
    /// the mirror of [`Self::push_batch`]; a lone ready value is a run of
    /// one, so nothing ever waits for company. Returns how many values
    /// were taken: 0 when the ring is empty (or `k` is 0).
    pub fn pop_batch(&self, k: usize, out: &mut Vec<T>) -> usize {
        if k == 0 {
            return 0;
        }
        loop {
            let pos = self.dequeue_pos.load(Ordering::Relaxed);
            // Count the ready slots of one class from `pos`. A slot is
            // ready when its producer published it (`seq == p + 1`); the
            // scan self-limits at `capacity` as `push_batch`'s does. A
            // class read here may be a later lap's if another consumer
            // overtakes us, but then the CAS below fails and we rescan.
            let mut n = 0usize;
            let mut class = SOLO;
            while n < k {
                let slot = &self.buf[(pos + n) & self.mask];
                if slot.seq.load(Ordering::Acquire) != pos + n + 1 {
                    break;
                }
                let c = slot.class.load(Ordering::Relaxed);
                if n == 0 {
                    class = c;
                } else if class == SOLO || c != class {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                let seq = self.buf[pos & self.mask].seq.load(Ordering::Acquire);
                if (seq as isize) < (pos + 1) as isize {
                    // The head slot holds nothing published: empty.
                    return 0;
                }
                // Another consumer claimed `pos` between loads; retry.
                continue;
            }
            if self
                .dequeue_pos
                .compare_exchange_weak(pos, pos + n, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            // Slots [pos, pos + n) are ours: take each value and free its
            // slot for the producer one lap ahead.
            for i in 0..n {
                let slot = &self.buf[(pos + i) & self.mask];
                // SAFETY: the scan saw this slot published for position
                // `pos + i` and the CAS made us its only consumer, so it
                // holds an initialised value nobody else reads or writes
                // until the `seq` store below frees it.
                out.push(unsafe { (*slot.val.get()).assume_init_read() });
                slot.seq.store(pos + i + self.mask + 1, Ordering::Release);
            }
            return n;
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain remaining values so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cursor_padding_layout() {
        use std::mem::{align_of, size_of};
        // The producer and consumer cursors must sit on distinct
        // 64-byte cache lines; checked here rather than assumed so a
        // change to the local CachePadded cannot silently reintroduce
        // false sharing between `enqueue_pos` and `dequeue_pos`.
        assert_eq!(align_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(size_of::<CachePadded<AtomicUsize>>(), 64);
        assert!(size_of::<Ring<u64>>() >= 2 * 64, "cursors share a line");
    }

    /// A producer that has claimed a slot but not yet published its value
    /// adds nothing to `len`: the count is what pops can take now, so a
    /// wait on it never wakes for a value `pop` cannot return yet.
    #[test]
    fn len_counts_only_published_values() {
        use std::sync::atomic::AtomicBool;
        const HELD: u32 = 99;
        static CLAIMED: AtomicBool = AtomicBool::new(false);
        static RELEASE: AtomicBool = AtomicBool::new(false);
        // Called between a push's claim and its publish: holds `HELD`'s
        // producer there until the test releases it.
        fn class_of(v: &u32) -> u8 {
            if *v == HELD {
                CLAIMED.store(true, Ordering::SeqCst);
                while !RELEASE.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            1
        }
        let r = Arc::new(Ring::with_classes(8, class_of));
        r.push(1).unwrap();
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || r.push(HELD).unwrap())
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !CLAIMED.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "producer never claimed"
            );
            std::thread::yield_now();
        }
        assert_eq!(r.len(), 1, "the claimed slot is not counted");
        assert_eq!(r.pop(), Some(1));
        assert_eq!((r.len(), r.pop()), (0, None));
        assert!(r.is_empty());
        RELEASE.store(true, Ordering::SeqCst);
        producer.join().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop(), Some(HELD));
        assert!(r.is_empty());
    }

    #[test]
    fn fifo_order_single_thread() {
        let r = Ring::new(8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert!(r.push(99).is_err());
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<u8>::new(5).capacity(), 8);
        assert_eq!(Ring::<u8>::new(0).capacity(), 2);
        assert_eq!(Ring::<u8>::new(64).capacity(), 64);
    }

    #[test]
    fn full_returns_value() {
        let r = Ring::new(2);
        r.push("a").unwrap();
        r.push("b").unwrap();
        let RingFull(v) = r.push("c").unwrap_err();
        assert_eq!(v, "c");
        // Space reappears after a pop.
        assert_eq!(r.pop(), Some("a"));
        r.push("c").unwrap();
    }

    #[test]
    fn wraparound_many_laps() {
        let r = Ring::new(4);
        for i in 0..1000 {
            r.push(i).unwrap();
            assert_eq!(r.pop(), Some(i));
        }
    }

    #[test]
    fn drop_runs_destructors() {
        let counter = Arc::new(());
        let r = Ring::new(8);
        for _ in 0..5 {
            r.push(Arc::clone(&counter)).unwrap();
        }
        assert_eq!(Arc::strong_count(&counter), 6);
        drop(r);
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn batch_push_preserves_fifo() {
        let r = Ring::new(8);
        let mut items: VecDeque<i32> = (0..6).collect();
        assert_eq!(r.push_batch(&mut items), 6);
        assert!(items.is_empty());
        for i in 0..6 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn batch_partial_accept_on_nearly_full_ring() {
        let r = Ring::new(4);
        r.push(100).unwrap();
        r.push(101).unwrap();
        let mut items: VecDeque<i32> = (0..5).collect();
        // Only 2 free slots: the batch accepts exactly those.
        assert_eq!(r.push_batch(&mut items), 2);
        assert_eq!(items, VecDeque::from(vec![2, 3, 4]));
        // Full ring accepts nothing; leftovers stay put.
        assert_eq!(r.push_batch(&mut items), 0);
        assert_eq!(items.len(), 3);
        assert_eq!(r.pop(), Some(100));
        assert_eq!(r.pop(), Some(101));
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn batch_push_empty_is_noop() {
        let r: Ring<u8> = Ring::new(4);
        let mut items = VecDeque::new();
        assert_eq!(r.push_batch(&mut items), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn batch_push_across_wraparound() {
        let r = Ring::new(4);
        // Advance the cursors so the batch straddles the wrap point.
        for lap in 0..7 {
            r.push(lap).unwrap();
            assert_eq!(r.pop(), Some(lap));
        }
        let mut items: VecDeque<i32> = (0..4).collect();
        assert_eq!(r.push_batch(&mut items), 4);
        for i in 0..4 {
            assert_eq!(r.pop(), Some(i));
        }
    }

    #[test]
    fn batch_and_single_producers_interleave() {
        let r = Arc::new(Ring::new(32));
        let total: u64 = 3 * 8_000;
        let mut handles = Vec::new();
        // Two batch producers and one single-push producer race.
        for p in 0..2u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut batch: VecDeque<u64> = VecDeque::new();
                for chunk in 0..1_000u64 {
                    for i in 0..8 {
                        batch.push_back(p << 32 | (chunk * 8 + i));
                    }
                    while !batch.is_empty() {
                        if r.push_batch(&mut batch) == 0 {
                            std::thread::yield_now();
                        }
                    }
                }
            }));
        }
        {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..8_000u64 {
                    let mut item = 2u64 << 32 | i;
                    loop {
                        match r.push(item) {
                            Ok(()) => break,
                            Err(RingFull(back)) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut chandles = Vec::new();
        for _ in 0..2 {
            let r = Arc::clone(&r);
            let sum = Arc::clone(&sum);
            let popped = Arc::clone(&popped);
            chandles.push(std::thread::spawn(move || {
                while popped.load(Ordering::Relaxed) < total as usize {
                    if let Some(v) = r.pop() {
                        sum.fetch_add((v & 0xffff_ffff) as usize, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for h in chandles {
            h.join().unwrap();
        }
        let expect: usize = 3 * (0..8_000u64).sum::<u64>() as usize;
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn pop_batch_takes_a_run_in_fifo_order() {
        let r = Ring::new(8);
        for i in 0..6 {
            r.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(4, &mut out), 4);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(r.pop_batch(4, &mut out), 2, "k larger than what is ready");
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
        assert_eq!(r.pop_batch(4, &mut out), 0, "empty");
        assert_eq!(r.pop_batch(0, &mut out), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn pop_batch_stops_at_a_class_change_and_solo_travels_alone() {
        // Class = the tens digit; 0..10 are SOLO.
        let r: Ring<u32> = Ring::with_classes(16, |v| (*v / 10) as u8);
        for v in [11, 12, 13, 21, 22, 3, 4, 14] {
            r.push(v).unwrap();
        }
        let mut out = Vec::new();
        let mut runs = Vec::new();
        while r.pop_batch(16, &mut out) > 0 {
            runs.push(std::mem::take(&mut out));
        }
        assert_eq!(
            runs,
            [vec![11, 12, 13], vec![21, 22], vec![3], vec![4], vec![14]]
        );
        // What is left after a popped run keeps its place for `pop`.
        r.push(15).unwrap();
        r.push(23).unwrap();
        assert_eq!(r.pop_batch(16, &mut out), 1);
        assert_eq!(r.pop(), Some(23));
    }

    #[test]
    fn pop_batch_across_wraparound() {
        let r = Ring::new(4);
        for lap in 0..7 {
            r.push(lap).unwrap();
            assert_eq!(r.pop(), Some(lap));
        }
        // The run straddles the wrap point, and the freed slots take the
        // next lap's values.
        let mut items: VecDeque<i32> = (0..4).collect();
        assert_eq!(r.push_batch(&mut items), 4);
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(16, &mut out), 4);
        assert_eq!(out, [0, 1, 2, 3]);
        let mut items: VecDeque<i32> = (4..8).collect();
        assert_eq!(r.push_batch(&mut items), 4);
        assert_eq!(r.pop_batch(3, &mut out), 3);
        assert_eq!(r.pop_batch(3, &mut out), 1);
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn batch_consumers_race_without_loss_or_duplication() {
        let r = Arc::new(Ring::<u64>::with_classes(32, |v| (v % 3) as u8));
        let total = 30_000u64;
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..total {
                    let mut item = i;
                    while let Err(RingFull(back)) = r.push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            })
        };
        let popped = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let (r, popped) = (Arc::clone(&r), Arc::clone(&popped));
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let mut run = Vec::new();
                    while popped.load(Ordering::Relaxed) < total as usize {
                        let n = r.pop_batch(16, &mut run);
                        if n == 0 {
                            std::thread::yield_now();
                            continue;
                        }
                        let class = run[0] % 3;
                        assert!(run.iter().all(|v| v % 3 == class), "one class per run");
                        assert!(class != 0 || n == 1, "SOLO values travel alone");
                        assert!(run.windows(2).all(|w| w[0] < w[1]), "FIFO within a run");
                        popped.fetch_add(n, Ordering::Relaxed);
                        seen.append(&mut run);
                    }
                    seen
                })
            })
            .collect();
        producer.join().unwrap();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_stress() {
        let r = Arc::new(Ring::new(64));
        let producers = 4;
        let per_producer = 10_000u64;
        let consumers = 4;
        let total: u64 = producers as u64 * per_producer;
        let mut handles = Vec::new();
        for p in 0..producers {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    let v = (p as u64) << 32 | i;
                    let mut item = v;
                    loop {
                        match r.push(item) {
                            Ok(()) => break,
                            Err(RingFull(back)) => {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let popped = Arc::new(AtomicUsize::new(0));
        let mut chandles = Vec::new();
        for _ in 0..consumers {
            let r = Arc::clone(&r);
            let sum = Arc::clone(&sum);
            let popped = Arc::clone(&popped);
            chandles.push(std::thread::spawn(move || {
                while popped.load(Ordering::Relaxed) < total as usize {
                    if let Some(v) = r.pop() {
                        sum.fetch_add((v & 0xffff_ffff) as usize, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for h in chandles {
            h.join().unwrap();
        }
        let expect: usize = producers * (0..per_producer).sum::<u64>() as usize;
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }
}
