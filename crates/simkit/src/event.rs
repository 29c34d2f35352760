//! The event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant are delivered in the order they were
/// pushed (FIFO), which makes runs deterministic regardless of the payload
/// type — there is no reliance on `E: Ord`.
///
/// Beside the heap sits a FIFO lane for events a simulation schedules a
/// constant delay after the current time (a fixed RPC latency): their times
/// never decrease, so they arrive already sorted and [`push_lane`]
/// appends them without a heap sift. [`pop`] takes the earlier head of the
/// two by `(time, push order)`, so the delivery order is the same as if
/// every event went through the heap.
///
/// [`push_lane`]: EventQueue::push_lane
/// [`pop`]: EventQueue::pop
///
/// ```
/// use cbp_simkit::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push_lane(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sorted by `(time, seq)`: [`push_lane`](EventQueue::push_lane)
    /// appends only at or after the back's time, and `seq` only rises.
    lane: VecDeque<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lane: VecDeque::new(),
            seq: 0,
        }
    }

    fn entry(&mut self, time: SimTime, event: E) -> Entry<E> {
        let seq = self.seq;
        self.seq += 1;
        Entry { time, seq, event }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Schedules `event` to fire at `time` through the FIFO lane: meant for
    /// events pushed at the current time plus a constant, whose times never
    /// decrease. An event earlier than the lane's last one goes to the heap
    /// instead, so the delivery order never depends on the caller keeping
    /// to that.
    pub fn push_lane(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        if self.lane.back().is_none_or(|last| last.time <= time) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// True if the lane's head is the next event.
    fn lane_leads(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => (l.time, l.seq) < (h.time, h.seq),
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the next event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = if self.lane_leads() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        next.map(|e| (e.time, e.event))
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.time);
        let heap = self.heap.peek().map(|e| e.time);
        lane.into_iter().chain(heap).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The queue before the lane: every event through the heap.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn push(&mut self, time: SimTime, event: E) {
            self.heap.push(Entry {
                time,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A heap push at an arbitrary time.
        Push(u64),
        /// A lane push at the current time plus the case's delay.
        Lane,
        /// A lane push at an arbitrary time, which may break the lane order.
        LaneAny(u64),
        Pop,
        Peek,
        Len,
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Times in a handful of seconds, so many events share one; clears
        // are rare so that both the heap and the lane grow long.
        (0u8..100, 0u64..6).prop_map(|(pick, t)| match pick {
            0..=19 => Op::Push(t),
            20..=49 => Op::Lane,
            50..=57 => Op::LaneAny(t),
            58..=87 => Op::Pop,
            88..=92 => Op::Peek,
            93..=97 => Op::Len,
            _ => Op::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever mix of heap and lane pushes a caller makes, the queue
        /// delivers exactly what the heap-only queue delivers.
        #[test]
        fn lane_delivers_the_heap_order(
            ops in proptest::collection::vec(arb_op(), 1..200),
            delay in 0u64..3,
        ) {
            let mut q = EventQueue::new();
            let mut reference = HeapQueue { heap: BinaryHeap::new(), seq: 0 };
            let mut now = SimTime::ZERO;
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Push(t) | Op::LaneAny(t) => {
                        let time = SimTime::from_secs(t);
                        if matches!(op, Op::Push(_)) {
                            q.push(time, next_id);
                        } else {
                            q.push_lane(time, next_id);
                        }
                        reference.push(time, next_id);
                        next_id += 1;
                    }
                    Op::Lane => {
                        let time = now + crate::SimDuration::from_secs(delay);
                        q.push_lane(time, next_id);
                        reference.push(time, next_id);
                        next_id += 1;
                    }
                    Op::Pop => {
                        let got = q.pop();
                        prop_assert_eq!(got, reference.pop());
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                    Op::Peek => prop_assert_eq!(
                        q.peek_time(),
                        reference.heap.peek().map(|e| e.time)
                    ),
                    Op::Len => {
                        prop_assert_eq!(q.len(), reference.heap.len());
                        prop_assert_eq!(q.is_empty(), reference.heap.is_empty());
                    }
                    Op::Clear => {
                        q.clear();
                        reference.heap.clear();
                    }
                }
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), reference.pop());
            }
            prop_assert!(reference.pop().is_none());
        }
    }

    #[test]
    fn out_of_order_lane_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.push_lane(SimTime::from_secs(5), "a");
        q.push_lane(SimTime::from_secs(2), "b");
        q.push_lane(SimTime::from_secs(5), "c");
        assert_eq!(q.lane.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "a", "c"]);
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3u32);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "a");
        q.push(SimTime::from_secs(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_secs(7), "c");
        q.push(SimTime::from_secs(20), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }
}
