//! A deterministic discrete-event queue for the simulated clock.
//!
//! The asynchronous round engine (PR 5) schedules training completions and
//! upload arrivals as timed events instead of executing Procedures I–V in
//! lockstep. Determinism is the whole point: two runs of the same scenario
//! must pop the exact same events in the exact same order, on any machine
//! and under any sweep parallelism. The queue therefore orders events by
//! `(simulated time, insertion sequence)` — the sequence number breaks
//! time ties FIFO, so simultaneous events (for example two zero-delay
//! uploads) resolve in the order they were scheduled, never in allocator
//! or hash order.
//!
//! ## Due batches and looking ahead
//!
//! The round engine pops one event at a time. All events sharing the
//! earliest pending time form a *due batch*; [`EventQueue::pop_due_batch`]
//! drains it in one call, in pop order, for a caller that wants a whole
//! timestamp at once. Processing a drained batch left-to-right observes
//! exactly the one-at-a-time pop order: any event scheduled *while*
//! processing carries a larger `seq` and therefore sorts after the drained
//! batch, even at the same time. A popped event can go back via
//! [`EventQueue::reinsert`], which preserves its original `seq` and hence
//! its slot in the total order; that is how the engine's run-ahead looks
//! at the events queued behind the one it is about to handle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event popped from the queue: when it fires, its insertion sequence
/// number, and the scheduled payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<T> {
    /// Simulated time in seconds at which the event fires.
    pub time_s: f64,
    /// Insertion sequence number (unique per queue, monotonically
    /// increasing; ties on `time_s` pop in `seq` order).
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

/// A simulated time outside the finite, non-negative range: an event time
/// [`EventQueue::try_push`] refuses, or a time
/// [`SimClock::try_advance`](crate::SimClock::try_advance) refuses to
/// reach. The panicking [`EventQueue::push`] and `SimClock::advance` make
/// the same checks for call sites whose times are correct by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidEventTime {
    /// The offending time, as given.
    pub time_s: f64,
}

impl std::fmt::Display for InvalidEventTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a simulated time must be a finite, non-negative number of seconds (got {})",
            self.time_s
        )
    }
}

impl std::error::Error for InvalidEventTime {}

/// Heap entry with inverted ordering so the `BinaryHeap` max-heap pops the
/// earliest `(time, seq)` first.
struct Entry<T> {
    time_s: f64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn into_event(self) -> ScheduledEvent<T> {
        ScheduledEvent {
            time_s: self.time_s,
            seq: self.seq,
            payload: self.payload,
        }
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap's "largest" entry is the earliest event.
        // `total_cmp` is safe because `push` rejects non-finite times.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of timed events keyed by `(time_s, seq)`, so time ties
/// pop FIFO.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at simulated second `time_s` (must be finite
    /// and non-negative), returning its sequence number.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative time; use
    /// [`EventQueue::try_push`] to handle the rejection as a value.
    pub fn push(&mut self, time_s: f64, payload: T) -> u64 {
        match self.try_push(time_s, payload) {
            Ok(seq) => seq,
            Err(err) => panic!("{err}"),
        }
    }

    /// Schedules `payload` at simulated second `time_s`, returning its
    /// sequence number, or [`InvalidEventTime`] when the time is
    /// non-finite or negative (in which case nothing is scheduled).
    pub fn try_push(&mut self, time_s: f64, payload: T) -> Result<u64, InvalidEventTime> {
        if !(time_s.is_finite() && time_s >= 0.0) {
            return Err(InvalidEventTime { time_s });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time_s,
            seq,
            payload,
        });
        Ok(seq)
    }

    /// Puts a previously popped event back, preserving its sequence
    /// number — and therefore its exact slot in the pop order. Used to
    /// return events a caller popped only to look at, or batch members it
    /// chose not to process.
    pub fn reinsert(&mut self, event: ScheduledEvent<T>) {
        self.heap.push(Entry {
            time_s: event.time_s,
            seq: event.seq,
            payload: event.payload,
        });
    }

    /// Removes and returns the earliest pending event (ties broken by
    /// insertion order), or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop().map(Entry::into_event)
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time_s)
    }

    /// Removes *every* event scheduled at the earliest pending time and
    /// appends them to `out` in pop order (ascending `seq`), returning
    /// how many were drained.
    pub fn pop_due_batch(&mut self, out: &mut Vec<ScheduledEvent<T>>) -> usize {
        let Some(due) = self.peek_time() else {
            return 0;
        };
        let start = out.len();
        while let Some(head) = self.heap.peek() {
            if head.time_s.total_cmp(&due) != Ordering::Equal {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry pops");
            out.push(entry.into_event());
        }
        out.len() - start
    }

    /// Drops every pending event (the sequence counter keeps advancing so
    /// event identities stay unique across the run).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(1.0));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(1.5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_numbers_survive_clear() {
        let mut q = EventQueue::new();
        let first = q.push(1.0, ());
        q.clear();
        assert!(q.is_empty());
        let second = q.push(1.0, ());
        assert!(second > first, "event identities stay unique across clear");
    }

    #[test]
    #[should_panic(expected = "finite, non-negative")]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite, non-negative")]
    fn rejects_negative_times() {
        EventQueue::new().push(-0.5, ());
    }

    #[test]
    fn try_push_returns_typed_error_without_scheduling() {
        let mut q = EventQueue::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0e-9] {
            let err = q.try_push(bad, ()).unwrap_err();
            assert!(err.time_s.is_nan() || err.time_s == bad);
            assert!(err.to_string().contains("finite, non-negative"));
        }
        assert!(q.is_empty(), "rejected pushes schedule nothing");
        // Rejections burn no sequence numbers: the next accepted push is 0.
        assert_eq!(q.try_push(0.0, ()), Ok(0));
    }

    /// A pseudo-random scenario with heavy time collisions.
    fn collision_pushes(count: u64) -> Vec<(f64, u32)> {
        (0..count)
            .map(|i| {
                let t = ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 7) as f64 * 0.25;
                (t, i as u32)
            })
            .collect()
    }

    #[test]
    fn due_batch_drains_exactly_the_earliest_timestamp() {
        let mut q = EventQueue::new();
        for &(t, p) in &collision_pushes(64) {
            q.push(t, p);
        }
        let mut serial = EventQueue::new();
        for &(t, p) in &collision_pushes(64) {
            serial.push(t, p);
        }
        let mut batched = Vec::new();
        let mut out = Vec::new();
        while q.pop_due_batch(&mut out) > 0 {
            let due = out[0].time_s;
            assert!(
                out.iter().all(|e| e.time_s == due),
                "one timestamp per batch"
            );
            assert!(out.windows(2).all(|w| w[0].seq < w[1].seq), "seq-sorted");
            batched.append(&mut out);
        }
        let popped: Vec<ScheduledEvent<u32>> = std::iter::from_fn(|| serial.pop()).collect();
        assert_eq!(batched, popped);
    }

    #[test]
    fn reinsert_preserves_the_original_slot() {
        let mut q = EventQueue::new();
        for &(t, p) in &collision_pushes(32) {
            q.push(t, p);
        }
        let expected: Vec<(f64, u64)> = {
            let mut clone = EventQueue::new();
            for &(t, p) in &collision_pushes(32) {
                clone.push(t, p);
            }
            std::iter::from_fn(|| clone.pop().map(|e: ScheduledEvent<u32>| (e.time_s, e.seq)))
                .collect()
        };
        // Drain a due batch, put the tail back, and keep popping: the
        // global order must be unchanged.
        let mut out = Vec::new();
        q.pop_due_batch(&mut out);
        let mut order = Vec::new();
        for (index, event) in out.into_iter().enumerate() {
            if index < 2 {
                order.push((event.time_s, event.seq));
            } else {
                q.reinsert(event);
            }
        }
        while let Some(e) = q.pop() {
            order.push((e.time_s, e.seq));
        }
        assert_eq!(order, expected);
    }

    proptest! {
        /// Model-based: any interleaving of the queue's operations agrees,
        /// step by step, with a `Vec` kept sorted by `(time_s, seq)`.
        #[test]
        fn random_interleavings_match_a_sorted_vec_model(
            ops in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model: Vec<ScheduledEvent<u32>> = Vec::new();
            let mut next_seq = 0u64;
            let by_slot = |a: &ScheduledEvent<u32>, b: &ScheduledEvent<u32>| {
                a.time_s.total_cmp(&b.time_s).then(a.seq.cmp(&b.seq))
            };
            for op in ops {
                let arg = (op >> 8) as usize;
                match op % 32 {
                    // Five distinct times: collisions are the common case.
                    0..=17 => {
                        let time_s = (arg % 5) as f64 * 0.25;
                        prop_assert_eq!(q.push(time_s, arg as u32), next_seq);
                        model.push(ScheduledEvent { time_s, seq: next_seq, payload: arg as u32 });
                        model.sort_by(by_slot);
                        next_seq += 1;
                    }
                    18..=22 => {
                        let expected = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.pop(), expected);
                    }
                    23..=30 => {
                        let due = model.iter().take_while(|e| e.time_s == model[0].time_s).count();
                        let expected: Vec<_> = model.drain(..due).collect();
                        let mut out = Vec::new();
                        prop_assert_eq!(q.pop_due_batch(&mut out), due);
                        prop_assert_eq!(&out, &expected);
                        // Put an arbitrary suffix (possibly empty, possibly
                        // the whole batch) back.
                        for event in out.drain(arg % (due + 1)..) {
                            model.push(event.clone());
                            q.reinsert(event);
                        }
                        model.sort_by(by_slot);
                    }
                    _ => {
                        q.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.peek_time(), model.first().map(|e| e.time_s));
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(rest, model);
        }
    }
}
