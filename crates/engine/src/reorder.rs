//! A sequence-number reorder buffer.
//!
//! Parallel stages complete out of order; the stateful commit stages
//! (funnel counters, the detected-dox log) must observe items in stream
//! order or the run stops being a pure function of `(config, seed)`.
//! [`ReorderBuffer`] sits in front of each stateful consumer: items are
//! inserted under the sequence number the producer stamped at dispatch,
//! and [`pop_ready`](ReorderBuffer::pop_ready) releases them in exactly
//! `0, 1, 2, …` order, holding back anything that arrived early.

use std::collections::BTreeMap;

/// Releases out-of-order `(seq, item)` arrivals in sequence order.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting sequence number 0 first.
    pub fn new() -> Self {
        Self::with_next(0)
    }

    /// An empty buffer expecting `next` first — how a resumed session
    /// restores its sequence cursor (checkpoints are taken at a barrier,
    /// and items held past it are not part of them, so only the cursor
    /// needs to survive, never pending items).
    pub fn with_next(next: u64) -> Self {
        Self {
            next,
            pending: BTreeMap::new(),
        }
    }

    /// Insert an item under its sequence number.
    ///
    /// # Panics
    /// Panics if `seq` was already released or is already pending — either
    /// means a producer double-stamped a sequence number, which would
    /// silently corrupt the commit order if tolerated.
    pub fn push(&mut self, seq: u64, item: T) {
        assert!(seq >= self.next, "sequence {seq} already released");
        let clash = self.pending.insert(seq, item);
        assert!(clash.is_none(), "sequence {seq} inserted twice");
    }

    /// Remove and return the next in-order item, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// The sequence number the buffer is waiting for.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Items held back waiting for earlier sequence numbers.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_in_sequence_order() {
        let mut r = ReorderBuffer::new();
        r.push(2, "c");
        r.push(0, "a");
        assert_eq!(r.pop_ready(), Some("a"));
        assert_eq!(r.pop_ready(), None, "1 has not arrived");
        r.push(1, "b");
        assert_eq!(r.pop_ready(), Some("b"));
        assert_eq!(r.pop_ready(), Some("c"));
        assert!(r.is_drained());
        assert_eq!(r.next_seq(), 3);
    }

    #[test]
    fn restored_cursor_resumes_mid_sequence() {
        let mut r = ReorderBuffer::with_next(7);
        assert_eq!(r.next_seq(), 7);
        r.push(8, "b");
        assert_eq!(r.pop_ready(), None);
        r.push(7, "a");
        assert_eq!(r.pop_ready(), Some("a"));
        assert_eq!(r.pop_ready(), Some("b"));
    }

    #[test]
    fn tracks_pending_count() {
        let mut r = ReorderBuffer::new();
        r.push(5, ());
        r.push(3, ());
        assert_eq!(r.pending(), 2);
        assert!(!r.is_drained());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_sequence_panics() {
        let mut r = ReorderBuffer::new();
        r.push(1, ());
        r.push(1, ());
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn stale_sequence_panics() {
        let mut r = ReorderBuffer::new();
        r.push(0, ());
        r.pop_ready();
        r.push(0, ());
    }
}
