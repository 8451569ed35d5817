//! Cycle-based simulation building blocks.
//!
//! The units are modeled at transaction/cycle granularity: each keeps a
//! current cycle counter and advances hardware state with small fixed
//! structures of its own (the L3's set arrays and in-flight fill table,
//! the IFU's occupancy counter). The one shared primitive left is the
//! latency [`DelayLine`], which models the I/O unit's response queue.

/// A latency pipe: items become ready a fixed number of cycles after entry.
/// Models memory/response latency.
///
/// # Examples
///
/// ```
/// use ascdg_duv::kernel::DelayLine;
///
/// let mut d = DelayLine::new();
/// d.insert("resp", 10); // ready at cycle 10
/// assert!(d.drain_ready(9).is_empty());
/// assert_eq!(d.drain_ready(10), vec!["resp"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DelayLine<T> {
    /// `(ready_cycle, item)` pairs; kept unsorted, drained by scan (the
    /// queues here are tens of entries, not thousands).
    pending: Vec<(u64, T)>,
}

impl<T> DelayLine<T> {
    /// Creates an empty delay line.
    #[must_use]
    pub fn new() -> Self {
        DelayLine {
            pending: Vec::new(),
        }
    }

    /// Number of in-flight items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Inserts an item that becomes ready at `ready_cycle`.
    pub fn insert(&mut self, item: T, ready_cycle: u64) {
        self.pending.push((ready_cycle, item));
    }

    /// Removes and returns every item whose ready cycle is `<= now`.
    pub fn drain_ready(&mut self, now: u64) -> Vec<T> {
        let mut ready = Vec::new();
        self.drain_ready_with(now, |item| ready.push(item));
        ready
    }

    /// Like [`DelayLine::drain_ready`], but handing each ready item to a
    /// callback instead of allocating a `Vec` — the batched kernels' hot
    /// path. The scan order (and therefore the order items reach `f`) is
    /// exactly the `swap_remove` order of [`DelayLine::drain_ready`], so
    /// both entry points share this implementation. Where items are not
    /// interchangeable that order is model behaviour: the l3cache's
    /// in-flight fill table drains in it, and tests it against a
    /// `DelayLine`.
    pub fn drain_ready_with(&mut self, now: u64, mut f: impl FnMut(T)) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                f(self.pending.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }

    /// Removes every in-flight item (arena reuse between simulations).
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// The earliest ready cycle among in-flight items.
    #[must_use]
    pub fn next_ready(&self) -> Option<u64> {
        self.pending.iter().map(|&(c, _)| c).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_readiness() {
        let mut d = DelayLine::new();
        d.insert('a', 5);
        d.insert('b', 3);
        d.insert('c', 5);
        assert_eq!(d.next_ready(), Some(3));
        assert_eq!(d.drain_ready(2), Vec::<char>::new());
        assert_eq!(d.drain_ready(3), vec!['b']);
        let mut at5 = d.drain_ready(7);
        at5.sort_unstable();
        assert_eq!(at5, vec!['a', 'c']);
        assert!(d.is_empty());
        assert_eq!(d.next_ready(), None);
    }

    #[test]
    fn drain_ready_with_matches_drain_ready_order() {
        // Interleave ready/unready entries so the swap_remove scan takes a
        // non-trivial path; both drains must yield the same sequence.
        let entries = [(3u64, 'a'), (9, 'b'), (1, 'c'), (9, 'd'), (2, 'e')];
        let mut via_vec = DelayLine::new();
        let mut via_cb = DelayLine::new();
        for &(cycle, item) in &entries {
            via_vec.insert(item, cycle);
            via_cb.insert(item, cycle);
        }
        let drained = via_vec.drain_ready(5);
        let mut seen = Vec::new();
        via_cb.drain_ready_with(5, |item| seen.push(item));
        assert_eq!(drained, seen);
        assert_eq!(via_vec.len(), via_cb.len());
        via_cb.clear();
        assert!(via_cb.is_empty());
    }
}
