//! Per-sequence endpoint state sized by the window in flight, not the flow.
//!
//! A reliable endpoint keeps one small fact per packet sequence number:
//! acked or not, received or not, outstanding on which path. Sized up front
//! that is O(flow size) per connection — 600 KB for a 1 GiB NDP sender, of
//! which all but the few dozen packets in flight are either *settled*
//! (fed back and done with) or not yet touched. [`SeqWindow`] stores slots
//! for `[floor, high)` only:
//!
//! * everything **below `floor`** is settled and reads as the settled
//!   value; `floor` advances whenever the slot at `floor` settles, past
//!   the whole settled run behind it;
//! * everything **at or above `high`** has never been written and reads as
//!   the idle value; a write there grows the window (idle-filled) to reach
//!   it.
//!
//! So memory and every scan are O(in-flight window + reorder extent). The
//! slots live in one `Vec` addressed by `seq - floor + head`: a read or
//! write in the window is a bounds-checked slice index, advancing `floor`
//! only bumps `head`, and the dead prefix is reclaimed on the growth path
//! (never on the feedback path) once it is at least as long as the live
//! part — amortised O(1) a slot, and a flow no longer than the reservation
//! passed to [`SeqWindow::new`] allocates exactly once. Settling in order
//! with nothing pending (a receiver on a clean path) touches no slot at all.

/// Sliding per-sequence store; see the module docs for the floor rule.
#[derive(Clone, Debug)]
pub struct SeqWindow<T> {
    idle: T,
    settled: T,
    /// Lowest sequence not known settled.
    floor: u64,
    /// `slots[head..]` are the slots of `floor..high()`; `slots[..head]`
    /// is dead prefix awaiting reclaim.
    slots: Vec<T>,
    head: usize,
}

impl<T: Copy + PartialEq> SeqWindow<T> {
    /// An empty window at sequence 0 with room for `reserve` slots. `idle`
    /// is what an untouched sequence reads as, `settled` the value that
    /// lets `floor` advance past a slot.
    pub fn new(idle: T, settled: T, reserve: usize) -> SeqWindow<T> {
        SeqWindow {
            idle,
            settled,
            floor: 0,
            slots: Vec::with_capacity(reserve),
            head: 0,
        }
    }

    /// Lowest sequence not known settled.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// One past the highest sequence ever written (never below `floor`).
    pub fn high(&self) -> u64 {
        self.floor + self.len() as u64
    }

    /// Slots held, `high() - floor()`: the cost of a scan.
    pub fn len(&self) -> usize {
        self.slots.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, seq: u64) -> T {
        if seq < self.floor {
            return self.settled;
        }
        let i = self.head + (seq - self.floor) as usize;
        self.slots.get(i).copied().unwrap_or(self.idle)
    }

    /// Write `seq`'s slot, growing the window to reach it. Writing the
    /// settled value at `floor` advances `floor` over the settled run.
    ///
    /// # Panics
    /// If `seq` is below `floor`: a settled sequence has no slot to
    /// rewrite (callers read it back as settled and skip the write, as
    /// [`SeqWindow::settle`] does).
    #[inline]
    pub fn set(&mut self, seq: u64, v: T) {
        assert!(seq >= self.floor, "write to settled seq {seq}");
        let mut i = self.head + (seq - self.floor) as usize;
        if i >= self.slots.len() {
            if i == self.head && v == self.settled {
                // In order with nothing pending (the window is empty):
                // the floor moves and no slot is ever needed.
                self.floor += 1;
                return;
            }
            i = self.grow_to(i);
        }
        self.slots[i] = v;
        if i == self.head && v == self.settled {
            self.advance();
        }
    }

    /// Settle `seq`. False if it already was — a duplicate ACK or arrival
    /// — so a caller counting settled sequences counts each once.
    #[inline]
    pub fn settle(&mut self, seq: u64) -> bool {
        let new = self.get(seq) != self.settled;
        if new {
            self.set(seq, self.settled);
        }
        new
    }

    /// The window's slots in sequence order, from `floor`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        (self.floor..).zip(self.slots[self.head..].iter().copied())
    }

    /// Extend the store so index `i` exists; returns where that slot now
    /// sits (reclaiming the dead prefix shifts it).
    fn grow_to(&mut self, mut i: usize) -> usize {
        if i >= self.slots.capacity() && self.head >= self.len() {
            self.slots.drain(..self.head);
            i -= self.head;
            self.head = 0;
        }
        self.slots.resize(i + 1, self.idle);
        i
    }

    /// Move `floor` past the settled slot at `head` and the settled run
    /// behind it.
    #[inline]
    fn advance(&mut self) {
        loop {
            self.head += 1;
            self.floor += 1;
            if self.slots.get(self.head) != Some(&self.settled) {
                break;
            }
        }
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(reserve: usize) -> SeqWindow<bool> {
        SeqWindow::new(false, true, reserve)
    }

    #[test]
    fn floor_advances_over_the_settled_prefix_only() {
        let mut w = bits(4);
        w.set(1, true);
        w.set(2, true);
        assert_eq!((w.floor(), w.high(), w.len()), (0, 3, 3));
        // Settling seq 0 releases the whole run behind it.
        w.set(0, true);
        assert_eq!((w.floor(), w.high(), w.len()), (3, 3, 0));
        // A hole pins the floor however far the window runs ahead.
        w.set(5, true);
        w.set(9, true);
        assert_eq!((w.floor(), w.high(), w.len()), (3, 10, 7));
        w.set(3, true);
        w.set(4, true);
        assert_eq!(w.floor(), 6);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            vec![(6, false), (7, false), (8, false), (9, true)]
        );
    }

    #[test]
    fn out_of_window_reads_need_no_slot() {
        let mut w: SeqWindow<u32> = SeqWindow::new(u32::MAX, u32::MAX - 1, 0);
        for seq in 0..10 {
            w.set(seq, u32::MAX - 1);
        }
        w.set(12, 7);
        assert_eq!(w.floor(), 10);
        assert_eq!(w.get(3), u32::MAX - 1, "below floor reads settled");
        assert_eq!(w.get(11), u32::MAX, "an untouched gap slot reads idle");
        assert_eq!(w.get(12), 7);
        assert_eq!(w.get(13), u32::MAX, "at/above high reads idle");
        assert_eq!(w.get(u64::MAX), u32::MAX);
        assert_eq!(w.len(), 3, "reads never grow the window");
    }

    #[test]
    fn a_non_settled_write_at_the_floor_does_not_advance() {
        let mut w: SeqWindow<u32> = SeqWindow::new(u32::MAX, u32::MAX - 1, 0);
        w.set(0, 3);
        w.set(0, u32::MAX);
        assert_eq!((w.floor(), w.len()), (0, 1));
    }

    #[test]
    #[should_panic(expected = "write to settled seq 0")]
    fn writing_below_the_floor_is_a_bug() {
        let mut w = bits(0);
        w.set(0, true);
        w.set(0, false);
    }

    #[test]
    fn zero_and_one_packet_flows() {
        let w = bits(0);
        assert_eq!((w.floor(), w.high(), w.len()), (0, 0, 0));
        assert!(w.is_empty() && !w.get(0));
        assert_eq!(w.slots.capacity(), 0, "nothing reserved, nothing allocated");

        let mut w = bits(1);
        assert!(w.settle(0) && !w.settle(0), "a duplicate settles nothing");
        assert_eq!((w.floor(), w.high()), (1, 1));
        assert!(w.get(0) && !w.get(1));
        assert_eq!(w.slots.capacity(), 1, "the one reserved slot sufficed");
    }

    #[test]
    fn in_order_settling_needs_no_slots() {
        // A receiver with nothing missing: the floor just counts up.
        let mut w = bits(0);
        for seq in 0..1000 {
            assert!(w.settle(seq));
        }
        assert_eq!((w.floor(), w.len(), w.slots.capacity()), (1000, 0, 0));
    }

    #[test]
    fn a_flow_inside_its_reservation_never_reallocates() {
        let mut w = bits(30);
        let p = w.slots.as_ptr();
        // Whole window out, settled back to front, then front to back.
        for seq in (0..15).rev() {
            w.set(seq, true);
        }
        for seq in 15..30 {
            w.set(seq, false);
            w.set(seq, true);
        }
        assert_eq!(w.floor(), 30);
        assert_eq!((w.slots.as_ptr(), w.slots.capacity()), (p, 30));
    }

    #[test]
    fn a_long_flow_holds_a_window_not_a_history() {
        // 30 in flight, acked in order a million times over: the store
        // stays a small multiple of the window.
        let mut w = bits(30);
        for seq in 0..1_000_000u64 {
            w.set(seq + 30, false);
            w.set(seq, true);
            assert!(w.len() <= 31);
        }
        assert_eq!(w.floor(), 1_000_000);
        assert!(w.slots.capacity() <= 128, "cap {}", w.slots.capacity());
    }
}
